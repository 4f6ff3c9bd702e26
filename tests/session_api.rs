//! The unified `AnalysisSession`/`Query` entrypoint answers like the
//! reference slicers: for every slice kind, both engines, and every suite
//! benchmark, the Query path answers bit-for-bit identically to
//! `slice_from` (one-shot BFS) and `cs_slice` (hash-store tabulation);
//! governed queries return sound truncations of the full answers; and the
//! batched path is indistinguishable from the sequential one.

use thinslice::{Budget, Completeness, Engine, Query, QueryPolicy, RunCtx, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_pta::{ModRef, PtaConfig};

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

/// Up to `n` single-statement print seeds of the program.
fn print_seeds(program: &thinslice_ir::Program, n: usize) -> Vec<thinslice_ir::StmtRef> {
    program
        .all_stmts()
        .filter(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
        .take(n)
        .collect()
}

#[test]
fn ci_queries_match_the_reference_slicer_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        for seed in print_seeds(s.program(), 3) {
            // The reference BFS walks the growable graph the session froze.
            let nodes = s.ci_sdg().stmt_nodes_of(seed).to_vec();
            if nodes.is_empty() {
                continue;
            }
            for kind in KINDS {
                let reference = thinslice::slice_from(s.ci_sdg(), &nodes, kind);
                let got = s.query(&Query::new(vec![seed], kind, Engine::Ci));
                assert_eq!(got.engine, Engine::Ci);
                assert_eq!(got.kind, kind);
                assert!(got.completeness.is_complete());
                assert!(!got.degraded);
                // Bit-identical: same statements in the same BFS order,
                // same visited node set.
                assert_eq!(got.stmts, reference.stmts, "{}: {kind:?}", b.name);
                assert_eq!(got.nodes, reference.nodes, "{}: {kind:?}", b.name);
            }
        }
    }
}

#[test]
fn cs_queries_match_the_reference_tabulation_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        // The reference tabulation walks a heap-parameter graph built
        // outside the session, from the session's points-to result.
        let program = s.program().clone();
        let pta = s.pta();
        let cs_sdg = thinslice_sdg::build_cs(&program, pta, &ModRef::compute(&program, pta));
        for seed in print_seeds(&program, 2) {
            let nodes = cs_sdg.stmt_nodes_of(seed).to_vec();
            if nodes.is_empty() {
                continue;
            }
            for kind in KINDS {
                let reference = thinslice::cs_slice(&cs_sdg, &nodes, kind);
                let got = s.query(&Query::new(vec![seed], kind, Engine::Cs));
                assert_eq!(got.engine, Engine::Cs);
                assert!(got.completeness.is_complete());
                assert!(!got.degraded);
                assert_eq!(got.stmts, reference.stmts, "{}: {kind:?}", b.name);
                assert_eq!(got.nodes, reference.nodes, "{}: {kind:?}", b.name);
            }
        }
    }
}

#[test]
fn governed_queries_return_truncated_subsets_of_the_full_answer() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        let seeds = print_seeds(s.program(), 2);
        for seed in seeds {
            for (kind, engine) in [
                (SliceKind::Thin, Engine::Ci),
                (SliceKind::TraditionalData, Engine::Ci),
                (SliceKind::Thin, Engine::Cs),
            ] {
                let q = Query::new(vec![seed], kind, engine);
                let full = s.query(&q);
                if full.nodes.len() < 2 || full.stmts.len() < 2 {
                    continue;
                }
                // The warm tabulation memo makes later CS queries cheap, so
                // only a one-step quota reliably truncates them; the CI BFS
                // has no cross-query memo and truncates at half its visits.
                let quota = match engine {
                    Engine::Ci => full.nodes.len() as u64 / 2,
                    Engine::Cs => 1,
                };
                let policy = QueryPolicy {
                    budget: Some(Budget::unlimited().with_step_limit(quota)),
                    degrade: false,
                };
                let partial = s.query(&q.clone().with_policy(policy));
                assert!(
                    matches!(partial.completeness, Completeness::Truncated { .. }),
                    "{}: {kind:?}/{engine:?} gave {:?}",
                    b.name,
                    partial.completeness
                );
                assert!(!partial.stmts.is_empty(), "{}", b.name);
                assert!(
                    partial.stmts.is_subset(&full.stmts),
                    "{}: {kind:?}/{engine:?} truncated slice escaped the full slice",
                    b.name
                );
                if engine == Engine::Ci {
                    // The governed BFS walks in the same order, so the CI
                    // truncation is a *prefix* of the full answer.
                    assert_eq!(
                        partial.stmts.in_order(),
                        &full.stmts.in_order()[..partial.stmts.len()],
                        "{}: {kind:?} truncation is not a prefix",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn batched_queries_match_sequential_queries_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        // A mixed batch: every kind on both engines for every seed, plus a
        // step-budgeted CI query, so the batch path has to group by
        // (engine, kind, policy), run the governed group guarded, and
        // reassemble. CS queries stay unbudgeted: a memoising tabulation's
        // truncation point depends on which earlier queries warmed its
        // scratch.
        let steps = QueryPolicy {
            budget: Some(Budget::unlimited().with_step_limit(20)),
            ..QueryPolicy::default()
        };
        let mut queries = Vec::new();
        for seed in print_seeds(s.program(), 2) {
            for kind in KINDS {
                queries.push(Query::new(vec![seed], kind, Engine::Ci));
                queries.push(Query::new(vec![seed], kind, Engine::Cs));
                queries.push(Query::new(vec![seed], kind, Engine::Ci).with_policy(steps.clone()));
            }
        }
        let sequential: Vec<_> = queries.iter().map(|q| s.query(q)).collect();
        assert!(
            sequential.iter().any(|r| !r.completeness.is_complete()),
            "{}: the step budget must truncate some query",
            b.name
        );
        for threads in [1, 2, 4, 8] {
            let batched = s.query_batch(&queries, threads);
            assert_eq!(batched.len(), sequential.len());
            for (i, (got, want)) in batched.iter().zip(&sequential).enumerate() {
                let got = got.slice.as_ref().expect("no faults injected");
                assert_eq!(
                    got.stmts, want.stmts,
                    "{}: query {i} at {threads} threads",
                    b.name
                );
                assert_eq!(got.nodes, want.nodes, "{}: query {i}", b.name);
                assert_eq!(got.engine, want.engine, "{}: query {i}", b.name);
                assert_eq!(got.completeness, want.completeness, "{}: query {i}", b.name);
            }
        }
    }
}

#[test]
fn a_fresh_session_answers_like_a_warm_one() {
    // Cache invariant: memoised artifacts (scratch, tabulation exit memo)
    // never change answers — a session that has already answered other
    // queries agrees with a cold session on every later query.
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml exists");
    let mut warm = b.session(PtaConfig::default(), RunCtx::disabled());
    let seeds = print_seeds(warm.program(), 4);
    // Warm the session up on everything once.
    for &seed in &seeds {
        for engine in [Engine::Ci, Engine::Cs] {
            let _ = warm.query(&Query::new(vec![seed], SliceKind::Thin, engine));
        }
    }
    for &seed in &seeds {
        for engine in [Engine::Ci, Engine::Cs] {
            let q = Query::new(vec![seed], SliceKind::Thin, engine);
            let mut cold = b.session(PtaConfig::default(), RunCtx::disabled());
            let want = cold.query(&q);
            let got = warm.query(&q);
            assert_eq!(got.stmts, want.stmts);
            assert_eq!(got.nodes, want.nodes);
        }
    }
}
