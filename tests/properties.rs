//! Property-based tests over generated programs: structural invariants of
//! the whole pipeline that must hold for *any* MJ program the generator can
//! produce.

use thinslice::{AnalysisSession, Engine, Query, RunCtx, SliceKind, SliceResult};
use thinslice_ir::StmtRef;
use thinslice_pta::PtaConfig;
use thinslice_suite::{generate, GeneratorConfig};
use thinslice_util::SmallRng;

fn arb_config(rng: &mut SmallRng) -> GeneratorConfig {
    GeneratorConfig {
        node_classes: rng.range_usize(1, 6),
        passes: rng.range_usize(1, 3),
        container_chains: rng.range_usize(1, 5),
        call_depth: rng.range_usize(1, 4),
        seed: rng.next_u64() % 1000,
    }
}

fn session(src: &str, config: PtaConfig) -> AnalysisSession {
    AnalysisSession::with_ctx(&[("gen.mj", src)], config, RunCtx::disabled())
        .expect("generated program compiles")
}

/// The program's print statements, in program order.
fn prints(s: &AnalysisSession) -> Vec<StmtRef> {
    let program = s.program();
    program
        .all_stmts()
        .filter(|st| {
            matches!(
                program.instr(*st).kind,
                thinslice_ir::InstrKind::Print { .. }
            )
        })
        .collect()
}

fn ci_slice(s: &mut AnalysisSession, seed: StmtRef, kind: SliceKind) -> SliceResult {
    s.query(&Query::new(vec![seed], kind, Engine::Ci))
}

/// Every generated program compiles, analyses, and slices without
/// panicking; thin ⊆ data ⊆ full holds for every print seed.
#[test]
fn pipeline_invariants_on_generated_programs() {
    for case in 0..12u64 {
        let config = arb_config(&mut SmallRng::new(case));
        let src = generate(&config);
        let mut a = session(&src, PtaConfig::default());
        let seeds: Vec<_> = prints(&a)
            .into_iter()
            .filter(|s| !a.ci_sdg().stmt_nodes_of(*s).is_empty())
            .collect();
        assert!(!seeds.is_empty(), "generated programs always print");
        for seed in seeds {
            let thin = ci_slice(&mut a, seed, SliceKind::Thin);
            let data = ci_slice(&mut a, seed, SliceKind::TraditionalData);
            let full = ci_slice(&mut a, seed, SliceKind::TraditionalFull);
            assert!(thin.stmt_set().is_subset(&data.stmt_set()));
            assert!(data.stmt_set().is_subset(&full.stmt_set()));
            assert!(thin.contains(seed));
            // BFS order has no duplicates.
            let mut seen = std::collections::HashSet::new();
            for s in &thin.stmts {
                assert!(seen.insert(*s), "duplicate statement in BFS order");
            }
        }
    }
}

/// Slicing is deterministic: two runs over the same program produce the
/// same slices.
#[test]
fn slicing_is_deterministic() {
    for case in 0..8u64 {
        let seed = SmallRng::new(case).next_u64() % 500;
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let mut a1 = session(&src, PtaConfig::default());
        let mut a2 = session(&src, PtaConfig::default());
        let seed_stmt = prints(&a1)[0];
        let s1 = ci_slice(&mut a1, seed_stmt, SliceKind::Thin);
        let s2 = ci_slice(&mut a2, seed_stmt, SliceKind::Thin);
        assert_eq!(s1.stmts, s2.stmts);
    }
}

/// Object-sensitivity coarsening is monotone on generated programs.
#[test]
fn coarsening_is_monotone() {
    for case in 0..6u64 {
        let seed = SmallRng::new(case ^ 0xc0a5).next_u64() % 200;
        let config = GeneratorConfig {
            seed,
            container_chains: 3,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let mut precise = session(&src, PtaConfig::default());
        let mut coarse = session(&src, PtaConfig::without_object_sensitivity());
        let seed_stmt = prints(&precise)[0];
        if coarse.ci_sdg().stmt_nodes_of(seed_stmt).is_empty() {
            continue;
        }
        let p = ci_slice(&mut precise, seed_stmt, SliceKind::Thin).stmt_set();
        let c = ci_slice(&mut coarse, seed_stmt, SliceKind::Thin).stmt_set();
        assert!(p.is_subset(&c));
    }
}

/// The context-sensitive tabulation result is always a subset of the
/// context-insensitive reachability result, for every slice kind.
#[test]
fn tabulation_is_a_refinement() {
    for case in 0..8u64 {
        let seed = SmallRng::new(case ^ 0x7ab).next_u64() % 200;
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let mut a = session(&src, PtaConfig::default());
        let seed_stmt = prints(&a)[0];
        let sdg = a.ci_sdg();
        let nodes = sdg.stmt_nodes_of(seed_stmt).to_vec();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            // Tabulation vs reachability on the *same* graph: the session's
            // Cs engine answers from the heap-parameter graph instead, so
            // this refinement check runs the reference slicers directly.
            let ci = thinslice::slice_from(sdg, &nodes, kind);
            let cs = thinslice::cs_slice(sdg, &nodes, kind);
            assert!(cs.stmts.is_subset(&ci.stmts), "kind {kind:?}");
        }
    }
}
