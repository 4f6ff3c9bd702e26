//! The parallel batched query engine must be a pure performance feature:
//! for every slicer variant, every benchmark program and every thread
//! count, `AnalysisSession::query_batch` answers bit-for-bit like the
//! reference slicers (`slice_from`, `cs_slice`) run one query at a time.
//!
//! This holds by construction — every query, batched or not, runs through
//! one per-query function; workers share only immutable data (the frozen
//! CSR graph and its down-edge index); and per-worker scratch reuse clears
//! or memoises only query-independent facts — and this test pins the
//! construction down against the whole evaluation suite.

use thinslice::{
    cs_slice, slice_from, AnalysisSession, Engine, Query, RunCtx, SliceKind, SliceResult, StmtSet,
};
use thinslice_ir::{InstrKind, StmtRef};
use thinslice_pta::{ModRef, PtaConfig};
use thinslice_sdg::{build_cs, DepGraph, NodeId, Sdg};
use thinslice_util::FxHashSet;

const BFS_KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

/// Every print statement of the session's program that `graph` can slice
/// from.
fn print_seeds<G: DepGraph>(program: &thinslice_ir::Program, graph: &G) -> Vec<StmtRef> {
    program
        .all_stmts()
        .filter(|s| matches!(program.instr(*s).kind, InstrKind::Print { .. }))
        .filter(|s| !graph.stmt_nodes_of(*s).is_empty())
        .collect()
}

/// One query per seed, tiled to `n` queries when `n` is larger, so batches
/// can be made large enough that every worker's scratch serves repeated
/// queries (and its tabulation memo is hit).
fn queries(seeds: &[StmtRef], n: usize, kind: SliceKind, engine: Engine) -> Vec<Query> {
    seeds
        .iter()
        .cycle()
        .take(n.max(seeds.len()))
        .map(|&s| Query::new(vec![s], kind, engine))
        .collect()
}

fn batch(s: &mut AnalysisSession, queries: &[Query], threads: usize) -> Vec<SliceResult> {
    s.query_batch(queries, threads)
        .into_iter()
        .map(|o| o.slice.expect("no faults injected"))
        .collect()
}

/// The heap-parameter graph the reference tabulation walks (the paper's
/// §5.3 pairs tabulation with heap parameters), built outside the session
/// from the session's points-to result.
fn reference_cs_graph(s: &mut AnalysisSession) -> Sdg {
    let program = s.program().clone();
    let pta = s.pta();
    build_cs(&program, pta, &ModRef::compute(&program, pta))
}

/// Asserts that a batch of `qs` at `threads` answers every query exactly
/// like `reference` (statements in order, and visited nodes).
fn assert_matches_reference(
    s: &mut AnalysisSession,
    qs: &[Query],
    threads: usize,
    reference: impl Fn(&Query) -> (StmtSet, FxHashSet<NodeId>),
    what: &str,
) {
    let batched = batch(s, qs, threads);
    assert_eq!(batched.len(), qs.len());
    for (got, q) in batched.iter().zip(qs) {
        let (stmts, nodes) = reference(q);
        assert_eq!(got.stmts, stmts, "{what} at {threads} threads");
        assert_eq!(got.nodes, nodes, "{what} at {threads} threads");
    }
}

#[test]
fn batched_bfs_slices_match_sequential_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        let sdg = s.ci_sdg().clone();
        let seeds = print_seeds(s.program(), &sdg);
        assert!(!seeds.is_empty(), "{}: no print queries", b.name);
        for kind in BFS_KINDS {
            let qs = queries(&seeds, 0, kind, Engine::Ci);
            let reference = |q: &Query| {
                let r = slice_from(&sdg, sdg.stmt_nodes_of(q.seeds[0]), kind);
                (r.stmts, r.nodes)
            };
            for threads in [1, 2, 4, 8] {
                let what = format!("{}: {kind:?}", b.name);
                assert_matches_reference(&mut s, &qs, threads, reference, &what);
            }
        }
    }
}

#[test]
fn batched_tabulation_matches_sequential_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let mut s = b.session(PtaConfig::default(), RunCtx::disabled());
        let cs_sdg = reference_cs_graph(&mut s);
        let seeds = print_seeds(s.program(), &cs_sdg);
        assert!(!seeds.is_empty(), "{}: no print queries", b.name);
        let qs = queries(&seeds, 0, SliceKind::Thin, Engine::Cs);
        let reference = |q: &Query| {
            let r = cs_slice(&cs_sdg, cs_sdg.stmt_nodes_of(q.seeds[0]), SliceKind::Thin);
            (r.stmts, r.nodes)
        };
        for threads in [1, 2, 4, 8] {
            assert_matches_reference(&mut s, &qs, threads, reference, b.name);
        }
    }
}

#[test]
fn large_batches_match_sequential_through_every_fast_path() {
    // Tile queries so each of two workers answers many of them on one
    // scratch: repeated BFS queries on dirtied buffers and tabulation
    // queries that splice memoised callee regions, on both engines.
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml exists");
    let mut s = b.session(PtaConfig::default(), RunCtx::disabled());

    let sdg = s.ci_sdg().clone();
    let seeds = print_seeds(s.program(), &sdg);
    for kind in BFS_KINDS {
        let qs = queries(&seeds, 20, kind, Engine::Ci);
        let reference = |q: &Query| {
            let r = slice_from(&sdg, sdg.stmt_nodes_of(q.seeds[0]), kind);
            (r.stmts, r.nodes)
        };
        assert_matches_reference(&mut s, &qs, 2, reference, &format!("CI {kind:?}"));
    }

    let cs_sdg = reference_cs_graph(&mut s);
    let cs_seeds = print_seeds(s.program(), &cs_sdg);
    for kind in BFS_KINDS {
        let qs = queries(&cs_seeds, 20, kind, Engine::Cs);
        let reference = |q: &Query| {
            let r = cs_slice(&cs_sdg, cs_sdg.stmt_nodes_of(q.seeds[0]), kind);
            (r.stmts, r.nodes)
        };
        assert_matches_reference(&mut s, &qs, 2, reference, &format!("CS {kind:?}"));
    }
}
