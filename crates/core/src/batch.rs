//! Parallel batched slicing: N queries over one shared frozen graph.
//!
//! The paper's evaluation workload is query-heavy: one dependence graph,
//! many seeds (every task of Table 2/3 slices the same benchmark). This
//! module amortises everything that does not depend on the seed —
//! the CSR graph ([`FrozenSdg`]) with its cached down-edge index, and
//! per-worker scratch buffers ([`SliceScratch`], [`CsScratch`]) — and fans
//! the queries out across [`par::map_with`] workers over the shared
//! immutable graph.
//!
//! Every query, batched or not, is answered by one function, `answer`:
//! the context-insensitive BFS or the context-sensitive tabulation, then
//! the CS → CI degradation ladder. [`AnalysisSession::query`] calls it on
//! the session's scratch; each batch worker calls it on its own. Results
//! are returned in query order, and each result is identical to what
//! [`AnalysisSession::query`] produces, whatever the thread count: workers
//! share only immutable data, and each query's traversal is independent.
//!
//! A [`BatchConfig`] whose [`RunCtx`] is ungoverned (and that injects no
//! faults) runs each query directly — no `catch_unwind`, no meter arming
//! beyond one predictable branch per work item — while a governed config
//! wraps each query in per-query budgets and panic isolation with bounded
//! retry.
//!
//! # Examples
//!
//! ```
//! use thinslice::{AnalysisSession, Engine, Query, SliceKind};
//!
//! let mut session = AnalysisSession::new(&[(
//!     "t.mj",
//!     "class Main { static void main() {\nint x = 1;\nprint(x);\nprint(2);\n} }",
//! )])?;
//! let queries: Vec<Query> = [3, 4]
//!     .iter()
//!     .map(|&line| {
//!         let seeds = session.seed_at_line("t.mj", line).unwrap();
//!         Query::new(seeds, SliceKind::Thin, Engine::Ci)
//!     })
//!     .collect();
//! let batch = session.query_batch(&queries, 2);
//! assert_eq!(batch.len(), 2);
//! let first = batch[0].slice.as_ref().unwrap();
//! assert_eq!(first.stmts, session.query(&queries[0]).stmts);
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```
//!
//! [`AnalysisSession::query`]: crate::AnalysisSession::query

use crate::session::{Engine, SliceResult};
use crate::slice::{slice_dense, SliceKind, SliceScratch};
use crate::tabulation::{cs_reusing, CsScratch, MemoStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use thinslice_sdg::{DepGraph, FrozenSdg, NodeId};
use thinslice_util::{par, Budget, CancelToken, Completeness, FxHashSet, RunCtx, Telemetry};

/// Minimum queries a worker must stand to receive before it is worth
/// spawning: an OS thread costs tens of microseconds to start, which a
/// worker handed one or two microsecond-scale slices never earns back.
/// Clamping here (not in [`par`]) keeps the executor a pure mechanism
/// while every engine entry point shares the one cost model. Results are
/// unaffected — batches are bit-identical at every thread count.
const MIN_QUERIES_PER_WORKER: usize = 8;

/// `threads` clamped so each worker averages at least
/// [`MIN_QUERIES_PER_WORKER`] queries (and never below 1).
fn effective_threads(threads: usize, queries: usize) -> usize {
    threads.clamp(1, queries.div_ceil(MIN_QUERIES_PER_WORKER).max(1))
}

// ---- the one per-query path ----

/// Answers one query over `graph` under `budget`: the dense BFS for
/// [`Engine::Ci`], the scratch-reusing tabulation for [`Engine::Cs`].
///
/// A context-sensitive query that exhausts its budget is, with `degrade`,
/// re-answered by the context-insensitive slicer over the same graph under
/// a fresh meter and marked `degraded` — the paper's scalability ladder,
/// CS → CI → truncated. Without `degrade` the truncated CS prefix is
/// returned as-is.
///
/// `cs` memoises facts of the (graph, kind) pair, so a caller must keep
/// one per pair. With telemetry enabled, records the per-query memo
/// deltas, degradations and (for a limited budget) meter checks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer(
    graph: &FrozenSdg,
    seeds: &[NodeId],
    kind: SliceKind,
    engine: Engine,
    degrade: bool,
    budget: &Budget,
    bfs: &mut SliceScratch,
    cs: &mut CsScratch,
    tel: &Telemetry,
) -> SliceResult {
    let governed = !budget.is_unlimited();
    let mut meter = budget.meter();
    let mut checks = 0;
    let mut degraded = false;
    if engine == Engine::Cs {
        let before = tel.is_enabled().then(|| cs.memo_stats());
        let index = graph.down_consumers();
        let (slice, completeness) = cs_reusing(graph, index, seeds, kind, cs, &mut meter);
        if let Some(before) = before {
            record_memo(tel, cs.memo_stats().since(&before));
        }
        if completeness.is_complete() || !degrade {
            if governed {
                tel.count("govern.meter_checks", meter.slow_checks());
            }
            return SliceResult {
                engine: Engine::Cs,
                kind,
                stmts: slice.stmts,
                nodes: slice.nodes,
                completeness,
                degraded: false,
            };
        }
        checks = meter.slow_checks();
        meter = budget.meter();
        degraded = true;
        tel.count("govern.degraded_queries", 1);
    }
    let (slice, completeness) = slice_dense(graph, seeds, kind, bfs, &mut meter);
    if governed {
        tel.count("govern.meter_checks", checks + meter.slow_checks());
    }
    SliceResult {
        engine: Engine::Ci,
        kind,
        stmts: slice.stmts,
        nodes: slice.nodes,
        completeness,
        degraded,
    }
}

/// Post-hoc traversal accounting: the BFS scans every out-edge of every
/// node it visits, so summing CSR degrees over the visited set reproduces
/// the edges-visited figure without touching the hot loop.
fn record_traversal(tel: &Telemetry, graph: &FrozenSdg, nodes: &FxHashSet<NodeId>, took: Duration) {
    tel.record("batch.query_us", took.as_secs_f64() * 1e6);
    tel.count("slice.nodes_visited", nodes.len() as u64);
    tel.count(
        "slice.csr_edges_visited",
        // Result nodes are external ids; degrees live on the internal CSR.
        nodes
            .iter()
            .map(|&n| graph.deps(graph.to_internal(n)).len() as u64)
            .sum(),
    );
}

fn record_memo(tel: &Telemetry, delta: MemoStats) {
    tel.count("cs.exit_memo_hits", delta.exit_hits);
    tel.count("cs.exit_memo_misses", delta.exit_misses);
    tel.count("cs.summary_edges", delta.summary_edges);
}

// ---- batch configuration, panic isolation and governance reporting ----

/// Deterministic fault injection for robustness tests: query `query`
/// panics on its first `attempts` attempts (so `attempts <= retries`
/// exercises recovery, `attempts > retries` exercises a hard failure).
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Index of the query whose worker panics.
    pub query: usize,
    /// How many of its attempts panic before it would succeed.
    pub attempts: u32,
}

/// Configuration for a batch run.
///
/// The default is the zero-overhead fast path: an ungoverned
/// [`RunCtx`], no fault injection, no fail-fast. Any governed feature
/// (a limited budget in the context, fault injection, fail-fast) routes
/// the batch through the guarded engine instead — per-query budgets,
/// `catch_unwind` panic isolation, bounded retry.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Shared run context: the telemetry sink for per-query latency /
    /// retry metrics and budget-exhaustion events, plus the per-query
    /// resource budget (deadline measured per attempt).
    pub ctx: RunCtx,
    /// Cancel the remaining queries after the first hard query failure.
    pub fail_fast: bool,
    /// How many times a panicked query is retried on fresh scratch.
    pub retries: u32,
    /// Test-only deterministic fault injection.
    pub fault: Option<FaultInjection>,
    /// Whether a context-sensitive query that exhausts its budget is
    /// re-answered by the cheaper context-insensitive slicer (the
    /// paper's scalability ladder). `false` returns the truncated CS
    /// prefix as-is.
    pub degrade: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            ctx: RunCtx::disabled(),
            fail_fast: false,
            retries: 1,
            fault: None,
            degrade: true,
        }
    }
}

impl BatchConfig {
    /// Whether this config needs the guarded engine (budgets, panic
    /// isolation, cancellation) rather than the zero-overhead fast path.
    pub(crate) fn needs_guarded(&self) -> bool {
        self.ctx.is_governed() || self.fault.is_some() || self.fail_fast
    }
}

/// A hard per-query failure (distinct from a truncated-but-sound result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The worker panicked on every allowed attempt.
    Panicked {
        /// The final panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Panicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One query's outcome in a batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The slice, or the hard error that survived all retries.
    pub slice: Result<SliceResult, QueryError>,
    /// Wall-clock time spent on this query (all attempts). Zero on the
    /// ungoverned fast path with telemetry disabled — per-query clock
    /// reads are part of what "zero overhead" means there.
    pub latency: Duration,
    /// How many retries ran (0 = first attempt sufficed).
    pub retries: u32,
}

impl QueryOutcome {
    /// Whether the query produced a complete, non-degraded slice.
    pub fn is_clean(&self) -> bool {
        matches!(
            &self.slice,
            Ok(s) if s.completeness.is_complete() && !s.degraded
        )
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one query's attempts under `catch_unwind`: a panic poisons only
/// this worker's scratch (replaced fresh), is retried up to `cfg.retries`
/// times, and on final failure optionally cancels the rest of the batch.
fn run_guarded<S>(
    i: usize,
    cfg: &BatchConfig,
    cancel: &CancelToken,
    scratch: &mut S,
    fresh: impl Fn() -> S,
    attempt: impl Fn(&mut S) -> SliceResult,
) -> QueryOutcome {
    let start = Instant::now();
    let mut attempts_used = 0u32;
    loop {
        let inject = cfg
            .fault
            .as_ref()
            .is_some_and(|f| f.query == i && attempts_used < f.attempts);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected worker fault (query {i})");
            }
            attempt(scratch)
        }));
        match outcome {
            Ok(slice) => {
                return QueryOutcome {
                    slice: Ok(slice),
                    latency: start.elapsed(),
                    retries: attempts_used,
                }
            }
            Err(payload) => {
                // The unwound attempt may have left the scratch mid-update;
                // replace it so the retry (and the worker's later queries)
                // start from known-good state.
                *scratch = fresh();
                if attempts_used < cfg.retries {
                    attempts_used += 1;
                    continue;
                }
                if cfg.fail_fast {
                    cancel.cancel();
                }
                return QueryOutcome {
                    slice: Err(QueryError::Panicked {
                        message: panic_message(payload.as_ref()),
                    }),
                    latency: start.elapsed(),
                    retries: attempts_used,
                };
            }
        }
    }
}

/// The effective budget and cancel token for a governed batch: fail-fast
/// needs a shared token, so one is created unless the caller provided one.
fn armed_budget(cfg: &BatchConfig) -> (Budget, CancelToken) {
    let cancel = cfg.ctx.budget().cancel_token().cloned().unwrap_or_default();
    let budget = cfg.ctx.budget().clone().with_cancel(cancel.clone());
    (budget, cancel)
}

/// Records one governed query's outcome: latency, retries, failures, and —
/// when the budget ran out — a `govern.budget_exhausted` event carrying the
/// stage, the reason and the abandoned-frontier size.
fn record_governed(tel: &Telemetry, stage: &str, out: &QueryOutcome) {
    if !tel.is_enabled() {
        return;
    }
    tel.record("batch.query_us", out.latency.as_secs_f64() * 1e6);
    tel.count("batch.retries", out.retries as u64);
    match &out.slice {
        Err(e) => {
            tel.count("batch.query_failures", 1);
            tel.event(
                "batch.query_failed",
                &[("stage", stage.to_string()), ("error", e.to_string())],
            );
        }
        Ok(s) => {
            tel.count("slice.nodes_visited", s.nodes.len() as u64);
            if let Completeness::Truncated { reason, frontier } = &s.completeness {
                tel.count("govern.budget_exhaustions", 1);
                tel.event(
                    "govern.budget_exhausted",
                    &[
                        ("stage", stage.to_string()),
                        ("reason", reason.to_string()),
                        ("frontier", frontier.to_string()),
                    ],
                );
            }
        }
    }
}

/// The one batch entrypoint: answers every query through [`answer`] on
/// per-worker scratch, inside [`run_guarded`] when the config needs
/// isolation.
pub(crate) fn run_batch(
    graph: &FrozenSdg,
    queries: &[Vec<NodeId>],
    kind: SliceKind,
    engine: Engine,
    threads: usize,
    cfg: &BatchConfig,
) -> Vec<QueryOutcome> {
    let tel = cfg.ctx.telemetry();
    let guarded = cfg.needs_guarded();
    let (budget, cancel) = if guarded {
        armed_budget(cfg)
    } else {
        (cfg.ctx.budget().clone(), CancelToken::default())
    };
    let (span_name, stage) = match (guarded, engine) {
        (false, Engine::Ci) => ("batch.slices", "slice"),
        (false, Engine::Cs) => ("batch.cs_slices", "cs_slice"),
        (true, Engine::Ci) => ("batch.governed_slices", "slice"),
        (true, Engine::Cs) => ("batch.governed_cs_slices", "cs_slice"),
    };
    let mut span = tel.span(span_name);
    span.add("batch.queries", queries.len() as u64);
    let threads = effective_threads(threads, queries.len());
    let fresh = || (SliceScratch::new(), CsScratch::new());
    par::map_with(queries, threads, fresh, |scratch, i, seeds| {
        let attempt = |(bfs, cs): &mut (SliceScratch, CsScratch)| {
            answer(
                graph,
                seeds,
                kind,
                engine,
                cfg.degrade,
                &budget,
                bfs,
                cs,
                tel,
            )
        };
        if guarded {
            let out = run_guarded(i, cfg, &cancel, scratch, fresh, attempt);
            record_governed(tel, stage, &out);
            return out;
        }
        let started = tel.is_enabled().then(Instant::now);
        let slice = attempt(scratch);
        let latency = started.map_or(Duration::ZERO, |t| t.elapsed());
        if started.is_some() {
            record_traversal(tel, graph, &slice.nodes, latency);
        }
        QueryOutcome {
            slice: Ok(slice),
            latency,
            retries: 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::Slice;
    use crate::tabulation::CsSlice;
    use crate::{cs_slice, slice_from};
    use thinslice_ir::{compile, InstrKind};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::{build_ci, Sdg};

    /// A small program's CI graph, growable (for the reference slicers)
    /// and frozen (for the batch engine), plus one node-level query per
    /// reachable print.
    fn setup() -> (Sdg, FrozenSdg, Vec<Vec<NodeId>>) {
        let p = compile(&[(
            "t.mj",
            "class Box { Object item;
                void fill(Object o) { this.item = o; }
                Object take() { return this.item; }
             }
             class Main { static void main() {
                Box b = new Box();
                String s = \"deep\";
                b.fill(s);
                Object got = b.take();
                print(got);
                int x = 3;
                int y = x + 4;
                print(y);
             } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        let csr = sdg.freeze();
        let queries = p
            .all_stmts()
            .filter(|s| matches!(p.instr(*s).kind, InstrKind::Print { .. }))
            .map(|s| csr.stmt_nodes_of(s).to_vec())
            .filter(|nodes| !nodes.is_empty())
            .collect();
        (sdg, csr, queries)
    }

    /// An ungoverned batch's slices, unwrapped.
    fn plain(
        csr: &FrozenSdg,
        queries: &[Vec<NodeId>],
        kind: SliceKind,
        engine: Engine,
        threads: usize,
    ) -> Vec<SliceResult> {
        run_batch(csr, queries, kind, engine, threads, &BatchConfig::default())
            .into_iter()
            .map(|o| o.slice.expect("no faults injected"))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_kind_and_thread_count() {
        let (sdg, csr, queries) = setup();
        assert!(queries.len() >= 2);
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let sequential: Vec<Slice> =
                queries.iter().map(|q| slice_from(&sdg, q, kind)).collect();
            for threads in [1, 2, 4, 8] {
                let batched = plain(&csr, &queries, kind, Engine::Ci, threads);
                assert_eq!(batched.len(), sequential.len());
                for (b, s) in batched.iter().zip(&sequential) {
                    assert_eq!(b.stmts, s.stmts, "{kind:?}/{threads}");
                    assert_eq!(b.nodes, s.nodes);
                }
            }
        }
    }

    #[test]
    fn batch_cs_matches_sequential() {
        let (sdg, csr, queries) = setup();
        let sequential: Vec<CsSlice> = queries
            .iter()
            .map(|q| cs_slice(&sdg, q, SliceKind::Thin))
            .collect();
        for threads in [1, 2, 4, 8] {
            let batched = plain(&csr, &queries, SliceKind::Thin, Engine::Cs, threads);
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.stmts, s.stmts, "threads={threads}");
                assert_eq!(b.nodes, s.nodes);
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_queries() {
        // Same query twice in one batch on one thread: the second run uses
        // a dirtied scratch and must still match.
        let (_, csr, q) = setup();
        let twice: Vec<Vec<NodeId>> = vec![q[0].clone(), q[1].clone(), q[0].clone()];
        let out = plain(&csr, &twice, SliceKind::TraditionalFull, Engine::Ci, 1);
        assert_eq!(out[0].stmts, out[2].stmts);
        assert_eq!(out[0].nodes, out[2].nodes);
    }

    #[test]
    fn cs_exit_memoisation_does_not_change_results() {
        // Many repeats of the same queries on one thread: from the second
        // query on, every callee-exit region comes from the scratch's
        // memo (spliced) rather than fresh tabulation, and each result
        // must still match a from-scratch sequential run.
        let (sdg, csr, q) = setup();
        let tiled: Vec<Vec<NodeId>> = q.iter().cycle().take(3 * q.len()).cloned().collect();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let batched = plain(&csr, &tiled, kind, Engine::Cs, 1);
            for (b, seeds) in batched.iter().zip(&tiled) {
                let s = cs_slice(&sdg, seeds, kind);
                assert_eq!(b.stmts, s.stmts, "{kind:?}");
                assert_eq!(b.nodes, s.nodes);
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_query() {
        let (_, csr, _) = setup();
        let none: &[Vec<NodeId>] = &[];
        assert!(plain(&csr, none, SliceKind::Thin, Engine::Ci, 4).is_empty());
        let out = plain(&csr, &[Vec::new()], SliceKind::Thin, Engine::Ci, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn run_batch_fast_path_matches_guarded_path() {
        // The same queries through both halves of the dispatcher must
        // agree on statements and nodes (the guarded path merely adds
        // isolation, never changes a traversal).
        let (_, csr, queries) = setup();
        let plain_cfg = BatchConfig::default();
        let guarded_cfg = BatchConfig {
            ctx: RunCtx::disabled().with_budget(Budget::unlimited().with_step_limit(u64::MAX)),
            ..BatchConfig::default()
        };
        for engine in [Engine::Ci, Engine::Cs] {
            let fast = run_batch(&csr, &queries, SliceKind::Thin, engine, 1, &plain_cfg);
            let slow = run_batch(&csr, &queries, SliceKind::Thin, engine, 1, &guarded_cfg);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                let (f, s) = (f.slice.as_ref().unwrap(), s.slice.as_ref().unwrap());
                assert_eq!(f.stmts, s.stmts, "{engine:?}");
                assert_eq!(f.nodes, s.nodes);
                assert!(f.completeness.is_complete() && s.completeness.is_complete());
                assert!(!f.degraded && !s.degraded);
            }
        }
    }
}
