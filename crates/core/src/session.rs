//! The unified query session: one object, one entrypoint, every slicer.
//! [`AnalysisSession`] is the only way to slice:
//!
//! * it owns the pipeline's stage artifacts (compiled program → points-to
//!   → dependence graph → frozen CSR → down-edge index → tabulation memo)
//!   and builds each **lazily, once** — a session that only ever answers
//!   context-insensitive queries never pays for the context-sensitive
//!   graph, and repeated queries reuse warm scratch and memo state;
//! * one [`RunCtx`] (telemetry + budget) threads through every stage, so
//!   a traced or governed session needs no `_telemetry` / `_governed`
//!   twin calls;
//! * one request shape, [`Query`] — seeds, slice kind, engine, policy —
//!   answered by [`AnalysisSession::query`] with one result shape,
//!   [`SliceResult`].
//!
//! Cache invariants: stage artifacts are immutable once built (the MJ
//! program never changes under a session; [`AnalysisSession::update`]
//! replaces the whole session), so memoisation is pure — a
//! warm query returns exactly what a cold one would. The tabulation memo
//! is keyed per slice kind because summary edges depend on which edges a
//! kind follows; the CS scratch for one kind is never consulted for
//! another.
//!
//! # Examples
//!
//! ```
//! use thinslice::{AnalysisSession, Engine, Query, SliceKind};
//!
//! let mut session = AnalysisSession::new(&[(
//!     "t.mj",
//!     "class Main { static void main() {\nint x = 1;\nprint(x);\n} }",
//! )])?;
//! let seeds = session.seed_at_line("t.mj", 3).unwrap();
//! let thin = session.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
//! assert!(thin.completeness.is_complete());
//! assert!(!thin.stmts.is_empty());
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```

use crate::batch::{answer, run_batch, BatchConfig, FaultInjection, QueryOutcome};
use crate::slice::{SliceKind, SliceScratch};
use crate::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::stmtset::StmtSet;
use crate::tabulation::{CsScratch, MemoStats};
use crate::BuildReport;
use thinslice_ir::{compile_ctx, CompileError, Program, StmtRef};
use thinslice_pta::{ModRef, Pta, PtaConfig};
use thinslice_sdg::{build_ci_cached, build_cs_cached, DepGraph, FrozenSdg, NodeId, Sdg, SdgCache};
use thinslice_util::{
    Budget, ByteReader, ByteWriter, CodecError, Completeness, FxHashSet, RunCtx, SnapshotReader,
    SnapshotWriter,
};

/// Which slicing engine answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Context-insensitive reachability (BFS over the CI dependence
    /// graph): cheap, may follow unrealisable call/return paths.
    Ci,
    /// Context-sensitive tabulation (demand-driven RHS summaries over the
    /// heap-parameter graph): precise across calls, more expensive.
    Cs,
}

/// Per-query execution policy: optional budget and degradation choice.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPolicy {
    /// Resource budget for this query; `None` inherits the session
    /// context's budget (unlimited for a disabled context).
    pub budget: Option<Budget>,
    /// Whether a context-sensitive query that exhausts its budget is
    /// re-answered by the context-insensitive engine over the same graph
    /// (the scalability ladder CS → CI → truncated).
    pub degrade: bool,
}

impl Default for QueryPolicy {
    fn default() -> Self {
        QueryPolicy {
            budget: None,
            degrade: true,
        }
    }
}

/// One slicing request: what to slice from, which dependence relation to
/// follow, which engine answers, and under what policy.
#[derive(Debug, Clone)]
pub struct Query {
    /// Seed statements (all IR statements of the seed line, typically).
    pub seeds: Vec<StmtRef>,
    /// The dependence relation to follow.
    pub kind: SliceKind,
    /// The engine that answers.
    pub engine: Engine,
    /// Budget and degradation policy.
    pub policy: QueryPolicy,
}

impl Query {
    /// A query with the default policy (inherit the session budget,
    /// degrade on exhaustion).
    pub fn new(seeds: Vec<StmtRef>, kind: SliceKind, engine: Engine) -> Query {
        Query {
            seeds,
            kind,
            engine,
            policy: QueryPolicy::default(),
        }
    }

    /// Replaces the policy.
    pub fn with_policy(mut self, policy: QueryPolicy) -> Query {
        self.policy = policy;
        self
    }
}

/// The one slice-result shape: statements plus the honesty labels.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// The engine that actually answered (after any degradation — a
    /// degraded CS query reports [`Engine::Ci`]).
    pub engine: Engine,
    /// The dependence relation the slice followed.
    pub kind: SliceKind,
    /// Statements in the slice, in the answering engine's canonical
    /// order: BFS (distance) order for reachability, sorted for
    /// tabulation.
    pub stmts: StmtSet,
    /// All visited dependence-graph nodes.
    pub nodes: FxHashSet<NodeId>,
    /// Whether the traversal reached its fixpoint.
    pub completeness: Completeness,
    /// Whether a context-sensitive query fell back to the
    /// context-insensitive slicer after exhausting its budget.
    pub degraded: bool,
}

impl SliceResult {
    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Whether the slice contains `stmt`.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        self.stmts.contains(stmt)
    }

    /// The statements as a hash set, for set algebra.
    pub fn stmt_set(&self) -> FxHashSet<StmtRef> {
        self.stmts.to_hash_set()
    }
}

/// Batch-level robustness options for [`AnalysisSession::query_batch_with`]:
/// everything about *how* a batch runs that is not per-query policy.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Cancel the remaining queries after the first hard query failure.
    pub fail_fast: bool,
    /// How many times a panicked query is retried on fresh scratch.
    /// `None` keeps the engine default (one retry).
    pub retries: Option<u32>,
    /// Test-only deterministic fault injection. The fault's query index
    /// counts positions within one (engine, kind, policy) group of the
    /// batch — for a homogeneous batch, the original query index.
    pub fault: Option<FaultInjection>,
}

/// The number of [`SliceKind`] variants, for per-kind memo slots.
const KINDS: usize = 3;

fn kind_slot(kind: SliceKind) -> usize {
    match kind {
        SliceKind::Thin => 0,
        SliceKind::TraditionalData => 1,
        SliceKind::TraditionalFull => 2,
    }
}

/// What one [`AnalysisSession::update`] did. An update re-opens the
/// session lazily on the new program, so no stage artifact is ever kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Methods with bodies in the updated program.
    pub methods_total: usize,
}

impl UpdateStats {
    /// Whether the update reused any stage artifact: always `false`, since
    /// an update rebuilds every stage on first use.
    pub fn any_reuse(&self) -> bool {
        false
    }
}

/// A lazily-built, memoising slicing session over one program.
///
/// See the [module docs](self) for the architecture. All stage accessors
/// take `&mut self` because they build on first use; everything built is
/// kept for the session's lifetime.
#[derive(Debug)]
pub struct AnalysisSession {
    ctx: RunCtx,
    config: PtaConfig,
    program: Program,
    pta: Option<(Pta, Completeness)>,
    ci: Option<(Sdg, Completeness)>,
    /// Encoded growable CI graph adopted from a snapshot, decoded on
    /// first use: queries traverse the frozen graph, so only an explicit
    /// [`AnalysisSession::ci_sdg`] (or `build_report`) call pays the
    /// decode. A section that fails to decode falls back to a clean
    /// rebuild — never an error on the query path.
    ci_snap: Option<Vec<u8>>,
    ci_csr: Option<FrozenSdg>,
    cs: Option<Sdg>,
    /// Encoded growable CS graph adopted from a snapshot (see
    /// [`AnalysisSession::ci_snap`](#structfield.ci_snap)).
    cs_snap: Option<Vec<u8>>,
    cs_csr: Option<FrozenSdg>,
    scratch: SliceScratch,
    cs_scratch: [CsScratch; KINDS],
    /// Per-method def-site/control-dependence artifacts (SDG build input),
    /// computed by the first graph build and reused by the second.
    sdg_cache: SdgCache,
}

impl AnalysisSession {
    /// Compiles `sources` (with the standard library) and opens a session
    /// with a disabled context and the default points-to configuration.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn new(sources: &[(&str, &str)]) -> Result<AnalysisSession, CompileError> {
        Self::with_ctx(sources, PtaConfig::default(), RunCtx::disabled())
    }

    /// Compiles `sources` and opens a session whose every stage runs under
    /// `ctx` — its telemetry records the pipeline spans, its budget
    /// governs compilation-free stages (points-to, graph build) and is the
    /// default budget for queries.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend.
    pub fn with_ctx(
        sources: &[(&str, &str)],
        config: PtaConfig,
        ctx: RunCtx,
    ) -> Result<AnalysisSession, CompileError> {
        let program = compile_ctx(sources, &ctx)?;
        Ok(Self::from_program(program, config, ctx))
    }

    /// Opens a session over an already-compiled program.
    pub fn from_program(program: Program, config: PtaConfig, ctx: RunCtx) -> AnalysisSession {
        AnalysisSession {
            ctx,
            config,
            program,
            pta: None,
            ci: None,
            ci_snap: None,
            ci_csr: None,
            cs: None,
            cs_snap: None,
            cs_csr: None,
            scratch: SliceScratch::new(),
            cs_scratch: [CsScratch::new(), CsScratch::new(), CsScratch::new()],
            sdg_cache: SdgCache::new(),
        }
    }

    /// The session's run context.
    pub fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A rough resident-set estimate for this session, in elements (IR
    /// statements plus nodes and edges of every graph built so far) —
    /// the same unit [`Budget::with_resident_limit`] polices.
    ///
    /// This is what a session pool feeds into govern's watermark
    /// machinery: cheap (no allocation, no stage is forced), monotone as
    /// lazy stages materialise, and deterministic for a given program and
    /// set of built stages.
    ///
    /// [`Budget::with_resident_limit`]: thinslice_util::Budget::with_resident_limit
    pub fn resident_estimate(&self) -> usize {
        let mut elems = self.program.all_stmts().count();
        for csr in [&self.ci_csr, &self.cs_csr].into_iter().flatten() {
            elems += csr.node_count() + csr.edge_count();
        }
        for sdg in self.ci.iter().map(|(g, _)| g).chain(self.cs.iter()) {
            elems += sdg.node_count() + sdg.edge_count();
        }
        // A snapshot-adopted graph still pending decode holds the same
        // nodes and edges its frozen counterpart does; count it via that
        // proxy so a warm session is not under-reported to the eviction
        // watermark.
        if self.ci.is_none() && self.ci_snap.is_some() {
            if let Some(csr) = &self.ci_csr {
                elems += csr.node_count() + csr.edge_count();
            }
        }
        if self.cs.is_none() && self.cs_snap.is_some() {
            if let Some(csr) = &self.cs_csr {
                elems += csr.node_count() + csr.edge_count();
            }
        }
        // Solved and cached state is resident too: the points-to sets and
        // the per-method SDG artifacts survive across queries, so a
        // watermark that ignored them would under-report exactly the
        // sessions that are most expensive to keep.
        if let Some((pta, _)) = &self.pta {
            elems += pta.resident_estimate();
        }
        elems += self.sdg_cache.resident_estimate();
        elems
    }

    /// Cumulative [`MemoStats`] across this session's context-sensitive
    /// scratches (one per slice kind), summed counter-wise.
    ///
    /// Counters are monotone over the session's lifetime; observers
    /// (e.g. a server's per-tenant tables) snapshot before and after a
    /// query and diff with [`MemoStats::since`] for per-query hit rates.
    /// Cheap and read-only: no stage is forced, nothing allocates.
    pub fn memo_stats(&self) -> MemoStats {
        let mut total = MemoStats::default();
        for scratch in &self.cs_scratch {
            let s = scratch.memo_stats();
            total.exit_hits += s.exit_hits;
            total.exit_misses += s.exit_misses;
            total.summary_edges += s.summary_edges;
        }
        total
    }

    // ---- reload ----

    /// Re-opens the session on an edited version of its sources: compiles
    /// `new_sources` and replaces the session with a fresh lazy one over
    /// the result, with the same points-to configuration and run context.
    /// Every stage is rebuilt on first use, so after `update` every query
    /// answers exactly what a fresh session over `new_sources` would.
    ///
    /// # Errors
    ///
    /// Returns any [`CompileError`] from the frontend; the session is left
    /// untouched in that case.
    pub fn update(&mut self, new_sources: &[(&str, &str)]) -> Result<UpdateStats, CompileError> {
        let tel = self.ctx.telemetry().clone();
        let _span = tel.span("session.update");
        let program = compile_ctx(new_sources, &self.ctx)?;
        let stats = UpdateStats {
            methods_total: program.methods.iter().filter(|m| m.body.is_some()).count(),
        };
        *self = Self::from_program(program, self.config.clone(), self.ctx.clone());
        tel.count("session.updates", 1);
        Ok(stats)
    }

    // ---- lazy stage artifacts ----

    fn ensure_pta(&mut self) {
        if self.pta.is_none() {
            self.pta = Some(Pta::analyze_ctx(
                &self.program,
                self.config.clone(),
                &self.ctx,
            ));
        }
    }

    fn ensure_ci(&mut self) {
        self.ensure_pta();
        if self.ci.is_none() {
            // A snapshot-adopted encoding decodes to the exact graph the
            // donor session held; a section that fails to decode falls
            // through to a clean rebuild (bit-identical by construction).
            if let Some(bytes) = self.ci_snap.take() {
                if let Some(sdg) = decode_section(&bytes, thinslice_sdg::snap::decode_sdg) {
                    self.ci = Some((sdg, Completeness::Complete));
                    return;
                }
            }
            let (pta, _) = self.pta.as_ref().expect("pta ensured");
            self.ci = Some(build_ci_cached(
                &self.program,
                pta,
                &self.ctx,
                &mut self.sdg_cache,
            ));
        }
    }

    fn ensure_ci_csr(&mut self) {
        // Short-circuit on a present frozen graph: a snapshot restores the
        // CSR eagerly but leaves the growable graph pending, and queries
        // must not force its decode.
        if self.ci_csr.is_none() {
            self.ensure_ci();
            let (sdg, _) = self.ci.as_ref().expect("ci ensured");
            self.ci_csr = Some(sdg.freeze_ctx(&self.ctx));
        }
    }

    fn ensure_cs(&mut self) {
        self.ensure_pta();
        if self.cs.is_none() {
            if let Some(bytes) = self.cs_snap.take() {
                if let Some(sdg) = decode_section(&bytes, thinslice_sdg::snap::decode_sdg) {
                    self.cs = Some(sdg);
                    return;
                }
            }
            let (pta, _) = self.pta.as_ref().expect("pta ensured");
            let modref = ModRef::compute(&self.program, pta);
            self.cs = Some(build_cs_cached(
                &self.program,
                pta,
                &modref,
                &self.ctx,
                &mut self.sdg_cache,
            ));
        }
    }

    fn ensure_cs_csr(&mut self) {
        if self.cs_csr.is_none() {
            self.ensure_cs();
            let sdg = self.cs.as_ref().expect("cs ensured");
            self.cs_csr = Some(sdg.freeze_ctx(&self.ctx));
        }
    }

    /// Points-to and call-graph results (built on first use).
    pub fn pta(&mut self) -> &Pta {
        self.ensure_pta();
        &self.pta.as_ref().expect("pta ensured").0
    }

    /// The context-insensitive dependence graph (built on first use).
    pub fn ci_sdg(&mut self) -> &Sdg {
        self.ensure_ci();
        &self.ci.as_ref().expect("ci ensured").0
    }

    /// The frozen (CSR) context-insensitive graph — what CI queries
    /// traverse (built on first use).
    pub fn ci_graph(&mut self) -> &FrozenSdg {
        self.ensure_ci_csr();
        self.ci_csr.as_ref().expect("ci csr ensured")
    }

    /// The frozen context-sensitive (heap-parameter) graph — what CS
    /// queries traverse (built on first use). Expensive on large
    /// programs; that is the paper's point.
    pub fn cs_graph(&mut self) -> &FrozenSdg {
        self.ensure_cs_csr();
        self.cs_csr.as_ref().expect("cs csr ensured")
    }

    /// Per-stage completeness of the governed pipeline stages built so
    /// far (forces points-to and the CI graph).
    pub fn build_report(&mut self) -> BuildReport {
        self.ensure_ci();
        BuildReport {
            pta: self.pta.as_ref().expect("pta ensured").1,
            sdg: self.ci.as_ref().expect("ci ensured").1,
        }
    }

    // ---- seed helpers ----

    /// All IR statements on `line` of the source file named `file`
    /// (excluding synthetic code), usable as a seed or desired set.
    pub fn stmts_at_line(&self, file: &str, line: u32) -> Vec<StmtRef> {
        self.program
            .all_stmts()
            .filter(|s| {
                let span = self.program.instr(*s).span;
                !span.is_synthetic()
                    && span.line == line
                    && self.program.files[span.file].name == file
            })
            .collect()
    }

    /// The seed statements for slicing "from `file:line`" — all reachable
    /// statements on that line. Returns `None` when the line has no
    /// reachable statement. Forces the frozen CI graph (reachability is
    /// defined against it), which queries need anyway.
    pub fn seed_at_line(&mut self, file: &str, line: u32) -> Option<Vec<StmtRef>> {
        let stmts = self.stmts_at_line(file, line);
        self.ensure_ci_csr();
        let sdg = self.ci_csr.as_ref().expect("ci csr ensured");
        let stmts: Vec<StmtRef> = stmts
            .into_iter()
            .filter(|s| sdg.stmt_node(*s).is_some())
            .collect();
        if stmts.is_empty() {
            None
        } else {
            Some(stmts)
        }
    }

    // ---- the query entrypoints ----

    /// The budget a query runs under: its own, or the session's.
    fn effective_budget(&self, policy: &QueryPolicy) -> Budget {
        policy
            .budget
            .clone()
            .unwrap_or_else(|| self.ctx.budget().clone())
    }

    /// Answers one query. Artifacts the query needs are built on first
    /// use; scratch and (for CS) the per-kind tabulation memo are reused
    /// across queries, so a warm session answers repeated queries without
    /// re-deriving anything — and, by the cache invariants, identically
    /// to a cold one. Batch workers answer through the same per-query
    /// function on their own scratch.
    pub fn query(&mut self, q: &Query) -> SliceResult {
        let budget = self.effective_budget(&q.policy);
        let tel = self.ctx.telemetry().clone();
        let mut span = tel.span("session.query");
        let graph = match q.engine {
            Engine::Ci => {
                self.ensure_ci_csr();
                self.ci_csr.as_ref().expect("ci csr ensured")
            }
            Engine::Cs => {
                self.ensure_cs_csr();
                self.cs_csr.as_ref().expect("cs csr ensured")
            }
        };
        let seeds = resolve_seeds(graph, &q.seeds);
        let result = answer(
            graph,
            &seeds,
            q.kind,
            q.engine,
            q.policy.degrade,
            &budget,
            &mut self.scratch,
            &mut self.cs_scratch[kind_slot(q.kind)],
            &tel,
        );
        span.add("slice.stmts", result.stmts.len() as u64);
        result
    }

    /// Answers a batch of queries fanned out over `threads` workers, in
    /// query order, with default robustness (see
    /// [`AnalysisSession::query_batch_with`]).
    pub fn query_batch(&mut self, queries: &[Query], threads: usize) -> Vec<QueryOutcome> {
        self.query_batch_with(queries, threads, &BatchOptions::default())
    }

    /// Answers a batch of queries fanned out over `threads` workers.
    ///
    /// Queries are grouped by (engine, kind, policy) and each group runs
    /// through the shared batch engine — graph and down-edge index built
    /// once, per-worker scratch reuse, and (when any query is governed or
    /// `opts` asks for isolation) per-query budgets with panic isolation.
    /// Results come back in the original query order; each is identical
    /// to what [`AnalysisSession::query`] would return for that query.
    pub fn query_batch_with(
        &mut self,
        queries: &[Query],
        threads: usize,
        opts: &BatchOptions,
    ) -> Vec<QueryOutcome> {
        // Group by (engine, kind, policy), preserving in-group order.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let found = groups.iter_mut().find(|(rep, _)| {
                let r = &queries[*rep];
                r.engine == q.engine && r.kind == q.kind && r.policy == q.policy
            });
            match found {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((i, vec![i])),
            }
        }
        let mut out: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
        for (rep, idxs) in groups {
            let q = &queries[rep];
            let budget = self.effective_budget(&q.policy);
            let ctx = self.ctx.clone().with_budget(budget);
            let cfg = BatchConfig {
                ctx,
                fail_fast: opts.fail_fast,
                retries: opts.retries.unwrap_or(BatchConfig::default().retries),
                fault: opts.fault,
                degrade: q.policy.degrade,
            };
            let graph = match q.engine {
                Engine::Ci => {
                    self.ensure_ci_csr();
                    self.ci_csr.as_ref().expect("ci csr ensured")
                }
                Engine::Cs => {
                    self.ensure_cs_csr();
                    self.cs_csr.as_ref().expect("cs csr ensured")
                }
            };
            let node_q: Vec<Vec<NodeId>> = idxs
                .iter()
                .map(|&i| resolve_seeds(graph, &queries[i].seeds))
                .collect();
            let results = run_batch(graph, &node_q, q.kind, q.engine, threads, &cfg);
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|o| o.expect("every query answered by its group"))
            .collect()
    }

    // ---- warm-start snapshots ----

    /// Serializes every built stage artifact into a versioned snapshot
    /// keyed by `key` (the program content hash, see
    /// [`crate::snapshot::source_hash`]). Stage presence mirrors the
    /// session's lazy state: a stage never built is not written, and a
    /// restored session stays lazy about it. Returns `None` when any
    /// built stage is truncated — a budget-cut artifact must be rebuilt,
    /// not warmed over — so only exact, complete results are ever
    /// persisted.
    ///
    /// Scratch space, tabulation memos, and the per-method caches are
    /// deliberately *not* serialized: they are performance state that
    /// repopulates on use, and the bit-identity contract holds without
    /// them.
    pub fn write_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        if self.pta.iter().any(|(_, c)| !c.is_complete()) {
            return None;
        }
        if self.ci.iter().any(|(_, c)| !c.is_complete()) {
            return None;
        }
        let mut snap = SnapshotWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, key);
        let mut w = ByteWriter::new();
        thinslice_pta::snap::encode_config(&self.config, &mut w);
        snap.section("config", w.into_bytes());
        let mut w = ByteWriter::new();
        thinslice_ir::snap::encode_program(&self.program, &mut w);
        snap.section("program", w.into_bytes());
        if let Some((pta, _)) = &self.pta {
            let mut w = ByteWriter::new();
            thinslice_pta::snap::encode_pta(pta, &mut w);
            snap.section("pta", w.into_bytes());
            let mut w = ByteWriter::new();
            let hashes = thinslice_pta::snap::reachable_stream_hashes(pta, &self.program);
            thinslice_pta::snap::encode_stream_hashes(&hashes, &mut w);
            snap.section("streams", w.into_bytes());
        }
        if let Some((ci, _)) = &self.ci {
            let mut w = ByteWriter::new();
            thinslice_sdg::snap::encode_sdg(ci, &mut w);
            snap.section("ci", w.into_bytes());
        } else if let Some(b) = &self.ci_snap {
            // Adopted from a snapshot and never forced since: the
            // encoding is canonical, so the bytes round-trip verbatim.
            snap.section("ci", b.clone());
        }
        if let Some(csr) = &self.ci_csr {
            let mut w = ByteWriter::new();
            thinslice_sdg::snap::encode_frozen(csr, &mut w);
            snap.section("ci_csr", w.into_bytes());
        }
        if let Some(cs) = &self.cs {
            let mut w = ByteWriter::new();
            thinslice_sdg::snap::encode_sdg(cs, &mut w);
            snap.section("cs", w.into_bytes());
        } else if let Some(b) = &self.cs_snap {
            snap.section("cs", b.clone());
        }
        if let Some(csr) = &self.cs_csr {
            let mut w = ByteWriter::new();
            thinslice_sdg::snap::encode_frozen(csr, &mut w);
            snap.section("cs_csr", w.into_bytes());
        }
        Some(snap.finish())
    }

    /// Restores a session from snapshot bytes written by
    /// [`AnalysisSession::write_snapshot`].
    ///
    /// Adoption is gated by, in order: the container's magic, format
    /// version, and whole-file checksum; the key (the caller's program
    /// content hash must equal the snapshot's); the points-to
    /// configuration (canonical encodings must be byte-equal); stage
    /// presence invariants (a graph without its points-to input is
    /// rejected); and the constraint-stream cross-check (every reachable
    /// method's stream hash, recomputed over the restored program, must
    /// match what the solve was keyed on). Any failure returns `None` —
    /// the caller falls back to a clean full build, never an error on the
    /// query path.
    pub fn from_snapshot(
        bytes: &[u8],
        key: &str,
        config: PtaConfig,
        ctx: RunCtx,
    ) -> Option<AnalysisSession> {
        let snap = SnapshotReader::open(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).ok()?;
        if snap.key() != key {
            return None;
        }
        let mut want = ByteWriter::new();
        thinslice_pta::snap::encode_config(&config, &mut want);
        if snap.section("config")? != want.into_bytes().as_slice() {
            return None;
        }
        let program = decode_section(snap.section("program")?, thinslice_ir::snap::decode_program)?;
        let pta = match snap.section("pta") {
            Some(b) => {
                let pta = decode_section(b, thinslice_pta::snap::decode_pta)?;
                let stored = decode_section(
                    snap.section("streams")?,
                    thinslice_pta::snap::decode_stream_hashes,
                )?;
                if stored != thinslice_pta::snap::reachable_stream_hashes(&pta, &program) {
                    return None;
                }
                Some((pta, Completeness::Complete))
            }
            None => None,
        };
        // The growable graphs are adopted as encoded bytes and decoded
        // on first use — queries traverse the frozen graphs below, so
        // the warm-start path never pays for graph replay it may never
        // need. (The whole-file checksum already vouched for the bytes;
        // a section that still fails to decode falls back to a clean
        // rebuild inside the ensure path.)
        let ci_snap = snap.section("ci").map(<[u8]>::to_vec);
        let ci_csr = match snap.section("ci_csr") {
            Some(b) => Some(decode_section(b, thinslice_sdg::snap::decode_frozen)?),
            None => None,
        };
        let cs_snap = snap.section("cs").map(<[u8]>::to_vec);
        let cs_csr = match snap.section("cs_csr") {
            Some(b) => Some(decode_section(b, thinslice_sdg::snap::decode_frozen)?),
            None => None,
        };
        // Stage-dependency invariants: each artifact implies its input.
        let ok = (pta.is_some() || (ci_snap.is_none() && cs_snap.is_none()))
            && (ci_snap.is_some() || ci_csr.is_none())
            && (cs_snap.is_some() || cs_csr.is_none());
        if !ok {
            return None;
        }
        Some(AnalysisSession {
            ctx,
            config,
            program,
            pta,
            ci: None,
            ci_snap,
            ci_csr,
            cs: None,
            cs_snap,
            cs_csr,
            scratch: SliceScratch::new(),
            cs_scratch: [CsScratch::new(), CsScratch::new(), CsScratch::new()],
            sdg_cache: SdgCache::new(),
        })
    }
}

/// Decodes one snapshot section, requiring the decoder to consume it
/// exactly; `None` on any codec error (the caller rebuilds instead).
fn decode_section<'a, T>(
    bytes: &'a [u8],
    f: impl FnOnce(&mut ByteReader<'a>) -> Result<T, CodecError>,
) -> Option<T> {
    let mut r = ByteReader::new(bytes);
    let v = f(&mut r).ok()?;
    r.is_at_end().then_some(v)
}

/// Resolves statement seeds to graph nodes.
fn resolve_seeds(graph: &FrozenSdg, seeds: &[StmtRef]) -> Vec<NodeId> {
    seeds
        .iter()
        .flat_map(|&s| graph.stmt_nodes_of(s).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "class Box { Object item;
        void fill(Object o) { this.item = o; }
        Object take() { return this.item; }
     }
     class Main { static void main() {
        Box b = new Box();
        String s = \"x\";
        b.fill(s);
        Object got = b.take();
        print(got);
     } }";

    #[test]
    fn session_builds_stages_lazily() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        assert!(s.pta.is_none() && s.ci.is_none() && s.cs.is_none());
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        assert!(s.pta.is_some() && s.ci.is_some(), "seed lookup forces CI");
        assert!(s.cs.is_none(), "CS graph not built until a CS query");
        let r = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        assert!(s.cs.is_none());
        assert!(r.completeness.is_complete() && !r.degraded);
        let r2 = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        assert!(s.cs.is_some(), "CS query forces the CS graph");
        assert!(r2.completeness.is_complete());
        assert_eq!(r2.engine, Engine::Cs);
    }

    #[test]
    fn warm_queries_match_cold_queries() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let cold = s.query(&q);
                let warm = s.query(&q);
                assert_eq!(cold.stmts, warm.stmts, "{engine:?}/{kind:?}");
                assert_eq!(cold.nodes, warm.nodes);
            }
        }
    }

    #[test]
    fn batch_matches_single_queries() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        // A heterogeneous batch: both engines, two kinds.
        let queries = vec![
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci),
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Cs),
            Query::new(seeds.clone(), SliceKind::TraditionalData, Engine::Ci),
            Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci),
        ];
        for threads in [1, 2, 4, 8] {
            let batched = s.query_batch(&queries, threads);
            assert_eq!(batched.len(), queries.len());
            for (q, out) in queries.iter().zip(&batched) {
                let single = s.query(q);
                let got = out.slice.as_ref().expect("no faults injected");
                assert_eq!(
                    got.stmts, single.stmts,
                    "{:?}/{:?}/threads={threads}",
                    q.engine, q.kind
                );
                assert_eq!(got.nodes, single.nodes);
                assert_eq!(got.engine, single.engine);
            }
        }
    }

    /// Every engine × kind answer of `s` must be byte-identical to a fresh
    /// session compiled from `src`, seeding at `line`.
    fn assert_matches_fresh(s: &mut AnalysisSession, src: &str, line: u32) {
        let mut fresh = AnalysisSession::new(&[("t.mj", src)]).unwrap();
        let seeds = fresh.seed_at_line("t.mj", line).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let updated = s.query(&q);
                let cold = fresh.query(&q);
                assert_eq!(
                    updated.stmts.in_order(),
                    cold.stmts.in_order(),
                    "{engine:?}/{kind:?}"
                );
                assert_eq!(updated.nodes, cold.nodes);
                assert_eq!(updated.completeness, cold.completeness);
            }
        }
    }

    #[test]
    fn update_compile_error_leaves_session_untouched() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let before = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        assert!(s.update(&[("t.mj", "class Broken {")]).is_err());
        let after = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert_eq!(before.stmts, after.stmts);
    }

    #[test]
    fn governed_query_truncates_honestly() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let full = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        let tight = QueryPolicy {
            budget: Some(Budget::unlimited().with_step_limit(1)),
            degrade: true,
        };
        let partial = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci).with_policy(tight));
        assert!(!partial.completeness.is_complete());
        assert!(partial.stmts.is_subset(&full.stmts));
        // The truncated CI result is a prefix of the full BFS order.
        assert_eq!(
            partial.stmts.in_order(),
            &full.stmts.in_order()[..partial.stmts.len()]
        );
    }

    /// Every engine × kind answer of `a` and `b` must be identical,
    /// statement order included.
    fn assert_sessions_identical(a: &mut AnalysisSession, b: &mut AnalysisSession, line: u32) {
        let seeds = a.seed_at_line("t.mj", line).unwrap();
        assert_eq!(seeds, b.seed_at_line("t.mj", line).unwrap());
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in [
                SliceKind::Thin,
                SliceKind::TraditionalData,
                SliceKind::TraditionalFull,
            ] {
                let q = Query::new(seeds.clone(), kind, engine);
                let ra = a.query(&q);
                let rb = b.query(&q);
                assert_eq!(
                    ra.stmts.in_order(),
                    rb.stmts.in_order(),
                    "{engine:?}/{kind:?}"
                );
                assert_eq!(ra.nodes, rb.nodes);
                assert_eq!(ra.completeness, rb.completeness);
            }
        }
    }

    fn full_session() -> AnalysisSession {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        // Force every stage: CI CSR, CS CSR, and the down-edge index.
        s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs));
        s
    }

    #[test]
    fn snapshot_restore_answers_bit_identically() {
        let mut s = full_session();
        let bytes = s
            .write_snapshot("deadbeef")
            .expect("complete stages snapshot");
        let mut restored = AnalysisSession::from_snapshot(
            &bytes,
            "deadbeef",
            PtaConfig::default(),
            RunCtx::disabled(),
        )
        .expect("clean snapshot restores");
        assert!(restored.pta.is_some());
        assert!(restored.ci_csr.is_some() && restored.cs_csr.is_some());
        // The growable graphs are adopted as pending bytes; queries go
        // through the frozen graphs and never force them.
        assert!(restored.ci.is_none() && restored.ci_snap.is_some());
        assert!(restored.cs.is_none() && restored.cs_snap.is_some());
        assert_sessions_identical(&mut restored, &mut s, 10);
        assert!(restored.ci.is_none() && restored.cs.is_none());
        // Forcing them decodes the donor's exact graphs.
        assert!(restored.ci_sdg().same_graph(s.ci_sdg()));
        restored.ensure_cs();
        assert!(restored
            .cs
            .as_ref()
            .unwrap()
            .same_graph(s.cs.as_ref().unwrap()));
        // And against a genuinely fresh build.
        assert_matches_fresh(&mut restored, SRC, 10);
    }

    #[test]
    fn snapshot_preserves_stage_laziness() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        s.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        assert!(s.cs.is_none());
        let bytes = s.write_snapshot("k").unwrap();
        let restored =
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .unwrap();
        assert!(restored.pta.is_some() && restored.ci_csr.is_some());
        assert!(
            restored.cs.is_none() && restored.cs_csr.is_none(),
            "a stage never built must not materialise through a snapshot"
        );
    }

    #[test]
    fn snapshot_rejects_mismatch_and_corruption() {
        let s = full_session();
        let bytes = s.write_snapshot("cafe").unwrap();
        let ok = |b: &[u8], key: &str, config: PtaConfig| {
            AnalysisSession::from_snapshot(b, key, config, RunCtx::disabled()).is_some()
        };
        assert!(ok(&bytes, "cafe", PtaConfig::default()));
        // Wrong key: the caller's sources hash elsewhere.
        assert!(!ok(&bytes, "beef", PtaConfig::default()));
        // Config drift: the solved result answers a different question.
        let other = PtaConfig {
            object_sensitive_containers: false,
            ..PtaConfig::default()
        };
        assert!(!ok(&bytes, "cafe", other));
        // Truncation anywhere is caught by the container checks.
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                !ok(&bytes[..cut], "cafe", PtaConfig::default()),
                "cut={cut}"
            );
        }
        // Any single bit flip is caught by the whole-file checksum.
        for pos in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(!ok(&bad, "cafe", PtaConfig::default()), "flip at {pos}");
        }
    }

    #[test]
    fn snapshot_declines_truncated_stages() {
        let mut s = full_session();
        assert!(s.write_snapshot("k").is_some());
        s.pta.as_mut().unwrap().1 = Completeness::Truncated {
            reason: crate::ExhaustReason::StepQuota,
            frontier: 1,
        };
        assert!(
            s.write_snapshot("k").is_none(),
            "a truncated stage must be rebuilt, not persisted"
        );
    }

    #[test]
    fn update_after_restore_matches_fresh() {
        let s = full_session();
        let bytes = s.write_snapshot("k").unwrap();
        let mut restored =
            AnalysisSession::from_snapshot(&bytes, "k", PtaConfig::default(), RunCtx::disabled())
                .unwrap();
        // An edit re-opens the restored session lazily: every stage the
        // snapshot adopted is dropped, and the answers match a fresh build.
        let edited = SRC.replace("print(got);", "Object extra = b.take();\nprint(got);");
        let stats = restored.update(&[("t.mj", &edited)]).unwrap();
        assert!(stats.methods_total > 0 && !stats.any_reuse());
        assert!(restored.pta.is_none() && restored.ci_csr.is_none() && restored.cs_snap.is_none());
        assert_matches_fresh(&mut restored, &edited, 10);
    }

    #[test]
    fn snapshot_store_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tsnap-test-{}", std::process::id()));
        let store = crate::snapshot::SnapshotStore::new(&dir);
        let mut s = full_session();
        let key = "0123456789abcdef";
        assert!(store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .is_none());
        let size = store.save(&s, key).expect("save succeeds");
        assert!(size > 0 && store.path(key).exists());
        let mut restored = store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .expect("load succeeds");
        assert_sessions_identical(&mut restored, &mut s, 10);
        assert!(store.invalidate(key));
        assert!(!store.path(key).exists());
        assert!(store
            .load(key, PtaConfig::default(), RunCtx::disabled())
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_estimate_counts_solved_and_cached_state() {
        let s = full_session();
        // The old estimator: program statements plus graph nodes/edges
        // only. Solved points-to sets and per-method SDG artifacts were
        // invisible to the eviction watermark.
        let mut csr_only = s.program.all_stmts().count();
        for csr in [&s.ci_csr, &s.cs_csr].into_iter().flatten() {
            csr_only += csr.node_count() + csr.edge_count();
        }
        for sdg in s.ci.iter().map(|(g, _)| g).chain(s.cs.iter()) {
            csr_only += sdg.node_count() + sdg.edge_count();
        }
        let full = s.resident_estimate();
        assert!(
            full > csr_only,
            "solved+cached state must register: {full} vs {csr_only}"
        );
        let (pta, _) = s.pta.as_ref().unwrap();
        assert!(pta.resident_estimate() > 0);
        assert!(s.sdg_cache.resident_estimate() > 0);
    }

    #[test]
    fn governed_cs_query_degrades_to_ci() {
        let mut s = AnalysisSession::new(&[("t.mj", SRC)]).unwrap();
        let seeds = s.seed_at_line("t.mj", 10).unwrap();
        let tight = QueryPolicy {
            budget: Some(Budget::unlimited().with_step_limit(1)),
            degrade: true,
        };
        let out = s.query(
            &Query::new(seeds.clone(), SliceKind::Thin, Engine::Cs).with_policy(tight.clone()),
        );
        assert!(out.degraded, "a one-step CS budget must degrade");
        assert_eq!(out.engine, Engine::Ci);
        let no_ladder = QueryPolicy {
            degrade: false,
            ..tight
        };
        let out = s.query(&Query::new(seeds, SliceKind::Thin, Engine::Cs).with_policy(no_ladder));
        assert!(!out.degraded);
        assert_eq!(out.engine, Engine::Cs);
        assert!(!out.completeness.is_complete());
    }
}
