//! The multi-tenant session pool: program-hash keying, LRU eviction, a
//! govern-backed resident watermark, and panic quarantine.
//!
//! The pool maps a 64-bit program hash to an entry holding the
//! program's sources (always retained — they are what quarantine and
//! re-admission rebuild from) and, while resident, a live
//! [`AnalysisSession`]. Sessions are handed out exclusively via
//! [`SessionPool::checkout`] / [`SessionPool::checkin`] because every
//! session stage accessor takes `&mut self`.
//!
//! Two pressure valves bound the fleet's footprint:
//!
//! * **Session cap** — at most `max_sessions` live sessions; beyond that
//!   the least-recently-used live session is dropped (sources stay, so a
//!   later request rebuilds it transparently).
//! * **Resident watermark** — the summed [`resident_estimate`] of live
//!   sessions is policed through govern's own machinery
//!   ([`Budget::with_resident_limit`] + [`Meter::check_now`]); while the
//!   meter reports [`ExhaustReason::Memory`], LRU sessions are evicted.
//!
//! The most-recently-used session is never evicted: a single program
//! larger than the watermark still gets served (the alternative is
//! refusing service, which the admission ladder exists to avoid).
//!
//! **Determinism invariant:** rebuilding a session from its retained
//! sources yields bit-identical query results — sessions memoise pure
//! stage artifacts of an immutable program, so eviction, quarantine, and
//! cold starts are all observationally equivalent (pinned by this
//! module's tests and the chaos suite).
//!
//! [`AnalysisSession`]: thinslice::AnalysisSession
//! [`resident_estimate`]: thinslice::AnalysisSession::resident_estimate
//! [`Budget::with_resident_limit`]: thinslice_util::Budget::with_resident_limit
//! [`Meter::check_now`]: thinslice_util::Meter::check_now
//! [`ExhaustReason::Memory`]: thinslice_util::ExhaustReason::Memory

use std::sync::Arc;

use crate::protocol::{SessionRow, SourceFile};
use thinslice::{AnalysisSession, SnapshotLoad, SnapshotStore};
use thinslice_ir::CompileError;
use thinslice_pta::PtaConfig;
use thinslice_util::telemetry::{FlightKind, FlightRecorder, Telemetry};
use thinslice_util::{Budget, RunCtx};

/// The pool's 16-hex-digit program key: an order-sensitive FxHash over
/// every file name and text. Deterministic across runs and platforms.
/// Delegates to core's [`thinslice::source_hash`] so the pool key and
/// the warm-start snapshot key are the same string by construction.
pub fn program_hash(sources: &[SourceFile]) -> String {
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|s| (s.name.as_str(), s.text.as_str()))
        .collect();
    thinslice::source_hash(&refs)
}

/// Pool sizing knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum live sessions (≥ 1 is always kept).
    pub max_sessions: usize,
    /// Fleet-wide resident watermark in elements ([`None`] = unlimited),
    /// policed via govern's resident-limit machinery.
    pub resident_watermark: Option<usize>,
    /// Points-to configuration for every session.
    pub pta: PtaConfig,
    /// Directory of warm-start session snapshots ([`None`] disables
    /// persistence). Sessions are persisted on build, reload, eviction,
    /// and drain, keyed by content hash; a later build of the same
    /// content restores instead of recompiling.
    pub snapshot_dir: Option<String>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_sessions: 8,
            resident_watermark: None,
            pta: PtaConfig::default(),
            snapshot_dir: None,
        }
    }
}

/// Pool-wide counters (monotone; reported by the `status` op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by a live session.
    pub hits: u64,
    /// Checkouts that had to (re)build an evicted session.
    pub misses: u64,
    /// Sessions built in total (initial + rebuilds).
    pub builds: u64,
    /// Sessions dropped by LRU/watermark pressure.
    pub evictions: u64,
    /// Sessions poisoned by a panicking query.
    pub quarantines: u64,
    /// Quarantined sessions rebuilt on their next request.
    pub rebuilds: u64,
    /// Reload ops applied (source swaps under a preserved pool key).
    pub reloads: u64,
    /// Session builds satisfied by a warm-start snapshot restore
    /// (a subset of `builds` — a restore still materialises a session).
    pub snapshot_hits: u64,
    /// Builds that looked for a snapshot and found no file.
    pub snapshot_misses: u64,
    /// Snapshot files persisted (build/reload/evict/drain).
    pub snapshot_writes: u64,
    /// Snapshot files found but discarded — corruption, version skew,
    /// or an integrity/config mismatch. The stale file is deleted and
    /// the session is built from sources.
    pub snapshot_discarded_corrupt: u64,
}

#[derive(Debug)]
struct PoolEntry {
    /// The immutable pool key: the hash of the sources first loaded.
    hash: String,
    /// Current sources; diverge from the originals after a reload.
    sources: Vec<SourceFile>,
    /// Hash of `sources`; equals `hash` until the first reload.
    content: String,
    session: Option<Box<AnalysisSession>>,
    resident: usize,
    last_used: u64,
    quarantined: bool,
}

/// Why a checkout failed.
#[derive(Debug)]
pub enum PoolError {
    /// The hash was never registered (or the client made it up).
    UnknownProgram,
    /// Rebuilding the session failed to compile (cannot happen for
    /// programs that registered successfully, but handled anyway).
    Compile(CompileError),
}

/// An exclusively checked-out session. Return it with
/// [`SessionPool::checkin`] — or, after a panic, [`SessionPool::quarantine`].
#[derive(Debug)]
pub struct Checkout {
    hash: String,
    /// The entry's content hash at checkout time. A checkin whose content
    /// no longer matches (a reload raced the query) drops the now-stale
    /// session instead of resurrecting it.
    content: String,
    session: Box<AnalysisSession>,
    /// Whether this checkout had to rebuild the session (eviction or
    /// quarantine), i.e. the caller is paying a cold start.
    pub rebuilt: bool,
}

impl Checkout {
    /// The session, exclusively borrowed.
    pub fn session(&mut self) -> &mut AnalysisSession {
        &mut self.session
    }
}

/// The session pool. Not internally synchronised — the server wraps it
/// in a mutex and holds the lock only around checkout/checkin, never
/// across query execution.
#[derive(Debug)]
pub struct SessionPool {
    cfg: PoolConfig,
    telemetry: Telemetry,
    /// Flight recorder for pool lifecycle events (build / evict /
    /// quarantine); [`None`] leaves the pool entirely unobserved.
    recorder: Option<Arc<FlightRecorder>>,
    /// Warm-start snapshot store; [`None`] when persistence is off.
    store: Option<SnapshotStore>,
    entries: Vec<PoolEntry>,
    clock: u64,
    /// Monotone counters; see [`PoolStats`].
    pub stats: PoolStats,
}

/// What [`SessionPool::register`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The program's pool key.
    pub hash: String,
    /// Whether a live session already existed.
    pub cached: bool,
    /// The session's resident estimate after registration.
    pub resident: usize,
}

/// What [`SessionPool::reload`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The preserved pool key.
    pub hash: String,
    /// The hash of the entry's current (new) sources.
    pub content: String,
    /// Resident estimate after the reload.
    pub resident: usize,
}

impl SessionPool {
    /// An empty pool; sessions are built under `telemetry` (disabled for
    /// a deterministic, untraced server).
    pub fn new(cfg: PoolConfig, telemetry: Telemetry) -> SessionPool {
        let store = cfg.snapshot_dir.as_ref().map(SnapshotStore::new);
        SessionPool {
            cfg,
            telemetry,
            recorder: None,
            store,
            entries: Vec::new(),
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// Attaches (or detaches) a flight recorder; pool lifecycle events
    /// (session built / evicted / quarantined) land in its ring.
    pub fn set_recorder(&mut self, recorder: Option<Arc<FlightRecorder>>) {
        self.recorder = recorder;
    }

    fn flight(&self, kind: FlightKind, label: &str, a: u64, b: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(kind, label, a, b);
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn session_ctx(&self) -> RunCtx {
        RunCtx::disabled().with_telemetry(self.telemetry.clone())
    }

    /// Opens a session over `sources`, the one way every entry gets one:
    /// restored from the snapshot keyed `content` when one loads, else
    /// compiled, recorded as a `session_built` event labelled `key` when
    /// `built` carries the event's tag, and persisted. Counts one build
    /// and the snapshot lookup's outcome; a corrupt or stale snapshot is
    /// deleted so it is not re-parsed on every later build.
    fn open_session(
        &mut self,
        key: &str,
        content: &str,
        sources: &[SourceFile],
        built: Option<u64>,
    ) -> Result<Box<AnalysisSession>, CompileError> {
        let restored = match &self.store {
            None => None,
            Some(store) => {
                match store.try_load(content, self.cfg.pta.clone(), self.session_ctx()) {
                    SnapshotLoad::Loaded(session) => {
                        self.stats.snapshot_hits += 1;
                        // Tag 2: restored from a snapshot, not compiled.
                        let resident = session.resident_estimate() as u64;
                        self.flight(FlightKind::SessionBuilt, content, resident, 2);
                        Some(session)
                    }
                    SnapshotLoad::Missing => {
                        self.stats.snapshot_misses += 1;
                        None
                    }
                    SnapshotLoad::Discarded => {
                        self.stats.snapshot_discarded_corrupt += 1;
                        store.invalidate(content);
                        None
                    }
                }
            }
        };
        let session = match restored {
            Some(session) => session,
            None => {
                let refs: Vec<(&str, &str)> = sources
                    .iter()
                    .map(|s| (s.name.as_str(), s.text.as_str()))
                    .collect();
                let session = Box::new(AnalysisSession::with_ctx(
                    &refs,
                    self.cfg.pta.clone(),
                    self.session_ctx(),
                )?);
                if let Some(tag) = built {
                    let resident = session.resident_estimate() as u64;
                    self.flight(FlightKind::SessionBuilt, key, resident, tag);
                }
                persist(self.store.as_ref(), &mut self.stats, &session, content);
                session
            }
        };
        self.stats.builds += 1;
        Ok(session)
    }

    /// Persists every live session. The server calls this on drain so a
    /// restarted daemon warm-starts with all forced stages intact.
    pub fn persist_all(&mut self) {
        for e in &self.entries {
            if let Some(s) = &e.session {
                persist(self.store.as_ref(), &mut self.stats, s, &e.content);
            }
        }
    }

    fn find(&self, hash: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.hash == hash)
    }

    /// Registers a program, building its session eagerly so compile
    /// errors surface on `load`, not on the first query. Re-registering
    /// a program whose session is still live is a cheap cache hit.
    ///
    /// # Errors
    ///
    /// Returns the frontend's [`CompileError`] for invalid sources (the
    /// pool is left unchanged).
    pub fn register(&mut self, sources: Vec<SourceFile>) -> Result<RegisterOutcome, CompileError> {
        let hash = program_hash(&sources);
        if self.contains(&hash) {
            // A known program: a live session is a cache hit, an evicted
            // or quarantined one takes checkout's rebuild path.
            let mut co = self.checkout(&hash).map_err(|e| match e {
                PoolError::Compile(c) => c,
                PoolError::UnknownProgram => unreachable!("entry exists"),
            })?;
            let (cached, resident) = (!co.rebuilt, co.session().resident_estimate());
            self.checkin(co);
            return Ok(RegisterOutcome {
                hash,
                cached,
                resident,
            });
        }
        let session = self.open_session(&hash, &hash, &sources, Some(0))?;
        self.stats.misses += 1;
        let resident = session.resident_estimate();
        let now = self.tick();
        self.entries.push(PoolEntry {
            hash: hash.clone(),
            content: hash.clone(),
            sources,
            session: Some(session),
            resident,
            last_used: now,
            quarantined: false,
        });
        self.enforce_limits();
        Ok(RegisterOutcome {
            hash,
            cached: false,
            resident,
        })
    }

    /// Whether `hash` names a registered program (live or not).
    pub fn contains(&self, hash: &str) -> bool {
        self.find(hash).is_some()
    }

    /// Exclusively checks out the session for `hash`, transparently
    /// rebuilding it from retained sources after an eviction or a
    /// quarantine.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProgram`] for unregistered hashes;
    /// [`PoolError::Compile`] if a rebuild fails to compile.
    pub fn checkout(&mut self, hash: &str) -> Result<Checkout, PoolError> {
        let i = self.find(hash).ok_or(PoolError::UnknownProgram)?;
        let now = self.tick();
        let rebuilt = self.entries[i].session.is_none();
        let session = match self.entries[i].session.take() {
            Some(session) => {
                self.stats.hits += 1;
                session
            }
            None => {
                let was_quarantined = self.entries[i].quarantined;
                let content = self.entries[i].content.clone();
                let sources = std::mem::take(&mut self.entries[i].sources);
                let tag = u64::from(was_quarantined);
                let opened = self.open_session(hash, &content, &sources, Some(tag));
                self.entries[i].sources = sources;
                let session = opened.map_err(PoolError::Compile)?;
                if was_quarantined {
                    self.stats.rebuilds += 1;
                } else {
                    self.stats.misses += 1;
                }
                session
            }
        };
        let e = &mut self.entries[i];
        e.quarantined = false;
        e.last_used = now;
        Ok(Checkout {
            hash: hash.to_string(),
            content: e.content.clone(),
            session,
            rebuilt,
        })
    }

    /// Swaps a registered program's sources under its existing pool key
    /// and replaces the session with a fresh lazy one over the new sources
    /// (restored from a snapshot of that content when one exists). The
    /// stages the old session had built are rebuilt by the next query that
    /// needs them, outside the pool lock.
    ///
    /// The pool key — and therefore every client-held program handle —
    /// survives the reload; only the reported content hash changes.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownProgram`] for unregistered keys;
    /// [`PoolError::Compile`] for invalid new sources (the entry, its
    /// previous sources, and any resident session are left untouched).
    pub fn reload(
        &mut self,
        hash: &str,
        new_sources: Vec<SourceFile>,
    ) -> Result<ReloadOutcome, PoolError> {
        let i = self.find(hash).ok_or(PoolError::UnknownProgram)?;
        let content = program_hash(&new_sources);
        let now = self.tick();
        // A reload records no `session_built` event of its own when it
        // compiles; its `session_updated` event below stands for it.
        let session = self
            .open_session(hash, &content, &new_sources, None)
            .map_err(PoolError::Compile)?;
        // The on-disk snapshot of the old sources is stale the moment the
        // reload lands.
        let stale = &self.entries[i].content;
        if let Some(store) = self.store.as_ref().filter(|_| *stale != content) {
            store.invalidate(stale);
        }
        let resident = session.resident_estimate();
        let e = &mut self.entries[i];
        e.session = Some(session);
        e.sources = new_sources;
        e.content = content.clone();
        e.resident = resident;
        e.quarantined = false;
        e.last_used = now;
        self.stats.reloads += 1;
        self.flight(FlightKind::SessionUpdated, hash, 0, 0);
        self.enforce_limits();
        Ok(ReloadOutcome {
            hash: hash.to_string(),
            content,
            resident,
        })
    }

    /// Returns a checked-out session, refreshing its resident estimate
    /// (queries may have materialised more stages) and re-enforcing the
    /// session cap and watermark.
    pub fn checkin(&mut self, co: Checkout) {
        let Some(i) = self.find(&co.hash) else {
            // The entry vanished (cannot happen today — entries are never
            // removed); drop the session rather than resurrect it.
            return;
        };
        if self.entries[i].content != co.content {
            // A reload swapped the sources while this session was out:
            // the session answers the old program, so drop it instead of
            // clobbering the reloaded one.
            return;
        }
        let now = self.tick();
        let e = &mut self.entries[i];
        e.resident = co.session.resident_estimate();
        e.session = Some(co.session);
        e.last_used = now;
        self.enforce_limits();
    }

    /// Quarantines a poisoned session: the artifacts are dropped on the
    /// spot (a panicking query may have left scratch state inconsistent)
    /// and the entry is marked so the next checkout counts as a rebuild.
    pub fn quarantine(&mut self, co: Checkout) {
        self.stats.quarantines += 1;
        self.flight(FlightKind::SessionQuarantined, &co.hash, 0, 0);
        if let Some(i) = self.find(&co.hash) {
            let e = &mut self.entries[i];
            if e.content == co.content {
                e.quarantined = true;
                e.resident = 0;
                e.session = None;
            }
            // Else a reload already replaced this session; the poisoned
            // one just gets dropped.
        }
        drop(co);
    }

    /// Live (resident) session count.
    pub fn live_sessions(&self) -> usize {
        self.entries.iter().filter(|e| e.session.is_some()).count()
    }

    /// Registered program count (live or not).
    pub fn programs(&self) -> usize {
        self.entries.len()
    }

    /// Currently-quarantined program count.
    pub fn quarantined(&self) -> usize {
        self.entries.iter().filter(|e| e.quarantined).count()
    }

    /// Summed resident estimate of live sessions, in elements.
    pub fn resident_total(&self) -> usize {
        self.entries.iter().map(|e| e.resident).sum()
    }

    /// The configured session cap.
    pub fn capacity(&self) -> usize {
        self.cfg.max_sessions.max(1)
    }

    /// One [`SessionRow`] per registered program, in hash order, with
    /// residency state and the live session's cumulative memo counters
    /// (zero while evicted, quarantined, or checked out — memo state
    /// travels with the session). Latency quantiles are the server's to
    /// fill in; the pool does not observe wall-clock time.
    pub fn session_rows(&self) -> Vec<SessionRow> {
        let mut rows: Vec<SessionRow> = self
            .entries
            .iter()
            .map(|e| {
                let memo = e
                    .session
                    .as_ref()
                    .map(|s| s.memo_stats())
                    .unwrap_or_default();
                SessionRow {
                    program: e.hash.clone(),
                    content: e.content.clone(),
                    live: e.session.is_some(),
                    quarantined: e.quarantined,
                    resident: e.resident,
                    exit_hits: memo.exit_hits,
                    exit_misses: memo.exit_misses,
                    latency_us: Default::default(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.program.cmp(&b.program));
        rows
    }

    /// Drops the least-recently-used live session (never the
    /// most-recently-used one). Returns whether anything was evicted.
    fn evict_lru(&mut self) -> bool {
        if self.live_sessions() <= 1 {
            return false;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.session.is_some())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i);
        let Some(i) = victim else { return false };
        // Persist the victim's forced stages before dropping them, so a
        // later checkout restores instead of recompiling.
        let e = &mut self.entries[i];
        if let Some(s) = &e.session {
            persist(self.store.as_ref(), &mut self.stats, s, &e.content);
        }
        e.session = None;
        let resident = std::mem::take(&mut e.resident);
        let hash = e.hash.clone();
        self.stats.evictions += 1;
        self.flight(FlightKind::SessionEvicted, &hash, resident as u64, 0);
        true
    }

    /// Applies both pressure valves; called after every build/checkin.
    fn enforce_limits(&mut self) {
        while self.live_sessions() > self.cfg.max_sessions.max(1) {
            if !self.evict_lru() {
                break;
            }
        }
        let Some(watermark) = self.cfg.resident_watermark else {
            return;
        };
        // Reuse govern's watermark machinery verbatim: arm a resident-
        // limited budget and ask for an immediate check. Exhaustion is
        // sticky per meter, so each round arms afresh.
        loop {
            let mut meter = Budget::default().with_resident_limit(watermark).meter();
            if meter.check_now(self.resident_total()) {
                return;
            }
            if !self.evict_lru() {
                return; // only the MRU session left; keep serving it
            }
        }
    }
}

/// Best-effort snapshot persistence, counted in `stats`; a declined or
/// failed save is invisible to the query path.
fn persist(
    store: Option<&SnapshotStore>,
    stats: &mut PoolStats,
    session: &AnalysisSession,
    content: &str,
) {
    if store.is_some_and(|store| store.save(session, content).is_some()) {
        stats.snapshot_writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(name: &str, body: &str) -> Vec<SourceFile> {
        vec![SourceFile {
            name: name.to_string(),
            text: body.to_string(),
        }]
    }

    fn program(n: u32) -> Vec<SourceFile> {
        src(
            &format!("p{n}.mj"),
            &format!(
                "class Main {{ static void main() {{\nint x = {n};\nint y = x + 1;\nprint(y);\n}} }}"
            ),
        )
    }

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        assert_eq!(program_hash(&program(1)), program_hash(&program(1)));
        assert_ne!(program_hash(&program(1)), program_hash(&program(2)));
        assert_eq!(program_hash(&program(7)).len(), 16);
    }

    #[test]
    fn register_caches_live_sessions() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let a = pool.register(program(1)).unwrap();
        assert!(!a.cached);
        let b = pool.register(program(1)).unwrap();
        assert!(b.cached);
        assert_eq!(a.hash, b.hash);
        assert_eq!(pool.live_sessions(), 1);
        assert_eq!(pool.stats.builds, 1);
    }

    #[test]
    fn compile_errors_leave_the_pool_unchanged() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        assert!(pool.register(src("bad.mj", "class {{{")).is_err());
        assert_eq!(pool.programs(), 0);
        assert_eq!(pool.live_sessions(), 0);
    }

    #[test]
    fn session_cap_evicts_lru_and_rebuilds_transparently() {
        let mut pool = SessionPool::new(
            PoolConfig {
                max_sessions: 2,
                ..PoolConfig::default()
            },
            Telemetry::disabled(),
        );
        let h1 = pool.register(program(1)).unwrap().hash;
        let h2 = pool.register(program(2)).unwrap().hash;
        pool.register(program(3)).unwrap();
        assert_eq!(pool.live_sessions(), 2);
        assert_eq!(pool.stats.evictions, 1);
        // Program 1 was the LRU victim; 2 survived.
        let co = pool.checkout(&h2).unwrap();
        assert!(!co.rebuilt);
        pool.checkin(co);
        let co = pool.checkout(&h1).unwrap();
        assert!(co.rebuilt, "evicted session rebuilds on demand");
        pool.checkin(co);
    }

    #[test]
    fn watermark_pressure_evicts_down_to_mru() {
        // Tiny watermark: no two sessions fit, but the MRU one is kept.
        let mut pool = SessionPool::new(
            PoolConfig {
                max_sessions: 8,
                resident_watermark: Some(1),
                ..PoolConfig::default()
            },
            Telemetry::disabled(),
        );
        pool.register(program(1)).unwrap();
        pool.register(program(2)).unwrap();
        pool.register(program(3)).unwrap();
        assert_eq!(pool.live_sessions(), 1, "watermark holds one survivor");
        assert_eq!(pool.stats.evictions, 2);
        assert!(pool.resident_total() > 1, "MRU kept even over watermark");
    }

    #[test]
    fn unknown_hash_is_an_error() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        assert!(matches!(
            pool.checkout("ffffffffffffffff"),
            Err(PoolError::UnknownProgram)
        ));
    }

    fn main_with(n: u32) -> Vec<SourceFile> {
        src(
            "m.mj",
            &format!(
                "class Main {{ static void main() {{\nint x = {n};\nint y = x + 1;\nprint(y);\n}} }}"
            ),
        )
    }

    fn slice_line_2(pool: &mut SessionPool, hash: &str) -> Vec<String> {
        let mut co = pool.checkout(hash).unwrap();
        let s = co.session();
        let seeds = s.seed_at_line("m.mj", 4).unwrap();
        let r = s.query(&thinslice::Query::new(
            seeds,
            thinslice::SliceKind::Thin,
            thinslice::Engine::Ci,
        ));
        let out = r
            .stmts
            .in_order()
            .iter()
            .map(|st| format!("{st:?}"))
            .collect();
        pool.checkin(co);
        out
    }

    #[test]
    fn reload_updates_in_place_under_the_same_key() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let h = pool.register(main_with(1)).unwrap().hash;
        // Warm the lazy stages: the reload drops them all.
        slice_line_2(&mut pool, &h);
        let warm = pool.session_rows()[0].resident;
        let out = pool.reload(&h, main_with(2)).unwrap();
        assert_eq!(out.hash, h, "pool key lineage preserved");
        assert_ne!(out.content, h, "content hash tracks the new sources");
        assert_eq!(out.content, program_hash(&main_with(2)));
        assert!(out.resident < warm, "the reloaded session starts lazy");
        assert_eq!((pool.stats.reloads, pool.stats.builds), (1, 2));
        // The row exposes both hashes.
        let rows = pool.session_rows();
        assert_eq!(rows[0].program, h);
        assert_eq!(rows[0].content, out.content);
        // Bit-identity: the reloaded session answers like a fresh pool.
        let mut fresh = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let fh = fresh.register(main_with(2)).unwrap().hash;
        assert_eq!(slice_line_2(&mut pool, &h), slice_line_2(&mut fresh, &fh));
    }

    #[test]
    fn reload_of_nonresident_session_rebuilds_from_new_sources() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let h = pool.register(main_with(1)).unwrap().hash;
        let co = pool.checkout(&h).unwrap();
        pool.quarantine(co);
        pool.reload(&h, main_with(2)).unwrap();
        assert_eq!(pool.quarantined(), 0, "reload clears quarantine");
        assert_eq!(pool.stats.reloads, 1);
        let mut fresh = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let fh = fresh.register(main_with(2)).unwrap().hash;
        assert_eq!(slice_line_2(&mut pool, &h), slice_line_2(&mut fresh, &fh));
    }

    #[test]
    fn reload_errors_leave_the_entry_untouched() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        assert!(matches!(
            pool.reload("ffffffffffffffff", main_with(1)),
            Err(PoolError::UnknownProgram)
        ));
        let h = pool.register(main_with(1)).unwrap().hash;
        assert!(matches!(
            pool.reload(&h, src("m.mj", "class Broken {")),
            Err(PoolError::Compile(_))
        ));
        assert_eq!(pool.stats.reloads, 0);
        let rows = pool.session_rows();
        assert_eq!(rows[0].content, h, "content hash unchanged on failure");
        assert!(
            rows[0].live,
            "the resident session survives a failed reload"
        );
        // Still serves the original program.
        let mut fresh = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let fh = fresh.register(main_with(1)).unwrap().hash;
        assert_eq!(slice_line_2(&mut pool, &h), slice_line_2(&mut fresh, &fh));
    }

    #[test]
    fn checkin_after_a_racing_reload_drops_the_stale_session() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let h = pool.register(main_with(1)).unwrap().hash;
        let co = pool.checkout(&h).unwrap();
        // Reload lands while the session is out.
        pool.reload(&h, main_with(2)).unwrap();
        // The stale (v1) session must not clobber the reloaded (v2) one.
        pool.checkin(co);
        let mut fresh = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let fh = fresh.register(main_with(2)).unwrap().hash;
        assert_eq!(slice_line_2(&mut pool, &h), slice_line_2(&mut fresh, &fh));
    }

    /// A fresh scratch directory for one test's snapshot store.
    fn snap_dir(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("ts_pool_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    fn snap_pool(dir: &str) -> SessionPool {
        SessionPool::new(
            PoolConfig {
                snapshot_dir: Some(dir.to_string()),
                ..PoolConfig::default()
            },
            Telemetry::disabled(),
        )
    }

    #[test]
    fn snapshot_survives_pool_restart() {
        let dir = snap_dir("restart");
        let mut pool = snap_pool(&dir);
        let h = pool.register(main_with(1)).unwrap().hash;
        let expected = slice_line_2(&mut pool, &h);
        assert_eq!(pool.stats.snapshot_misses, 1, "cold build misses");
        assert_eq!(pool.stats.snapshot_writes, 1, "persisted on build");
        pool.persist_all();
        assert!(pool.stats.snapshot_writes >= 2, "drain re-persists");

        // A brand-new pool (a restarted daemon) warm-starts on load.
        let mut pool2 = snap_pool(&dir);
        let out = pool2.register(main_with(1)).unwrap();
        assert_eq!(out.hash, h);
        assert_eq!(pool2.stats.snapshot_hits, 1, "restored, not compiled");
        assert_eq!(pool2.stats.builds, 1, "a restore still counts as a build");
        assert_eq!(slice_line_2(&mut pool2, &h), expected, "bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_warm_starts_evicted_sessions() {
        let dir = snap_dir("evict");
        let mut pool = SessionPool::new(
            PoolConfig {
                max_sessions: 1,
                snapshot_dir: Some(dir.clone()),
                ..PoolConfig::default()
            },
            Telemetry::disabled(),
        );
        let h = pool.register(main_with(1)).unwrap().hash;
        let expected = slice_line_2(&mut pool, &h);
        // Evict program 1; eviction persists its forced stages.
        pool.register(program(2)).unwrap();
        assert_eq!(pool.stats.evictions, 1);
        let writes = pool.stats.snapshot_writes;
        assert!(writes >= 2, "build + evict both persisted");
        // The rebuild restores from disk instead of recompiling, with
        // the evicted session's forced stages intact.
        assert_eq!(slice_line_2(&mut pool, &h), expected);
        assert_eq!(pool.stats.snapshot_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_invalidates_the_stale_snapshot() {
        let dir = snap_dir("reload");
        let mut pool = snap_pool(&dir);
        let h = pool.register(main_with(1)).unwrap().hash;
        slice_line_2(&mut pool, &h);
        let store = SnapshotStore::new(&dir);
        assert!(
            store.path(&h).exists(),
            "build persisted under content hash"
        );
        let out = pool.reload(&h, main_with(2)).unwrap();
        assert!(
            !store.path(&h).exists(),
            "reload deletes the superseded snapshot"
        );
        assert!(
            store.path(&out.content).exists(),
            "and persists one for the new content"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_discarded_and_rebuilt() {
        let dir = snap_dir("corrupt");
        let mut pool = snap_pool(&dir);
        let h = pool.register(main_with(1)).unwrap().hash;
        let expected = slice_line_2(&mut pool, &h);
        // Flip a byte in the middle of the persisted file.
        let path = SnapshotStore::new(&dir).path(&h);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut pool2 = snap_pool(&dir);
        pool2.register(main_with(1)).unwrap();
        assert_eq!(pool2.stats.snapshot_discarded_corrupt, 1);
        assert_eq!(pool2.stats.snapshot_hits, 0);
        assert_eq!(
            slice_line_2(&mut pool2, &h),
            expected,
            "rebuilt from sources"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_then_checkout_rebuilds() {
        let mut pool = SessionPool::new(PoolConfig::default(), Telemetry::disabled());
        let h = pool.register(program(1)).unwrap().hash;
        let co = pool.checkout(&h).unwrap();
        pool.quarantine(co);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.live_sessions(), 0);
        let co = pool.checkout(&h).unwrap();
        assert!(co.rebuilt);
        pool.checkin(co);
        assert_eq!(pool.quarantined(), 0);
        assert_eq!(pool.stats.quarantines, 1);
        assert_eq!(pool.stats.rebuilds, 1);
    }
}
