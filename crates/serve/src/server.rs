//! The hardened request loop: fair scheduling, admission control, panic
//! quarantine, deadlines, and graceful drain.
//!
//! A [`Server`] owns one [`SessionPool`] and a scheduler of per-client
//! FIFO queues served round-robin, so one heavy tenant cannot starve the
//! rest. `load`/`status`/`shutdown` are answered synchronously on the
//! reader thread; `slice` requests are queued and executed by a worker
//! pool.
//!
//! Both transports — one input stream ([`Server::serve`]) and a Unix
//! socket with a reader thread per connection ([`Server::serve_listener`])
//! — share one line reader and one lifecycle: spawn the workers, take
//! requests until intake stops, drain, persist every live session, and
//! acknowledge the `shutdown` request if one was made.
//!
//! Robustness layers, outermost first:
//!
//! * **Malformed input** — the reader consumes raw bytes line by line
//!   (bounded, lossy UTF-8), so garbage, truncated JSON, or oversized
//!   lines each produce one structured error response and the loop keeps
//!   reading. Nothing a client sends can disconnect it or panic the
//!   process. A failed socket `accept` is retried after a back-off, so
//!   running out of descriptors does not end the daemon either.
//! * **Admission control** — under queue pressure the fleet walks the
//!   PR 2 degradation ladder instead of refusing service: beyond
//!   `degrade_pending` queued queries, CS requests are answered
//!   context-insensitively ([`Admission::DegradeCi`]); beyond
//!   `truncate_pending`, a hard step cap yields truncated-but-sound
//!   results ([`Admission::Truncate`]). A client that exhausts its
//!   `client_step_budget` is degraded the same way while others ride
//!   unaffected.
//! * **Panic isolation** — each query attempt runs under `catch_unwind`.
//!   A panic quarantines the session (dropped and rebuilt from retained
//!   sources on next use) and the request is retried on the fresh
//!   session up to `retries` times before a structured `panic` error is
//!   returned. Sibling requests never notice.
//! * **Deterministic fault injection** — the PR 2 [`FaultInjection`]
//!   shape extends into the request path: a config-level fault panics
//!   the Nth slice request's first `attempts` attempts, and chaos-mode
//!   requests may carry `"chaos":{"panics":n}` themselves. The chaos
//!   suite is built on this.
//! * **Graceful shutdown** — EOF, a `shutdown` request, or an external
//!   signal flag all stop intake, drain every queued and in-flight
//!   query (each still gets its response), then acknowledge.
//!
//! [`FaultInjection`]: thinslice::FaultInjection

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, ErrorKind, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use crate::pool::{PoolConfig, PoolError, SessionPool};
use crate::protocol::{
    engine_str, error_line, kind_str, load_line, parse_request, reload_line, render_stats,
    shutdown_line, slice_line, stats_doc, stats_line, status_line, Admission, Op, ProgramRef,
    SliceRequest, SlowQueryRow, SourceFile, StatsSnapshot, StatusSnapshot, TenantRow,
    MAX_LINE_BYTES,
};
use thinslice::{report, Budget, Engine, FaultInjection, Query, QueryPolicy, SliceResult};
use thinslice_util::govern::Completeness;
use thinslice_util::telemetry::{FlightKind, FlightRecorder, Histogram, Json, Telemetry};
use thinslice_util::FxHashMap;

/// How many slow queries the log retains (oldest dropped first).
const SLOW_LOG_CAP: usize = 32;

/// How many flight-recorder events a `stats` response tails.
const EVENT_TAIL: usize = 32;

/// A writer shared between the reader thread and the workers; response
/// lines are serialized under its lock and flushed per line.
pub type SharedOut = Arc<Mutex<dyn Write + Send>>;

/// Wraps a writer for [`Server::serve`].
pub fn shared_out<W: Write + Send + 'static>(w: W) -> SharedOut {
    Arc::new(Mutex::new(w))
}

/// Server tuning knobs. The default is a deterministic single-worker
/// daemon with admission thresholds suited to interactive load.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing slice queries.
    pub workers: usize,
    /// Session-pool sizing (cap, watermark, points-to config).
    pub pool: PoolConfig,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Step quota applied to requests that do not carry their own.
    pub default_step_budget: Option<u64>,
    /// Queue depth at which CS requests degrade to CI (`usize::MAX`
    /// disables the rung).
    pub degrade_pending: usize,
    /// Queue depth at which requests additionally get a hard step cap.
    pub truncate_pending: usize,
    /// The step cap applied at the [`Admission::Truncate`] rung.
    pub truncate_step_cap: u64,
    /// Cumulative per-client step allowance (graph nodes visited);
    /// clients over it are served at the truncate rung.
    pub client_step_budget: Option<u64>,
    /// How many times a panicked request is retried on a rebuilt
    /// session before a `panic` error response.
    pub retries: u32,
    /// Whether request-carried `"chaos"` fault fields are honoured.
    pub chaos: bool,
    /// Config-level deterministic fault: the `query`-th slice request
    /// (arrival order, 0-based) panics for its first `attempts` attempts.
    pub fault: Option<FaultInjection>,
    /// Reject programs whose summed source bytes exceed this.
    pub max_program_bytes: usize,
    /// Collect telemetry; `status` responses then embed a
    /// `thinslice.run_report.v1` report.
    pub trace: bool,
    /// Flight-recorder ring capacity in events; 0 disables the recorder
    /// entirely (the `stats` op then reports an empty event tail).
    pub recorder_capacity: usize,
    /// Slow-query threshold in milliseconds: requests at or over it are
    /// captured into the slow-query log and the flight recorder.
    /// [`None`] disables the log; 0 captures every request.
    pub slow_ms: Option<u64>,
    /// Emit a `stats` snapshot to stderr every this-many seconds while
    /// serving (the operator's drive-by view; [`None`] disables it).
    pub stats_interval: Option<u64>,
    /// After a drain the external shutdown flag started, `exit(0)` instead
    /// of returning (the CLI sets this in stdin mode, where a reader
    /// blocked on stdin cannot be joined). Runs the flag did not stop are
    /// unaffected.
    pub exit_on_signal: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            pool: PoolConfig::default(),
            default_deadline_ms: None,
            default_step_budget: None,
            degrade_pending: 64,
            truncate_pending: 256,
            truncate_step_cap: 50_000,
            client_step_budget: None,
            retries: 1,
            chaos: false,
            fault: None,
            max_program_bytes: 4 * 1024 * 1024,
            trace: false,
            recorder_capacity: 256,
            slow_ms: None,
            stats_interval: None,
            exit_on_signal: false,
        }
    }
}

/// What one [`Server::serve`] run did (reported on stderr by the CLI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Successful responses written.
    pub served: u64,
    /// Error responses written.
    pub errors: u64,
    /// Query panics caught (injected or real).
    pub panics: u64,
}

struct Job {
    id: Option<u64>,
    client: String,
    req: SliceRequest,
    admission: Admission,
    /// When the job entered the queue, for the slow-query log's
    /// queue-time stage breakdown.
    enqueued: Instant,
    out: SharedOut,
}

/// One tenant's live aggregation (under the observability lock).
#[derive(Default)]
struct TenantAgg {
    requests: u64,
    errors: u64,
    retries: u64,
    degraded: u64,
    shed: u64,
    spent_steps: u64,
    exit_hits: u64,
    exit_misses: u64,
    latency: Histogram,
}

/// Wall-clock stage breakdown of one completed request, in microseconds
/// (plus the step spend charged for it).
struct ObservedTiming {
    queue_us: u64,
    exec_us: u64,
    spend: u64,
}

/// The observability plane's mutable state. One mutex, touched once per
/// completed request and once per `stats` snapshot — never while a query
/// runs, so an idle daemon (and the query itself) pays nothing for it.
#[derive(Default)]
struct Obs {
    /// Per-tenant tables, keyed by client name (sorted iteration gives
    /// the stats doc its deterministic row order).
    tenants: BTreeMap<String, TenantAgg>,
    /// Per-program latency histograms, keyed by pool hash.
    session_lat: BTreeMap<String, Histogram>,
    /// The slow-query log, oldest first, capped at [`SLOW_LOG_CAP`].
    slow: VecDeque<SlowQueryRow>,
}

struct Ack {
    id: Option<u64>,
    drained: usize,
    out: SharedOut,
}

#[derive(Default)]
struct Sched {
    /// Per-client FIFO queues, in first-seen client order; served
    /// round-robin from `rr`.
    queues: Vec<(String, VecDeque<Job>)>,
    rr: usize,
    pending: usize,
    in_flight: usize,
    accepting: bool,
    /// Cumulative step spend (graph nodes visited) per client.
    spent: FxHashMap<String, u64>,
}

/// The long-lived daemon core. Drivable in-process (the chaos suite
/// feeds it a byte buffer) or from the CLI over stdin/socket.
pub struct Server {
    cfg: ServeConfig,
    telemetry: Telemetry,
    pool: Mutex<SessionPool>,
    sched: Mutex<Sched>,
    cv: Condvar,
    shutdown: Arc<AtomicBool>,
    shutdown_ack: Mutex<Option<Ack>>,
    slice_seq: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    /// Always-on flight recorder ([`None`] when `recorder_capacity` is 0).
    recorder: Option<Arc<FlightRecorder>>,
    /// Per-tenant tables, per-session latency, slow-query log.
    obs: Mutex<Obs>,
    /// When the server was built, for `uptime_ms`.
    start: Instant,
}

impl Server {
    /// Builds a server; nothing runs until [`Server::serve`].
    pub fn new(cfg: ServeConfig) -> Server {
        let telemetry = if cfg.trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let recorder = (cfg.recorder_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(cfg.recorder_capacity)));
        let mut pool = SessionPool::new(cfg.pool.clone(), telemetry.clone());
        pool.set_recorder(recorder.clone());
        Server {
            cfg,
            telemetry,
            pool: Mutex::new(pool),
            sched: Mutex::new(Sched {
                accepting: true,
                ..Sched::default()
            }),
            cv: Condvar::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            shutdown_ack: Mutex::new(None),
            slice_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            recorder,
            obs: Mutex::new(Obs::default()),
            start: Instant::now(),
        }
    }

    fn flight(&self, kind: FlightKind, label: &str, a: u64, b: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(kind, label, a, b);
        }
    }

    /// Attributes one error response to a tenant's table.
    fn tenant_err(&self, client: &str) {
        let mut obs = self.obs.lock().unwrap();
        obs.tenants.entry(client.to_string()).or_default().errors += 1;
    }

    /// The external shutdown flag; a signal handler stores `true` and
    /// the serve loop drains and exits. Clone freely.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    fn write_ok(&self, out: &SharedOut, line: &str) {
        self.served.fetch_add(1, Ordering::Relaxed);
        Self::write_raw(out, line);
    }

    fn write_err(&self, out: &SharedOut, id: Option<u64>, code: &str, message: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Self::write_raw(out, &error_line(id, code, message));
    }

    fn write_raw(out: &SharedOut, line: &str) {
        let mut o = out.lock().unwrap();
        let _ = writeln!(o, "{line}");
        let _ = o.flush();
    }

    fn admission_for(&self, pending: usize) -> Admission {
        if pending >= self.cfg.truncate_pending {
            Admission::Truncate
        } else if pending >= self.cfg.degrade_pending {
            Admission::DegradeCi
        } else {
            Admission::Full
        }
    }

    fn handle_load(&self, id: Option<u64>, sources: Vec<SourceFile>, out: &SharedOut) {
        match self.pool.lock().unwrap().register(sources) {
            Ok(r) => self.write_ok(out, &load_line(id, &r.hash, r.cached, r.resident)),
            Err(e) => self.write_err(out, id, "compile", &e.to_string()),
        }
    }

    /// Answers a `reload` synchronously on the reader thread, like `load`:
    /// the pool swaps the entry's sources under its existing key and opens
    /// a fresh lazy session before the response is written, so every later
    /// query on that key sees the new program.
    fn handle_reload(
        &self,
        id: Option<u64>,
        program: String,
        sources: Vec<SourceFile>,
        out: &SharedOut,
    ) {
        match self.pool.lock().unwrap().reload(&program, sources) {
            Ok(r) => self.write_ok(out, &reload_line(id, &r.hash, &r.content, r.resident)),
            Err(PoolError::UnknownProgram) => self.write_err(
                out,
                id,
                "unknown_program",
                &format!("program {program:?} was never loaded"),
            ),
            Err(PoolError::Compile(e)) => self.write_err(out, id, "compile", &e.to_string()),
        }
    }

    fn status_snapshot(&self, pool: &SessionPool) -> StatusSnapshot {
        StatusSnapshot {
            programs: pool.programs(),
            live_sessions: pool.live_sessions(),
            quarantined: pool.quarantined(),
            resident: pool.resident_total(),
            evictions: pool.stats.evictions,
            rebuilds: pool.stats.rebuilds,
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            pool_capacity: pool.capacity(),
            uptime_ms: self.start.elapsed().as_millis() as u64,
        }
    }

    fn handle_status(&self, id: Option<u64>, out: &SharedOut) {
        let snap = self.status_snapshot(&self.pool.lock().unwrap());
        let report = self.cfg.trace.then(|| self.telemetry.report().to_json());
        self.write_ok(out, &status_line(id, &snap, report.as_deref()));
    }

    /// Gathers the full observability snapshot. Pool and observability
    /// locks are taken one after the other, never nested, and never
    /// while a query is executing.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let (status, mut sessions, pool_stats) = {
            let pool = self.pool.lock().unwrap();
            (self.status_snapshot(&pool), pool.session_rows(), pool.stats)
        };
        let obs = self.obs.lock().unwrap();
        for row in &mut sessions {
            if let Some(h) = obs.session_lat.get(&row.program) {
                row.latency_us = h.summary();
            }
        }
        let tenants = obs
            .tenants
            .iter()
            .map(|(client, t)| TenantRow {
                client: client.clone(),
                requests: t.requests,
                errors: t.errors,
                retries: t.retries,
                degraded: t.degraded,
                shed: t.shed,
                spent_steps: t.spent_steps,
                exit_hits: t.exit_hits,
                exit_misses: t.exit_misses,
                latency_us: t.latency.summary(),
            })
            .collect();
        let slow = obs.slow.iter().cloned().collect();
        drop(obs);
        let (recorded, recorder_capacity, events) = match &self.recorder {
            Some(rec) => (rec.recorded(), rec.capacity(), rec.tail(EVENT_TAIL)),
            None => (0, 0, Vec::new()),
        };
        StatsSnapshot {
            uptime_ms: status.uptime_ms,
            status,
            pool_hits: pool_stats.hits,
            pool_misses: pool_stats.misses,
            pool_builds: pool_stats.builds,
            pool_quarantines: pool_stats.quarantines,
            pool_reloads: pool_stats.reloads,
            snapshot_hits: pool_stats.snapshot_hits,
            snapshot_misses: pool_stats.snapshot_misses,
            snapshot_writes: pool_stats.snapshot_writes,
            snapshot_discarded_corrupt: pool_stats.snapshot_discarded_corrupt,
            recorded,
            recorder_capacity,
            tenants,
            sessions,
            slow,
            events,
        }
    }

    fn handle_shutdown(&self, id: Option<u64>, out: &SharedOut) {
        let mut sched = self.sched.lock().unwrap();
        if !sched.accepting {
            drop(sched);
            self.write_err(out, id, "shutting_down", "shutdown already in progress");
            return;
        }
        sched.accepting = false;
        let drained = sched.pending + sched.in_flight;
        drop(sched);
        *self.shutdown_ack.lock().unwrap() = Some(Ack {
            id,
            drained,
            out: out.clone(),
        });
        self.cv.notify_all();
    }

    fn enqueue_slice(&self, id: Option<u64>, client: String, req: SliceRequest, out: &SharedOut) {
        let mut chaos_panics = req.chaos_panics;
        if chaos_panics > 0 && !self.cfg.chaos {
            self.tenant_err(&client);
            self.write_err(
                out,
                id,
                "chaos_disabled",
                "request carries a chaos fault but the server was not started with --chaos",
            );
            return;
        }
        let seq = self.slice_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(fault) = &self.cfg.fault {
            if fault.query as u64 == seq {
                chaos_panics = chaos_panics.max(fault.attempts);
            }
        }
        let mut req = req;
        req.chaos_panics = chaos_panics;

        let mut sched = self.sched.lock().unwrap();
        if !sched.accepting {
            drop(sched);
            self.tenant_err(&client);
            self.write_err(out, id, "shutting_down", "server is draining; resend later");
            return;
        }
        let admission = self.admission_for(sched.pending);
        let job = Job {
            id,
            client: client.clone(),
            req,
            admission,
            enqueued: Instant::now(),
            out: out.clone(),
        };
        match sched.queues.iter_mut().find(|(c, _)| *c == client) {
            Some((_, q)) => q.push_back(job),
            None => sched.queues.push((client, VecDeque::from([job]))),
        }
        sched.pending += 1;
        drop(sched);
        self.cv.notify_all();
    }

    /// Handles one request line: synchronous ops are answered in place,
    /// slice queries are queued for the workers. Total over arbitrary
    /// input — every failure is a structured error response. A `shutdown`
    /// request closes the scheduler, which stops every reader.
    pub fn ingest(&self, line: &str, out: &SharedOut) {
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => return self.write_err(out, e.id, e.code, &e.message),
        };
        // Every op that carries sources is refused here, before it
        // reaches the pool; only a refused slice counts against its tenant.
        let sources = match &req.op {
            Op::Load { sources } | Op::Reload { sources, .. } => sources.as_slice(),
            Op::Slice(SliceRequest {
                program: ProgramRef::Inline(sources),
                ..
            }) => sources.as_slice(),
            _ => &[],
        };
        let size: usize = sources.iter().map(|s| s.name.len() + s.text.len()).sum();
        if size > self.cfg.max_program_bytes {
            let limit = self.cfg.max_program_bytes;
            let msg = format!("program is {size} bytes (limit {limit})");
            if matches!(req.op, Op::Slice(_)) {
                self.tenant_err(&req.client);
            }
            return self.write_err(out, req.id, "too_large", &msg);
        }
        match req.op {
            Op::Load { sources } => self.handle_load(req.id, sources, out),
            Op::Reload { program, sources } => self.handle_reload(req.id, program, sources, out),
            Op::Status => self.handle_status(req.id, out),
            Op::Stats => self.write_ok(out, &stats_line(req.id, &self.stats_snapshot())),
            Op::Shutdown => self.handle_shutdown(req.id, out),
            Op::Slice(sr) => self.enqueue_slice(req.id, req.client, sr, out),
        }
    }

    fn pop_job(sched: &mut Sched) -> Option<Job> {
        if sched.pending == 0 || sched.queues.is_empty() {
            return None;
        }
        let n = sched.queues.len();
        for step in 0..n {
            let i = (sched.rr + step) % n;
            if let Some(job) = sched.queues[i].1.pop_front() {
                sched.rr = (i + 1) % n;
                sched.pending -= 1;
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut sched = self.sched.lock().unwrap();
                loop {
                    if let Some(job) = Self::pop_job(&mut sched) {
                        sched.in_flight += 1;
                        break job;
                    }
                    if !sched.accepting {
                        return;
                    }
                    sched = self.cv.wait(sched).unwrap();
                }
            };
            self.execute(job);
            let mut sched = self.sched.lock().unwrap();
            sched.in_flight -= 1;
            drop(sched);
            self.cv.notify_all();
        }
    }

    /// Resolves the job's program to a pool hash, registering inline
    /// sources on first use.
    fn resolve_program(&self, job: &Job) -> Result<String, (&'static str, String)> {
        match &job.req.program {
            ProgramRef::Hash(h) => {
                if self.pool.lock().unwrap().contains(h) {
                    Ok(h.clone())
                } else {
                    Err((
                        "unknown_program",
                        format!("program {h:?} is not registered; send a load request first"),
                    ))
                }
            }
            ProgramRef::Inline(sources) => {
                match self.pool.lock().unwrap().register(sources.clone()) {
                    Ok(r) => Ok(r.hash),
                    Err(e) => Err(("compile", e.to_string())),
                }
            }
        }
    }

    fn execute(&self, job: Job) {
        let started = Instant::now();
        let queue_us = started.duration_since(job.enqueued).as_micros() as u64;
        let hash = match self.resolve_program(&job) {
            Ok(h) => h,
            Err((code, msg)) => {
                self.tenant_err(&job.client);
                self.write_err(&job.out, job.id, code, &msg);
                return;
            }
        };
        // A client over its cumulative allowance is load-shed to the
        // truncate rung; other tenants are unaffected.
        let mut admission = job.admission;
        if let Some(allowance) = self.cfg.client_step_budget {
            let sched = self.sched.lock().unwrap();
            if sched.spent.get(&job.client).copied().unwrap_or(0) >= allowance {
                admission = Admission::Truncate;
            }
        }
        let admission_kind = match admission {
            Admission::Full => FlightKind::RequestAdmitted,
            Admission::DegradeCi => FlightKind::RequestDegraded,
            Admission::Truncate => FlightKind::RequestShed,
        };
        self.flight(admission_kind, &job.client, job.id.unwrap_or(0), queue_us);

        let mut attempt: u32 = 0;
        loop {
            let mut co = match self.pool.lock().unwrap().checkout(&hash) {
                Ok(co) => co,
                Err(PoolError::UnknownProgram) => {
                    self.tenant_err(&job.client);
                    self.write_err(
                        &job.out,
                        job.id,
                        "unknown_program",
                        &format!("program {hash:?} is not registered"),
                    );
                    return;
                }
                Err(PoolError::Compile(e)) => {
                    self.tenant_err(&job.client);
                    self.write_err(&job.out, job.id, "compile", &e.to_string());
                    return;
                }
            };
            if job.req.chaos_panics > attempt {
                self.flight(
                    FlightKind::FaultInjected,
                    &job.client,
                    job.id.unwrap_or(0),
                    u64::from(attempt),
                );
            }
            let memo_before = co.session().memo_stats();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if job.req.chaos_panics > attempt {
                    panic!("injected chaos panic (attempt {attempt})");
                }
                self.run_query(co.session(), &job.req, admission)
            }));
            match outcome {
                Ok(Ok((slice, engine, stmts, spend))) => {
                    let memo = co.session().memo_stats().since(&memo_before);
                    self.pool.lock().unwrap().checkin(co);
                    {
                        let mut sched = self.sched.lock().unwrap();
                        *sched.spent.entry(job.client.clone()).or_insert(0) += spend;
                    }
                    let degraded =
                        slice.degraded || (job.req.engine == Engine::Cs && engine == Engine::Ci);
                    if let Completeness::Truncated { frontier, .. } = slice.completeness {
                        self.flight(
                            FlightKind::BudgetExhausted,
                            &job.client,
                            frontier as u64,
                            spend,
                        );
                    }
                    let timing = ObservedTiming {
                        queue_us,
                        exec_us: started.elapsed().as_micros() as u64,
                        spend,
                    };
                    self.observe(
                        &job, &hash, admission, engine, &slice, attempt, memo, timing,
                    );
                    self.write_ok(
                        &job.out,
                        &slice_line(
                            job.id,
                            &hash,
                            engine,
                            job.req.kind,
                            admission,
                            degraded,
                            slice.completeness,
                            &stmts,
                        ),
                    );
                    return;
                }
                Ok(Err(msg)) => {
                    self.pool.lock().unwrap().checkin(co);
                    self.tenant_err(&job.client);
                    self.write_err(&job.out, job.id, "seed", &msg);
                    return;
                }
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    self.pool.lock().unwrap().quarantine(co);
                    attempt += 1;
                    if attempt > self.cfg.retries {
                        self.tenant_err(&job.client);
                        self.write_err(
                            &job.out,
                            job.id,
                            "panic",
                            &format!(
                                "query panicked on {attempt} attempts ({}); session \
                                 quarantined and will rebuild on the next request",
                                panic_message(payload.as_ref())
                            ),
                        );
                        return;
                    }
                    // Retry: the next checkout rebuilds the quarantined
                    // session from sources.
                }
            }
        }
    }

    /// Folds one completed request into the per-tenant and per-session
    /// tables, and into the slow-query log when it crossed `slow_ms`.
    /// Runs after the query, outside every other lock — the response
    /// bytes are already fixed, so observation cannot perturb them.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &self,
        job: &Job,
        hash: &str,
        admission: Admission,
        engine: Engine,
        slice: &SliceResult,
        retries: u32,
        memo: thinslice::MemoStats,
        timing: ObservedTiming,
    ) {
        let total_us = timing.queue_us + timing.exec_us;
        let degraded = slice.degraded || (job.req.engine == Engine::Cs && engine == Engine::Ci);
        {
            let mut obs = self.obs.lock().unwrap();
            let t = obs.tenants.entry(job.client.clone()).or_default();
            t.requests += 1;
            t.retries += u64::from(retries);
            if degraded {
                t.degraded += 1;
            }
            if admission == Admission::Truncate {
                t.shed += 1;
            }
            t.spent_steps += timing.spend;
            t.exit_hits += memo.exit_hits;
            t.exit_misses += memo.exit_misses;
            t.latency.record(total_us as f64);
            obs.session_lat
                .entry(hash.to_string())
                .or_default()
                .record(total_us as f64);
        }
        let Some(slow_ms) = self.cfg.slow_ms else {
            return;
        };
        if total_us < slow_ms.saturating_mul(1000) {
            return;
        }
        self.flight(FlightKind::SlowQuery, &job.client, total_us, timing.spend);
        let row = SlowQueryRow {
            id: job.id,
            client: job.client.clone(),
            program: hash.to_string(),
            kind: kind_str(job.req.kind).to_string(),
            engine: engine_str(engine).to_string(),
            admission: admission.as_str().to_string(),
            completeness: match slice.completeness {
                Completeness::Complete => "complete".to_string(),
                Completeness::Truncated { .. } => "truncated".to_string(),
            },
            seeds: job.req.seeds.len(),
            queue_us: timing.queue_us,
            exec_us: timing.exec_us,
            total_us,
            spend: timing.spend,
        };
        let mut obs = self.obs.lock().unwrap();
        if obs.slow.len() == SLOW_LOG_CAP {
            obs.slow.pop_front();
        }
        obs.slow.push_back(row);
    }

    /// Runs one query attempt on a checked-out session. Returns the
    /// result, the engine actually used, the canonical statement lines,
    /// and the step spend charged to the client.
    #[allow(clippy::type_complexity)]
    fn run_query(
        &self,
        session: &mut thinslice::AnalysisSession,
        req: &SliceRequest,
        admission: Admission,
    ) -> Result<(SliceResult, Engine, Vec<String>, u64), String> {
        let mut seeds = Vec::new();
        for sr in &req.seeds {
            match session.seed_at_line(&sr.file, sr.line) {
                Some(s) => seeds.extend(s),
                None => return Err(format!("no statements at {}:{}", sr.file, sr.line)),
            }
        }
        let engine = match (admission, req.engine) {
            (Admission::DegradeCi | Admission::Truncate, Engine::Cs) => Engine::Ci,
            (_, e) => e,
        };
        let mut budget = Budget::default();
        if let Some(ms) = req.deadline_ms.or(self.cfg.default_deadline_ms) {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(steps) = req.step_budget.or(self.cfg.default_step_budget) {
            budget = budget.with_step_limit(steps);
        }
        if admission == Admission::Truncate {
            budget = budget.cap_steps(self.cfg.truncate_step_cap);
        }
        let policy = QueryPolicy {
            budget: (!budget.is_unlimited()).then_some(budget),
            degrade: req.degrade,
        };
        let query = Query::new(seeds, req.kind, engine).with_policy(policy);
        let slice = session.query(&query);
        let stmts = report::stmt_lines(session.program(), &slice.stmts);
        let spend = slice.nodes.len() as u64;
        Ok((slice, engine, stmts, spend))
    }

    /// Emits the `--stats-interval` stderr snapshot when one is due,
    /// rendered exactly as `thinslice stats` renders it. Costs a clock read
    /// per loop tick when disabled or not yet due — the
    /// zero-overhead-when-idle invariant in practice.
    fn stats_tick(&self, last: &mut Instant) {
        let Some(secs) = self.cfg.stats_interval else {
            return;
        };
        if last.elapsed() < Duration::from_secs(secs.max(1)) {
            return;
        }
        *last = Instant::now();
        let doc = Json::parse(&stats_doc(&self.stats_snapshot()))
            .expect("stats_doc writes well-formed JSON");
        eprint!("{}", render_stats(&doc));
    }

    fn begin_drain(&self) {
        self.sched.lock().unwrap().accepting = false;
        self.cv.notify_all();
    }

    fn wait_drained(&self) {
        let mut sched = self.sched.lock().unwrap();
        while sched.pending > 0 || sched.in_flight > 0 {
            sched = self.cv.wait(sched).unwrap();
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// Whether intake has stopped: the external shutdown flag is set, or
    /// the scheduler was closed by a `shutdown` request or the end of the
    /// stdin input.
    fn intake_stopped(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || !self.sched.lock().unwrap().accepting
    }

    /// The lifecycle both transports share: spawn the workers and `start`
    /// the transport, run `step` until intake stops (ticking the stats
    /// snapshot between steps; a step returns within about 25 ms, which
    /// bounds how long a signal waits), then drain, persist every live
    /// session for a warm restart, and acknowledge an owed `shutdown`.
    fn run<'env>(
        &'env self,
        start: impl for<'s> FnOnce(&'s Scope<'s, 'env>),
        mut step: impl for<'s> FnMut(&'s Scope<'s, 'env>),
    ) -> ServeSummary {
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            start(scope);
            let mut last_snapshot = Instant::now();
            while !self.intake_stopped() {
                self.stats_tick(&mut last_snapshot);
                step(scope);
            }
            let signalled = self.shutdown.load(Ordering::Relaxed);
            self.begin_drain();
            self.wait_drained();
            self.pool.lock().unwrap().persist_all();
            if let Some(ack) = self.shutdown_ack.lock().unwrap().take() {
                self.write_ok(&ack.out, &shutdown_line(ack.id, ack.drained));
            }
            let summary = self.summary();
            if signalled && self.cfg.exit_on_signal {
                // A reader blocked on stdin could never be joined. Every
                // query is drained and every response line was flushed as
                // it was written, so exiting the process is the clean option.
                eprintln!(
                    "thinslice-serve: signal received; drained in-flight queries \
                     (served {}, errors {}, panics {}); exiting",
                    summary.served, summary.errors, summary.panics
                );
                std::process::exit(0);
            }
            summary
        })
    }

    /// Runs the daemon over one input stream until EOF, a `shutdown`
    /// request, or the external [`Server::shutdown_flag`]. All three
    /// paths stop intake, drain every queued and in-flight query (each
    /// still receives its response), then return the run's summary —
    /// after writing the `shutdown` acknowledgement when one is owed.
    pub fn serve<R: BufRead + Send>(&self, input: R, out: SharedOut) -> ServeSummary {
        self.run(
            |scope| {
                scope.spawn(move || {
                    self.read_lines(input, &out);
                    self.begin_drain();
                });
            },
            // The reader may block in a read indefinitely, so this thread
            // waits beside it and keeps the signal flag and ticker served.
            |_| {
                let sched = self.sched.lock().unwrap();
                let _ = self
                    .cv
                    .wait_timeout(sched, Duration::from_millis(25))
                    .unwrap();
            },
        )
    }

    /// Serves a Unix-domain socket: each accepted connection gets its own
    /// reader thread and writes responses back on that connection, while
    /// all connections share the worker pool, session pool, and admission
    /// state. A `shutdown` request from any client — or the external
    /// [`Server::shutdown_flag`] — stops intake on every connection,
    /// drains, acknowledges, and returns. A failed `accept` (say, EMFILE
    /// while every descriptor is in use) is retried after a back-off; it
    /// never ends the daemon.
    #[cfg(unix)]
    pub fn serve_listener(&self, listener: std::os::unix::net::UnixListener) -> ServeSummary {
        // Non-blocking accept so the loop can observe the stop condition.
        let _ = listener.set_nonblocking(true);
        self.run(
            |_| {},
            |scope| match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(move || self.serve_conn(stream));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            },
        )
    }

    /// Serves one socket connection through [`Server::read_lines`],
    /// answering on the same stream. Reads carry a short timeout so the
    /// reader notices a daemon-wide drain even while its client is idle.
    #[cfg(unix)]
    fn serve_conn(&self, stream: std::os::unix::net::UnixStream) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        self.read_lines(std::io::BufReader::new(stream), &shared_out(writer));
    }

    /// Reads request lines from either transport and ingests each, until
    /// EOF, a `shutdown` request, an unrecoverable read error, or intake
    /// stopping elsewhere. Lines are bounded by [`MAX_LINE_BYTES`]: an
    /// oversized line gets one `too_large` error and the rest of it is
    /// discarded without being buffered. Bytes are decoded as lossy UTF-8,
    /// so invalid UTF-8 becomes a `parse` error response. A read that
    /// would block or timed out only re-checks the stop condition. A final
    /// line without a newline is still answered at EOF.
    fn read_lines<R: BufRead>(&self, mut input: R, out: &SharedOut) {
        let mut line: Vec<u8> = Vec::new();
        let mut skipping = false; // discarding the rest of an oversized line
        loop {
            if self.intake_stopped() {
                return;
            }
            let (line_end, eof) = match input.fill_buf() {
                Ok([]) => (true, true),
                Ok(chunk) => {
                    let (len, end) = match chunk.iter().position(|&b| b == b'\n') {
                        Some(pos) => (pos, true),
                        None => (chunk.len(), false),
                    };
                    if !skipping {
                        line.extend_from_slice(&chunk[..len]);
                    }
                    input.consume(len + usize::from(end));
                    (end, false)
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            };
            if !skipping && line.len() > MAX_LINE_BYTES {
                self.write_err(
                    out,
                    None,
                    "too_large",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                line.clear();
                skipping = !line_end;
            } else if line_end {
                skipping = false;
                let text = String::from_utf8_lossy(&line);
                let text = text.trim_end_matches('\r');
                if !text.trim().is_empty() {
                    self.ingest(text, out);
                }
                line.clear();
            }
            if eof {
                return;
            }
        }
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
