//! `thinslice` — a command-line thin-slicing tool for MJ programs.
//!
//! The workflow the paper envisions (§1, §4): seed a thin slice at a
//! suspicious statement, read the producers, and expand on demand —
//! aliasing explanations for heap hops, control dependences for guards.
//!
//! ```text
//! thinslice slice   <file.mj>... --seed <file:line> [--kind thin|data|full] [--cs]
//! thinslice slice   <file.mj>... (--seeds-file <path> | --all-seeds) [--threads <n>]
//! thinslice explain <file.mj>... --seed <file:line>
//! thinslice run     <file.mj>... [--line <input>]... [--int <n>]... [--dynamic-slice]
//! thinslice info    <file.mj>...
//! thinslice serve   [--socket <path>] [--workers <n>] [--chaos] ...
//! thinslice stats   --socket <path> [--json]
//! ```
//!
//! Batch mode (`--seeds-file`, one `file:line` per line, or `--all-seeds`
//! for every sliceable source line) answers all queries over one shared
//! frozen dependence graph, fanned out across `--threads` workers.
//!
//! Every command runs on an [`AnalysisSession`]: one lazily built pipeline
//! per invocation, one [`RunCtx`] carrying whatever telemetry and budget
//! the flags describe, and every slice answered through [`Query`].

use std::process::ExitCode;
use thinslice::{
    report, AnalysisSession, BatchOptions, Budget, Engine, Query, RunCtx, RunReport, SliceKind,
    Telemetry,
};
use thinslice_interp::{dynamic_thin_slice, run_ctx as interp_run, ExecConfig};
use thinslice_ir::pretty;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  thinslice slice   <file.mj>... --seed <file:line> [--kind thin|data|full] [--cs] [--no-objsens]
  thinslice slice   <file.mj>... (--seeds-file <path> | --all-seeds) [--threads <n>] [--kind ...]
                    [--snapshot-dir <dir>] (either form: warm-start from / persist
                    to content-hash-keyed session snapshots, skipping the build)
  thinslice explain <file.mj>... --seed <file:line>
  thinslice run     <file.mj>... [--line <text>]... [--int <n>]... [--dynamic-slice]
  thinslice info    <file.mj>...
  thinslice validate-report <report.json | responses.jsonl>
  thinslice serve   [--socket <path>] [--workers <n>] [--max-sessions <n>]
                    [--resident-watermark <elems>] [--snapshot-dir <dir>]
                    [--deadline-ms <n>]
                    [--step-budget <n>] [--degrade-pending <n>]
                    [--truncate-pending <n>] [--truncate-step-cap <n>]
                    [--client-step-budget <n>] [--max-program-bytes <n>]
                    [--retries <n>] [--chaos] [--trace]
                    [--recorder-capacity <n>] [--slow-ms <ms>]
                    [--stats-interval <secs>]
  thinslice stats   --socket <path> [--json]
  thinslice reload  <file.mj>... --socket <path> --program <hash> [--json]

serve runs the multi-tenant slice daemon: line-delimited JSON requests on
  stdin (responses on stdout), or on a Unix socket with --socket. SIGTERM
  drains in-flight queries before exiting. See DESIGN.md for the protocol.

serve observability: the flight recorder is always on (--recorder-capacity
  events, 0 disables); --slow-ms logs queries over the threshold;
  --stats-interval prints a stats snapshot to stderr every <secs> seconds.
  `thinslice stats` asks a running daemon for its thinslice.serve_stats.v1
  document over the socket and renders a top-style table (--json prints
  the raw response line instead).

governance (any command): [--deadline-ms <n>] [--step-budget <n>] [--fail-fast]
  Budgeted stages never abort: they return sound partial results marked
  [TRUNCATED: <reason>; ~<n> pending]. A context-sensitive query that
  exhausts its budget degrades to context-insensitive reachability.

telemetry (any command): [--trace] [--trace-format json|text] [--metrics-out <path>]
  --trace prints the run's spans and metrics to stderr; --metrics-out
  writes the machine-readable run report (thinslice.run_report.v1 JSON).
  Without these flags no telemetry is collected and output is unchanged.";

struct Options {
    files: Vec<String>,
    seed: Option<(String, u32)>,
    seeds_file: Option<String>,
    all_seeds: bool,
    threads: usize,
    kind: SliceKind,
    context_sensitive: bool,
    object_sensitive: bool,
    lines: Vec<String>,
    ints: Vec<i64>,
    dynamic_slice: bool,
    deadline_ms: Option<u64>,
    step_budget: Option<u64>,
    fail_fast: bool,
    trace: bool,
    trace_json: bool,
    metrics_out: Option<String>,
    snapshot_dir: Option<String>,
}

impl Options {
    /// The resource budget the flags describe (unlimited when no
    /// governance flag was given).
    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = self.step_budget {
            b = b.with_step_limit(n);
        }
        b
    }

    /// Whether any governance flag is active (the governed code paths are
    /// only taken then, so ungoverned runs stay byte-identical).
    fn governed(&self) -> bool {
        self.deadline_ms.is_some() || self.step_budget.is_some() || self.fail_fast
    }

    /// The telemetry handle the flags describe: enabled only when a
    /// telemetry flag was given, so plain runs collect nothing and their
    /// output stays byte-identical.
    fn telemetry(&self) -> Telemetry {
        if self.trace || self.metrics_out.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// The one [`RunCtx`] every stage of this invocation runs under,
    /// bundling [`Options::telemetry`] and (when governed)
    /// [`Options::budget`].
    fn run_ctx(&self) -> RunCtx {
        let mut ctx = RunCtx::disabled().with_telemetry(self.telemetry());
        if self.governed() {
            ctx = ctx.with_budget(self.budget());
        }
        ctx
    }

    /// Which slicing engine the flags select.
    fn engine(&self) -> Engine {
        if self.context_sensitive {
            Engine::Cs
        } else {
            Engine::Ci
        }
    }
}

/// Parses the governance and telemetry flags shared by every command
/// (`--deadline-ms`, `--step-budget`, `--fail-fast`, `--trace`,
/// `--trace-format`, `--metrics-out`). Returns whether `flag` was one of
/// them (its value, if any, consumed from `it`).
fn parse_shared_flag(
    o: &mut Options,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, String> {
    match flag {
        "--deadline-ms" => {
            let v = it.next().ok_or("--deadline-ms needs milliseconds")?;
            o.deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline {v:?}"))?);
        }
        "--step-budget" => {
            let v = it.next().ok_or("--step-budget needs a count")?;
            o.step_budget = Some(v.parse().map_err(|_| format!("bad step budget {v:?}"))?);
        }
        "--fail-fast" => o.fail_fast = true,
        "--trace" => o.trace = true,
        "--trace-format" => {
            o.trace_json = match it.next().map(String::as_str) {
                Some("json") => true,
                Some("text") => false,
                other => return Err(format!("unknown trace format {other:?}")),
            };
        }
        "--metrics-out" => {
            o.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        files: Vec::new(),
        seed: None,
        seeds_file: None,
        all_seeds: false,
        // An unparseable THINSLICE_THREADS is a clean CLI error here, not
        // a panic (and not silently ignored).
        threads: thinslice_util::par::try_default_threads()?,
        kind: SliceKind::Thin,
        context_sensitive: false,
        object_sensitive: true,
        lines: Vec::new(),
        ints: Vec::new(),
        dynamic_slice: false,
        deadline_ms: None,
        step_budget: None,
        fail_fast: false,
        trace: false,
        trace_json: false,
        metrics_out: None,
        snapshot_dir: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_shared_flag(&mut o, a.as_str(), &mut it)? {
            continue;
        }
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs <file:line>")?;
                let (f, l) = v.rsplit_once(':').ok_or("--seed format is <file:line>")?;
                let line: u32 = l.parse().map_err(|_| format!("bad line number {l:?}"))?;
                o.seed = Some((f.to_string(), line));
            }
            "--kind" => {
                o.kind = match it.next().map(String::as_str) {
                    Some("thin") => SliceKind::Thin,
                    Some("data") => SliceKind::TraditionalData,
                    Some("full") => SliceKind::TraditionalFull,
                    other => return Err(format!("unknown slice kind {other:?}")),
                };
            }
            "--seeds-file" => {
                o.seeds_file = Some(it.next().ok_or("--seeds-file needs a path")?.clone());
            }
            "--all-seeds" => o.all_seeds = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                o.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                if o.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--cs" => o.context_sensitive = true,
            "--no-objsens" => o.object_sensitive = false,
            "--line" => o.lines.push(it.next().ok_or("--line needs text")?.clone()),
            "--int" => {
                let v = it.next().ok_or("--int needs a number")?;
                o.ints
                    .push(v.parse().map_err(|_| format!("bad int {v:?}"))?);
            }
            "--dynamic-slice" => o.dynamic_slice = true,
            "--snapshot-dir" => {
                o.snapshot_dir = Some(it.next().ok_or("--snapshot-dir needs a directory")?.clone());
            }
            f if !f.starts_with('-') => o.files.push(f.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(o)
}

/// Where to persist a one-shot command's session once its stages have
/// been forced, so the next invocation on the same sources warm-starts.
struct SnapshotPersist {
    store: thinslice::SnapshotStore,
    key: String,
}

impl SnapshotPersist {
    /// Best-effort save; persistence never surfaces an error.
    fn persist(&self, s: &AnalysisSession) {
        let _ = self.store.save(s, &self.key);
    }
}

fn load(o: &Options, ctx: &RunCtx) -> Result<AnalysisSession, String> {
    load_with_snapshot(o, ctx).map(|(s, _)| s)
}

fn load_with_snapshot(
    o: &Options,
    ctx: &RunCtx,
) -> Result<(AnalysisSession, Option<SnapshotPersist>), String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for f in &o.files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let name = std::path::Path::new(f)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| f.clone());
        sources.push((name, text));
    }
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let config = if o.object_sensitive {
        thinslice_pta::PtaConfig::default()
    } else {
        thinslice_pta::PtaConfig::without_object_sensitivity()
    };
    let snapshot = o.snapshot_dir.as_ref().map(|dir| SnapshotPersist {
        store: thinslice::SnapshotStore::new(dir),
        key: thinslice::source_hash(&borrowed),
    });
    let warm = snapshot
        .as_ref()
        .and_then(|sn| sn.store.load(&sn.key, config.clone(), ctx.clone()));
    let mut session = match warm {
        Some(session) => session,
        None => {
            AnalysisSession::with_ctx(&borrowed, config, ctx.clone()).map_err(|e| e.to_string())?
        }
    };
    if o.governed() {
        let build = session.build_report();
        if !build.pta.is_complete() {
            eprintln!(
                "warning: points-to solve {}; the call graph is partial",
                build.pta
            );
        }
        if !build.sdg.is_complete() {
            eprintln!(
                "warning: SDG construction {}; some dependences are missing",
                build.sdg
            );
        }
    }
    Ok((session, snapshot))
}

fn resolve_seed(
    s: &mut AnalysisSession,
    o: &Options,
) -> Result<Vec<thinslice_ir::StmtRef>, String> {
    let (file, line) = o.seed.as_ref().ok_or("--seed is required")?;
    s.seed_at_line(file, *line)
        .ok_or_else(|| format!("{file}:{line} has no reachable statement"))
}

fn real_main(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("no command")?;
    if cmd == "serve" {
        // The daemon takes no input files and has its own flag set.
        return cmd_serve(rest);
    }
    if cmd == "stats" {
        // The stats client talks to a running daemon, no input files.
        return cmd_stats(rest);
    }
    if cmd == "reload" {
        // The reload client pushes edited sources to a running daemon.
        return cmd_reload(rest);
    }
    let o = parse_options(rest)?;
    let ctx = o.run_ctx();
    match cmd.as_str() {
        "slice" => cmd_slice(&o, &ctx)?,
        "explain" => cmd_explain(&o, &ctx)?,
        "run" => cmd_run(&o, &ctx)?,
        "info" => cmd_info(&o, &ctx)?,
        "validate-report" => cmd_validate_report(&o)?,
        other => return Err(format!("unknown command {other}")),
    }
    emit_telemetry(&o, ctx.telemetry())
}

/// Writes the run report where the telemetry flags asked for it: `--trace`
/// renders to stderr (text or JSON per `--trace-format`), `--metrics-out`
/// writes the JSON report to a file. No-op without telemetry flags.
fn emit_telemetry(o: &Options, tel: &Telemetry) -> Result<(), String> {
    if !tel.is_enabled() {
        return Ok(());
    }
    let report = tel.report();
    if let Some(path) = &o.metrics_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if o.trace {
        if o.trace_json {
            eprintln!("{}", report.to_json());
        } else {
            eprint!("{}", report.render_text());
        }
    }
    Ok(())
}

/// Validates previously emitted machine-readable output: a
/// `thinslice.run_report.v1` report (from `--metrics-out`), a
/// `thinslice.serve_response.v1` transcript (the line-delimited responses
/// a serve run wrote), or a `thinslice.serve_stats.v1` snapshot (the
/// document the `stats` op embeds). Dispatches on the `schema` field of
/// the first non-empty line; any other schema id is rejected by name.
fn cmd_validate_report(o: &Options) -> Result<(), String> {
    use thinslice_util::telemetry::Json;
    for path in &o.files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let first_schema = text
            .lines()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| Json::parse(l).ok())
            .and_then(|v| v.get("schema").and_then(Json::as_str).map(str::to_string));
        if first_schema.as_deref() == Some(thinslice_serve::RESPONSE_SCHEMA) {
            let mut responses = 0usize;
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                thinslice_serve::protocol::validate_response_line(line)
                    .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
                responses += 1;
            }
            println!(
                "{path}: valid {} transcript ({responses} responses)",
                thinslice_serve::RESPONSE_SCHEMA,
            );
            continue;
        }
        if first_schema.as_deref() == Some(thinslice_serve::SERVE_STATS_SCHEMA) {
            let doc =
                Json::parse(text.trim()).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
            let summary = thinslice_serve::protocol::validate_stats_doc(&doc)
                .map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: valid {} snapshot ({summary})",
                thinslice_serve::SERVE_STATS_SCHEMA,
            );
            continue;
        }
        let report = RunReport::from_json(&text).map_err(|e| match first_schema.as_deref() {
            Some(s) if s != thinslice_util::telemetry::RUN_REPORT_SCHEMA => format!(
                "{path}: unknown schema {s:?} (expected {:?}, {:?}, or {:?})",
                thinslice_util::telemetry::RUN_REPORT_SCHEMA,
                thinslice_serve::RESPONSE_SCHEMA,
                thinslice_serve::SERVE_STATS_SCHEMA,
            ),
            _ => format!("{path}: {e}"),
        })?;
        println!(
            "{path}: valid {} report ({} spans, {} counters, {} histograms, {} events)",
            thinslice_util::telemetry::RUN_REPORT_SCHEMA,
            report.spans.len(),
            report.counters.len(),
            report.histograms.len(),
            report.events.len(),
        );
    }
    Ok(())
}

/// The serve subcommand's options: a [`thinslice_serve::ServeConfig`]
/// plus where to listen (stdin by default, a Unix socket with `--socket`).
struct ServeCli {
    cfg: thinslice_serve::ServeConfig,
    socket: Option<String>,
}

fn parse_serve_options(args: &[String]) -> Result<ServeCli, String> {
    fn num<T: std::str::FromStr>(
        it: &mut std::slice::Iter<'_, String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
    }
    let mut cfg = thinslice_serve::ServeConfig::default();
    let mut socket = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.clone()),
            "--workers" => {
                cfg.workers = num(&mut it, "--workers")?;
                if cfg.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--max-sessions" => {
                cfg.pool.max_sessions = num(&mut it, "--max-sessions")?;
                if cfg.pool.max_sessions == 0 {
                    return Err("--max-sessions must be at least 1".into());
                }
            }
            "--resident-watermark" => {
                cfg.pool.resident_watermark = Some(num(&mut it, "--resident-watermark")?);
            }
            "--snapshot-dir" => {
                cfg.pool.snapshot_dir =
                    Some(it.next().ok_or("--snapshot-dir needs a directory")?.clone());
            }
            "--deadline-ms" => cfg.default_deadline_ms = Some(num(&mut it, "--deadline-ms")?),
            "--step-budget" => cfg.default_step_budget = Some(num(&mut it, "--step-budget")?),
            "--degrade-pending" => cfg.degrade_pending = num(&mut it, "--degrade-pending")?,
            "--truncate-pending" => cfg.truncate_pending = num(&mut it, "--truncate-pending")?,
            "--truncate-step-cap" => cfg.truncate_step_cap = num(&mut it, "--truncate-step-cap")?,
            "--client-step-budget" => {
                cfg.client_step_budget = Some(num(&mut it, "--client-step-budget")?);
            }
            "--max-program-bytes" => {
                cfg.max_program_bytes = num(&mut it, "--max-program-bytes")?;
            }
            "--retries" => cfg.retries = num(&mut it, "--retries")?,
            "--chaos" => cfg.chaos = true,
            "--trace" => cfg.trace = true,
            "--recorder-capacity" => cfg.recorder_capacity = num(&mut it, "--recorder-capacity")?,
            "--slow-ms" => cfg.slow_ms = Some(num(&mut it, "--slow-ms")?),
            "--stats-interval" => {
                cfg.stats_interval = Some(num(&mut it, "--stats-interval")?);
                if cfg.stats_interval == Some(0) {
                    return Err("--stats-interval must be at least 1 second".into());
                }
            }
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    // In stdin mode the reader thread may be blocked on a read when a
    // signal lands; the server drains, flushes, and exits the process.
    // Socket reads time out, so that mode drains and returns normally.
    cfg.exit_on_signal = socket.is_none();
    Ok(ServeCli { cfg, socket })
}

/// Installs a SIGTERM handler that flips the server's shutdown flag, so
/// `kill <pid>` drains in-flight queries instead of dropping them.
#[cfg(unix)]
fn install_sigterm(flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_sigterm(_sig: i32) {
        // Async-signal-safe: one atomic load + one atomic store.
        if let Some(f) = FLAG.get() {
            f.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    let _ = FLAG.set(flag);
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm(_flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let ServeCli { cfg, socket } = parse_serve_options(args)?;
    let server = thinslice_serve::Server::new(cfg);
    install_sigterm(server.shutdown_flag());
    let summary = match &socket {
        #[cfg(unix)]
        Some(path) => {
            // A stale socket file from a crashed run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener =
                std::os::unix::net::UnixListener::bind(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("thinslice-serve: listening on {path}");
            let summary = server.serve_listener(listener);
            let _ = std::fs::remove_file(path);
            summary
        }
        #[cfg(not(unix))]
        Some(_) => return Err("--socket is only supported on unix".into()),
        None => {
            let input = std::io::BufReader::new(std::io::stdin());
            server.serve(input, thinslice_serve::shared_out(std::io::stdout()))
        }
    };
    eprintln!(
        "thinslice-serve: done (served {}, errors {}, panics {})",
        summary.served, summary.errors, summary.panics
    );
    Ok(())
}

/// The stats subcommand's options: which daemon socket to query and
/// whether to print the raw response line instead of the rendered table.
struct StatsCli {
    socket: String,
    json: bool,
}

fn parse_stats_options(args: &[String]) -> Result<StatsCli, String> {
    let mut socket = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.clone()),
            "--json" => json = true,
            other => return Err(format!("unknown stats flag {other}")),
        }
    }
    Ok(StatsCli {
        socket: socket.ok_or("stats needs --socket <path> (the daemon's socket)")?,
        json,
    })
}

/// One-shot observability client: asks a running daemon for its
/// `thinslice.serve_stats.v1` snapshot over the Unix socket and renders
/// it as a `top`-style table (or the raw response line with `--json`).
#[cfg(unix)]
fn cmd_stats(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use thinslice_util::telemetry::Json;
    let cli = parse_stats_options(args)?;
    let mut stream = std::os::unix::net::UnixStream::connect(&cli.socket).map_err(|e| {
        format!(
            "{}: {e} (is `thinslice serve --socket {}` running?)",
            cli.socket, cli.socket
        )
    })?;
    stream
        .write_all(b"{\"op\":\"stats\",\"id\":0,\"client\":\"thinslice-stats\"}\n")
        .map_err(|e| format!("{}: write: {e}", cli.socket))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("{}: read: {e}", cli.socket))?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(format!(
            "{}: the daemon closed the connection without answering",
            cli.socket
        ));
    }
    thinslice_serve::protocol::validate_response_line(line)
        .map_err(|e| format!("{}: bad response: {e}", cli.socket))?;
    if cli.json {
        println!("{line}");
        return Ok(());
    }
    let v = Json::parse(line).map_err(|e| format!("{}: {e}", cli.socket))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(format!("{}: daemon error: {msg}", cli.socket));
    }
    let doc = v
        .get("stats")
        .ok_or_else(|| format!("{}: response has no embedded stats document", cli.socket))?;
    print!("{}", render_stats(doc));
    Ok(())
}

#[cfg(not(unix))]
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let _ = parse_stats_options(args)?;
    Err("stats talks to a Unix-socket daemon; only supported on unix".into())
}

/// The reload subcommand's options: which daemon socket to talk to, which
/// loaded program (pool key) to reload, and the edited source files.
struct ReloadCli {
    socket: String,
    program: String,
    files: Vec<String>,
    json: bool,
}

fn parse_reload_options(args: &[String]) -> Result<ReloadCli, String> {
    let mut socket = None;
    let mut program = None;
    let mut files = Vec::new();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.clone()),
            "--program" => program = Some(it.next().ok_or("--program needs a hash")?.clone()),
            "--json" => json = true,
            other if other.starts_with("--") => return Err(format!("unknown reload flag {other}")),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err("reload needs the edited source files".into());
    }
    Ok(ReloadCli {
        socket: socket.ok_or("reload needs --socket <path> (the daemon's socket)")?,
        program: program
            .ok_or("reload needs --program <hash> (the key an earlier load returned)")?,
        files,
        json,
    })
}

/// One-shot reload client: pushes edited sources to a running daemon under
/// an existing program key (`reload` op) and reports the new content hash.
/// File names are sent as basenames, matching what `load` registered.
#[cfg(unix)]
fn cmd_reload(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use thinslice_util::telemetry::Json;
    let cli = parse_reload_options(args)?;
    let mut sources = Vec::new();
    for f in &cli.files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let name = std::path::Path::new(f)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| f.clone());
        sources.push(thinslice_serve::protocol::SourceFile { name, text });
    }
    let request = thinslice_serve::protocol::reload_request_line(
        0,
        "thinslice-reload",
        &cli.program,
        &sources,
    );
    let mut stream = std::os::unix::net::UnixStream::connect(&cli.socket).map_err(|e| {
        format!(
            "{}: {e} (is `thinslice serve --socket {}` running?)",
            cli.socket, cli.socket
        )
    })?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("{}: write: {e}", cli.socket))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("{}: read: {e}", cli.socket))?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(format!(
            "{}: the daemon closed the connection without answering",
            cli.socket
        ));
    }
    thinslice_serve::protocol::validate_response_line(line)
        .map_err(|e| format!("{}: bad response: {e}", cli.socket))?;
    if cli.json {
        println!("{line}");
        return Ok(());
    }
    let v = Json::parse(line).map_err(|e| format!("{}: {e}", cli.socket))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(format!("{}: daemon error: {msg}", cli.socket));
    }
    let s = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
    let u = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "reloaded {} (content {}) path={} resident {}",
        s("program"),
        s("content"),
        s("path"),
        u("resident"),
    );
    Ok(())
}

#[cfg(not(unix))]
fn cmd_reload(args: &[String]) -> Result<(), String> {
    let _ = parse_reload_options(args)?;
    Err("reload talks to a Unix-socket daemon; only supported on unix".into())
}

/// Renders a parsed `thinslice.serve_stats.v1` document as text: a daemon
/// header line, the per-tenant table, the per-session table, the
/// slow-query log, and the flight-recorder tail. Missing fields render as
/// zeros rather than failing — the wire doc was already validated.
fn render_stats(doc: &thinslice_util::telemetry::Json) -> String {
    use std::fmt::Write as _;
    use thinslice_util::telemetry::Json;
    fn u(v: &Json, key: &str) -> u64 {
        v.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
    fn f(v: &Json, key: &str) -> f64 {
        v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }
    fn s<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or("?")
    }
    fn arr<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        v.get(key).and_then(Json::as_arr).unwrap_or(&[])
    }
    /// Exit-memo hit rate in percent, from hit/miss counters on `v`.
    fn memo_pct(v: &Json) -> f64 {
        let hits = u(v, "exit_hits");
        let total = hits + u(v, "exit_misses");
        if total > 0 {
            100.0 * hits as f64 / total as f64
        } else {
            0.0
        }
    }
    let pool = doc.get("pool");
    let server = doc.get("server");
    let pu = |key: &str| pool.map_or(0, |p| u(p, key));
    let su = |key: &str| server.map_or(0, |p| u(p, key));
    let mut out = format!(
        "thinslice-serve up {:.1}s · pool {}/{} sessions ({} quarantined, resident {}) · \
         served {} errors {} panics {} · recorder {}/{} events\n",
        u(doc, "uptime_ms") as f64 / 1000.0,
        pu("live_sessions"),
        pu("capacity"),
        pu("quarantined"),
        pu("resident"),
        su("served"),
        su("errors"),
        su("panics"),
        su("recorded").min(su("recorder_capacity")),
        su("recorder_capacity"),
    );
    // Warm-start snapshot traffic; an all-zero row (snapshots disabled
    // or untouched) is omitted to keep the idle header to one line.
    let (sh, sm, sw, sc) = (
        pu("snapshot_hits"),
        pu("snapshot_misses"),
        pu("snapshot_writes"),
        pu("snapshot_discarded_corrupt"),
    );
    if sh + sm + sw + sc > 0 {
        let _ = writeln!(
            out,
            "snapshots: {sh} restored, {sm} missed, {sw} written, {sc} discarded corrupt"
        );
    }
    let tenants = arr(doc, "tenants");
    if !tenants.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>9} {:>9} {:>9} {:>6}",
            "CLIENT",
            "REQ",
            "ERR",
            "RETRY",
            "DEGR",
            "SHED",
            "STEPS",
            "p50us",
            "p95us",
            "maxus",
            "MEMO%"
        );
        for t in tenants {
            let lat = t.get("latency_us");
            let lf = |key: &str| lat.map_or(0.0, |l| f(l, key));
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>6.1}",
                s(t, "client"),
                u(t, "requests"),
                u(t, "errors"),
                u(t, "retries"),
                u(t, "degraded"),
                u(t, "shed"),
                u(t, "spent_steps"),
                lf("p50"),
                lf("p95"),
                lf("max"),
                memo_pct(t),
            );
        }
    }
    let sessions = arr(doc, "sessions");
    if !sessions.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>5} {:>5} {:>10} {:>6} {:>6} {:>9}",
            "SESSION", "LIVE", "QUAR", "RESIDENT", "REQ", "MEMO%", "p95us"
        );
        for r in sessions {
            let yes = |key: &str| {
                if matches!(r.get(key), Some(Json::Bool(true))) {
                    "yes"
                } else {
                    "no"
                }
            };
            let lat = r.get("latency_us");
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>5} {:>10} {:>6} {:>6.1} {:>9.0}",
                s(r, "program"),
                yes("live"),
                yes("quarantined"),
                u(r, "resident"),
                lat.map_or(0, |l| u(l, "count")),
                memo_pct(r),
                lat.map_or(0.0, |l| f(l, "p95")),
            );
        }
    }
    let slow = arr(doc, "slow");
    if !slow.is_empty() {
        let _ = writeln!(out, "\nslow queries ({}):", slow.len());
        for q in slow {
            let id = q
                .get("id")
                .and_then(Json::as_u64)
                .map_or("null".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "  id={id} client={} {}/{} {} queue {}us exec {}us total {}us spend {}",
                s(q, "client"),
                s(q, "kind"),
                s(q, "engine"),
                s(q, "completeness"),
                u(q, "queue_us"),
                u(q, "exec_us"),
                u(q, "total_us"),
                u(q, "spend"),
            );
        }
    }
    let events = arr(doc, "events");
    if !events.is_empty() {
        let _ = writeln!(out, "\nrecent events ({}):", events.len());
        for e in events {
            let _ = writeln!(
                out,
                "  #{} {} {} a={} b={}",
                u(e, "seq"),
                s(e, "kind"),
                s(e, "label"),
                u(e, "a"),
                u(e, "b"),
            );
        }
    }
    out
}

/// Parses the text of a `--seeds-file`: one `file:line` seed per line,
/// blank lines and `#` comments skipped. Every diagnostic names the
/// seeds file, the 1-based line number within it, and the offending
/// token, so a bad entry in a thousand-line seed list is findable.
fn parse_seeds_text(path: &str, text: &str) -> Result<Vec<(String, u32)>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (f, l) = line.rsplit_once(':').ok_or_else(|| {
            format!(
                "{path}:{}: expected <file:line>, got {line:?} (no ':' separator)",
                i + 1
            )
        })?;
        if f.is_empty() {
            return Err(format!(
                "{path}:{}: empty file name in seed {line:?}",
                i + 1
            ));
        }
        let n: u32 = l
            .parse()
            .map_err(|_| format!("{path}:{}: bad line number {l:?} in seed {line:?}", i + 1))?;
        if n == 0 {
            return Err(format!(
                "{path}:{}: line numbers are 1-based, got 0 in seed {line:?}",
                i + 1
            ));
        }
        out.push((f.to_string(), n));
    }
    if out.is_empty() {
        return Err(format!("{path}: no seeds"));
    }
    Ok(out)
}

/// The batch seed list: parsed from `--seeds-file` (one `file:line` per
/// line, `#` comments allowed), or every sliceable source line under
/// `--all-seeds`.
fn batch_seed_lines(s: &mut AnalysisSession, o: &Options) -> Result<Vec<(String, u32)>, String> {
    if let Some(path) = &o.seeds_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_seeds_text(path, &text)
    } else {
        // Every distinct source line with a reachable statement, in file
        // order — the "slice everything" stress mode.
        let candidates: Vec<(String, u32)> = {
            let program = s.program();
            let mut lines = std::collections::BTreeSet::new();
            for st in program.all_stmts() {
                let span = program.instr(st).span;
                if !span.is_synthetic() {
                    lines.insert((program.files[span.file].name.clone(), span.line));
                }
            }
            lines.into_iter().collect()
        };
        Ok(candidates
            .into_iter()
            .filter(|(f, l)| s.seed_at_line(f, *l).is_some())
            .collect())
    }
}

fn cmd_slice_batch(s: &mut AnalysisSession, o: &Options, ctx: &RunCtx) -> Result<(), String> {
    let seed_lines = batch_seed_lines(s, o)?;
    let mut queries: Vec<Query> = Vec::with_capacity(seed_lines.len());
    for (f, l) in &seed_lines {
        let seeds = s
            .seed_at_line(f, *l)
            .ok_or_else(|| format!("{f}:{l} has no reachable statement"))?;
        queries.push(Query::new(seeds, o.kind, o.engine()));
    }

    let opts = BatchOptions {
        fail_fast: o.fail_fast,
        ..BatchOptions::default()
    };
    // More workers than queries buys nothing; the engine clamps further
    // (it refuses to spawn for trivial per-worker shares), but capping
    // here keeps the printed thread count honest.
    let threads = o.threads.clamp(1, queries.len().max(1));
    let start = std::time::Instant::now();
    let outcomes = s.query_batch_with(&queries, threads, &opts);
    let elapsed = start.elapsed();

    if o.governed() {
        print_governed_batch(o, &seed_lines, &outcomes);
    } else {
        for ((f, l), out) in seed_lines.iter().zip(&outcomes) {
            let size = out.slice.as_ref().map(|s| s.len()).unwrap_or(0);
            println!("{f}:{l}  {:?} slice: {size} statements", o.kind);
        }
        println!(
            "-- {} slices in {:.1} ms on {} thread(s) ({:.0} slices/sec)",
            outcomes.len(),
            elapsed.as_secs_f64() * 1000.0,
            threads,
            outcomes.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        );
    }
    print_latency_footer(ctx.telemetry());
    Ok(())
}

/// Per-seed outcome lines for a governed batch (size, truncation marker,
/// degradation, latency, retries) and a one-line footer.
fn print_governed_batch(
    o: &Options,
    seed_lines: &[(String, u32)],
    outcomes: &[thinslice::QueryOutcome],
) {
    for ((f, l), out) in seed_lines.iter().zip(outcomes) {
        let ms = out.latency.as_secs_f64() * 1000.0;
        let retried = if out.retries > 0 {
            format!(
                ", {} retr{}",
                out.retries,
                if out.retries == 1 { "y" } else { "ies" }
            )
        } else {
            String::new()
        };
        match &out.slice {
            Ok(s) => {
                let degraded = if s.degraded {
                    " [DEGRADED: cs -> ci]"
                } else {
                    ""
                };
                println!(
                    "{f}:{l}  {:?} slice: {} statements{}{}  [{ms:.1} ms{retried}]",
                    o.kind,
                    s.stmts.len(),
                    report::completeness_marker(&s.completeness),
                    degraded,
                );
            }
            Err(e) => println!("{f}:{l}  FAILED: {e}  [{ms:.1} ms{retried}]"),
        }
    }
    println!("{}", report::governed_batch_footer(outcomes));
}

/// With telemetry enabled, one extra footer line summarising the per-query
/// latency histogram. Plain runs print nothing extra.
fn print_latency_footer(tel: &Telemetry) {
    if let Some(h) = tel.histogram_summary("batch.query_us") {
        println!(
            "-- per-query latency: p50 {:.1} us, p95 {:.1} us, max {:.1} us over {} queries",
            h.p50, h.p95, h.max, h.count
        );
    }
}

fn cmd_slice(o: &Options, ctx: &RunCtx) -> Result<(), String> {
    let (mut s, snapshot) = load_with_snapshot(o, ctx)?;
    if o.seeds_file.is_some() || o.all_seeds {
        let outcome = cmd_slice_batch(&mut s, o, ctx);
        // Persist after the batch forced its stages, so the next
        // invocation on these sources skips the build entirely.
        if let Some(sn) = &snapshot {
            sn.persist(&s);
        }
        return outcome;
    }
    let seeds = resolve_seed(&mut s, o)?;
    let result = s.query(&Query::new(seeds, o.kind, o.engine()));
    if let Some(sn) = &snapshot {
        sn.persist(&s);
    }
    if o.context_sensitive {
        if result.degraded {
            eprintln!(
                "note: the context-sensitive query exhausted its budget; \
                 degraded to context-insensitive reachability over the same graph"
            );
        }
        println!(
            "context-sensitive {:?} slice: {} statements{}{}",
            o.kind,
            result.len(),
            report::completeness_marker(&result.completeness),
            if result.degraded {
                " [DEGRADED: cs -> ci]"
            } else {
                ""
            },
        );
        let mut stmts: Vec<_> = result.stmts.iter().copied().collect();
        stmts.sort();
        let mut seen_lines = std::collections::HashSet::new();
        let program = s.program();
        for st in stmts {
            let sp = program.instr(st).span;
            if seen_lines.insert((sp.file, sp.line)) {
                println!("  {}", pretty::stmt_str(program, st));
            }
        }
        return Ok(());
    }
    println!(
        "{:?} slice: {} statements (BFS order from the seed){}",
        o.kind,
        result.len(),
        report::completeness_marker(&result.completeness),
    );
    for line in report::stmt_lines(s.program(), &result.stmts) {
        println!("  {line}");
    }
    Ok(())
}

fn cmd_explain(o: &Options, ctx: &RunCtx) -> Result<(), String> {
    let mut s = load(o, ctx)?;
    let seeds = resolve_seed(&mut s, o)?;
    let thin = s.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
    // The stage accessors build lazily through `&mut self`, so the program
    // and graph are copied out to sit beside the points-to result.
    let program = s.program().clone();
    let sdg = s.ci_sdg().clone();
    let pta = s.pta();
    // Control dependences of the seed.
    let mut ctrl = Vec::new();
    for &st in &seeds {
        for c in thinslice::expand::exposed_control_deps(&sdg, st) {
            if !ctrl.contains(&c) {
                ctrl.push(c);
            }
        }
    }
    println!("relevant control dependences (paper 4.2):");
    if ctrl.is_empty() {
        println!("  (none — the seed is unconditionally executed)");
    }
    for c in &ctrl {
        println!("  {}", pretty::stmt_str(&program, *c));
    }
    // Heap-flow pairs of the thin slice and their aliasing explanations.
    let pairs = thinslice::expand::heap_flow_pairs(&program, &sdg, &thin.stmts);
    println!("\nheap-based value flow in the thin slice (paper 4.1):");
    if pairs.is_empty() {
        println!("  (none — the value never travels through the heap)");
    }
    for (load, store) in pairs {
        println!("  load : {}", pretty::stmt_str(&program, load));
        println!("  store: {}", pretty::stmt_str(&program, store));
        match thinslice::explain_aliasing_ctx(&program, pta, &sdg, load, store, ctx) {
            Ok(e) => {
                let e = e.result;
                println!("  common objects: {}", e.common_objects.len());
                for st in e.statements() {
                    println!("    {}", pretty::stmt_str(&program, st));
                }
            }
            Err(err) => println!("  (no explanation: {err})"),
        }
        println!();
    }
    Ok(())
}

fn cmd_run(o: &Options, ctx: &RunCtx) -> Result<(), String> {
    let s = load(o, ctx)?;
    let program = s.program();
    let config = ExecConfig {
        lines: o.lines.clone(),
        ints: o.ints.clone(),
        ..ExecConfig::default()
    };
    let exec = interp_run(program, &config, ctx);
    for (_, text) in &exec.prints {
        println!("{text}");
    }
    println!(
        "-- outcome: {:?} after {} steps",
        exec.outcome,
        exec.step_count()
    );
    if o.dynamic_slice {
        if let Some((event, _)) = exec.prints.last() {
            let slice = dynamic_thin_slice(&exec, *event);
            println!(
                "\ndynamic thin slice of the last print ({} statements):",
                slice.stmt_count()
            );
            let mut stmts: Vec<_> = slice.stmts.iter().copied().collect();
            stmts.sort();
            for st in stmts {
                println!("  {}", pretty::stmt_str(program, st));
            }
        } else {
            println!("(nothing printed — no dynamic slice)");
        }
    }
    Ok(())
}

fn cmd_info(o: &Options, ctx: &RunCtx) -> Result<(), String> {
    let mut s = load(o, ctx)?;
    let sdg_stats = thinslice_sdg::SdgStats::compute(s.ci_sdg());
    let program = s.program().clone();
    let stats = thinslice_pta::ProgramStats::compute(&program, s.pta());
    println!("classes:               {}", stats.classes);
    println!("reachable methods:     {}", stats.methods);
    println!("call-graph nodes:      {}", stats.cg_nodes);
    println!("abstract objects:      {}", stats.abstract_objects);
    println!("SDG statements:        {}", sdg_stats.stmt_nodes);
    println!("SDG nodes (total):     {}", sdg_stats.nodes);
    println!("SDG edges:             {}", sdg_stats.edges);
    println!("implicit conditionals: {}", stats.implicit_conditionals);
    println!("PTA constraint edges:  {}", stats.constraint_edges);
    println!("PTA delta rounds:      {}", stats.pta_delta_rounds);
    println!("PTA max worklist:      {}", stats.pta_max_worklist_depth);
    println!("PTA delta objects:     {}", stats.pta_delta_objects);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_seed_and_kind() {
        let o = opts(&["prog.mj", "--seed", "prog.mj:12", "--kind", "data"]).unwrap();
        assert_eq!(o.files, vec!["prog.mj"]);
        assert_eq!(o.seed, Some(("prog.mj".to_string(), 12)));
        assert_eq!(o.kind, SliceKind::TraditionalData);
        assert!(o.object_sensitive);
    }

    #[test]
    fn parses_interpreter_inputs() {
        let o = opts(&[
            "a.mj",
            "--line",
            "x y",
            "--int",
            "7",
            "--int",
            "-3",
            "--dynamic-slice",
        ])
        .unwrap();
        assert_eq!(o.lines, vec!["x y"]);
        assert_eq!(o.ints, vec![7, -3]);
        assert!(o.dynamic_slice);
    }

    #[test]
    fn flags_toggle_configurations() {
        let o = opts(&["a.mj", "--cs", "--no-objsens"]).unwrap();
        assert!(o.context_sensitive);
        assert!(!o.object_sensitive);
        assert_eq!(o.engine(), Engine::Cs);
        assert_eq!(opts(&["a.mj"]).unwrap().engine(), Engine::Ci);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(opts(&[]).is_err(), "no files");
        assert!(opts(&["a.mj", "--seed", "noline"]).is_err());
        assert!(opts(&["a.mj", "--seed", "f:abc"]).is_err());
        assert!(opts(&["a.mj", "--kind", "fat"]).is_err());
        assert!(opts(&["a.mj", "--wat"]).is_err());
    }

    #[test]
    fn parses_batch_flags() {
        let o = opts(&["a.mj", "--seeds-file", "seeds.txt", "--threads", "3"]).unwrap();
        assert_eq!(o.seeds_file.as_deref(), Some("seeds.txt"));
        assert_eq!(o.threads, 3);
        assert!(!o.all_seeds);
        let o = opts(&["a.mj", "--all-seeds"]).unwrap();
        assert!(o.all_seeds);
        assert!(o.threads >= 1);
        assert!(opts(&["a.mj", "--threads", "0"]).is_err());
        assert!(opts(&["a.mj", "--threads", "many"]).is_err());
        assert!(opts(&["a.mj", "--seeds-file"]).is_err());
    }

    #[test]
    fn parses_governance_flags() {
        let o = opts(&["a.mj", "--deadline-ms", "250", "--step-budget", "5000"]).unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.step_budget, Some(5000));
        assert!(!o.fail_fast);
        assert!(o.governed());
        assert!(!o.budget().is_unlimited());
        assert!(o.run_ctx().is_governed());
        let o = opts(&["a.mj", "--fail-fast"]).unwrap();
        assert!(o.fail_fast);
        assert!(o.governed());
        let o = opts(&["a.mj"]).unwrap();
        assert!(!o.governed());
        assert!(o.budget().is_unlimited());
        assert!(!o.run_ctx().is_governed());
        assert!(opts(&["a.mj", "--deadline-ms", "soon"]).is_err());
        assert!(opts(&["a.mj", "--step-budget", "-1"]).is_err());
        assert!(opts(&["a.mj", "--deadline-ms"]).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let o = opts(&["a.mj"]).unwrap();
        assert!(!o.telemetry().is_enabled(), "telemetry is opt-in");
        assert!(!o.run_ctx().telemetry().is_enabled());
        let o = opts(&["a.mj", "--trace"]).unwrap();
        assert!(o.trace && !o.trace_json);
        assert!(o.telemetry().is_enabled());
        assert!(o.run_ctx().telemetry().is_enabled());
        let o = opts(&["a.mj", "--trace", "--trace-format", "json"]).unwrap();
        assert!(o.trace_json);
        let o = opts(&["a.mj", "--metrics-out", "m.json"]).unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(o.telemetry().is_enabled());
        assert!(opts(&["a.mj", "--trace-format", "xml"]).is_err());
        assert!(opts(&["a.mj", "--metrics-out"]).is_err());
    }

    #[test]
    fn parses_snapshot_dir() {
        let o = opts(&["a.mj", "--snapshot-dir", "/tmp/snaps"]).unwrap();
        assert_eq!(o.snapshot_dir.as_deref(), Some("/tmp/snaps"));
        assert!(opts(&["a.mj"]).unwrap().snapshot_dir.is_none());
        assert!(opts(&["a.mj", "--snapshot-dir"]).is_err());
    }

    #[test]
    fn seed_with_colons_in_path() {
        let o = opts(&["a.mj", "--seed", "dir:with:colons.mj:9"]).unwrap();
        assert_eq!(o.seed, Some(("dir:with:colons.mj".to_string(), 9)));
    }

    #[test]
    fn seeds_file_errors_name_file_line_and_token() {
        let good = "# comment\n\na.mj:3\n  dir:with:colons.mj:12  \n";
        assert_eq!(
            parse_seeds_text("seeds.txt", good).unwrap(),
            vec![
                ("a.mj".to_string(), 3),
                ("dir:with:colons.mj".to_string(), 12)
            ]
        );
        // Every diagnostic carries path, line number, and offending token.
        let err = parse_seeds_text("seeds.txt", "a.mj:1\nnocolon\n").unwrap_err();
        assert!(err.contains("seeds.txt:2"), "{err}");
        assert!(err.contains("\"nocolon\""), "{err}");
        let err = parse_seeds_text("seeds.txt", "a.mj:1\n\n# c\nb.mj:twelve\n").unwrap_err();
        assert!(err.contains("seeds.txt:4"), "{err}");
        assert!(err.contains("\"twelve\""), "{err}");
        assert!(err.contains("\"b.mj:twelve\""), "{err}");
        let err = parse_seeds_text("seeds.txt", "a.mj:0\n").unwrap_err();
        assert!(
            err.contains("seeds.txt:1") && err.contains("1-based"),
            "{err}"
        );
        let err = parse_seeds_text("seeds.txt", ":7\n").unwrap_err();
        assert!(
            err.contains("seeds.txt:1") && err.contains("empty file name"),
            "{err}"
        );
        let err = parse_seeds_text("empty.txt", "# only comments\n").unwrap_err();
        assert!(err.contains("empty.txt: no seeds"), "{err}");
    }

    fn serve_opts(args: &[&str]) -> Result<ServeCli, String> {
        parse_serve_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_serve_flags() {
        let s = serve_opts(&[]).unwrap();
        assert!(s.socket.is_none());
        assert!(
            s.cfg.exit_on_signal,
            "stdin mode exits after a signal drain"
        );
        let s = serve_opts(&[
            "--socket",
            "/tmp/ts.sock",
            "--workers",
            "4",
            "--max-sessions",
            "2",
            "--resident-watermark",
            "100000",
            "--snapshot-dir",
            "/tmp/snaps",
            "--deadline-ms",
            "250",
            "--step-budget",
            "5000",
            "--client-step-budget",
            "9000",
            "--retries",
            "2",
            "--chaos",
            "--trace",
            "--recorder-capacity",
            "512",
            "--slow-ms",
            "50",
            "--stats-interval",
            "10",
        ])
        .unwrap();
        assert_eq!(s.socket.as_deref(), Some("/tmp/ts.sock"));
        assert!(!s.cfg.exit_on_signal, "socket mode drains and returns");
        assert_eq!(s.cfg.workers, 4);
        assert_eq!(s.cfg.pool.max_sessions, 2);
        assert_eq!(s.cfg.pool.resident_watermark, Some(100_000));
        assert_eq!(s.cfg.pool.snapshot_dir.as_deref(), Some("/tmp/snaps"));
        assert_eq!(s.cfg.default_deadline_ms, Some(250));
        assert_eq!(s.cfg.default_step_budget, Some(5000));
        assert_eq!(s.cfg.client_step_budget, Some(9000));
        assert_eq!(s.cfg.retries, 2);
        assert!(s.cfg.chaos && s.cfg.trace);
        assert_eq!(s.cfg.recorder_capacity, 512);
        assert_eq!(s.cfg.slow_ms, Some(50));
        assert_eq!(s.cfg.stats_interval, Some(10));
        assert!(serve_opts(&["--workers", "0"]).is_err());
        assert!(serve_opts(&["--max-sessions", "0"]).is_err());
        assert!(serve_opts(&["--deadline-ms", "soon"]).is_err());
        assert!(serve_opts(&["--socket"]).is_err());
        assert!(serve_opts(&["--wat"]).is_err());
        assert!(serve_opts(&["input.mj"]).is_err(), "serve takes no files");
        assert_eq!(
            serve_opts(&[]).unwrap().cfg.recorder_capacity,
            thinslice_serve::ServeConfig::default().recorder_capacity,
            "the flight recorder is on by default"
        );
        assert!(
            serve_opts(&["--recorder-capacity", "0"]).is_ok(),
            "0 disables"
        );
        assert!(serve_opts(&["--stats-interval", "0"]).is_err());
        assert!(serve_opts(&["--slow-ms", "soon"]).is_err());
    }

    fn stats_opts(args: &[&str]) -> Result<StatsCli, String> {
        parse_stats_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_stats_flags() {
        let s = stats_opts(&["--socket", "/tmp/ts.sock"]).unwrap();
        assert_eq!(s.socket, "/tmp/ts.sock");
        assert!(!s.json);
        let s = stats_opts(&["--socket", "/tmp/ts.sock", "--json"]).unwrap();
        assert!(s.json);
        assert!(stats_opts(&[]).is_err(), "--socket is required");
        assert!(stats_opts(&["--socket"]).is_err());
        assert!(stats_opts(&["--wat"]).is_err());
    }

    #[test]
    fn renders_stats_documents() {
        use thinslice_util::telemetry::Json;
        let doc = Json::parse(
            r#"{"schema":"thinslice.serve_stats.v1","uptime_ms":1500,
                "pool":{"programs":1,"live_sessions":1,"capacity":8,"quarantined":0,
                        "resident":123,"hits":3,"misses":1,"builds":1,"evictions":0,
                        "quarantines":0,"rebuilds":0,"reloads":0,
                        "snapshot_hits":2,"snapshot_misses":1,"snapshot_writes":3,
                        "snapshot_discarded_corrupt":1},
                "server":{"served":4,"errors":0,"panics":0,"recorded":6,"recorder_capacity":256},
                "tenants":[{"client":"alpha","requests":4,"errors":0,"retries":0,"degraded":1,
                            "shed":0,"spent_steps":900,"exit_hits":3,"exit_misses":1,
                            "latency_us":{"count":4,"sum":800,"p50":150,"p95":400,"max":420}}],
                "sessions":[{"program":"00deadbeef00cafe","content":"00deadbeef00cafe","live":true,"quarantined":false,
                             "resident":123,"exit_hits":3,"exit_misses":1,
                             "latency_us":{"count":4,"sum":800,"p50":150,"p95":400,"max":420}}],
                "slow":[{"id":7,"client":"alpha","program":"00deadbeef00cafe","kind":"thin",
                         "engine":"ci","admission":"full","completeness":"complete","seeds":1,
                         "queue_us":10,"exec_us":90,"total_us":100,"spend":200}],
                "events":[{"seq":0,"kind":"session_built","label":"00deadbeef00cafe",
                           "a":123,"b":0}]}"#,
        )
        .unwrap();
        // The fixture passes the wire validator, so the renderer is
        // exercised on exactly the shape a daemon emits.
        thinslice_serve::protocol::validate_stats_doc(&doc).unwrap();
        let text = render_stats(&doc);
        assert!(text.contains("up 1.5s"), "{text}");
        assert!(text.contains("pool 1/8 sessions"), "{text}");
        assert!(
            text.contains("snapshots: 2 restored, 1 missed, 3 written, 1 discarded corrupt"),
            "{text}"
        );
        assert!(text.contains("CLIENT"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("75.0"), "memo hit rate: {text}");
        assert!(text.contains("SESSION"), "{text}");
        assert!(text.contains("00deadbeef00cafe"), "{text}");
        assert!(text.contains("slow queries (1):"), "{text}");
        assert!(text.contains("queue 10us exec 90us total 100us"), "{text}");
        assert!(text.contains("session_built"), "{text}");
        // An idle daemon renders just the header line.
        let idle = Json::parse(
            r#"{"schema":"thinslice.serve_stats.v1","uptime_ms":0,
                "pool":{"programs":0,"live_sessions":0,"capacity":8,"quarantined":0,
                        "resident":0,"hits":0,"misses":0,"builds":0,"evictions":0,
                        "quarantines":0,"rebuilds":0,"reloads":0,
                        "snapshot_hits":0,"snapshot_misses":0,"snapshot_writes":0,
                        "snapshot_discarded_corrupt":0},
                "server":{"served":0,"errors":0,"panics":0,"recorded":0,"recorder_capacity":256},
                "tenants":[],"sessions":[],"slow":[],"events":[]}"#,
        )
        .unwrap();
        let text = render_stats(&idle);
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("served 0 errors 0 panics 0"), "{text}");
    }
}
