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
use thinslice_serve::protocol::SourceFile;
use thinslice_util::telemetry::Json;

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

/// The arguments of one command, walked once by [`parse_flags`]; a flag
/// that takes a value pulls it from here.
struct FlagArgs<'a> {
    flag: &'a str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> FlagArgs<'a> {
    /// The current flag's value: the next argument.
    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The current flag's value, parsed.
    fn parse<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let v = self.value()?;
        v.parse()
            .map_err(|_| format!("{}: bad value {v:?}", self.flag))
    }

    /// The current flag's value, parsed and required to be non-zero.
    fn nonzero<T: std::str::FromStr + Default + PartialEq>(&mut self) -> Result<T, String> {
        let v = self.parse()?;
        if v == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(v)
    }
}

/// The one flag loop every command's parser runs. `apply` gets each
/// argument that starts with `-`, pulls the flag's value (if it takes
/// one) through [`FlagArgs`], and returns `false` for a flag it does not
/// know, which is an error. Every other argument is a positional; they
/// are returned in order.
fn parse_flags(
    args: &[String],
    mut apply: impl FnMut(&str, &mut FlagArgs<'_>) -> Result<bool, String>,
) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut a = FlagArgs {
        flag: "",
        rest: args.iter(),
    };
    while let Some(arg) = a.rest.next() {
        if !arg.starts_with('-') {
            positionals.push(arg.clone());
            continue;
        }
        a.flag = arg;
        if !apply(arg, &mut a)? {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(positionals)
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
    let files = parse_flags(args, |flag, a| {
        match flag {
            "--seed" => {
                let (f, l) = a
                    .value()?
                    .rsplit_once(':')
                    .ok_or("--seed format is <file:line>")?;
                let line: u32 = l.parse().map_err(|_| format!("bad line number {l:?}"))?;
                o.seed = Some((f.to_string(), line));
            }
            "--kind" => {
                o.kind = match a.value()? {
                    "thin" => SliceKind::Thin,
                    "data" => SliceKind::TraditionalData,
                    "full" => SliceKind::TraditionalFull,
                    other => return Err(format!("unknown slice kind {other:?}")),
                };
            }
            "--seeds-file" => o.seeds_file = Some(a.value()?.to_string()),
            "--all-seeds" => o.all_seeds = true,
            "--threads" => o.threads = a.nonzero()?,
            "--cs" => o.context_sensitive = true,
            "--no-objsens" => o.object_sensitive = false,
            "--line" => o.lines.push(a.value()?.to_string()),
            "--int" => o.ints.push(a.parse()?),
            "--dynamic-slice" => o.dynamic_slice = true,
            "--snapshot-dir" => o.snapshot_dir = Some(a.value()?.to_string()),
            // Governance and telemetry, shared by every analysis command.
            "--deadline-ms" => o.deadline_ms = Some(a.parse()?),
            "--step-budget" => o.step_budget = Some(a.parse()?),
            "--fail-fast" => o.fail_fast = true,
            "--trace" => o.trace = true,
            "--trace-format" => {
                o.trace_json = match a.value()? {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown trace format {other:?}")),
                };
            }
            "--metrics-out" => o.metrics_out = Some(a.value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if files.is_empty() {
        return Err("no input files".into());
    }
    o.files = files;
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

/// Reads each source file, named by its basename: the name seeds and the
/// daemon's `load` refer to it by.
fn read_sources(files: &[String]) -> Result<Vec<SourceFile>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            let name = std::path::Path::new(f)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| f.clone());
            Ok(SourceFile { name, text })
        })
        .collect()
}

fn load(o: &Options, ctx: &RunCtx) -> Result<AnalysisSession, String> {
    load_with_snapshot(o, ctx).map(|(s, _)| s)
}

fn load_with_snapshot(
    o: &Options,
    ctx: &RunCtx,
) -> Result<(AnalysisSession, Option<SnapshotPersist>), String> {
    let sources = read_sources(&o.files)?;
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|s| (s.name.as_str(), s.text.as_str()))
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
    // The daemon and its two socket clients have flag sets of their own.
    match cmd.as_str() {
        "serve" => return cmd_serve(rest),
        "stats" => return cmd_stats(rest),
        "reload" => return cmd_reload(rest),
        _ => {}
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
    let mut cfg = thinslice_serve::ServeConfig::default();
    let mut socket = None;
    let files = parse_flags(args, |flag, a| {
        match flag {
            "--socket" => socket = Some(a.value()?.to_string()),
            "--workers" => cfg.workers = a.nonzero()?,
            "--max-sessions" => cfg.pool.max_sessions = a.nonzero()?,
            "--resident-watermark" => cfg.pool.resident_watermark = Some(a.parse()?),
            "--snapshot-dir" => cfg.pool.snapshot_dir = Some(a.value()?.to_string()),
            "--deadline-ms" => cfg.default_deadline_ms = Some(a.parse()?),
            "--step-budget" => cfg.default_step_budget = Some(a.parse()?),
            "--degrade-pending" => cfg.degrade_pending = a.parse()?,
            "--truncate-pending" => cfg.truncate_pending = a.parse()?,
            "--truncate-step-cap" => cfg.truncate_step_cap = a.parse()?,
            "--client-step-budget" => cfg.client_step_budget = Some(a.parse()?),
            "--max-program-bytes" => cfg.max_program_bytes = a.parse()?,
            "--retries" => cfg.retries = a.parse()?,
            "--chaos" => cfg.chaos = true,
            "--trace" => cfg.trace = true,
            "--recorder-capacity" => cfg.recorder_capacity = a.parse()?,
            "--slow-ms" => cfg.slow_ms = Some(a.parse()?),
            "--stats-interval" => cfg.stats_interval = Some(a.nonzero()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(f) = files.first() {
        return Err(format!("serve takes no input files, got {f}"));
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
    let (mut socket, mut json) = (None, false);
    let files = parse_flags(args, |flag, a| {
        match flag {
            "--socket" => socket = Some(a.value()?.to_string()),
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(f) = files.first() {
        return Err(format!("stats takes no input files, got {f}"));
    }
    Ok(StatsCli {
        socket: socket.ok_or("stats needs --socket <path> (the daemon's socket)")?,
        json,
    })
}

/// One-shot observability client: asks a running daemon for its
/// `thinslice.serve_stats.v1` snapshot over the Unix socket and renders
/// it as a `top`-style table (or the raw response line with `--json`).
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let cli = parse_stats_options(args)?;
    let request = r#"{"op":"stats","id":0,"client":"thinslice-stats"}"#;
    let Some(v) = daemon_request(&cli.socket, request, cli.json)? else {
        return Ok(());
    };
    let doc = v
        .get("stats")
        .ok_or_else(|| format!("{}: response has no embedded stats document", cli.socket))?;
    print!("{}", thinslice_serve::protocol::render_stats(doc));
    Ok(())
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
    let (mut socket, mut program, mut json) = (None, None, false);
    let files = parse_flags(args, |flag, a| {
        match flag {
            "--socket" => socket = Some(a.value()?.to_string()),
            "--program" => program = Some(a.value()?.to_string()),
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
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
fn cmd_reload(args: &[String]) -> Result<(), String> {
    let cli = parse_reload_options(args)?;
    let sources = read_sources(&cli.files)?;
    let request = thinslice_serve::protocol::reload_request_line(
        0,
        "thinslice-reload",
        &cli.program,
        &sources,
    );
    let Some(v) = daemon_request(&cli.socket, &request, cli.json)? else {
        return Ok(());
    };
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

/// One round trip to the daemon listening on `socket`: writes `request`
/// as one line and reads and validates the one response line. Under
/// `--json` the raw line is printed and `None` returned; otherwise the
/// parsed response comes back, with an `ok:false` answer as the error.
#[cfg(unix)]
fn daemon_request(socket: &str, request: &str, json: bool) -> Result<Option<Json>, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| format!("{socket}: {e} (is `thinslice serve --socket {socket}` running?)"))?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("{socket}: write: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("{socket}: read: {e}"))?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(format!(
            "{socket}: the daemon closed the connection without answering"
        ));
    }
    thinslice_serve::protocol::validate_response_line(line)
        .map_err(|e| format!("{socket}: bad response: {e}"))?;
    if json {
        println!("{line}");
        return Ok(None);
    }
    let v = Json::parse(line).map_err(|e| format!("{socket}: {e}"))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        return Err(format!("{socket}: daemon error: {msg}"));
    }
    Ok(Some(v))
}

#[cfg(not(unix))]
fn daemon_request(_socket: &str, _request: &str, _json: bool) -> Result<Option<Json>, String> {
    Err("--socket is only supported on unix".into())
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
}
