//! `perfbench` — the seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --thinslice <bin> --workdir <dir> --workload <name|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds the release
//! `thinslice` binary and this driver from source first. Each workload
//! prints its metrics by name, unit and sample count on stderr, and as
//! the last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

pub mod batch;
pub mod cli;
pub mod inputs;
pub mod ledger;
pub mod proc;
pub mod serve;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["serve-read", "serve-edit", "batch", "cold-cli"];

/// Where a run's inputs and settings come from.
pub struct Ctx {
    /// The release `thinslice` binary.
    pub bin: PathBuf,
    /// Scratch directory for sockets, source files, snapshots and traces.
    pub workdir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
    /// What the number is on this workload, e.g. `request_p99_ms`.
    pub meaning: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, for the log (the first few are printed).
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Digest of every answer the run's checks compared against.
    pub digest: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: usize, meaning: &str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            meaning: meaning.to_string(),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            meaning: String::new(),
        });
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.errors.push(msg.into());
    }

    /// Folds a sub-run's attempts, failures and layer metrics in.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for m in other.layer {
            if !self.layer.iter().any(|l| l.name == m.name) {
                self.layer.push(m);
            }
        }
    }
}

/// The common end of a traced run: the tracing overhead on the
/// workload's `p50_ms` (traced half against untraced half), the ledger
/// over `progs` without the probe of the layer the workload drives
/// itself, and the span file.
pub fn finish_traced(
    ctx: &Ctx,
    progs: &[inputs::Prog],
    tracer: &mut trace::Tracer,
    own: ledger::Own,
    traced: &stats::Lat,
    untraced_p50: f64,
    r: &mut Report,
) -> Result<(), String> {
    let overhead = (traced.p50() - untraced_p50) / untraced_p50 * 100.0;
    r.layer("trace.overhead_pct", overhead, "%", traced.len());
    let ledger = ledger::run(ctx, progs, tracer, own)?;
    r.absorb(ledger);
    let path = ctx.workdir.join("trace.json");
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn usage() -> String {
    format!(
        "usage: perfbench --thinslice <bin> --workdir <dir> --workload <{}|all> \
         --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

pub fn parse_args(args: &[String]) -> Result<(Ctx, String), String> {
    let mut bin = None;
    let mut workdir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--thinslice" => bin = Some(PathBuf::from(val()?)),
            "--workdir" => workdir = Some(PathBuf::from(val()?)),
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let ctx = Ctx {
        bin: bin.ok_or("--thinslice is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((ctx, workload))
}

pub fn run_workload(ctx: &Ctx, name: &str) -> Result<Report, String> {
    let dir = ctx.workdir.join(format!("{name}-{}", ctx.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sub = Ctx {
        bin: ctx.bin.clone(),
        workdir: dir.clone(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        trace: ctx.trace,
    };
    let report = match name {
        "serve-read" => serve::serve_read(&sub),
        "serve-edit" => serve::serve_edit(&sub),
        "batch" => batch::run(&sub),
        "cold-cli" => cli::run(&sub),
        other => Err(format!("unknown workload {other:?}")),
    };
    // Keep the trace file; drop sources, snapshots and sockets.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "json") {
                continue;
            }
            let _ = if p.is_dir() {
                std::fs::remove_dir_all(&p)
            } else {
                std::fs::remove_file(&p)
            };
        }
    }
    report
}

/// Prints the human-readable table on stderr.
pub fn print_table(name: &str, r: &Report, trace: bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {name}: attempted {} failed {} digest {:016x}",
        r.attempted, r.failed, r.digest
    );
    for e in r.errors.iter().take(5) {
        let _ = writeln!(out, "   FAILED: {e}");
    }
    let metrics = if trace { &r.layer } else { &r.e2e };
    for m in metrics {
        let meaning = if m.meaning.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.meaning)
        };
        let _ = writeln!(
            out,
            "   {:<32} {:>14.4} {:<6} n={}{meaning}",
            m.name, m.value, m.unit, m.n
        );
    }
    eprint!("{out}");
}

pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
