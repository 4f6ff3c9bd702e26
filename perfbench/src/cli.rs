//! The `cold-cli` workload: one `thinslice slice --seed` process per
//! request, once cold and once warm-started from a primed
//! `--snapshot-dir`.

use crate::inputs::{program_set, shuffle, Mode, Prog};
use crate::proc::run_cli;
use crate::serve::digest;
use crate::stats::{median, ms, Lat};
use crate::trace::Tracer;
use crate::{finish_traced, ledger, Ctx, Report};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use thinslice::{report, Query, RunReport};
use thinslice_util::SmallRng;

/// Times set-up is repeated; the median is reported.
const SETUP_REPS: usize = 5;
/// Length of the seeded request sequence (cycled).
const SEQ_LEN: usize = 2000;
/// Runs of the one-method program behind `cli.process_ms.tiny`.
const TINY_RUNS: usize = 9;
/// Traced runs of the probe's `--metrics-out` invocation.
const PROBE_RUNS: usize = 5;

const TINY: &str = "class Main { static void main() {\nint x = 1;\nprint(x);\n} }\n";

/// A program written to disk: the file arguments for `thinslice slice`.
struct OnDisk {
    files: Vec<String>,
}

fn write_prog(dir: &Path, name: &str, sources: &[(String, String)]) -> Result<OnDisk, String> {
    let d = dir.join(name);
    std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
    let mut files = Vec::new();
    for (n, t) in sources {
        let path = d.join(n);
        std::fs::write(&path, t).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path.to_string_lossy().into_owned());
    }
    Ok(OnDisk { files })
}

fn slice_args(on: &OnDisk, file: &str, line: u32, extra: &[String]) -> Vec<String> {
    let mut a = vec!["slice".to_string()];
    a.extend(on.files.iter().cloned());
    a.push("--seed".into());
    a.push(format!("{file}:{line}"));
    a.extend(extra.iter().cloned());
    a
}

/// What `thinslice slice --seed` must print for a thin CI slice.
fn expected_stdout(
    s: &mut thinslice::AnalysisSession,
    file: &str,
    line: u32,
) -> Result<String, String> {
    let seeds = s
        .seed_at_line(file, line)
        .ok_or_else(|| format!("no statements at {file}:{line}"))?;
    let res = s.query(&Query::new(
        seeds,
        Mode::ThinCi.kind(),
        Mode::ThinCi.engine(),
    ));
    let mut out = format!(
        "{:?} slice: {} statements (BFS order from the seed){}\n",
        Mode::ThinCi.kind(),
        res.len(),
        report::completeness_marker(&res.completeness)
    );
    for l in report::stmt_lines(s.program(), &res.stmts) {
        out.push_str("  ");
        out.push_str(&l);
        out.push('\n');
    }
    Ok(out)
}

/// The seeded request sequence: rounds over the programs in shuffled
/// order, the generated program twice per round (so the 90th percentile
/// sits inside its cost mode), a quarter of suite seeds from the Table
/// 2/3 tasks and the generated program's seeds from its `print` lines.
fn sequence(progs: &[Prog], seed: u64) -> Vec<(usize, String, u32)> {
    let mut rng = SmallRng::new(seed ^ 0xc01d);
    let user: Vec<Vec<(String, u32)>> = progs.iter().map(Prog::user_lines).collect();
    let mut out = Vec::with_capacity(SEQ_LEN);
    while out.len() < SEQ_LEN {
        let mut round: Vec<usize> = (0..progs.len()).collect();
        round.push(progs.len() - 1);
        shuffle(&mut round, &mut rng);
        for pi in round {
            let p = &progs[pi];
            let task = p.name == "gen" || (!p.task_lines.is_empty() && rng.range_usize(0, 4) == 0);
            let (f, l) = if task {
                rng.choose(&p.task_lines).clone()
            } else {
                rng.choose(&user[pi]).clone()
            };
            out.push((pi, f, l));
        }
    }
    out
}

/// Runs `thinslice slice` with `--metrics-out`; returns its stdout, the
/// wall time, and the summed top-level spans of the CLI's own report, recorded under a
/// `cli.process` span whose self time is the unattributed rest.
fn traced_process(
    bin: &Path,
    args: &[String],
    out: &Path,
    tr: &mut Tracer,
) -> Result<(String, Duration, f64), String> {
    let mut a = args.to_vec();
    a.push("--metrics-out".into());
    a.push(out.to_string_lossy().into_owned());
    let start = Instant::now();
    let run = run_cli(bin, &a)?;
    let (stdout, wall) = (run.stdout, run.wall);
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let rep = RunReport::from_json(&text)?;
    tr.record("cli.process", start, wall);
    let idx = tr.spans().len() - 1;
    tr.enter(idx);
    let mut spans_us = 0u64;
    for s in rep.spans.iter().filter(|s| s.depth == 0) {
        spans_us += s.dur_us;
        let at = start + Duration::from_micros(s.start_us);
        tr.record(&s.name, at, Duration::from_micros(s.dur_us));
    }
    tr.leave();
    Ok((stdout, wall, spans_us as f64 / 1e3))
}

/// `cli.process_ms.tiny`: the process floor on a one-method program.
fn tiny(ctx: &Ctx, dir: &Path, tr: &mut Tracer, r: &mut Report) -> Result<(), String> {
    let on = write_prog(dir, "tiny", &[("tiny.mj".to_string(), TINY.to_string())])?;
    let args = slice_args(&on, "tiny.mj", 3, &[]);
    let mut times = Vec::new();
    for _ in 0..TINY_RUNS {
        r.attempted += 1;
        tr.open("cli.tiny");
        let run = run_cli(&ctx.bin, &args)?;
        tr.close();
        times.push(ms(run.wall));
    }
    r.layer("cli.process_ms.tiny", median(&times), "ms", times.len());
    Ok(())
}

fn span_metrics(spans: &[f64], walls: &[f64], r: &mut Report) {
    let unattributed: Vec<f64> = walls.iter().zip(spans).map(|(w, s)| w - s).collect();
    eprintln!(
        "   accounting: process p50 {:.2} ms = CLI spans p50 {:.2} ms + unattributed p50 {:.2} ms (per process exactly; medians of parts)",
        median(walls),
        median(spans),
        median(&unattributed)
    );
    r.layer("cli.spans_ms", median(spans), "ms", spans.len());
    r.layer(
        "cli.unattributed_ms",
        median(&unattributed),
        "ms",
        unattributed.len(),
    );
}

/// The CLI probe other workloads' traced runs use: the tiny-program
/// floor plus traced runs on the generated program's first `print` seed.
pub fn probe(ctx: &Ctx, progs: &[Prog], tr: &mut Tracer) -> Result<Report, String> {
    let mut r = Report::default();
    let dir = ctx.workdir.join("cli-probe");
    tr.open("probe.cli");
    tiny(ctx, &dir, tr, &mut r)?;
    let gen = progs
        .last()
        .expect("program set ends with the generated program");
    let on = write_prog(&dir, &gen.name, &gen.sources)?;
    let (f, l) = &gen.task_lines[0];
    let args = slice_args(&on, f, *l, &[]);
    let (mut spans, mut walls) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_RUNS {
        r.attempted += 1;
        let (_, wall, s) = traced_process(&ctx.bin, &args, &dir.join("metrics.json"), tr)?;
        walls.push(ms(wall));
        spans.push(s);
    }
    tr.close();
    span_metrics(&spans, &walls, &mut r);
    Ok(r)
}

/// Primes one snapshot directory: one warm-up process per program.
fn prime(ctx: &Ctx, on: &[OnDisk], progs: &[Prog], dir: &Path) -> Result<Duration, String> {
    let t = Instant::now();
    for (d, p) in on.iter().zip(progs) {
        let (f, l) = &p.user_lines()[0];
        let extra = [
            "--snapshot-dir".to_string(),
            dir.to_string_lossy().into_owned(),
        ];
        run_cli(&ctx.bin, &slice_args(d, f, *l, &extra))?;
    }
    Ok(t.elapsed())
}

#[derive(Default)]
struct Loop {
    cold: Lat,
    warm: Lat,
    /// Largest peak RSS of any CLI child, in kB.
    peak_kb: u64,
    spans: Vec<f64>,
    walls: Vec<f64>,
}

/// Cold then warm process per request until `secs` have gone by.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    ctx: &Ctx,
    on: &[OnDisk],
    seq: &[(usize, String, u32)],
    expect: &std::collections::HashMap<(usize, String, u32), u64>,
    snap: &Path,
    secs: f64,
    tr: &mut Tracer,
    r: &mut Report,
) -> Loop {
    let mut out = Loop::default();
    let warm_extra = [
        "--snapshot-dir".to_string(),
        snap.to_string_lossy().into_owned(),
    ];
    let metrics = ctx.workdir.join("metrics.json");
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut i = 0;
    while Instant::now() < deadline {
        let key = &seq[i % seq.len()];
        i += 1;
        let (pi, f, l) = key;
        let args = slice_args(&on[*pi], f, *l, &[]);
        r.attempted += 2;
        let cold = if tr.enabled() {
            tr.next_request();
            traced_process(&ctx.bin, &args, &metrics, tr).map(|(o, wall, s)| {
                out.spans.push(s);
                out.walls.push(ms(wall));
                (o, wall)
            })
        } else {
            run_cli(&ctx.bin, &args).map(|run| {
                out.peak_kb = out.peak_kb.max(run.peak_kb);
                (run.stdout, run.wall)
            })
        };
        let (cold_out, cold_wall) = match cold {
            Ok(v) => v,
            Err(e) => {
                r.fail(e);
                continue;
            }
        };
        out.cold.push(cold_wall);
        let warm = run_cli(&ctx.bin, &slice_args(&on[*pi], f, *l, &warm_extra));
        let (warm_out, warm_wall) = match warm {
            Ok(run) => {
                out.peak_kb = out.peak_kb.max(run.peak_kb);
                (run.stdout, run.wall)
            }
            Err(e) => {
                r.fail(e);
                continue;
            }
        };
        out.warm.push(warm_wall);
        if digest(&warm_out) != expect[key] {
            r.fail(format!(
                "warm answer for {f}:{l} differs from the in-process answer"
            ));
        }
        if cold_out != warm_out {
            r.fail(format!(
                "snapshot-warm stdout for {f}:{l} differs from cold stdout"
            ));
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let progs = program_set(ctx.seed, 4);
    let src_dir = ctx.workdir.join("src");
    let on: Vec<OnDisk> = progs
        .iter()
        .map(|p| write_prog(&src_dir, &p.name, &p.sources))
        .collect::<Result<_, _>>()?;
    let seq = sequence(&progs, ctx.seed);
    let mut expect = std::collections::HashMap::new();
    let mut sessions: Vec<_> = progs.iter().map(Prog::session).collect();
    let mut keys: Vec<&(usize, String, u32)> = seq.iter().collect();
    keys.sort();
    keys.dedup();
    let mut all = std::collections::hash_map::DefaultHasher::new();
    for k in keys {
        let out = expected_stdout(&mut sessions[k.0], &k.1, k.2)?;
        std::hash::Hash::hash(&digest(&out), &mut all);
        expect.insert(k.clone(), digest(&out));
    }
    r.digest = std::hash::Hasher::finish(&all);
    drop(sessions);

    let mut setup = Vec::new();
    let mut snap = PathBuf::new();
    for k in 0..SETUP_REPS {
        snap = ctx.workdir.join(format!("snap{k}"));
        setup.push(prime(ctx, &on, &progs, &snap)?.as_secs_f64());
    }
    let mut tracer = Tracer::new(ctx.trace);
    let (lp, secs, untraced_p50) = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let plain = run_loop(
            ctx,
            &on,
            &seq,
            &expect,
            &snap,
            half,
            &mut Tracer::new(false),
            &mut r,
        );
        let lp = run_loop(ctx, &on, &seq, &expect, &snap, half, &mut tracer, &mut r);
        (lp, half, plain.cold.p50())
    } else {
        let lp = run_loop(
            ctx,
            &on,
            &seq,
            &expect,
            &snap,
            ctx.seconds,
            &mut tracer,
            &mut r,
        );
        (lp, ctx.seconds, 0.0)
    };
    r.e2e(
        "setup_s",
        median(&setup),
        "s",
        SETUP_REPS,
        "snapshots primed for 9 programs",
    );
    r.e2e(
        "p50_ms",
        lp.cold.p50(),
        "ms",
        lp.cold.len(),
        "cold_answer_p50_ms",
    );
    r.e2e(
        "tail_ms",
        lp.cold.q(0.9),
        "ms",
        lp.cold.len(),
        "cold_answer_p90_ms",
    );
    let answers = lp.cold.len() + lp.warm.len();
    r.e2e(
        "throughput_per_s",
        answers as f64 / secs,
        "1/s",
        answers,
        "answers_per_s, cold and warm",
    );
    r.e2e(
        "aux_p50_ms",
        lp.warm.p50(),
        "ms",
        lp.warm.len(),
        "warm_answer_p50_ms",
    );
    r.e2e(
        "aux_tail_ms",
        lp.warm.q(0.9),
        "ms",
        lp.warm.len(),
        "warm_answer_p90_ms",
    );
    r.e2e(
        "peak_rss_mb",
        lp.peak_kb as f64 / 1024.0,
        "MB",
        lp.cold.len() + lp.warm.len(),
        "largest CLI child's peak RSS",
    );
    if ctx.trace {
        tiny(ctx, &ctx.workdir.join("tiny"), &mut tracer, &mut r)?;
        span_metrics(&lp.spans, &lp.walls, &mut r);
        let own = ledger::Own::Cli;
        finish_traced(
            ctx,
            &progs,
            &mut tracer,
            own,
            &lp.cold,
            untraced_p50,
            &mut r,
        )?;
    }
    Ok(r)
}
