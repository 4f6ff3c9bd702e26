//! The per-layer ledger of a traced run.
//!
//! Every traced run, whatever its workload, times each layer from outside
//! by calling its public functions over the workload's own seeded
//! programs, each call under a span: the front end, points-to, the
//! dependence graphs, the session's query, update and snapshot paths,
//! and batches. Counts (`pta.delta_objects`, `core.nodes_visited`, ...)
//! come from a fixed sample, so they repeat exactly for a seed. A
//! workload that drives a layer itself (the daemon loop, the batch loop,
//! the CLI loop) reports that layer from its own loop and skips the
//! ledger's probe of it.

use crate::inputs::{as_refs, Mode, Prog};
use crate::stats::{median, ms};
use crate::trace::Tracer;
use crate::{batch, cli, serve, Ctx, Report};
use std::time::Instant;
use thinslice::{report, AnalysisSession, Query, RunCtx, StmtSet, Telemetry};
use thinslice_pta::{ModRef, Pta, PtaConfig};
use thinslice_sdg::{build_ci, build_cs, DownConsumers};
use thinslice_suite::edits::EditScript;
use thinslice_util::SmallRng;

/// Repetitions of each build-stage timing; the median is kept.
const REPS: usize = 3;
/// Seed lines per program in the query sample.
const SAMPLE_LINES: usize = 12;
/// Samples wanted per update path before the edit walk stops.
const PER_PATH: usize = 3;
/// Longest edit walk.
const MAX_EDITS: usize = 60;

/// The layer a workload drives with its own loop; the ledger skips its
/// probe of that layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Own {
    Serve,
    Batch,
    Cli,
}

/// Times `f` under a span named `name`; returns its result and ms.
fn timed<R>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.open(name);
    let t = Instant::now();
    let r = f();
    let d = ms(t.elapsed());
    tr.close();
    (r, d)
}

/// Per-program medians of each named stage, summed over programs.
#[derive(Default)]
struct StageSums {
    names: Vec<&'static str>,
    sums: Vec<f64>,
    samples: usize,
}

impl StageSums {
    fn add(&mut self, name: &'static str, reps: &[f64]) {
        let v = median(reps);
        match self.names.iter().position(|n| *n == name) {
            Some(i) => self.sums[i] += v,
            None => {
                self.names.push(name);
                self.sums.push(v);
            }
        }
        self.samples += reps.len();
    }

    fn get(&self, name: &str) -> f64 {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or(0.0, |i| self.sums[i])
    }
}

/// Front end, points-to and graph stages, per program.
fn build_stages(progs: &[Prog], tr: &mut Tracer, r: &mut Report) -> Result<(), String> {
    let mut sums = StageSums::default();
    let (mut stmts, mut delta, mut pushes, mut ci_edges, mut cs_edges) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in progs {
        let src = p.borrowed();
        let mut per: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut push = |name: &'static str, v: f64| match per.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vs)) => vs.push(v),
            None => per.push((name, vec![v])),
        };
        for rep in 0..REPS {
            tr.open("ledger.build");
            let (program, t) = timed(tr, "ir.compile", || thinslice_ir::compile(&src));
            let program = program.map_err(|e| format!("{}: {e}", p.name))?;
            push("ir.compile", t);
            // The front end bundles its stages; read them from the
            // program's own telemetry spans on a second compile.
            let tel = Telemetry::enabled();
            let rctx = RunCtx::disabled().with_telemetry(tel.clone());
            let t0 = Instant::now();
            let idx = tr.open("ir.compile.traced");
            thinslice_ir::compile_ctx(&src, &rctx).map_err(|e| format!("{}: {e}", p.name))?;
            tr.close();
            tr.enter(idx);
            for s in tel.report().spans {
                let name: &'static str = match s.name.as_str() {
                    "ir.parse" => "ir.parse",
                    "ir.resolve" => "ir.resolve",
                    "ir.lower" => "ir.lower",
                    "ir.ssa" => "ir.ssa",
                    _ => continue,
                };
                let start = t0 + std::time::Duration::from_micros(s.start_us);
                let dur = std::time::Duration::from_micros(s.dur_us);
                tr.record(name, start, dur);
                push(name, ms(dur));
            }
            tr.leave();
            let (pta, t) = timed(tr, "pta.solve", || {
                Pta::analyze(&program, PtaConfig::default())
            });
            push("pta.solve", t);
            let (modref, t) = timed(tr, "pta.modref", || ModRef::compute(&program, &pta));
            push("pta.modref", t);
            let (ci, t) = timed(tr, "sdg.build_ci", || build_ci(&program, &pta));
            push("sdg.build_ci", t);
            let (cs, t) = timed(tr, "sdg.build_cs", || build_cs(&program, &pta, &modref));
            push("sdg.build_cs", t);
            let (_fci, t) = timed(tr, "sdg.freeze_ci", || ci.freeze());
            push("sdg.freeze_ci", t);
            let (fcs, t) = timed(tr, "sdg.freeze_cs", || cs.freeze());
            push("sdg.freeze_cs", t);
            let (_dc, t) = timed(tr, "sdg.down_consumers", || DownConsumers::build(&fcs));
            push("sdg.down_consumers", t);
            tr.close();
            if rep == 0 {
                stmts += program.all_stmts().count() as u64;
                delta += pta.solve_stats.delta_objects;
                pushes += pta.solve_stats.worklist_pushes;
                ci_edges += ci.edge_count() as u64;
                cs_edges += cs.edge_count() as u64;
            }
        }
        for (name, vs) in &per {
            sums.add(name, vs);
        }
    }
    let n = sums.samples;
    for (metric, stage) in [
        ("ir.parse_ms", "ir.parse"),
        ("ir.compile_ms", "ir.compile"),
        ("ir.resolve_ms", "ir.resolve"),
        ("ir.lower_ms", "ir.lower"),
        ("ir.ssa_ms", "ir.ssa"),
        ("pta.solve_ms", "pta.solve"),
        ("pta.modref_ms", "pta.modref"),
        ("sdg.build_ci_ms", "sdg.build_ci"),
        ("sdg.build_cs_ms", "sdg.build_cs"),
        ("sdg.freeze_ci_ms", "sdg.freeze_ci"),
        ("sdg.freeze_cs_ms", "sdg.freeze_cs"),
        ("sdg.down_consumers_ms", "sdg.down_consumers"),
    ] {
        r.layer(metric, sums.get(stage), "ms", n);
    }
    r.layer("ir.stmts", stmts as f64, "count", 1);
    r.layer("pta.delta_objects", delta as f64, "count", 1);
    r.layer("pta.worklist_pushes", pushes as f64, "count", 1);
    r.layer("sdg.ci_edges", ci_edges as f64, "count", 1);
    r.layer("sdg.cs_edges", cs_edges as f64, "count", 1);
    Ok(())
}

/// A fixed seeded sample of each program's seed lines.
pub fn sample_lines(p: &Prog, seed: u64) -> Vec<(String, u32)> {
    let mut rng = SmallRng::new(seed ^ 0x5eed_1ed6);
    let mut lines = p.user_lines();
    crate::inputs::shuffle(&mut lines, &mut rng);
    lines.truncate(SAMPLE_LINES);
    lines
}

/// Query, render and memo metrics on fresh sessions over the sample, plus
/// the slicer-containment checks: thin ⊆ data ⊆ full, and CS ⊆ CI over
/// the CS engine's own graph (see `batch::ci_on_cs_graph`).
fn query_sample(progs: &[Prog], seed: u64, tr: &mut Tracer, r: &mut Report) {
    let mut resolve = Vec::new();
    let mut render = Vec::new();
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); Mode::ALL.len()];
    let (mut nodes, mut stmts, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for p in progs {
        let mut s = p.session();
        // Build the graphs outside the timed calls.
        s.cs_graph();
        for (file, line) in sample_lines(p, seed) {
            r.attempted += 1;
            let (seeds, t) = timed(tr, "core.seed_at_line", || s.seed_at_line(&file, line));
            resolve.push(t * 1e3);
            let Some(seeds) = seeds else {
                r.fail(format!("{}: {file}:{line} does not resolve", p.name));
                continue;
            };
            let bound = batch::ci_on_cs_graph(
                &mut s,
                &Query::new(seeds.clone(), Mode::ThinCs.kind(), Mode::ThinCs.engine()),
            );
            let mut sets: Vec<StmtSet> = Vec::new();
            for (mi, m) in Mode::ALL.into_iter().enumerate() {
                let q = Query::new(seeds.clone(), m.kind(), m.engine());
                let (res, t) = timed(tr, &format!("core.query.{}", m.name()), || s.query(&q));
                per_mode[mi].push(t * 1e3);
                let (_lines, t) = timed(tr, "core.stmt_lines", || {
                    report::stmt_lines(s.program(), &res.stmts)
                });
                render.push(t * 1e3);
                nodes += res.nodes.len() as u64;
                stmts += res.stmts.len() as u64;
                sets.push(res.stmts);
            }
            let sub = |a: &StmtSet, b: &StmtSet| a.iter().all(|x| b.contains(*x));
            let [thin, data, full, cs] = [&sets[0], &sets[1], &sets[2], &sets[3]];
            if !(sub(thin, data) && sub(data, full) && sub(cs, &bound)) {
                r.fail(format!(
                    "{}: {file}:{line}: slicer containment broken",
                    p.name
                ));
            }
        }
        let m = s.memo_stats();
        hits += m.exit_hits;
        misses += m.exit_misses;
    }
    r.layer(
        "core.seed_resolve_us",
        median(&resolve),
        "us",
        resolve.len(),
    );
    for (mi, m) in Mode::ALL.into_iter().enumerate() {
        let v = &per_mode[mi];
        r.layer(
            &format!("core.query_us.{}", m.name()),
            median(v),
            "us",
            v.len(),
        );
    }
    r.layer("core.render_us", median(&render), "us", render.len());
    r.layer("core.nodes_visited", nodes as f64, "count", 1);
    r.layer("core.slice_stmts", stmts as f64, "count", 1);
    r.layer("core.memo_exit_hits", hits as f64, "count", 1);
    r.layer("core.memo_exit_misses", misses as f64, "count", 1);
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    r.layer("core.memo_hit_ratio", ratio, "ratio", 1);
}

/// The update paths on the generated program: single edit-script steps
/// applied with `AnalysisSession::update`, each against a fresh rebuild.
fn updates(gen: &Prog, seed: u64, tr: &mut Tracer, r: &mut Report) -> Result<(), String> {
    let (file, line) = gen.task_lines[0].clone();
    let mut s = gen.session();
    s.seed_at_line(&file, line);
    // Edits shift lines: seed at the first `print` of the edited text.
    let first_print = |src: &[(String, String)]| {
        src[0]
            .1
            .lines()
            .position(|l| l.contains("print("))
            .map_or(line, |i| i as u32 + 1)
    };
    let mut script = EditScript::new(seed);
    let mut cur = gen.sources.clone();
    let mut by_path: Vec<(&'static str, Vec<f64>)> = vec![
        ("noop", vec![]),
        ("incremental", vec![]),
        ("structural", vec![]),
    ];
    let mut rebuild = Vec::new();
    let (mut reuse, mut steps) = (0usize, 0usize);
    while steps < MAX_EDITS && by_path.iter().any(|(_, v)| v.len() < PER_PATH) {
        cur = script.step(&cur).0;
        steps += 1;
        r.attempted += 1;
        let line = first_print(&cur);
        let refs = as_refs(&cur);
        tr.open("core.update");
        let t = Instant::now();
        let stats = s.update(&refs).map_err(|e| format!("edit {steps}: {e}"))?;
        let ready = s.seed_at_line(&file, line).is_some();
        let dt = ms(t.elapsed());
        tr.close();
        let path = thinslice_serve::protocol::reload_path(false, &stats);
        if let Some((_, v)) = by_path.iter_mut().find(|(p, _)| *p == path) {
            v.push(dt);
        }
        if stats.any_reuse() {
            reuse += 1;
        }
        let (fresh, t) = timed(tr, "core.rebuild", || {
            let mut f = AnalysisSession::new(&refs).ok()?;
            f.seed_at_line(&file, line).map(|seeds| (f, seeds))
        });
        rebuild.push(t);
        let Some((mut f, seeds)) = fresh else {
            r.fail(format!("edit {steps}: fresh session has no seed"));
            continue;
        };
        let q = Query::new(seeds, Mode::ThinCi.kind(), Mode::ThinCi.engine());
        let want = f.query(&q).stmts;
        let got = s.seed_at_line(&file, line).map(|sd| {
            s.query(&Query::new(sd, Mode::ThinCi.kind(), Mode::ThinCi.engine()))
                .stmts
        });
        if !ready || got.as_ref() != Some(&want) {
            r.fail(format!(
                "edit {steps}: updated session differs from a fresh one"
            ));
        }
    }
    for (path, v) in &by_path {
        r.layer(&format!("core.update_ms.{path}"), median(v), "ms", v.len());
    }
    r.layer("core.rebuild_ms", median(&rebuild), "ms", rebuild.len());
    r.layer(
        "core.update_reuse_share",
        reuse as f64 / steps.max(1) as f64,
        "share",
        steps,
    );
    let incremental = by_path[1].1.len();
    r.layer(
        "serve.reload_share.incremental",
        incremental as f64 / steps.max(1) as f64,
        "share",
        steps,
    );
    Ok(())
}

/// Snapshot write and restore per program, with the restored session
/// checked against the original on one query.
fn snapshots(progs: &[Prog], tr: &mut Tracer, r: &mut Report) {
    let mut sums = StageSums::default();
    let mut bytes = 0u64;
    for p in progs {
        let mut s = p.session();
        let (file, line) = p.user_lines()[0].clone();
        let seeds = s
            .seed_at_line(&file, line)
            .expect("first sliceable line resolves");
        let q = Query::new(seeds, Mode::ThinCi.kind(), Mode::ThinCi.engine());
        let want = s.query(&q).stmts;
        let key = thinslice::source_hash(&p.borrowed());
        let mut writes = Vec::new();
        let mut restores = Vec::new();
        let mut snap = Vec::new();
        for _ in 0..REPS {
            let (b, t) = timed(tr, "core.write_snapshot", || s.write_snapshot(&key));
            writes.push(t);
            snap = b.unwrap_or_default();
            let (restored, t) = timed(tr, "core.from_snapshot", || {
                AnalysisSession::from_snapshot(
                    &snap,
                    &key,
                    PtaConfig::default(),
                    RunCtx::disabled(),
                )
            });
            restores.push(t);
            r.attempted += 1;
            let same = restored.map(|mut w| w.query(&q).stmts == want);
            if same != Some(true) {
                r.fail(format!("{}: snapshot restore differs", p.name));
            }
        }
        bytes += snap.len() as u64;
        sums.add("write", &writes);
        sums.add("restore", &restores);
    }
    r.layer(
        "core.snapshot_write_ms",
        sums.get("write"),
        "ms",
        sums.samples / 2,
    );
    r.layer(
        "core.snapshot_restore_ms",
        sums.get("restore"),
        "ms",
        sums.samples / 2,
    );
    r.layer("core.snapshot_bytes", bytes as f64, "B", 1);
}

/// Runs the ledger over `progs` (the last one is the generated program),
/// skipping the probe of the layer the workload drives itself.
pub fn run(ctx: &Ctx, progs: &[Prog], tr: &mut Tracer, own: Own) -> Result<Report, String> {
    let mut r = Report::default();
    tr.open("ledger");
    build_stages(progs, tr, &mut r)?;
    query_sample(progs, ctx.seed, tr, &mut r);
    let gen = progs
        .last()
        .expect("a program set ends with the generated program");
    updates(gen, ctx.seed, tr, &mut r)?;
    snapshots(progs, tr, &mut r);
    if own != Own::Batch {
        r.absorb(batch::probe(progs, tr));
    }
    if own != Own::Serve {
        let s = serve::probe(ctx, progs, tr)?;
        r.absorb(s);
    }
    if own != Own::Cli {
        let c = cli::probe(ctx, progs, tr)?;
        r.absorb(c);
    }
    tr.close();
    Ok(r)
}
