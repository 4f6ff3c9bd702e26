//! The `batch` workload: in-process `AnalysisSession::query_batch` over
//! every sliceable statement of the suite and gen-x4, with each of the
//! four slicers, at the thread count `thinslice slice --all-seeds`
//! defaults to.

use crate::inputs::{program_set, Mode, Prog};
use crate::proc::self_peak_rss_mb;
use crate::stats::{median, ms, Lat};
use crate::trace::Tracer;
use crate::{finish_traced, ledger, Ctx, Report};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use thinslice::{AnalysisSession, Query, QueryOutcome};
use thinslice_sdg::DepGraph;
use thinslice_util::par;

/// Times set-up is repeated; the median is reported.
const SETUP_REPS: usize = 5;

/// Digest of one answer: statements in order plus the honesty labels.
fn answer_digest(o: &QueryOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    match &o.slice {
        Ok(s) => {
            for st in s.stmts.iter() {
                st.hash(&mut h);
            }
            s.completeness.is_complete().hash(&mut h);
            s.degraded.hash(&mut h);
        }
        Err(e) => e.to_string().hash(&mut h),
    }
    h.finish()
}

/// A fresh session with both frozen graphs built.
fn build(p: &Prog) -> AnalysisSession {
    let mut s = p.session();
    s.ci_graph();
    s.cs_graph();
    s
}

/// One query per sliceable line of `p`, for `mode`.
fn queries(s: &mut AnalysisSession, p: &Prog, mode: Mode) -> Vec<Query> {
    p.lines
        .iter()
        .map(|(f, l)| {
            let seeds = s.seed_at_line(f, *l).expect("sliceable lines resolve");
            Query::new(seeds, mode.kind(), mode.engine())
        })
        .collect()
}

/// The default thread count of `--all-seeds`, clamped to the batch.
fn default_threads(n: usize) -> usize {
    par::default_threads().clamp(1, n.max(1))
}

fn timed_batch(
    s: &mut AnalysisSession,
    qs: &[Query],
    threads: usize,
) -> (Vec<QueryOutcome>, Duration) {
    let t = Instant::now();
    let out = s.query_batch(qs, threads);
    (out, t.elapsed())
}

/// CI reachability over the context-sensitive engine's own
/// (heap-parameter) graph: the bound the tabulation must stay within.
/// Only the legacy node-level entry point slices an arbitrary graph.
#[allow(deprecated)]
pub fn ci_on_cs_graph(s: &mut AnalysisSession, q: &Query) -> thinslice::StmtSet {
    let g = s.cs_graph();
    let nodes: Vec<_> = q
        .seeds
        .iter()
        .flat_map(|&st| g.stmt_nodes_of(st).to_vec())
        .collect();
    thinslice::slice_from(g, &nodes, q.kind).stmts
}

/// Reference answers at 1 thread, with the containment checks on every
/// statement: thin ⊆ data ⊆ full on the CI engine, and the CS engine's
/// thin slice ⊆ CI reachability over the same heap-parameter graph (the
/// refinement the tabulation guarantees; the CS and CI engines slice
/// different graphs, so their answers need not nest).
fn reference(progs: &[Prog], r: &mut Report) -> Vec<Vec<Vec<u64>>> {
    let mut all = DefaultHasher::new();
    let refs = progs
        .iter()
        .map(|p| {
            let mut s = build(p);
            let outs: Vec<Vec<QueryOutcome>> = Mode::ALL
                .into_iter()
                .map(|m| {
                    let qs = queries(&mut s, p, m);
                    s.query_batch(&qs, 1)
                })
                .collect();
            let bounds: Vec<thinslice::StmtSet> = queries(&mut s, p, Mode::ThinCs)
                .iter()
                .map(|q| ci_on_cs_graph(&mut s, q))
                .collect();
            for i in 0..p.lines.len() {
                r.attempted += 1;
                let get = |m: usize| {
                    outs[m][i]
                        .slice
                        .as_ref()
                        .ok()
                        .filter(|x| x.completeness.is_complete())
                };
                match (get(0), get(1), get(2), get(3)) {
                    (Some(thin), Some(data), Some(full), Some(cs)) => {
                        let sub = |a: &thinslice::SliceResult, b: &thinslice::SliceResult| {
                            a.stmts.iter().all(|x| b.contains(*x))
                        };
                        let cs_in_ci = cs.stmts.iter().all(|x| bounds[i].contains(*x));
                        if !(sub(thin, data) && sub(data, full) && cs_in_ci) {
                            r.fail(format!(
                                "{} {:?}: slicer containment broken",
                                p.name, p.lines[i]
                            ));
                        }
                    }
                    _ => r.fail(format!(
                        "{} {:?}: a reference query failed",
                        p.name, p.lines[i]
                    )),
                }
            }
            outs.iter()
                .map(|o| {
                    let d: Vec<u64> = o.iter().map(answer_digest).collect();
                    d.hash(&mut all);
                    d
                })
                .collect()
        })
        .collect();
    r.digest = all.finish();
    refs
}

/// 1-thread ÷ default-thread time of one batch, the two run back to back;
/// `one_first` picks the order, so callers can alternate it.
fn speedup(s: &mut AnalysisSession, qs: &[Query], one_first: bool, tr: &mut Tracer) -> f64 {
    let threads = default_threads(qs.len());
    let mut one = Duration::ZERO;
    let mut many = Duration::ZERO;
    for run_one in [one_first, !one_first] {
        if run_one {
            tr.open("par.batch_1t");
            one = timed_batch(s, qs, 1).1;
        } else {
            tr.open("par.batch_default");
            many = timed_batch(s, qs, threads).1;
        }
        tr.close();
    }
    one.as_secs_f64() / many.as_secs_f64().max(1e-9)
}

/// The small and large batch of a program set: thin CI on the program
/// with the fewest seed lines, full CI on the one with the most.
fn small_large(progs: &[Prog]) -> (usize, usize) {
    let by_len = |a: &&Prog, b: &&Prog| a.lines.len().cmp(&b.lines.len());
    let small = progs.iter().min_by(by_len).expect("programs");
    let large = progs.iter().max_by(by_len).expect("programs");
    let pos = |p: &Prog| progs.iter().position(|q| q.name == p.name).expect("member");
    (pos(small), pos(large))
}

/// Batch per-layer metrics: `core.batch_ms.<program>` (sum over slicers of
/// the median default-thread batch time) and the paired speedups.
fn batch_layer(
    progs: &[Prog],
    per_prog: &[Vec<f64>],
    small: &[f64],
    large: &[f64],
    r: &mut Report,
) {
    for (p, v) in progs.iter().zip(per_prog) {
        r.layer(
            &format!("core.batch_ms.{}", p.name),
            median(v),
            "ms",
            v.len(),
        );
    }
    r.layer("par.speedup.small", median(small), "ratio", small.len());
    r.layer("par.speedup.large", median(large), "ratio", large.len());
}

/// The batch probe other workloads' traced runs use: the 1-thread
/// reference and one traced pass over it.
pub fn probe(progs: &[Prog], tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    tr.open("probe.batch");
    let refs = reference(progs, &mut r);
    let p = passes(progs, &refs, 0.0, tr, &mut r);
    tr.close();
    batch_layer(progs, &p.per_prog, &p.small, &p.large, &mut r);
    r
}

/// What a run of timed passes saw.
#[derive(Default)]
struct Passes {
    /// One sample per program per pass: its four batch calls together.
    program: Lat,
    build: Lat,
    slices: usize,
    batch_time: Duration,
    per_prog: Vec<Vec<f64>>,
    small: Vec<f64>,
    large: Vec<f64>,
}

/// Whole passes (at least one) until `secs` have gone by: each pass builds a fresh
/// session per program and runs its four batches; every answer is
/// checked against the 1-thread reference.
fn passes(
    progs: &[Prog],
    refs: &[Vec<Vec<u64>>],
    secs: f64,
    tr: &mut Tracer,
    r: &mut Report,
) -> Passes {
    let mut out = Passes {
        per_prog: vec![Vec::new(); progs.len()],
        ..Passes::default()
    };
    let (si, li) = small_large(progs);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    for pass in 0.. {
        if pass > 0 && Instant::now() >= deadline {
            break;
        }
        for (pi, p) in progs.iter().enumerate() {
            tr.open("batch.build");
            let t = Instant::now();
            let mut s = build(p);
            out.build.push(t.elapsed());
            tr.close();
            let mut prog_ms = 0.0;
            for (mi, m) in Mode::ALL.into_iter().enumerate() {
                let qs = queries(&mut s, p, m);
                let threads = default_threads(qs.len());
                tr.open("core.query_batch");
                let (outs, d) = timed_batch(&mut s, &qs, threads);
                tr.close();
                out.batch_time += d;
                out.slices += outs.len();
                prog_ms += ms(d);
                r.attempted += outs.len() as u64;
                let wrong = outs
                    .iter()
                    .zip(&refs[pi][mi])
                    .filter(|(o, want)| !o.is_clean() || answer_digest(o) != **want)
                    .count();
                if wrong > 0 {
                    r.fail(format!(
                        "{} {}: {wrong} answers at {threads} threads differ from 1 thread",
                        p.name,
                        m.name()
                    ));
                }
                let small = pi == si && m == Mode::ThinCi;
                if tr.enabled() && (small || (pi == li && m == Mode::FullCi)) {
                    let v = speedup(&mut s, &qs, pass % 2 == 0, tr);
                    if small {
                        out.small.push(v);
                    } else {
                        out.large.push(v);
                    }
                }
            }
            out.per_prog[pi].push(prog_ms);
            out.program.ms.push(prog_ms);
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let progs = program_set(ctx.seed, 4);
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let sessions: Vec<AnalysisSession> = progs.iter().map(build).collect();
        setup.push(t.elapsed().as_secs_f64());
        drop(sessions);
    }
    let refs = reference(&progs, &mut r);
    let mut tracer = Tracer::new(ctx.trace);
    let (p, secs, untraced_p50) = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let plain = passes(&progs, &refs, half, &mut Tracer::new(false), &mut r);
        let p = passes(&progs, &refs, half, &mut tracer, &mut r);
        (p, half, plain.program.p50())
    } else {
        let p = passes(&progs, &refs, ctx.seconds, &mut tracer, &mut r);
        (p, ctx.seconds, 0.0)
    };
    let _ = secs;
    let threads = par::default_threads();
    r.e2e(
        "setup_s",
        median(&setup),
        "s",
        SETUP_REPS,
        "fresh sessions with both graphs for 9 programs",
    );
    let meaning = format!("program_batch_p50_ms: one program's four batches at {threads} threads");
    r.e2e("p50_ms", p.program.p50(), "ms", p.program.len(), &meaning);
    r.e2e(
        "tail_ms",
        p.program.q(0.9),
        "ms",
        p.program.len(),
        "program_batch_p90_ms",
    );
    let rate = p.slices as f64 / p.batch_time.as_secs_f64().max(1e-9);
    r.e2e(
        "throughput_per_s",
        rate,
        "1/s",
        p.slices,
        "slices_per_s of batch time",
    );
    r.e2e(
        "aux_p50_ms",
        p.build.p50(),
        "ms",
        p.build.len(),
        "build_p50_ms: fresh session, both graphs",
    );
    r.e2e(
        "aux_tail_ms",
        p.build.q(0.9),
        "ms",
        p.build.len(),
        "build_p90_ms",
    );
    r.e2e(
        "peak_rss_mb",
        self_peak_rss_mb(),
        "MB",
        1,
        "benchmark process VmHWM",
    );
    if ctx.trace {
        batch_layer(&progs, &p.per_prog, &p.small, &p.large, &mut r);
        let own = ledger::Own::Batch;
        finish_traced(
            ctx,
            &progs,
            &mut tracer,
            own,
            &p.program,
            untraced_p50,
            &mut r,
        )?;
    }
    Ok(r)
}
