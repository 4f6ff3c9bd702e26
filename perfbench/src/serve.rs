//! The daemon workloads: `serve-read` (warm slice requests on two
//! connections) and `serve-edit` (an editor reloading a generated program
//! beside a reader on the suite).

use crate::inputs::{as_refs, deck, generated, program_set, suite, Mode, Prog, Req};
use crate::proc::{esc, sources_json, Conn, Daemon};
use crate::stats::{median, Lat};
use crate::trace::Tracer;
use crate::{finish_traced, ledger, Ctx, Report};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use thinslice::{report, AnalysisSession, Query};
use thinslice_serve::protocol::{parse_request, slice_line, Op, ProgramRef};
use thinslice_serve::Admission;
use thinslice_util::telemetry::Json;
use thinslice_util::SmallRng;

/// Daemon flags: one worker per client connection (the container has two
/// CPUs) and a pool cap above the 9 programs, so none is evicted.
const DAEMON_ARGS: [&str; 4] = ["--workers", "2", "--max-sessions", "16"];
/// A `stats` scrape goes out after every this many slice requests.
const STATS_EVERY: usize = 50;
/// Deck rounds: each round holds ~186 requests.
const DECK_ROUNDS: usize = 16;
/// The editor starts a reload cycle at most this often.
const EDIT_PERIOD: Duration = Duration::from_millis(150);
/// EditScript steps carried by one reload (one save of two edits).
const STEPS_PER_RELOAD: usize = 2;
/// Lines the editor slices after each reload.
const SLICES_PER_EDIT: usize = 3;
/// Times set-up is repeated; the median is reported.
const SETUP_REPS: usize = 5;

pub fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The `slice` request line for `r` on connection `client`.
fn request_line(r: &Req, hash: &str, client: &str) -> String {
    format!(
        "{{\"op\":\"slice\",\"client\":{},\"program\":{},\"seed\":{{\"file\":{},\"line\":{}}},\"kind\":{},\"engine\":{}}}",
        esc(client),
        esc(hash),
        esc(&r.file),
        r.line,
        esc(thinslice_serve::protocol::kind_str(r.mode.kind())),
        esc(thinslice_serve::protocol::engine_str(r.mode.engine())),
    )
}

/// In-process sessions over the same sources the daemon holds: they give
/// the answer the daemon must send for every request.
pub struct Oracle {
    sessions: Vec<AnalysisSession>,
    hashes: Vec<String>,
}

impl Oracle {
    /// Fresh sessions over `progs`, answering for the pool hashes `hashes`.
    pub fn new(progs: &[Prog], hashes: &[String]) -> Oracle {
        Oracle {
            sessions: progs.iter().map(Prog::session).collect(),
            hashes: hashes.to_vec(),
        }
    }

    /// The response line the daemon must send for `r` (no request id).
    pub fn answer(&mut self, r: &Req) -> Result<String, String> {
        let line = request_line(r, &self.hashes[r.prog], "oracle");
        self.replay(&line, &mut Tracer::new(false))
    }

    /// Replays one request line in process, stage by stage, each stage a
    /// span under the innermost open one: `parse_request` →
    /// `seed_at_line` → `query` → `stmt_lines` → `slice_line`.
    pub fn replay(&mut self, line: &str, tr: &mut Tracer) -> Result<String, String> {
        tr.open("replay.parse_request");
        let req = parse_request(line).map_err(|e| e.message);
        tr.close();
        let Op::Slice(sr) = req?.op else {
            return Err("replayed a non-slice request".into());
        };
        let ProgramRef::Hash(hash) = &sr.program else {
            return Err("replayed an inline-source request".into());
        };
        let pi = self
            .hashes
            .iter()
            .position(|h| h == hash)
            .ok_or("replayed an unknown program")?;
        let s = &mut self.sessions[pi];
        tr.open("replay.seed_at_line");
        let seeds: Option<Vec<Vec<_>>> = sr
            .seeds
            .iter()
            .map(|sd| s.seed_at_line(&sd.file, sd.line))
            .collect();
        tr.close();
        let seeds = seeds.ok_or("a seed line has no statements")?.concat();
        let mode = Mode::ALL
            .into_iter()
            .find(|m| m.kind() == sr.kind && m.engine() == sr.engine)
            .expect("every kind/engine pair is a mode");
        tr.open(&format!("replay.query.{}", mode.name()));
        let res = s.query(&Query::new(seeds, sr.kind, sr.engine));
        tr.close();
        tr.open("replay.stmt_lines");
        let lines = report::stmt_lines(s.program(), &res.stmts);
        tr.close();
        tr.open("replay.slice_line");
        let out = slice_line(
            None,
            hash,
            res.engine,
            sr.kind,
            Admission::Full,
            res.degraded,
            res.completeness,
            &lines,
        );
        tr.close();
        Ok(out)
    }
}

/// Spawns the daemon and loads `progs` over one connection; returns the
/// daemon, the pool hashes, and the time from spawn to the last load
/// answer.
fn start(
    ctx: &Ctx,
    name: &str,
    progs: &[&Prog],
) -> Result<(Daemon, Vec<String>, Duration), String> {
    let t = Instant::now();
    let d = Daemon::spawn(&ctx.bin, &ctx.workdir, name, &DAEMON_ARGS)?;
    let mut c = d.connect("loader")?;
    let mut hashes = Vec::new();
    for p in progs {
        hashes.push(c.load(&p.sources)?);
    }
    Ok((d, hashes, t.elapsed()))
}

/// Starts the daemon [`SETUP_REPS`] times (keeping the last) and reports
/// the median set-up time in seconds.
fn start_median(
    ctx: &Ctx,
    name: &str,
    progs: &[&Prog],
) -> Result<(Daemon, Vec<String>, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPS {
        let (d, h, t) = start(ctx, name, progs)?;
        times.push(t.as_secs_f64());
        if i + 1 == SETUP_REPS {
            kept = Some((d, h));
        } else {
            d.shutdown()?;
        }
    }
    let (d, h) = kept.expect("set-up ran");
    Ok((d, h, median(&times)))
}

/// What one reader connection saw.
#[derive(Default)]
struct ReadOut {
    lat: Lat,
    stats_lat: Lat,
    attempted: u64,
    errors: Vec<String>,
    tracer: Option<Tracer>,
}

/// A closed loop over `lines` (starting at `offset`) until `deadline` or
/// `limit` requests;
/// every response is checked against `expect`. With an oracle, each
/// request is also replayed in process under a `serve.round_trip` span.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    mut conn: Conn,
    deck: &[Req],
    lines: &[String],
    expect: &HashMap<Req, u64>,
    offset: usize,
    deadline: Instant,
    scrape: bool,
    limit: usize,
    mut replay: Option<(Oracle, Tracer)>,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut i = offset;
    while Instant::now() < deadline && out.lat.len() < limit {
        let k = i % deck.len();
        i += 1;
        out.attempted += 1;
        if let Some((_, tr)) = replay.as_mut() {
            tr.next_request();
        }
        let t = Instant::now();
        let resp = conn.call(&lines[k]);
        let dt = t.elapsed();
        let got = match resp {
            Ok(r) => digest(r),
            Err(e) => {
                out.errors.push(format!("slice request failed: {e}"));
                break;
            }
        };
        out.lat.push(dt);
        if got != expect[&deck[k]] {
            out.errors.push(format!(
                "answer differs from the in-process answer for {:?}",
                deck[k]
            ));
        }
        if let Some((oracle, tr)) = replay.as_mut() {
            tr.record("serve.round_trip", t, dt);
            let idx = tr.spans().len() - 1;
            tr.enter(idx);
            let replayed = oracle.replay(&lines[k], tr);
            tr.leave();
            if replayed.map(|s| digest(&s)) != Ok(got) {
                out.errors.push(format!("replay differs for {:?}", deck[k]));
            }
        }
        if scrape && (i - offset).is_multiple_of(STATS_EVERY) {
            out.attempted += 1;
            let t = Instant::now();
            match conn.stats() {
                Ok(_) => out.stats_lat.push(t.elapsed()),
                Err(e) => out.errors.push(e),
            }
        }
    }
    out.tracer = replay.map(|(_, tr)| tr);
    out
}

/// Pool counters from a `stats` document, and the daemon's resident set.
struct PoolCounters {
    evictions: u64,
    misses: u64,
    degraded: u64,
    rss: u64,
}

/// Reads the daemon's pool counters over `admin`, then its resident set.
fn pool_counters(admin: &mut Conn, d: &Daemon) -> Result<PoolCounters, String> {
    let doc = admin.stats()?;
    let pool = |k: &str| {
        doc.get("pool")
            .and_then(|p| p.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let degraded = doc.get("tenants").and_then(Json::as_arr).map_or(0, |ts| {
        ts.iter()
            .filter_map(|t| t.get("degraded").and_then(Json::as_u64))
            .sum()
    });
    Ok(PoolCounters {
        evictions: pool("evictions"),
        misses: pool("misses"),
        degraded,
        rss: d.rss_bytes(),
    })
}

/// Daemon-side per-layer metrics between two readings, over `requests`
/// slice requests.
fn pool_layer(
    r: &mut Report,
    before: &PoolCounters,
    after: &PoolCounters,
    stats_lat: &Lat,
    requests: usize,
) {
    r.layer("serve.stats_ms", stats_lat.p50(), "ms", stats_lat.len());
    for (name, a, b) in [
        ("serve.pool_evictions", after.evictions, before.evictions),
        ("serve.pool_misses", after.misses, before.misses),
        ("serve.degraded", after.degraded, before.degraded),
    ] {
        r.layer(name, (a - b) as f64, "count", 1);
    }
    let growth = (after.rss as f64 - before.rss as f64) / requests.max(1) as f64;
    r.layer("serve.rss_growth_b_per_req", growth, "B", requests);
}

/// Expected answer digests for every distinct request of `deck`.
fn expectations(oracle: &mut Oracle, deck: &[Req], r: &mut Report) -> HashMap<Req, u64> {
    let mut expect = HashMap::new();
    let mut keys: Vec<&Req> = deck.iter().collect();
    keys.sort();
    keys.dedup();
    let mut all = DefaultHasher::new();
    for k in keys {
        match oracle.answer(k) {
            Ok(a) => {
                let d = digest(&a);
                d.hash(&mut all);
                expect.insert(k.clone(), d);
            }
            Err(e) => r.fail(e),
        }
    }
    r.digest = all.finish();
    expect
}

/// Replay-derived per-layer metrics from a traced serve loop: each
/// stage's median in µs, and the round trip's self time (what the replay
/// does not explain: socket, queue, checkout and write).
fn replay_metrics(tr: &Tracer, r: &mut Report) {
    let us_of = |name: &str| {
        let v = tr.durations_ms(name);
        (median(&v) * 1e3, v.len())
    };
    for (metric, span) in [
        ("serve.request_parse_us", "replay.parse_request"),
        ("core.seed_resolve_us", "replay.seed_at_line"),
        ("core.render_us", "replay.stmt_lines"),
        ("serve.response_us", "replay.slice_line"),
    ] {
        let (v, n) = us_of(span);
        r.layer(metric, v, "us", n);
    }
    for m in Mode::ALL {
        let (v, n) = us_of(&format!("replay.query.{}", m.name()));
        r.layer(&format!("core.query_us.{}", m.name()), v, "us", n);
    }
    let residual = tr.self_ms("serve.round_trip");
    r.layer(
        "serve.residual_us",
        median(&residual) * 1e3,
        "us",
        residual.len(),
    );
    // Each round trip is its replayed stages plus its residual; print how
    // the medians of the two parts compare with the round trip's.
    let trips = tr.durations_ms("serve.round_trip");
    let stages: Vec<f64> = trips.iter().zip(&residual).map(|(t, s)| t - s).collect();
    eprintln!(
        "   accounting: round trip p50 {:.1} us = replayed stages p50 {:.1} us + residual p50 {:.1} us (per request exactly; medians of parts)",
        median(&trips) * 1e3,
        median(&stages) * 1e3,
        median(&residual) * 1e3
    );
}

/// Runs `conns` reader connections for `secs`; with `traced`, each
/// replays its requests under spans.
#[allow(clippy::too_many_arguments)]
fn run_readers(
    d: &Daemon,
    progs: &[Prog],
    hashes: &[String],
    deck: &[Req],
    expect: &HashMap<Req, u64>,
    conns: usize,
    secs: f64,
    traced: Option<&Tracer>,
) -> Result<Vec<ReadOut>, String> {
    let lines: Vec<Vec<String>> = (0..conns)
        .map(|c| {
            deck.iter()
                .map(|q| request_line(q, &hashes[q.prog], &format!("reader{c}")))
                .collect()
        })
        .collect();
    let mut clients = Vec::new();
    for c in 0..conns {
        let replay = traced.map(|tr| (Oracle::new(progs, hashes), tr.fork((c as u64 + 1) << 40)));
        clients.push((d.connect(&format!("reader{c}"))?, replay));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, (conn, replay))| {
                let lines = &lines[c];
                s.spawn(move || {
                    let offset = c * deck.len() / conns;
                    read_loop(
                        conn,
                        deck,
                        lines,
                        expect,
                        offset,
                        deadline,
                        c == 0,
                        usize::MAX,
                        replay,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<Vec<_>>()
    });
    Ok(outs)
}

fn merge(outs: Vec<ReadOut>, r: &mut Report, tracer: Option<&mut Tracer>) -> (Lat, Lat) {
    let mut lat = Lat::default();
    let mut stats = Lat::default();
    let mut tracer = tracer;
    for o in outs {
        lat.ms.extend(o.lat.ms);
        stats.ms.extend(o.stats_lat.ms);
        r.attempted += o.attempted;
        for e in o.errors {
            r.fail(e);
        }
        if let (Some(t), Some(ot)) = (tracer.as_deref_mut(), o.tracer) {
            t.absorb(ot);
        }
    }
    (lat, stats)
}

/// `serve-read`: the 8 suite programs plus gen-x4 resident in the
/// daemon; two connections run a closed loop of seeded slice requests,
/// with a `stats` scrape every [`STATS_EVERY`] requests on the first.
pub fn serve_read(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let progs = program_set(ctx.seed, 4);
    let deck = deck(&progs, ctx.seed, DECK_ROUNDS, progs.len() - 1);
    let refs: Vec<&Prog> = progs.iter().collect();
    let (d, hashes, setup_s) = start_median(ctx, "read", &refs)?;
    let mut oracle = Oracle::new(&progs, &hashes);
    let expect = expectations(&mut oracle, &deck, &mut r);
    let mut admin = d.connect("admin")?;
    let before = pool_counters(&mut admin, &d)?;

    let mut tracer = Tracer::new(ctx.trace);
    let (lat, stats_lat, secs, untraced_p50) = if ctx.trace {
        // Half the time untraced, half traced: the gap is the overhead.
        let half = ctx.seconds / 2.0;
        let outs = run_readers(&d, &progs, &hashes, &deck, &expect, 2, half, None)?;
        let (plain, _) = merge(outs, &mut r, None);
        let outs = run_readers(&d, &progs, &hashes, &deck, &expect, 2, half, Some(&tracer))?;
        let (lat, stats) = merge(outs, &mut r, Some(&mut tracer));
        (lat, stats, half, plain.p50())
    } else {
        let outs = run_readers(&d, &progs, &hashes, &deck, &expect, 2, ctx.seconds, None)?;
        let (lat, stats) = merge(outs, &mut r, None);
        (lat, stats, ctx.seconds, 0.0)
    };
    r.attempted += 1;
    let after = pool_counters(&mut admin, &d)?;
    if after.evictions != before.evictions {
        r.fail(format!(
            "{} sessions evicted during serve-read",
            after.evictions - before.evictions
        ));
    }
    let peak = d.peak_rss_mb();
    drop(admin);
    d.shutdown()?;

    r.e2e(
        "setup_s",
        setup_s,
        "s",
        SETUP_REPS,
        "daemon spawned and 9 programs loaded",
    );
    r.e2e("p50_ms", lat.p50(), "ms", lat.len(), "request_p50_ms");
    r.e2e("tail_ms", lat.q(0.99), "ms", lat.len(), "request_p99_ms");
    r.e2e(
        "throughput_per_s",
        lat.len() as f64 / secs,
        "1/s",
        lat.len(),
        "requests_per_s",
    );
    r.e2e(
        "aux_p50_ms",
        stats_lat.p50(),
        "ms",
        stats_lat.len(),
        "stats_p50_ms",
    );
    r.e2e(
        "aux_tail_ms",
        stats_lat.q(0.9),
        "ms",
        stats_lat.len(),
        "stats_p90_ms",
    );
    r.e2e("peak_rss_mb", peak, "MB", 1, "daemon VmHWM");

    if ctx.trace {
        replay_metrics(&tracer, &mut r);
        pool_layer(&mut r, &before, &after, &stats_lat, lat.len());
        let own = ledger::Own::Serve;
        finish_traced(ctx, &progs, &mut tracer, own, &lat, untraced_p50, &mut r)?;
    }
    Ok(r)
}

/// Slice requests in the serve probe of other workloads' traced runs.
const PROBE_REQUESTS: usize = 400;

/// The serve probe other workloads' traced runs use: a daemon loaded with
/// `progs` and one connection sending [`PROBE_REQUESTS`] requests, each
/// replayed in process under its round-trip span.
pub fn probe(ctx: &Ctx, progs: &[Prog], tr: &mut Tracer) -> Result<Report, String> {
    let mut r = Report::default();
    let refs: Vec<&Prog> = progs.iter().collect();
    let (d, hashes, _) = start(ctx, "probe", &refs)?;
    let deck = deck(progs, ctx.seed, 2, progs.len() - 1);
    let mut oracle = Oracle::new(progs, &hashes);
    let expect = expectations(&mut oracle, &deck, &mut r);
    let mut admin = d.connect("admin")?;
    let before = pool_counters(&mut admin, &d)?;
    let lines: Vec<String> = deck
        .iter()
        .map(|q| request_line(q, &hashes[q.prog], "reader0"))
        .collect();
    let conn = d.connect("reader0")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    let replay = Some((oracle, tr.fork(1 << 40)));
    let out = read_loop(
        conn,
        &deck,
        &lines,
        &expect,
        0,
        deadline,
        true,
        PROBE_REQUESTS,
        replay,
    );
    let after = pool_counters(&mut admin, &d)?;
    drop(admin);
    d.shutdown()?;
    let requests = out.lat.len();
    let mut probe_tr = tr.fork(0);
    let (_, stats_lat) = merge(vec![out], &mut r, Some(&mut probe_tr));
    replay_metrics(&probe_tr, &mut r);
    tr.absorb(probe_tr);
    pool_layer(&mut r, &before, &after, &stats_lat, requests);
    Ok(r)
}

/// One editor cycle as recorded: which lines it sliced and the digests
/// of the answers it got.
struct EditCycle {
    lines: Vec<u32>,
    got: Vec<u64>,
}

/// The lines the editor slices after its `k`-th reload: up to
/// [`SLICES_PER_EDIT`] `print` lines of the edited text.
fn edit_lines(text: &str, seed: u64, k: usize) -> Vec<u32> {
    let prints: Vec<u32> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("print("))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    let mut rng = SmallRng::new(seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
    (0..SLICES_PER_EDIT).map(|_| *rng.choose(&prints)).collect()
}

/// What the editor connection saw.
#[derive(Default)]
struct EditOut {
    reload: Lat,
    paths: Vec<String>,
    cycles: Vec<EditCycle>,
    attempted: u64,
    errors: Vec<String>,
}

/// The editor: every [`EDIT_PERIOD`], apply the next
/// [`STEPS_PER_RELOAD`] edit-script steps, `reload`, then slice a few
/// `print` lines of the edited text.
fn edit_loop(mut conn: Conn, gen: &Prog, hash: &str, seed: u64, deadline: Instant) -> EditOut {
    let mut out = EditOut::default();
    let mut script = thinslice_suite::edits::EditScript::new(seed);
    let mut cur = gen.sources.clone();
    let mut next_start = Instant::now();
    while Instant::now() < deadline {
        let now = Instant::now();
        if now < next_start {
            std::thread::sleep(next_start - now);
        }
        next_start += EDIT_PERIOD;
        for _ in 0..STEPS_PER_RELOAD {
            cur = script.step(&cur).0;
        }
        let req = format!(
            "{{\"op\":\"reload\",\"client\":\"editor\",\"program\":{},\"sources\":{}}}",
            esc(hash),
            sources_json(&cur)
        );
        out.attempted += 1;
        let t = Instant::now();
        let resp = conn.call(&req).map(|s| s.to_string());
        let dt = t.elapsed();
        match resp.and_then(|s| Json::parse(&s).map_err(|e| e.to_string())) {
            Ok(v) if v.get("ok") == Some(&Json::Bool(true)) => {
                out.reload.push(dt);
                let path = v.get("path").and_then(Json::as_str).unwrap_or("?");
                out.paths.push(path.to_string());
            }
            Ok(v) => {
                out.errors.push(format!("reload refused: {v:?}"));
                break;
            }
            Err(e) => {
                out.errors.push(format!("reload failed: {e}"));
                break;
            }
        }
        let k = out.cycles.len();
        let lines = edit_lines(&cur[0].1, seed, k);
        let mut got = Vec::new();
        for &l in &lines {
            let req = Req {
                prog: 0,
                file: "gen.mj".into(),
                line: l,
                mode: Mode::ThinCi,
            };
            out.attempted += 1;
            match conn.call(&request_line(&req, hash, "editor")) {
                Ok(s) => got.push(digest(s)),
                Err(e) => {
                    out.errors.push(format!("editor slice failed: {e}"));
                    return out;
                }
            }
        }
        out.cycles.push(EditCycle { lines, got });
    }
    out
}

/// Checks every editor cycle against fresh sessions over the same edited
/// sources (replayed from the seed), on two threads.
fn verify_edits(gen: &Prog, hash: &str, seed: u64, cycles: &[EditCycle]) -> Vec<String> {
    let mut versions = Vec::with_capacity(cycles.len());
    let mut script = thinslice_suite::edits::EditScript::new(seed);
    let mut cur = gen.sources.clone();
    for _ in cycles {
        for _ in 0..STEPS_PER_RELOAD {
            cur = script.step(&cur).0;
        }
        versions.push(cur.clone());
    }
    let check = |k: usize| -> Vec<String> {
        let mut errs = Vec::new();
        let s = match AnalysisSession::new(&as_refs(&versions[k])) {
            Ok(s) => s,
            Err(e) => return vec![format!("edit {k} does not compile: {e}")],
        };
        let mut fresh = Oracle {
            sessions: vec![s],
            hashes: vec![hash.to_string()],
        };
        for (&l, &got) in cycles[k].lines.iter().zip(&cycles[k].got) {
            let req = Req {
                prog: 0,
                file: "gen.mj".into(),
                line: l,
                mode: Mode::ThinCi,
            };
            match fresh.answer(&req) {
                Ok(a) if digest(&a) == got => {}
                Ok(_) => errs.push(format!(
                    "edit {k}: reload-then-slice of gen.mj:{l} differs from a fresh session"
                )),
                Err(e) => errs.push(format!("edit {k}: {e}")),
            }
        }
        errs
    };
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|w| {
                let check = &check;
                s.spawn(move || {
                    (w..cycles.len())
                        .step_by(2)
                        .flat_map(check)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// `serve-edit`: the editor reloads gen-x8 while one reader connection
/// runs the `serve-read` stream over the 8 suite programs.
pub fn serve_edit(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let readers = suite();
    let gen = generated(ctx.seed, 8);
    let heavy = readers
        .iter()
        .position(|p| p.name == "javac")
        .expect("javac is a suite program");
    let deck = deck(&readers, ctx.seed, DECK_ROUNDS, heavy);
    let mut refs: Vec<&Prog> = readers.iter().collect();
    refs.push(&gen);
    let (d, mut hashes, setup_s) = start_median(ctx, "edit", &refs)?;
    let gen_hash = hashes.pop().expect("gen loaded last");
    let mut oracle = Oracle::new(&readers, &hashes);
    let expect = expectations(&mut oracle, &deck, &mut r);
    let mut admin = d.connect("admin")?;
    let before = pool_counters(&mut admin, &d)?;

    let mut tracer = Tracer::new(ctx.trace);
    let run = |secs: f64, traced: Option<&Tracer>| -> Result<(Vec<ReadOut>, EditOut), String> {
        let editor = d.connect("editor")?;
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let gen = &gen;
        let gen_hash = &gen_hash;
        std::thread::scope(|s| {
            let e = s.spawn(move || edit_loop(editor, gen, gen_hash, ctx.seed, deadline));
            let reads = run_readers(&d, &readers, &hashes, &deck, &expect, 1, secs, traced);
            let edits = e.join().expect("editor thread panicked");
            reads.map(|rd| (rd, edits))
        })
    };
    let (secs, outs, edits, untraced_p50) = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let (outs, _) = run(half, None)?;
        let (plain, _) = merge(outs, &mut r, None);
        // The traced half starts the edit script over; a reload carries
        // whole sources, so the daemon's state follows the script.
        let (outs, edits) = run(half, Some(&tracer))?;
        (half, outs, edits, plain.p50())
    } else {
        let (outs, edits) = run(ctx.seconds, None)?;
        (ctx.seconds, outs, edits, 0.0)
    };
    let (lat, stats_lat) = merge(outs, &mut r, Some(&mut tracer));
    r.attempted += edits.attempted + 1;
    for e in &edits.errors {
        r.fail(e.clone());
    }
    let after = pool_counters(&mut admin, &d)?;
    let peak = d.peak_rss_mb();
    drop(admin);
    d.shutdown()?;
    for e in verify_edits(&gen, &gen_hash, ctx.seed, &edits.cycles) {
        r.fail(e);
    }

    r.e2e(
        "setup_s",
        setup_s,
        "s",
        SETUP_REPS,
        "daemon spawned, 8 suite programs and gen-x8 loaded",
    );
    r.e2e(
        "p50_ms",
        lat.p50(),
        "ms",
        lat.len(),
        "request_p50_ms (reader beside the editor)",
    );
    // p99.9: the reader requests that waited on a reload's pool lock are
    // ~0.4% of them, above the 99th percentile.
    r.e2e(
        "tail_ms",
        lat.q(0.999),
        "ms",
        lat.len(),
        "request_p999_ms (reader beside the editor)",
    );
    r.e2e(
        "throughput_per_s",
        lat.len() as f64 / secs,
        "1/s",
        lat.len(),
        "requests_per_s",
    );
    r.e2e(
        "aux_p50_ms",
        edits.reload.p50(),
        "ms",
        edits.reload.len(),
        "reload_p50_ms",
    );
    r.e2e(
        "aux_tail_ms",
        edits.reload.q(0.9),
        "ms",
        edits.reload.len(),
        "reload_p90_ms",
    );
    r.e2e("peak_rss_mb", peak, "MB", 1, "daemon VmHWM");

    if ctx.trace {
        replay_metrics(&tracer, &mut r);
        let reloads = edits.paths.len().max(1) as f64;
        let incremental = edits.paths.iter().filter(|p| *p == "incremental").count() as f64;
        r.layer(
            "serve.reload_share.incremental",
            incremental / reloads,
            "share",
            edits.paths.len(),
        );
        pool_layer(&mut r, &before, &after, &stats_lat, lat.len());
        let mut progs = readers.clone();
        progs.push(gen.clone());
        let own = ledger::Own::Serve;
        finish_traced(ctx, &progs, &mut tracer, own, &lat, untraced_p50, &mut r)?;
    }
    Ok(r)
}
