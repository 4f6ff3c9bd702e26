//! End-to-end telemetry: spans nest and time monotonically, counters
//! aggregate across batch workers, the machine-readable run report
//! round-trips through its hand-rolled JSON parser, governance records
//! budget-exhaustion events, and a disabled handle changes nothing.

use thinslice::{
    AnalysisSession, Budget, Engine, Query, QueryPolicy, RunCtx, SliceKind, Telemetry,
};
use thinslice_ir::{Program, StmtRef};
use thinslice_util::telemetry::RUN_REPORT_SCHEMA;
use thinslice_util::RunReport;

const PROGRAM: &str = "class Box { Object item;
    void fill(Object o) { this.item = o; }
    Object take() { return this.item; }
 }
 class Main { static void main() {
    Box b = new Box();
    String s = \"deep\";
    b.fill(s);
    Object got = b.take();
    print(got);
    int x = 3;
    int y = x + 4;
    print(y);
 } }";

fn session(ctx: RunCtx) -> AnalysisSession {
    AnalysisSession::with_ctx(
        &[("t.mj", PROGRAM)],
        thinslice_pta::PtaConfig::default(),
        ctx,
    )
    .unwrap()
}

/// One single-statement seed per print statement of the program.
fn print_seeds(program: &Program) -> Vec<Vec<StmtRef>> {
    program
        .all_stmts()
        .filter(|s| {
            matches!(
                program.instr(*s).kind,
                thinslice_ir::InstrKind::Print { .. }
            )
        })
        .map(|s| vec![s])
        .collect()
}

fn queries(program: &Program, engine: Engine) -> Vec<Query> {
    print_seeds(program)
        .into_iter()
        .map(|seeds| Query::new(seeds, SliceKind::Thin, engine))
        .collect()
}

#[test]
fn pipeline_spans_nest_and_time_monotonically() {
    let tel = Telemetry::enabled();
    // The frozen CI graph is the last stage of the CI pipeline.
    session(RunCtx::disabled().with_telemetry(tel.clone())).ci_graph();
    let report = tel.report();
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "ir.parse",
        "ir.resolve",
        "ir.lower",
        "ir.ssa",
        "pta.solve",
        "sdg.build",
        "sdg.freeze",
    ] {
        assert!(
            names.contains(&expected),
            "missing span {expected}: {names:?}"
        );
    }
    // Spans are recorded in open order with monotone start offsets, and a
    // closed span never extends past the next sibling's start + duration
    // accounting keeps wall-clock ordering sane.
    for w in report.spans.windows(2) {
        assert!(
            w[0].start_us <= w[1].start_us,
            "span starts must be monotone: {:?}",
            report.spans
        );
    }
    let pta = report.spans.iter().find(|s| s.name == "pta.solve").unwrap();
    let rounds = pta
        .counters
        .iter()
        .find(|(k, _)| k == "pta.delta_rounds")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(rounds > 0, "the solver must pop work");
}

#[test]
fn nested_spans_record_depth() {
    let tel = Telemetry::enabled();
    {
        let _outer = tel.span("outer");
        std::thread::sleep(std::time::Duration::from_millis(1));
        {
            let _inner = tel.span("inner");
        }
    }
    let report = tel.report();
    let outer = report.spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = report.spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert!(inner.start_us >= outer.start_us);
    assert!(
        outer.dur_us >= inner.dur_us,
        "enclosing span lasts at least as long as its child: outer={} inner={}",
        outer.dur_us,
        inner.dur_us
    );
}

#[test]
fn counters_aggregate_across_batch_workers() {
    let tel = Telemetry::enabled();
    let mut s = session(RunCtx::disabled().with_telemetry(tel.clone()));
    let qs = queries(s.program(), Engine::Ci);
    assert!(qs.len() >= 2);
    // Tile the queries so several workers record concurrently.
    let tiled: Vec<Query> = qs.iter().cycle().take(20).cloned().collect();

    let outcomes = s.query_batch(&tiled, 4);
    let report = tel.report();

    // One latency sample per query, whatever the thread interleaving.
    let h = report.histograms.get("batch.query_us").unwrap();
    assert_eq!(h.count as usize, tiled.len());
    assert!(h.p50 <= h.p95 && h.p95 <= h.max);

    // The shared counter is the exact sum of per-slice node counts.
    let expected: u64 = outcomes
        .iter()
        .map(|o| o.slice.as_ref().unwrap().nodes.len() as u64)
        .sum();
    assert_eq!(report.counters.get("slice.nodes_visited"), Some(&expected));
    assert!(
        report.counters.get("slice.csr_edges_visited").copied() > Some(0),
        "the BFS visits edges: {:?}",
        report.counters
    );
}

#[test]
fn cs_batch_records_memo_hits_and_misses() {
    let tel = Telemetry::enabled();
    let mut s = session(RunCtx::disabled().with_telemetry(tel.clone()));
    let qs = queries(s.program(), Engine::Cs);
    // Repeats of the same queries: later queries splice memoised exit
    // regions, so both hits and misses must show up.
    let tiled: Vec<Query> = qs.iter().cycle().take(3 * qs.len()).cloned().collect();
    let _ = s.query_batch(&tiled, 1);
    let report = tel.report();
    let misses = report
        .counters
        .get("cs.exit_memo_misses")
        .copied()
        .unwrap_or(0);
    let hits = report
        .counters
        .get("cs.exit_memo_hits")
        .copied()
        .unwrap_or(0);
    assert!(
        misses > 0,
        "first encounters must miss: {:?}",
        report.counters
    );
    assert!(
        hits > 0,
        "repeats must hit the exit memo: {:?}",
        report.counters
    );
}

#[test]
fn run_report_round_trips_through_json() {
    let tel = Telemetry::enabled();
    let mut s = session(RunCtx::disabled().with_telemetry(tel.clone()));
    let qs = queries(s.program(), Engine::Ci);
    let _ = s.query_batch(&qs, 2);
    tel.event("test.marker", &[("key", "value \"quoted\"\n".to_string())]);
    let report = tel.report();

    let json = report.to_json();
    assert!(json.contains(RUN_REPORT_SCHEMA));
    let parsed = RunReport::from_json(&json).expect("emitted JSON must parse");
    assert_eq!(parsed, report, "round-trip must be lossless");
}

#[test]
fn governance_records_budget_exhaustion_with_frontier() {
    let tel = Telemetry::enabled();
    let mut s = session(RunCtx::disabled().with_telemetry(tel.clone()));
    let policy = QueryPolicy {
        budget: Some(Budget::unlimited().with_step_limit(1)),
        ..QueryPolicy::default()
    };
    let qs: Vec<Query> = queries(s.program(), Engine::Ci)
        .into_iter()
        .map(|q| q.with_policy(policy.clone()))
        .collect();
    let outcomes = s.query_batch(&qs, 2);
    let truncated = outcomes
        .iter()
        .filter(|o| matches!(&o.slice, Ok(s) if !s.completeness.is_complete()))
        .count();
    assert!(truncated > 0, "a 1-step budget must truncate something");

    let report = tel.report();
    assert_eq!(
        report.counters.get("govern.budget_exhaustions"),
        Some(&(truncated as u64))
    );
    let events: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.name == "govern.budget_exhausted")
        .collect();
    assert_eq!(events.len(), truncated);
    for e in &events {
        assert_eq!(e.field("stage"), Some("slice"));
        assert!(e.field("reason").is_some());
        let frontier: u64 = e
            .field("frontier")
            .expect("event carries the abandoned-frontier size")
            .parse()
            .expect("frontier is a count");
        assert!(frontier > 0, "abandoned work must be reported");
    }
    // Meter checks were counted for every attempted query.
    assert!(report.counters.get("govern.meter_checks").copied() >= Some(1));
    // The per-query latency histogram covers every query.
    let h = report.histograms.get("batch.query_us").unwrap();
    assert_eq!(h.count as usize, qs.len());
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let disabled = Telemetry::disabled();
    assert!(!disabled.is_enabled());

    let mut plain_session = session(RunCtx::disabled());
    let qs = queries(plain_session.program(), Engine::Ci);
    let plain = plain_session.query_batch(&qs, 2);
    let with_disabled =
        session(RunCtx::disabled().with_telemetry(disabled.clone())).query_batch(&qs, 2);
    let with_enabled =
        session(RunCtx::disabled().with_telemetry(Telemetry::enabled())).query_batch(&qs, 2);
    for ((p, d), e) in plain.iter().zip(&with_disabled).zip(&with_enabled) {
        let (p, d, e) = (
            p.slice.as_ref().unwrap(),
            d.slice.as_ref().unwrap(),
            e.slice.as_ref().unwrap(),
        );
        assert_eq!(p.stmts, d.stmts);
        assert_eq!(p.stmts, e.stmts);
        assert_eq!(p.nodes, d.nodes);
        assert_eq!(p.nodes, e.nodes);
    }

    // A disabled handle records nothing — its report is empty.
    let report = disabled.report();
    assert!(report.spans.is_empty());
    assert!(report.counters.is_empty());
    assert!(report.histograms.is_empty());
    assert!(report.events.is_empty());
}
