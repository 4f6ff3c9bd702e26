//! CI bench guard: compares a freshly-measured `BENCH_slicing.json`
//! against the committed baseline and fails when the aggregate batch
//! throughput regressed by more than the allowed fraction.
//!
//! Usage: `bench_guard <baseline.json> <fresh.json> [max-drop-percent]`
//!
//! The guard gates on *regressions* only: absolute throughput varies
//! across runner hardware, so per-benchmark or absolute thresholds would
//! flake. Two families of numbers are compared:
//!
//! * the one headline number, `aggregate.batch_slices_per_sec`;
//! * every `thread_matrix` row present in both files (matched by thread
//!   count): the table2 and synthetic batch throughputs must each stay
//!   within tolerance at every thread count, so a pessimisation that only
//!   shows up under (or without) parallel workers is still caught. Files
//!   predating the matrix simply contribute no rows;
//! * `server.requests_per_sec` — the warm-session `thinslice-serve`
//!   request path — when both files carry it (baselines predating the
//!   server row are skipped, not failed);
//! * the `observability` row's recorder-on and recorder-off warm-session
//!   throughputs, again only when both files carry them. The fresh file's
//!   `recorder_overhead_pct` is reported in the summary but not gated:
//!   it is a difference of two noisy medians, so an absolute threshold
//!   would flake where the relative throughput comparisons do not;
//! * the `snapshot` row's `restore_speedup` (cold build time over
//!   snapshot-restore time, both followed by the same thin CI slice).
//!   The ratio is gated rather than either absolute latency because it is
//!   hardware-independent: both numerator and denominator are measured on
//!   the same runner in the same round. It is compared against the
//!   baseline only when both files carry it, but the fresh file
//!   additionally must meet an absolute floor: a warm restore that is not
//!   at least 5x faster than a cold build defeats the point of persisting
//!   snapshots, and the ratio is runner-independent so the floor does
//!   not flake.
//!
//! The default tolerance of 25% absorbs runner noise while still
//! catching a slicer or batch-engine pessimisation.

use thinslice_util::telemetry::Json;

const DEFAULT_MAX_DROP_PERCENT: f64 = 25.0;

/// Absolute floor for `snapshot.restore_speedup`: restoring a session
/// from its snapshot must beat rebuilding it from source by at least
/// this factor on the largest benchmark.
const MIN_RESTORE_SPEEDUP: f64 = 5.0;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn batch_throughput(json: &Json, path: &str) -> Result<f64, String> {
    json.get("aggregate")
        .and_then(|a| a.get("batch_slices_per_sec"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: missing aggregate.batch_slices_per_sec"))
}

/// The warm-session server throughput, `None` when the file predates the
/// server row (pre-server baselines stay comparable).
fn server_throughput(json: &Json) -> Option<f64> {
    json.get("server")
        .and_then(|s| s.get("requests_per_sec"))
        .and_then(Json::as_f64)
}

/// A field of the `observability` row, `None` when the file predates it
/// (pre-observability baselines stay comparable).
fn observability_field(json: &Json, field: &str) -> Option<f64> {
    json.get("observability")
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
}

/// The snapshot cold-build/warm-restore speedup, `None` when the file
/// predates the `snapshot` row.
fn snapshot_restore_speedup(json: &Json) -> Option<f64> {
    json.get("snapshot")
        .and_then(|s| s.get("restore_speedup"))
        .and_then(Json::as_f64)
}

/// `(threads, throughput)` rows of one matrix column; empty when the file
/// has no `thread_matrix` section (pre-matrix baselines stay comparable).
fn matrix_column(json: &Json, field: &str) -> Vec<(u64, f64)> {
    let Some(rows) = json.get("thread_matrix").and_then(Json::as_arr) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            let threads = r.get("threads").and_then(Json::as_u64)?;
            let tput = r.get(field).and_then(Json::as_f64)?;
            Some((threads, tput))
        })
        .collect()
}

/// One "baseline vs fresh" comparison; `Err` on a drop beyond `max_drop`.
fn compare(label: &str, baseline: f64, fresh: f64, max_drop: f64) -> Result<String, String> {
    if baseline <= 0.0 {
        return Err(format!("{label}: non-positive baseline throughput"));
    }
    let drop_percent = (1.0 - fresh / baseline) * 100.0;
    let summary = format!(
        "{label}: baseline {baseline:.1}/s, fresh {fresh:.1}/s \
         ({drop_percent:+.1}% drop, {max_drop:.0}% allowed)"
    );
    if drop_percent > max_drop {
        Err(format!("regression: {summary}"))
    } else {
        Ok(summary)
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (baseline_path, fresh_path) = match args {
        [b, f] | [b, f, _] => (b.as_str(), f.as_str()),
        _ => {
            return Err(
                "usage: bench_guard <baseline.json> <fresh.json> [max-drop-percent]".to_string(),
            )
        }
    };
    let max_drop = match args.get(2) {
        Some(p) => p
            .parse::<f64>()
            .map_err(|e| format!("bad max-drop-percent {p}: {e}"))?,
        None => DEFAULT_MAX_DROP_PERCENT,
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;

    let mut lines = vec![compare(
        "aggregate batch throughput",
        batch_throughput(&baseline, baseline_path)?,
        batch_throughput(&fresh, fresh_path)?,
        max_drop,
    )?];
    for field in [
        "table2_batch_slices_per_sec",
        "synthetic_batch_slices_per_sec",
    ] {
        let base_rows = matrix_column(&baseline, field);
        for (threads, fresh_tput) in matrix_column(&fresh, field) {
            let Some(&(_, base_tput)) = base_rows.iter().find(|&&(t, _)| t == threads) else {
                continue;
            };
            lines.push(compare(
                &format!("{field} @ {threads} threads"),
                base_tput,
                fresh_tput,
                max_drop,
            )?);
        }
    }
    if let (Some(base), Some(fresh)) = (server_throughput(&baseline), server_throughput(&fresh)) {
        lines.push(compare(
            "server warm-session requests/sec",
            base,
            fresh,
            max_drop,
        )?);
    }
    for field in [
        "recorder_on_requests_per_sec",
        "recorder_off_requests_per_sec",
    ] {
        if let (Some(base), Some(fresh_tput)) = (
            observability_field(&baseline, field),
            observability_field(&fresh, field),
        ) {
            lines.push(compare(
                &format!("observability {field}"),
                base,
                fresh_tput,
                max_drop,
            )?);
        }
    }
    if let Some(overhead) = observability_field(&fresh, "recorder_overhead_pct") {
        lines.push(format!("recorder overhead {overhead:+.2}% (informational)"));
    }
    if let Some(fresh_ratio) = snapshot_restore_speedup(&fresh) {
        if fresh_ratio < MIN_RESTORE_SPEEDUP {
            return Err(format!(
                "snapshot restore speedup {fresh_ratio:.2}x is below the \
                 {MIN_RESTORE_SPEEDUP:.0}x floor"
            ));
        }
        match snapshot_restore_speedup(&baseline) {
            Some(base) => lines.push(compare(
                "snapshot restore speedup",
                base,
                fresh_ratio,
                max_drop,
            )?),
            // Pre-snapshot baselines have no ratio to drop from; the
            // absolute floor above still applies.
            None => lines.push(format!(
                "snapshot restore speedup {fresh_ratio:.2}x (no baseline row, \
                 floor {MIN_RESTORE_SPEEDUP:.0}x met)"
            )),
        }
    }
    Ok(lines.join("\n  "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => println!("bench guard ok: {summary}"),
        Err(message) => {
            eprintln!("bench guard FAILED: {message}");
            std::process::exit(1);
        }
    }
}
