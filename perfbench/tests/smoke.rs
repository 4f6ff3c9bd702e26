//! A short run of every workload, untraced and traced: zero failures, and
//! exactly the metric names `BENCHMARK.json` declares.
//!
//! The workloads drive the release `thinslice` binary, which this test
//! builds from the repository first.

use std::path::{Path, PathBuf};
use std::process::Command;
use thinslice_util::telemetry::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

/// Builds the release CLI into the repository's own target directory.
fn thinslice_bin() -> PathBuf {
    let root = root();
    let target = root.join("target");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "thinslice-cli",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building thinslice failed");
    target.join("release").join("thinslice")
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Runs one workload; returns the parsed result line.
fn run(bin: &Path, workload: &str, trace: bool) -> Json {
    let workdir = root().join(".perfbench_work").join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .arg("--thinslice")
        .arg(bin)
        .arg("--workdir")
        .arg(&workdir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result {last:?}: {e}"))
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    let bin = thinslice_bin();
    for workload in perfbench::WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(&bin, workload, trace);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                r.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = r.get("metrics").and_then(Json::as_obj).expect("metrics");
            let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            names.sort();
            assert_eq!(names, declared(section), "{workload} trace={trace}");
            for (k, v) in metrics {
                let value = v.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {k} = {v:?}");
            }
        }
    }
}
