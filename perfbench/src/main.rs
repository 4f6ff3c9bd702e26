//! The `perfbench` command; see the library docs and `perfbench/README.md`.

use perfbench::{parse_args, print_table, result_json, run_workload, usage, Metric, WORKLOADS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, workload) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let all = workload == "all";
    let names: Vec<&str> = if all {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<Metric> = Vec::new();
    for name in names {
        let r = match run_workload(&ctx, name) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        };
        print_table(name, &r, ctx.trace);
        attempted += r.attempted;
        failed += r.failed;
        let ms = if ctx.trace { r.layer } else { r.e2e };
        // One workload reports bare metric names; `all` prefixes each
        // with its workload so the names stay distinct.
        metrics.extend(ms.into_iter().map(|mut m| {
            if all {
                m.name = format!("{name}.{}", m.name);
            }
            m
        }));
    }
    eprintln!("-- done in {:.1}s", started.elapsed().as_secs_f64());
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
}
