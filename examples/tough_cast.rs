//! The paper's Figure 5: understanding why a "tough cast" cannot fail.
//!
//! `Optimizer.simplify` reads `n.op` and downcasts `n` to `AddNode` inside
//! `if (op == 1)`. The pointer analysis cannot verify the cast (`n` may be
//! any `Node`), so a human must discover the invariant: only `AddNode`'s
//! constructor writes opcode 1. Thin slicing from the `op` read surfaces
//! exactly the constructor opcode writes.
//!
//! Run with: `cargo run --example tough_cast`

use thinslice::{report, AnalysisSession, Engine, Query, SliceKind};
use thinslice_ir::{pretty, InstrKind, Operand};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The javac benchmark is Figure 5 at scale: 12 Node subclasses.
    let benchmark = thinslice_suite::benchmark_named("javac").expect("javac benchmark");
    let mut session = AnalysisSession::new(&benchmark.sources)?;

    // Find the (AddNode) cast and check it really is tough.
    let cast_line = thinslice_suite::line_with(
        thinslice_suite::programs::javac::SOURCE,
        "AddNode add = (AddNode) n;",
    );
    let cast_stmts = session.stmts_at_line("javac.mj", cast_line);
    // The session builds its stages on first use through `&mut self`, so
    // the program is read from a copy beside the points-to result.
    let program = session.program().clone();
    let (method, src_var, target_ty) = cast_stmts
        .iter()
        .find_map(|s| match &program.instr(*s).kind {
            InstrKind::Cast {
                src: Operand::Var(v),
                ty,
                ..
            } => Some((s.method, *v, ty.clone())),
            _ => None,
        })
        .expect("cast on the line");
    let verified = session
        .pta()
        .cast_is_verified(&program, method, src_var, &target_ty);
    println!(
        "the (AddNode) cast is {} by the pointer analysis",
        if verified {
            "VERIFIED (not tough)"
        } else {
            "NOT verifiable — a tough cast"
        }
    );

    // Follow the control dependence from the cast to `if (op == 1)`, then
    // thin-slice from the conditional: what values can `op` hold, and who
    // writes them?
    let sdg = session.ci_sdg();
    let conditionals: Vec<_> = cast_stmts
        .iter()
        .flat_map(|&s| thinslice::expand::exposed_control_deps(sdg, s))
        .collect();
    println!("\ncontrolling conditional(s):");
    for c in &conditionals {
        println!("  {}", pretty::stmt_str(&program, *c));
    }

    let thin = session.query(&Query::new(
        conditionals.clone(),
        SliceKind::Thin,
        Engine::Ci,
    ));
    println!("\nthin slice from the conditional — the opcode writes of every Node subclass:");
    for line in report::stmt_lines(&program, &thin.stmts) {
        if line.contains("super(") || line.contains("this.op = op") {
            println!("  {line}");
        }
    }
    println!(
        "\nthese writes show op == 1 happens only in AddNode's constructor, so the cast is safe.\n\
         (\"many of the thin slice statements were writes of opcodes in a large number of\n\
         constructors, which could be quickly inspected\" — paper §6.3)"
    );

    let trad = session.query(&Query::new(
        conditionals,
        SliceKind::TraditionalData,
        Engine::Ci,
    ));
    println!(
        "\nthin slice: {} statements; traditional slice: {} statements",
        thin.len(),
        trad.len()
    );
    Ok(())
}
