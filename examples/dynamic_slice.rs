//! Dynamic thin slicing: run the paper's Figure 1 program on real input,
//! watch the bug happen, and slice the *execution trace* backwards.
//!
//! The paper (§1) notes that "dynamic thin slices can be defined in a
//! straightforward manner using dynamic data dependences"; this example
//! shows them side by side with the static ones. The dynamic slice is
//! exact (index-sensitive, run-specific) and always a subset of the static
//! slice of the same seed.
//!
//! Run with: `cargo run --example dynamic_slice`

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_interp::{dynamic_data_slice, dynamic_thin_slice, run, ExecConfig};
use thinslice_ir::pretty;

const FIGURE1: &str = r#"class Names {
    static Vector readNames(InputStream input) {
        Vector firstNames = new Vector();
        while (!input.eof()) {
            String fullName = input.readLine();
            int spaceInd = fullName.indexOf(" ");
            String firstName = fullName.substring(0, spaceInd - 1);
            firstNames.add(firstName);
        }
        return firstNames;
    }
    static void printNames(Vector firstNames) {
        for (int i = 0; i < firstNames.size(); i++) {
            String firstName = (String) firstNames.get(i);
            print("FIRST NAME: " + firstName);
        }
    }
}
class Main {
    static void main() {
        Vector firstNames = Names.readNames(new InputStream("input"));
        Names.printNames(firstNames);
    }
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = AnalysisSession::new(&[("fig1.mj", FIGURE1)])?;

    // Run with the paper's input "John Doe" (plus a second name so the
    // index-sensitivity of dynamic dependences shows).
    let exec = run(
        session.program(),
        &ExecConfig {
            lines: vec!["John Doe".into(), "Jane Roe".into()],
            ..ExecConfig::default()
        },
    );
    println!("program output ({:?}):", exec.outcome);
    for (_, text) in &exec.prints {
        println!("  {text}");
    }
    println!("\nthe bug manifests: \"Joh\" instead of \"John\" (substring off-by-one).\n");

    // Slice the trace from the *first* print event.
    let (seed_event, _) = exec.prints[0];
    let dyn_thin = dynamic_thin_slice(&exec, seed_event);
    let dyn_data = dynamic_data_slice(&exec, seed_event);
    println!(
        "dynamic thin slice of print #1: {} statements (data slice: {}):",
        dyn_thin.stmt_count(),
        dyn_data.stmt_count()
    );
    let mut stmts: Vec<_> = dyn_thin.stmts.iter().copied().collect();
    stmts.sort();
    for s in stmts {
        println!("  {}", pretty::stmt_str(session.program(), s));
    }

    // Compare with the static thin slice of the same seed statement.
    let seed_stmt = exec.events[seed_event].stmt;
    let static_thin = session.query(&Query::new(vec![seed_stmt], SliceKind::Thin, Engine::Ci));
    println!(
        "\nstatic thin slice of the same seed: {} statements — the dynamic slice is a\n\
         subset ({}): the run only exercised one path and one vector slot.",
        static_thin.len(),
        dyn_thin.stmts.iter().all(|s| static_thin.contains(*s)),
    );
    Ok(())
}
