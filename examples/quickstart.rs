//! Quickstart: the paper's Figure 1, end to end.
//!
//! A program reads full names, extracts first names into a `Vector`, parks
//! the vector in a session object, and later prints the names. The
//! extraction is buggy (`spaceInd - 1` instead of `spaceInd`). A
//! traditional slice from the print statement contains essentially the
//! whole program; the thin slice is six-ish lines that walk straight to
//! the bug.
//!
//! Run with: `cargo run --example quickstart`

use thinslice::{report, AnalysisSession, Engine, Query, SliceKind};

/// The paper's Figure 1, transliterated to MJ.
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
class SessionState {
    Vector names;
    void setNames(Vector v) { this.names = v; }
    Vector getNames() { return this.names; }
}
class Main {
    static SessionState state;
    static SessionState getState() {
        if (Main.state == null) { Main.state = new SessionState(); }
        return Main.state;
    }
    static void main() {
        Vector firstNames = Names.readNames(new InputStream("input"));
        SessionState s = Main.getState();
        s.setNames(firstNames);
        SessionState t = Main.getState();
        Names.printNames(t.getNames());
    }
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = AnalysisSession::new(&[("fig1.mj", FIGURE1)])?;

    // Seed: the print statement (line 15 of fig1.mj).
    let seed = session
        .seed_at_line("fig1.mj", 15)
        .expect("print line is reachable");

    let thin = session.query(&Query::new(seed.clone(), SliceKind::Thin, Engine::Ci));
    let trad = session.query(&Query::new(seed, SliceKind::TraditionalData, Engine::Ci));

    println!("=== Thin slice from the print (producer statements only) ===");
    for line in report::stmt_lines(session.program(), &thin.stmts) {
        if line.starts_with("fig1.mj") {
            println!("  {line}");
        }
    }
    println!();
    println!("=== Traditional slice from the same seed ===");
    for line in report::stmt_lines(session.program(), &trad.stmts) {
        if line.starts_with("fig1.mj") {
            println!("  {line}");
        }
    }
    println!();
    println!(
        "thin slice: {} statements; traditional slice: {} statements",
        thin.len(),
        trad.len()
    );
    println!(
        "the buggy `substring(0, spaceInd - 1)` is reached after inspecting far fewer lines\n\
         with the thin slice — container plumbing and SessionState aliasing are excluded."
    );
    Ok(())
}
