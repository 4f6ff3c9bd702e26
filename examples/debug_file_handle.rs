//! The paper's Figure 4: debugging an exception caused by heap aliasing.
//!
//! A `File` is stored in a `Vector`, fetched through one alias and closed,
//! then fetched through another alias and read — which throws. The thin
//! slice from the failing check finds the producers of the `open` flag; one
//! level of *aliasing expansion* (paper §4.1) then reveals how the closed
//! file and the read file are the same object, pinpointing the
//! `closeFile()` call.
//!
//! Run with: `cargo run --example debug_file_handle`

use thinslice::{expand, report, AnalysisSession, Engine, Query, SliceKind};
use thinslice_ir::pretty;

const FILE_PROGRAM: &str = r#"class File {
    boolean open;
    File() { this.open = true; }
    boolean isOpen() { return this.open; }
    void closeFile() { this.open = false; }
}
class Main {
    static void main() {
        File f = new File();
        Vector files = new Vector();
        files.add(f);
        File g = (File) files.get(0);
        g.closeFile();
        File h = (File) files.get(0);
        boolean open = h.isOpen();
        if (!open) {
            throw new Exception("read from closed file");
        }
        print("file ok");
    }
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = AnalysisSession::new(&[("file.mj", FILE_PROGRAM)])?;

    // The failure: the throw at line 17. No value flows into a throw's
    // guard from the throw itself, so the user first looks at the
    // lexically-adjacent conditional (paper §4.2)…
    let throw_seed = session
        .seed_at_line("file.mj", 17)
        .expect("throw is reachable");
    // The session builds its stages on first use through `&mut self`, so
    // the expansions below read copies of the program and the graph.
    let program = session.program().clone();
    let sdg = session.ci_sdg().clone();
    let conditionals: Vec<_> = throw_seed
        .iter()
        .flat_map(|&s| expand::exposed_control_deps(&sdg, s))
        .collect();
    println!("relevant control dependence(s) of the throw:");
    for c in &conditionals {
        println!("  {}", pretty::stmt_str(&program, *c));
    }

    // …and thin-slices from it.
    let thin = session.query(&Query::new(
        conditionals.clone(),
        SliceKind::Thin,
        Engine::Ci,
    ));
    println!("\nthin slice from the conditional (producers of `open`):");
    for line in report::stmt_lines(&program, &thin.stmts) {
        println!("  {line}");
    }

    // The slice shows `this.open = false` in closeFile, but not *which*
    // File was closed. Ask the aliasing question for the load/store pair.
    let pairs = expand::heap_flow_pairs(&program, &sdg, &thin.stmts);
    let (load, store) = pairs
        .iter()
        .find(|(_, s)| {
            // the store inside closeFile
            program.methods[s.method].name == "closeFile"
        })
        .copied()
        .expect("the closeFile store communicates with the isOpen load");
    println!("\nexplaining the aliasing between:");
    println!("  load : {}", pretty::stmt_str(&program, load));
    println!("  store: {}", pretty::stmt_str(&program, store));

    let explanation = expand::explain_aliasing(&program, session.pta(), &sdg, load, store)?;
    println!("\nstatements showing the common File's flow (paper §4.1):");
    for s in explanation.statements() {
        println!("  {}", pretty::stmt_str(&program, s));
    }
    println!(
        "\n=> the `g.closeFile()` call on an alias fetched from the Vector is revealed;\n\
         the fix is to not close the file, or to remove it from the Vector."
    );

    // Contrast: the traditional slice gets there too, but buries the
    // answer in base-pointer plumbing.
    let trad = session.query(&Query::new(
        conditionals,
        SliceKind::TraditionalData,
        Engine::Ci,
    ));
    println!(
        "\nthin slice: {} statements + {} explanation statements; traditional slice: {} statements",
        thin.len(),
        explanation.statements().len(),
        trad.len()
    );
    Ok(())
}
