#![warn(missing_docs)]

//! # thinslice — Thin Slicing (PLDI 2007) for MJ
//!
//! This crate implements the paper's contribution: **thin slicing**, a
//! backward slice containing only *producer* statements — the chain of
//! assignments that computes and copies a value to the seed — excluding
//! base-pointer manipulation and control flow, which become on-demand
//! *explainers* ([`expand`]).
//!
//! The four slicers of the paper's §5 are all answered by one entrypoint,
//! [`AnalysisSession::query`]:
//!
//! | | context-insensitive | context-sensitive |
//! |---|---|---|
//! | thin | [`Engine::Ci`] + [`SliceKind::Thin`] | [`Engine::Cs`] + [`SliceKind::Thin`] |
//! | traditional | [`Engine::Ci`] + [`SliceKind::TraditionalData`] | [`Engine::Cs`] + [`SliceKind::TraditionalData`] |
//!
//! plus the §6.1 evaluation harness ([`inspect`]) that simulates a tool
//! user inspecting statements breadth-first from the seed.
//!
//! Every slice is answered by an [`AnalysisSession`]: a lazy, memoising
//! query session that builds each stage artifact on first use, threads
//! one [`RunCtx`] for telemetry and governance, and maps one [`Query`]
//! to one [`SliceResult`] shape.
//!
//! Two deliberately simple slicers sit beside it as the **reference
//! pair** the query path is pinned against in tests: [`slice_from`]
//! (one-shot BFS over any [`thinslice_sdg::DepGraph`]) and [`cs_slice`]
//! (hash-store tabulation). They share no scratch or memo with the
//! served path.
//!
//! # Examples
//!
//! ```
//! use thinslice::{AnalysisSession, Engine, Query, SliceKind};
//!
//! // The paper's Figure 1 in miniature.
//! let mut session = AnalysisSession::new(&[(
//!     "names.mj",
//!     "class Main { static void main() {\n\
//!         Vector names = new Vector();\n\
//!         String first = \"John\";\n\
//!         names.add(first);\n\
//!         String got = (String) names.get(0);\n\
//!         print(got);\n\
//!     } }",
//! )])?;
//! let seed = session.seed_at_line("names.mj", 6).unwrap();
//! let thin = session.query(&Query::new(seed.clone(), SliceKind::Thin, Engine::Ci));
//! let trad = session.query(&Query::new(seed, SliceKind::TraditionalData, Engine::Ci));
//! assert!(thin.len() < trad.len());
//! # Ok::<(), thinslice_ir::CompileError>(())
//! ```

pub mod batch;
pub mod expand;
pub mod inspect;
pub mod report;
pub mod session;
pub mod slice;
pub mod snapshot;
mod stmtset;
pub mod tabulation;

pub use batch::{BatchConfig, FaultInjection, QueryError, QueryOutcome};
pub use expand::{
    explain_aliasing, explain_aliasing_ctx, exposed_control_deps, heap_flow_pairs, AliasExplanation,
};
pub use inspect::{simulate_inspection, InspectTask, InspectionResult};
pub use session::{
    AnalysisSession, BatchOptions, Engine, Query, QueryPolicy, SliceResult, UpdateStats,
};
pub use slice::{slice_from, Slice, SliceKind, SliceScratch};
pub use snapshot::{source_hash, SnapshotLoad, SnapshotStore};
pub use stmtset::StmtSet;
pub use tabulation::{cs_slice, CsScratch, CsSlice, DownConsumers, MemoStats};
pub use thinslice_util::{
    Budget, CancelToken, Completeness, ExhaustReason, Meter, Outcome, RunCtx, RunReport, Telemetry,
};

/// Per-stage completeness of a governed analysis build (see
/// [`AnalysisSession::build_report`]).
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Whether the points-to solve reached its fixpoint.
    pub pta: Completeness,
    /// Whether SDG construction processed every instance and heap access.
    pub sdg: Completeness,
}

impl BuildReport {
    /// Whether every stage ran to completion.
    pub fn is_complete(&self) -> bool {
        self.pta.is_complete() && self.sdg.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_sdg::DepGraph;

    /// The paper's Figure 1, transliterated to MJ (the stdlib provides the
    /// Vector; readNames/printNames/main as in the paper).
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

    fn figure1() -> AnalysisSession {
        AnalysisSession::new(&[("fig1.mj", FIGURE1)]).unwrap()
    }

    #[test]
    fn figure1_thin_slice_matches_the_paper() {
        let mut s = figure1();
        // Seed: the print at line 15 of fig1.mj.
        let seed = s
            .seed_at_line("fig1.mj", 15)
            .expect("print line is reachable");
        let thin = s.query(&Query::new(seed.clone(), SliceKind::Thin, Engine::Ci));
        let trad = s.query(&Query::new(seed, SliceKind::TraditionalData, Engine::Ci));

        let program = s.program();
        let lines_of = |r: &SliceResult| -> Vec<u32> {
            let mut ls: Vec<u32> = r
                .stmts
                .iter()
                .map(|&st| program.instr(st).span)
                .filter(|sp| !sp.is_synthetic() && program.files[sp.file].name == "fig1.mj")
                .map(|sp| sp.line)
                .collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        };
        let thin_lines = lines_of(&thin);
        let trad_lines = lines_of(&trad);

        // The paper's six underlined statements map to these fig1.mj lines:
        //  7  (substring — the buggy producer)
        //  8  (firstNames.add(firstName))
        // 14  (firstNames.get(i))
        // 15  (the print itself)
        for expected in [7u32, 8, 14, 15] {
            assert!(
                thin_lines.contains(&expected),
                "thin slice must contain fig1.mj:{expected}; got {thin_lines:?}"
            );
        }
        // Explainers excluded from the thin slice but present in the
        // traditional slice: the container construction (line 3) and the
        // SessionState plumbing (lines 21-22).
        for excluded in [3u32, 21, 22] {
            assert!(
                !thin_lines.contains(&excluded),
                "thin slice must NOT contain fig1.mj:{excluded}; got {thin_lines:?}"
            );
            assert!(
                trad_lines.contains(&excluded),
                "traditional slice must contain fig1.mj:{excluded}; got {trad_lines:?}"
            );
        }
        assert!(thin_lines.len() < trad_lines.len());
    }

    #[test]
    fn seed_at_line_misses_unreachable_code() {
        let mut s = AnalysisSession::new(&[(
            "t.mj",
            "class Dead { void never() {\nprint(1);\n} }\nclass Main { static void main() { print(2); } }",
        )])
        .unwrap();
        assert!(
            s.seed_at_line("t.mj", 2).is_none(),
            "never() is unreachable"
        );
        assert!(s.seed_at_line("t.mj", 4).is_some());
    }

    #[test]
    fn inspection_favors_thin_slicing_on_figure1() {
        let mut s = figure1();
        let seed = s.seed_at_line("fig1.mj", 15).unwrap();
        let buggy = s.stmts_at_line("fig1.mj", 7); // the substring line
        let task = InspectTask {
            seeds: seed,
            desired: vec![buggy],
        };
        let graph = s.ci_graph().clone();
        let thin = simulate_inspection(s.program(), &graph, &task, SliceKind::Thin);
        let trad = simulate_inspection(s.program(), &graph, &task, SliceKind::TraditionalData);
        assert!(thin.found_all && trad.found_all);
        assert!(
            thin.inspected < trad.inspected,
            "thin={} trad={}",
            thin.inspected,
            trad.inspected
        );
    }

    #[test]
    fn session_matches_the_reference_slicers() {
        let mut s = figure1();
        let seed = s.seed_at_line("fig1.mj", 15).unwrap();
        for engine in [Engine::Ci, Engine::Cs] {
            let got = s.query(&Query::new(seed.clone(), SliceKind::Thin, engine));
            let graph = match engine {
                Engine::Ci => s.ci_graph(),
                Engine::Cs => s.cs_graph(),
            };
            let nodes: Vec<_> = seed
                .iter()
                .flat_map(|&st| graph.stmt_nodes_of(st).to_vec())
                .collect();
            let (stmts, ref_nodes) = match engine {
                Engine::Ci => {
                    let r = slice_from(graph, &nodes, SliceKind::Thin);
                    (r.stmts, r.nodes)
                }
                Engine::Cs => {
                    let r = cs_slice(graph, &nodes, SliceKind::Thin);
                    (r.stmts, r.nodes)
                }
            };
            assert_eq!(got.stmts, stmts, "{engine:?}");
            assert_eq!(got.nodes, ref_nodes, "{engine:?}");
        }
    }
}
