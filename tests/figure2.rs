//! The paper's Figure 2/3: the toy aliasing program and the exact
//! classification of its dependence edges.
//!
//! ```text
//! 1 x = new A();
//! 2 z = x;
//! 3 y = new B();
//! 4 w = x;
//! 5 w.f = y;
//! 6 if (w == z) {
//! 7     v = z.f;   // the seed
//! 8 }
//! ```
//!
//! The thin slice for line 7 is {3, 5, 7}: line 5 is a producer because `w`
//! and `z` alias, and line 3 produces the stored value. Lines 1/2/4 are
//! base-pointer explainers, line 6 a control explainer.

use thinslice::{AnalysisSession, Engine, Query, SliceKind, SliceResult};
use thinslice_repro::prelude::*;

const FIGURE2: &str = r#"class A {
    A f;
}
class Main {
    static void main() {
        A x = new A();
        A z = x;
        A y = new A();
        A w = x;
        w.f = y;
        if (w == z) {
            A v = z.f;
            print(1);
        }
    }
}"#;

fn figure2() -> AnalysisSession {
    AnalysisSession::new(&[("fig2.mj", FIGURE2)]).unwrap()
}

/// The CI slice of `kind` from the seed on line 12, `A v = z.f;`.
fn slice_from_line_12(s: &mut AnalysisSession, kind: SliceKind) -> SliceResult {
    let seed = s.seed_at_line("fig2.mj", 12).expect("seed reachable");
    s.query(&Query::new(seed, kind, Engine::Ci))
}

#[test]
fn thin_slice_is_exactly_the_producers() {
    let mut a = figure2();
    let thin = slice_from_line_12(&mut a, SliceKind::Thin);

    let lines: std::collections::BTreeSet<u32> = thin
        .stmts
        .iter()
        .map(|&s| a.program().instr(s).span.line)
        .collect();

    // Producers: the seed (12), the store (10), the value allocation (8).
    assert!(lines.contains(&12), "the seed itself: {lines:?}");
    assert!(lines.contains(&10), "the aliased store w.f = y: {lines:?}");
    assert!(
        lines.contains(&8),
        "the allocation of the stored value: {lines:?}"
    );

    // Explainers excluded: base-pointer flow (6, 7, 9) and control (11).
    for excluded in [6u32, 7, 9, 11] {
        assert!(
            !lines.contains(&excluded),
            "line {excluded} is an explainer and must not be in the thin slice: {lines:?}"
        );
    }
}

#[test]
fn traditional_slice_adds_the_explainers() {
    let mut a = figure2();
    let data = slice_from_line_12(&mut a, SliceKind::TraditionalData);
    let full = slice_from_line_12(&mut a, SliceKind::TraditionalFull);

    let lines_of = |s: &SliceResult| -> std::collections::BTreeSet<u32> {
        s.stmts
            .iter()
            .map(|&st| a.program().instr(st).span.line)
            .collect()
    };
    let data_lines = lines_of(&data);
    let full_lines = lines_of(&full);

    // The data slice adds the base-pointer chain (lines 6, 7, 9) but not
    // the conditional.
    for base_ptr in [6u32, 7, 9] {
        assert!(
            data_lines.contains(&base_ptr),
            "{base_ptr} in data slice: {data_lines:?}"
        );
    }
    assert!(
        !data_lines.contains(&11),
        "the conditional is control, not data: {data_lines:?}"
    );
    // The full (Weiser) slice adds the conditional too.
    assert!(
        full_lines.contains(&11),
        "full slice has the control dep: {full_lines:?}"
    );
    assert!(full_lines.is_superset(&data_lines));
}

#[test]
fn edge_classification_matches_figure3() {
    let mut a = figure2();
    // The seed `v = z.f` (a Load) must have: one producer edge to the
    // store, one excluded (base-pointer) edge to z's def, one control edge
    // to the conditional.
    let program = a.program().clone();
    let load = a
        .stmts_at_line("fig2.mj", 12)
        .into_iter()
        .find(|s| matches!(program.instr(*s).kind, thinslice_ir::InstrKind::Load { .. }))
        .expect("the field load");
    let graph = a.ci_sdg();
    let node = graph.stmt_node(load).unwrap();
    let mut has_producer_to_store = false;
    let mut has_base_pointer = false;
    let mut has_control = false;
    for e in graph.deps(node) {
        match e.kind {
            thinslice_sdg::EdgeKind::Flow {
                excluded_from_thin: false,
            } if graph.node(e.target).as_stmt().is_some_and(|s| {
                matches!(program.instr(s).kind, thinslice_ir::InstrKind::Store { .. })
            }) =>
            {
                has_producer_to_store = true;
            }
            thinslice_sdg::EdgeKind::Flow {
                excluded_from_thin: true,
            } => {
                has_base_pointer = true;
            }
            thinslice_sdg::EdgeKind::Control => has_control = true,
            _ => {}
        }
    }
    assert!(
        has_producer_to_store,
        "solid edge to w.f = y (paper Figure 3)"
    );
    assert!(
        has_base_pointer,
        "dashed base-pointer edge to z's definition"
    );
    assert!(has_control, "dotted control edge to the conditional");
}

#[test]
fn prelude_reexports_work() {
    // The workspace-root crate re-exports everything the examples need.
    let program =
        ir::compile(&[("t.mj", "class Main { static void main() { print(1); } }")]).unwrap();
    let pta_result = pta::Pta::analyze(&program, pta::PtaConfig::default());
    let graph = sdg::build_ci(&program, &pta_result);
    assert!(graph.node_count() > 0);
    assert_eq!(suite::all_benchmarks().len(), 8);
    let _ = SliceKind::Thin;
}
