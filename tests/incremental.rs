//! A session that lives through an edit script via
//! [`AnalysisSession::update`] answers every query bit-for-bit like a
//! session built from scratch on the edited sources — for both engines,
//! all three slice kinds, and every suite benchmark.
//!
//! An update re-opens the session lazily on the new program, so the only
//! state that could leak across an edit is whatever the re-open forgets
//! to reset. These tests pin that against the randomized edit generator,
//! whose comment, literal, statement and method edits each change the
//! program differently.

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_suite::edits::EditScript;

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

fn owned(sources: &[(&str, &str)]) -> Vec<(String, String)> {
    sources
        .iter()
        .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
        .collect()
}

fn refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect()
}

/// Up to `n` single-statement print seeds of the session's program.
fn print_seeds(s: &AnalysisSession, n: usize) -> Vec<thinslice_ir::StmtRef> {
    let program = s.program();
    program
        .all_stmts()
        .filter(|st| matches!(program.instr(*st).kind, InstrKind::Print { .. }))
        .take(n)
        .collect()
}

/// Asserts `live` (a session that has been updated) and a fresh session
/// over the same sources answer identically on every engine × kind over
/// up to `seeds` print seeds. Returns the number of queries compared.
fn assert_matches_fresh(
    live: &mut AnalysisSession,
    sources: &[(String, String)],
    seeds: usize,
    ctx: &str,
) -> usize {
    let mut fresh = AnalysisSession::new(&refs(sources)).expect("edited sources compile");
    let mut compared = 0;
    for seed in print_seeds(&fresh, seeds) {
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in KINDS {
                let q = Query::new(vec![seed], kind, engine);
                let got = live.query(&q);
                let want = fresh.query(&q);
                assert_eq!(got.stmts, want.stmts, "{ctx}: {engine:?} {kind:?} stmts");
                assert_eq!(got.nodes, want.nodes, "{ctx}: {engine:?} {kind:?} nodes");
                assert_eq!(
                    got.completeness, want.completeness,
                    "{ctx}: {engine:?} {kind:?} completeness"
                );
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn updates_match_rebuilds_on_all_benchmarks_under_random_edits() {
    for b in thinslice_suite::all_benchmarks() {
        let mut sources = owned(&b.sources);
        let mut live = AnalysisSession::new(&refs(&sources)).expect("benchmark compiles");
        // Warm both engines so every later update has built stages to
        // drop.
        assert!(assert_matches_fresh(&mut live, &sources, 1, b.name) > 0);
        let mut gen = EditScript::new(0xC0FFEE ^ b.name.len() as u64);
        for round in 0..3 {
            let (next, edit) = gen.step(&sources);
            let stats = live
                .update(&refs(&next))
                .unwrap_or_else(|e| panic!("{} round {round} ({edit:?}): {e}", b.name));
            assert!(stats.methods_total > 0);
            let ctx = format!("{} round {round} ({:?})", b.name, edit.kind);
            assert!(
                assert_matches_fresh(&mut live, &next, 2, &ctx) > 0,
                "{ctx}: no print seeds"
            );
            sources = next;
        }
    }
}
