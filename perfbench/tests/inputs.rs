//! Seeded inputs: one seed yields byte-identical programs, request
//! streams and edit scripts, a second seed yields different ones, and
//! every generated seed line resolves to a sliceable statement.

use perfbench::inputs::{deck, generated, program_set, Mode};
use thinslice_suite::edits::EditScript;

fn edits(seed: u64, steps: usize) -> Vec<Vec<(String, String)>> {
    let mut script = EditScript::new(seed);
    let mut cur = generated(seed, 8).sources;
    (0..steps)
        .map(|_| {
            cur = script.step(&cur).0;
            cur.clone()
        })
        .collect()
}

#[test]
fn one_seed_gives_identical_inputs() {
    for seed in [1, 2] {
        let a = program_set(seed, 4);
        let b = program_set(seed, 4);
        assert_eq!(a, b, "programs differ for seed {seed}");
        let heavy = a.len() - 1;
        assert_eq!(deck(&a, seed, 4, heavy), deck(&b, seed, 4, heavy));
        assert_eq!(edits(seed, 6), edits(seed, 6));
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let (a, b) = (program_set(1, 4), program_set(2, 4));
    assert_ne!(a.last().unwrap().sources, b.last().unwrap().sources);
    assert_ne!(deck(&a, 1, 4, a.len() - 1), deck(&b, 2, 4, b.len() - 1));
    assert_ne!(edits(1, 6), edits(2, 6));
}

#[test]
fn every_seed_line_resolves() {
    for seed in [1, 2] {
        let progs = program_set(seed, 4);
        let mut sessions: Vec<_> = progs.iter().map(|p| p.session()).collect();
        for (p, s) in progs.iter().zip(sessions.iter_mut()) {
            assert!(!p.lines.is_empty(), "{} has no seed lines", p.name);
            assert!(!p.task_lines.is_empty(), "{} has no task seeds", p.name);
            for (f, l) in p.lines.iter().chain(&p.task_lines) {
                assert!(s.seed_at_line(f, *l).is_some(), "{}: {f}:{l}", p.name);
            }
        }
        let d = deck(&progs, seed, 4, progs.len() - 1);
        for r in &d {
            assert!(sessions[r.prog].seed_at_line(&r.file, r.line).is_some());
        }
        for m in Mode::ALL {
            assert!(
                d.iter().any(|r| r.mode == m),
                "deck has no {} request",
                m.name()
            );
        }
    }
}
