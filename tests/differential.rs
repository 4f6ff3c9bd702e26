//! Differential testing: the interpreter's dynamic dependence trace is an
//! oracle for the static analyses.
//!
//! Soundness of the static thin slicer means: for any execution and any
//! seed statement, the statements in the *dynamic* thin slice (exact,
//! index-sensitive, per-run) must all appear in the *static* thin slice of
//! the same seed. Likewise for the full data slices, and the dynamic call
//! targets must be within the static call graph.
//!
//! The static side is whatever `AnalysisSession::query` serves: both
//! engines (context-insensitive reachability and context-sensitive
//! tabulation), on a freshly built session, on one restored from its
//! snapshot, and on one that reached the program through
//! `AnalysisSession::update` from an edited version.

use std::collections::BTreeSet;
use thinslice::{source_hash, AnalysisSession, Engine, Query, RunCtx, SliceKind, StmtSet};
use thinslice_interp::{dynamic_data_slice, dynamic_thin_slice, run, ExecConfig, Outcome};
use thinslice_ir::{InstrKind, StmtRef};
use thinslice_pta::PtaConfig;
use thinslice_suite::edits::{EditKind, EditScript};
use thinslice_suite::{generate, GeneratorConfig};
use thinslice_util::{FxHashMap, SmallRng};

fn exec_config() -> ExecConfig {
    ExecConfig {
        lines: vec![
            "alpha beta=1 /".into(),
            "gamma delta=2".into(),
            "x=3 tail".into(),
        ],
        ints: vec![3, 1, 4, 1, 5, 9, 2, 6],
        max_steps: 100_000,
        ..ExecConfig::default()
    }
}

/// Every (engine, kind) pair the oracle checks; the thin and data slices
/// are compared against their dynamic counterparts.
const SLICERS: [(Engine, SliceKind); 4] = [
    (Engine::Ci, SliceKind::Thin),
    (Engine::Ci, SliceKind::TraditionalData),
    (Engine::Cs, SliceKind::Thin),
    (Engine::Cs, SliceKind::TraditionalData),
];

/// The served static slice of every seed under every slicer.
fn static_slices(
    s: &mut AnalysisSession,
    seeds: &BTreeSet<StmtRef>,
) -> FxHashMap<(StmtRef, Engine, SliceKind), StmtSet> {
    let mut out = FxHashMap::default();
    for &seed in seeds {
        for (engine, kind) in SLICERS {
            let slice = s.query(&Query::new(vec![seed], kind, engine));
            assert!(slice.completeness.is_complete() && !slice.degraded);
            out.insert((seed, engine, kind), slice.stmts);
        }
    }
    out
}

/// A session over a version of `sources` with one statement inserted or
/// one method appended, with every graph built, then updated to `sources`
/// itself — so the graphs it had built no longer describe its program.
fn updated_session(sources: &[(&str, &str)]) -> AnalysisSession {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
        .collect();
    let mut script = EditScript::new(7);
    let edited = loop {
        let (edited, edit) = script.step(&owned);
        if matches!(edit.kind, EditKind::StmtInsert | EditKind::MethodAppend) {
            break edited;
        }
    };
    let edited: Vec<(&str, &str)> = edited
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let mut s = AnalysisSession::new(&edited).expect("edited sources compile");
    s.ci_graph();
    s.cs_graph();
    s.update(sources).expect("compiles");
    s
}

/// Runs one program and checks dynamic ⊆ static for every executed print,
/// on both engines, for a fresh session, its snapshot-restored twin, and
/// a session updated onto the program.
fn check_program(sources: &[(&str, &str)], config: &ExecConfig) {
    let mut live = AnalysisSession::new(sources).expect("compiles");
    let exec = run(live.program(), config);
    // Whatever the outcome, the recorded prefix of the trace is valid.
    let seeds: BTreeSet<StmtRef> = exec
        .prints
        .iter()
        .map(|(event, _)| exec.events[*event].stmt)
        .filter(|&stmt| !live.ci_sdg().stmt_nodes_of(stmt).is_empty())
        .collect();
    let fresh = static_slices(&mut live, &seeds);
    let key = source_hash(sources);
    let bytes = live.write_snapshot(&key).expect("complete stages snapshot");
    let mut restored =
        AnalysisSession::from_snapshot(&bytes, &key, PtaConfig::default(), RunCtx::disabled())
            .expect("a fresh snapshot restores");
    let warm = static_slices(&mut restored, &seeds);
    let updated = static_slices(&mut updated_session(sources), &seeds);

    for (idx, (event, _)) in exec.prints.iter().enumerate() {
        let seed = exec.events[*event].stmt;
        if !seeds.contains(&seed) {
            continue;
        }
        let dyn_thin = dynamic_thin_slice(&exec, *event);
        let dyn_data = dynamic_data_slice(&exec, *event);
        // Thin ⊆ data dynamically too.
        assert!(dyn_thin.stmts.is_subset(&dyn_data.stmts));
        for (session, slices) in [
            ("fresh", &fresh),
            ("restored", &warm),
            ("updated", &updated),
        ] {
            for (engine, kind) in SLICERS {
                let dynamic = match kind {
                    SliceKind::Thin => &dyn_thin,
                    _ => &dyn_data,
                };
                let served = &slices[&(seed, engine, kind)];
                for s in &dynamic.stmts {
                    assert!(
                        served.contains(*s),
                        "print #{idx}: dynamic {kind:?} stmt {s:?} missing from the \
                         {session} session's {engine:?} slice"
                    );
                }
            }
        }
    }
}

#[test]
fn dynamic_slices_are_subsets_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let sources: Vec<(&str, &str)> = b.sources.clone();
        check_program(&sources, &exec_config());
    }
}

#[test]
fn benchmarks_actually_execute() {
    // Every benchmark must run far enough to print something — otherwise
    // the differential test is vacuous.
    for b in thinslice_suite::all_benchmarks() {
        let s = AnalysisSession::new(&b.sources).unwrap();
        let exec = run(s.program(), &exec_config());
        assert!(
            !exec.prints.is_empty() || !matches!(exec.outcome, Outcome::Finished),
            "{}: executed {} steps, printed nothing, finished silently",
            b.name,
            exec.step_count()
        );
        assert!(exec.step_count() > 10, "{}: trivial execution", b.name);
    }
}

#[test]
fn figure1_dynamic_trace_reproduces_the_bug() {
    // Running the paper's Figure 1 actually prints "FIRST NAME: Joh" — the
    // off-by-one bug — and the dynamic thin slice from that print contains
    // the buggy substring statement.
    let src = r#"class Names {
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
    let s = AnalysisSession::new(&[("fig1.mj", src)]).unwrap();
    let program = s.program();
    let exec = run(
        program,
        &ExecConfig {
            lines: vec!["John Doe".into()],
            ..ExecConfig::default()
        },
    );
    assert_eq!(exec.outcome, Outcome::Finished, "{:?}", exec.outcome);
    assert_eq!(exec.prints.len(), 1);
    assert_eq!(
        exec.prints[0].1, "FIRST NAME: Joh",
        "the paper's bug, observed at runtime"
    );

    let seed = exec.prints[0].0;
    let dyn_thin = dynamic_thin_slice(&exec, seed);
    let buggy = program
        .all_stmts()
        .find(|s| {
            matches!(&program.instr(*s).kind, InstrKind::Call { callee, .. }
                if program.methods[*callee].name == "substring")
        })
        .unwrap();
    assert!(
        dyn_thin.contains_stmt(buggy),
        "the dynamic thin slice walks straight to the buggy substring"
    );
}

/// Dynamic ⊆ static on randomly generated programs with random inputs.
#[test]
fn dynamic_subset_of_static_on_generated_programs() {
    for case in 0..8u64 {
        let mut rng = SmallRng::new(case ^ 0xd1ff);
        let seed = rng.next_u64() % 300;
        let ints: Vec<i64> = (0..rng.range_usize(4, 16))
            .map(|_| rng.range_i64(-50, 50))
            .collect();
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let exec_config = ExecConfig {
            ints,
            max_steps: 50_000,
            ..ExecConfig::default()
        };
        check_program(&[("gen.mj", &src)], &exec_config);
    }
}
