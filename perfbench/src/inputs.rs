//! Seeded inputs: the program sets, sliceable seed lines, request decks
//! and edit scripts every workload draws from.
//!
//! Everything here is a pure function of the workload seed, so one seed
//! always yields byte-identical programs, request streams and edits.

use thinslice::{AnalysisSession, Engine, SliceKind};
use thinslice_suite::GeneratorConfig;
use thinslice_suite::{all_benchmarks, all_bug_tasks, all_cast_tasks, generate, line_with};
use thinslice_util::SmallRng;

/// One program of a workload: its name, its sources, and every source
/// line that resolves to a sliceable statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prog {
    /// Suite benchmark name, or `gen` for the generated program.
    pub name: String,
    /// `(file name, text)` pairs.
    pub sources: Vec<(String, String)>,
    /// Every `(file, line)` whose seed resolves, in file order (what
    /// `thinslice slice --all-seeds` slices).
    pub lines: Vec<(String, u32)>,
    /// The Table 2/3 task seeds on this program.
    pub task_lines: Vec<(String, u32)>,
}

impl Prog {
    /// Seed lines in the program's own files (not the standard library):
    /// where a user seeds a slice.
    pub fn user_lines(&self) -> Vec<(String, u32)> {
        self.lines
            .iter()
            .filter(|(f, _)| f != STDLIB)
            .cloned()
            .collect()
    }

    /// The sources as borrowed pairs, the shape the analysis API takes.
    pub fn borrowed(&self) -> Vec<(&str, &str)> {
        as_refs(&self.sources)
    }

    /// A fresh session over the program's sources.
    pub fn session(&self) -> AnalysisSession {
        AnalysisSession::new(&self.borrowed()).expect("benchmark programs compile")
    }
}

/// The file name the prepended standard library compiles under.
pub const STDLIB: &str = "<stdlib>";

/// Borrows owned source pairs.
pub fn as_refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect()
}

/// Every distinct source line with a reachable statement, in file order —
/// the same set `thinslice slice --all-seeds` slices.
pub fn sliceable_lines(session: &mut AnalysisSession) -> Vec<(String, u32)> {
    let mut lines = std::collections::BTreeSet::new();
    {
        let program = session.program();
        for st in program.all_stmts() {
            let span = program.instr(st).span;
            if !span.is_synthetic() {
                lines.insert((program.files[span.file].name.clone(), span.line));
            }
        }
    }
    lines
        .into_iter()
        .filter(|(f, l)| session.seed_at_line(f, *l).is_some())
        .collect()
}

fn prog(name: &str, sources: Vec<(String, String)>, task_lines: Vec<(String, u32)>) -> Prog {
    let mut p = Prog {
        name: name.to_string(),
        sources,
        lines: Vec::new(),
        task_lines,
    };
    p.lines = sliceable_lines(&mut p.session());
    p
}

/// The 8 suite programs, with their Table 2/3 task seeds.
pub fn suite() -> Vec<Prog> {
    let tasks: Vec<_> = all_bug_tasks()
        .into_iter()
        .chain(all_cast_tasks())
        .collect();
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let task_lines = tasks
                .iter()
                .filter(|t| t.benchmark == b.name)
                .map(|t| {
                    let src = b
                        .sources
                        .iter()
                        .find(|(f, _)| *f == t.seed.file)
                        .expect("task seed names a benchmark file");
                    (t.seed.file.to_string(), line_with(src.1, t.seed.snippet))
                })
                .collect();
            let sources = b
                .sources
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect();
            prog(b.name, sources, task_lines)
        })
        .collect()
}

/// The generated program at `factor`, its shuffles drawn from `seed`.
pub fn generated(seed: u64, factor: usize) -> Prog {
    let cfg = GeneratorConfig {
        seed,
        ..GeneratorConfig::scaled(factor)
    };
    let text = generate(&cfg);
    // The generator's `print` lines (all in `Main.main`) are the seeds a
    // user slices from; they stand in for task seeds.
    let prints = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("print("))
        .map(|(i, _)| ("gen.mj".to_string(), i as u32 + 1))
        .collect();
    prog("gen", vec![("gen.mj".to_string(), text)], prints)
}

/// The suite plus one generated program: the program set of a workload.
pub fn program_set(seed: u64, factor: usize) -> Vec<Prog> {
    let mut set = suite();
    set.push(generated(seed, factor));
    set
}

/// One slicer: a slice kind answered by an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    ThinCi,
    DataCi,
    FullCi,
    ThinCs,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::ThinCi, Mode::DataCi, Mode::FullCi, Mode::ThinCs];

    pub fn name(self) -> &'static str {
        match self {
            Mode::ThinCi => "thin-ci",
            Mode::DataCi => "data-ci",
            Mode::FullCi => "full-ci",
            Mode::ThinCs => "thin-cs",
        }
    }

    pub fn kind(self) -> SliceKind {
        match self {
            Mode::ThinCi | Mode::ThinCs => SliceKind::Thin,
            Mode::DataCi => SliceKind::TraditionalData,
            Mode::FullCi => SliceKind::TraditionalFull,
        }
    }

    pub fn engine(self) -> Engine {
        match self {
            Mode::ThinCs => Engine::Cs,
            _ => Engine::Ci,
        }
    }
}

/// One slice request of a deck: program index, seed line and slicer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Req {
    pub prog: usize,
    pub file: String,
    pub line: u32,
    pub mode: Mode,
}

/// Requests per program per deck round, by slicer: mostly thin CI, some
/// CS, data and full.
const MIX: [(Mode, usize); 4] = [
    (Mode::ThinCi, 14),
    (Mode::ThinCs, 2),
    (Mode::DataCi, 2),
    (Mode::FullCi, 2),
];
/// Data and full CI requests per round on the heavy program.
const HEAVY: usize = 5;

/// A seeded request deck over `progs`: `rounds` rounds, each with
/// [`MIX`] requests per program, shuffled.
///
/// Composition is exact, not sampled. The largest program (`heavy`) gets
/// [`HEAVY`] data and full CI requests per round instead of 2: those two
/// cells cost several times more than any other, and at ~5% of the deck
/// they hold the 99th percentile inside one cost mode rather than on the
/// 1% boundary between two. Seeds on the generated program are its
/// `print` lines; on suite programs a quarter are Table 2/3 task seeds
/// and the rest any sliceable line of the program's own files.
pub fn deck(progs: &[Prog], seed: u64, rounds: usize, heavy: usize) -> Vec<Req> {
    let mut rng = SmallRng::new(seed);
    let mut out = Vec::new();
    for (pi, p) in progs.iter().enumerate() {
        let user = p.user_lines();
        for _ in 0..rounds {
            for &(mode, n) in &MIX {
                let n = if pi == heavy && matches!(mode, Mode::DataCi | Mode::FullCi) {
                    HEAVY
                } else {
                    n
                };
                for _ in 0..n {
                    let task =
                        p.name == "gen" || (!p.task_lines.is_empty() && rng.range_usize(0, 4) == 0);
                    let (file, line) = if task {
                        rng.choose(&p.task_lines).clone()
                    } else {
                        rng.choose(&user).clone()
                    };
                    out.push(Req {
                        prog: pi,
                        file,
                        line,
                        mode,
                    });
                }
            }
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// Fisher–Yates with the workload's own generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize(0, i + 1);
        items.swap(i, j);
    }
}
