//! Task execution: turns a [`Task`] into one row of Table 2 or Table 3.
//!
//! Follows the paper's §6.1 methodology:
//!
//! * breadth-first inspection from the seed over the chosen dependence
//!   relation, counting statements until the desired ones are found;
//! * the manually pre-determined relevant control dependences are exposed
//!   to *both* slicers: their conditionals join the seed set and their
//!   count is added to both totals;
//! * tasks marked [`Task::needs_alias_expansion`] (nanoxml-5) run "in a
//!   configuration that included statements explaining one level of
//!   indirect aliasing": if the plain slice misses the desired statements,
//!   the §4.1 aliasing explanations of the slice's heap-flow pairs are
//!   inspected afterwards.

use crate::spec::{Benchmark, Task};
use thinslice::{
    expand, simulate_inspection, AnalysisSession, Engine, InspectTask, InspectionResult, Query,
    SliceKind,
};
use thinslice_ir::StmtRef;

/// The measured numbers for one slicer on one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Statements (source lines) inspected, including exposed control
    /// dependences and any aliasing-expansion statements.
    pub inspected: usize,
    /// Whether the desired statements were found at all.
    pub found: bool,
    /// Full slice size in source lines (the classical measure).
    pub full_slice: usize,
}

/// One complete table row: thin vs traditional, object-sensitive and not.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Row id (e.g. `"nanoxml-3"`).
    pub id: &'static str,
    /// Thin slicing with the precise (object-sensitive) pointer analysis.
    pub thin: Measurement,
    /// Traditional data slicing with the precise pointer analysis.
    pub trad: Measurement,
    /// The paper's `#Control` column.
    pub control_deps: u32,
    /// Thin slicing without object-sensitive containers.
    pub thin_noobjsens: Measurement,
    /// Traditional slicing without object-sensitive containers.
    pub trad_noobjsens: Measurement,
    /// Paper-reported `#Thin`, for the comparison report.
    pub paper_thin: u32,
    /// Paper-reported `#Trad`.
    pub paper_trad: u32,
}

impl TaskResult {
    /// The `#Trad / #Thin` ratio (the paper's `Ratio` column).
    pub fn ratio(&self) -> f64 {
        if self.thin.inspected == 0 {
            return 1.0;
        }
        self.trad.inspected as f64 / self.thin.inspected as f64
    }
}

/// Runs one slicer on one resolved task, applying the control-dependence
/// and aliasing-expansion methodology.
pub fn measure(
    session: &mut AnalysisSession,
    task: &Task,
    resolved: &InspectTask,
    kind: SliceKind,
) -> Measurement {
    // The session's stage accessors build on first use through `&mut
    // self`, so reading the program beside a graph needs its own copy.
    let program = session.program().clone();
    // Expose the relevant control dependences (§4.2). For a *guarded
    // tough cast* the paper's user follows the control dependence and
    // slices from the conditional itself ("computing a thin slice for
    // line 12 [int op = n.op] to see what value op gets", §6.3) — the
    // invariant question is about the tag, not the casted object's flow.
    // For debugging tasks the conditionals *join* the failing seed.
    let mut seeds: Vec<StmtRef> = resolved.seeds.clone();
    let mut extra_inspected = 0usize;
    if task.control_deps > 0 {
        let mut conditionals = Vec::new();
        let sdg = session.ci_sdg();
        for &s in &resolved.seeds {
            for c in expand::exposed_control_deps(sdg, s) {
                if !conditionals.contains(&c) {
                    conditionals.push(c);
                }
            }
        }
        if task.kind == crate::spec::TaskKind::ToughCast && !conditionals.is_empty() {
            // The cast line itself was read to get here.
            extra_inspected = 1;
            seeds = conditionals;
        } else {
            for c in conditionals {
                if !seeds.contains(&c) {
                    seeds.push(c);
                }
            }
        }
    }
    let widened = InspectTask {
        seeds,
        desired: resolved.desired.clone(),
    };
    let base: InspectionResult = simulate_inspection(&program, session.ci_graph(), &widened, kind);

    let mut inspected = base.inspected + task.control_deps as usize + extra_inspected;
    let mut found = base.found_all;
    let mut full_slice = base.full_slice_lines + task.control_deps as usize + extra_inspected;

    if !found && task.needs_alias_expansion {
        // One level of aliasing expansion: inspect the explanations of the
        // slice's heap-flow pairs until the desired statements appear.
        let slice = session.query(&Query::new(widened.seeds.clone(), kind, Engine::Ci));
        let desired_lines: Vec<(thinslice_ir::FileId, u32)> = widened
            .desired
            .iter()
            .flatten()
            .map(|&s| {
                let sp = program.instr(s).span;
                (sp.file, sp.line)
            })
            .collect();
        // The user asks the aliasing question at the heap-flow pair closest
        // to the seed first (its store was inspected earliest), and reads
        // both base-pointer explanations breadth-first, interleaved.
        let sdg = session.ci_sdg().clone();
        let mut pairs = expand::heap_flow_pairs(&program, &sdg, &slice.stmts);
        let position_of = |s: StmtRef| {
            let sp = program.instr(s).span;
            let file_name = program.files[sp.file].name.clone();
            base.order
                .iter()
                .position(|(f, l)| *f == file_name && *l == sp.line)
                .unwrap_or(usize::MAX)
        };
        // The user starts with the suspicious producer: the store writing
        // the literal bad value observed at the seed (the paper's Figure 4
        // user asks about `close()` because it is what wrote `false`).
        let stores_literal = |s: StmtRef| -> bool {
            matches!(
                program.instr(s).kind,
                thinslice_ir::InstrKind::Store {
                    value: thinslice_ir::Operand::Const(_),
                    ..
                } | thinslice_ir::InstrKind::ArrayStore {
                    value: thinslice_ir::Operand::Const(_),
                    ..
                }
            )
        };
        pairs.sort_by_key(|(load, store)| {
            (
                !stores_literal(*store),
                position_of(*store).min(position_of(*load)),
            )
        });

        // Every explanation line counts as fresh inspection effort; the set
        // only dedups lines *within* the expansion phase.
        let mut seen_lines: std::collections::HashSet<(thinslice_ir::FileId, u32)> =
            std::collections::HashSet::new();
        // Per pair, interleave the store-side and load-side explanations
        // breadth-first; across pairs, explore round-robin — the user keeps
        // all open aliasing questions at the same depth.
        let streams: Vec<Vec<StmtRef>> = pairs
            .into_iter()
            .filter_map(|(load, store)| {
                expand::explain_aliasing(&program, session.pta(), &sdg, load, store).ok()
            })
            .map(|explanation| {
                let (lf, sf) = (&explanation.load_base_flow, &explanation.store_base_flow);
                let mut interleaved = Vec::with_capacity(lf.len() + sf.len());
                for i in 0..lf.len().max(sf.len()) {
                    if let Some(s) = sf.get(i) {
                        interleaved.push(*s);
                    }
                    if let Some(s) = lf.get(i) {
                        interleaved.push(*s);
                    }
                }
                interleaved
            })
            .collect();
        let mut extra = 0usize;
        'outer: for stream in &streams {
            for &s in stream {
                let sp = program.instr(s).span;
                if sp.is_synthetic() || !seen_lines.insert((sp.file, sp.line)) {
                    continue;
                }
                extra += 1;
                if desired_lines.contains(&(sp.file, sp.line)) {
                    found = true;
                    break 'outer;
                }
            }
        }
        inspected += extra;
        full_slice += extra;
    }

    Measurement {
        inspected,
        found,
        full_slice,
    }
}

/// Runs a full task: thin + traditional, with and without object-sensitive
/// containers.
pub fn run_task(
    benchmark: &Benchmark,
    task: &Task,
    precise: &mut AnalysisSession,
    noobjsens: &mut AnalysisSession,
) -> TaskResult {
    let resolved = task.resolve(benchmark, precise);
    let resolved_no = task.resolve(benchmark, noobjsens);
    TaskResult {
        id: task.id,
        thin: measure(precise, task, &resolved, SliceKind::Thin),
        trad: measure(precise, task, &resolved, SliceKind::TraditionalData),
        control_deps: task.control_deps,
        thin_noobjsens: measure(noobjsens, task, &resolved_no, SliceKind::Thin),
        trad_noobjsens: measure(noobjsens, task, &resolved_no, SliceKind::TraditionalData),
        paper_thin: task.paper_thin,
        paper_trad: task.paper_trad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{jtopas, nanoxml};
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn jtopas_rows_are_trivial_for_both_slicers() {
        let b = jtopas::benchmark();
        let mut precise = b.session(PtaConfig::default(), RunCtx::disabled());
        let mut noobjsens = b.session(PtaConfig::without_object_sensitivity(), RunCtx::disabled());
        for task in jtopas::bugs() {
            let row = run_task(&b, &task, &mut precise, &mut noobjsens);
            assert!(row.thin.found, "{}: thin must find the bug", row.id);
            assert!(row.trad.found, "{}: trad must find the bug", row.id);
            assert!(
                row.thin.inspected <= 16,
                "{}: thin={}",
                row.id,
                row.thin.inspected
            );
            assert!(row.thin.inspected <= row.trad.inspected);
        }
    }

    #[test]
    fn nanoxml_thin_beats_traditional() {
        let b = nanoxml::benchmark();
        let mut precise = b.session(PtaConfig::default(), RunCtx::disabled());
        let mut noobjsens = b.session(PtaConfig::without_object_sensitivity(), RunCtx::disabled());
        let mut total_thin = 0;
        let mut total_trad = 0;
        for task in nanoxml::bugs() {
            let row = run_task(&b, &task, &mut precise, &mut noobjsens);
            assert!(row.thin.found, "{}: thin must find the bug", row.id);
            assert!(row.trad.found, "{}: trad must find the bug", row.id);
            // nanoxml-5's aliasing expansion can cost a line or two more
            // than the traditional BFS at this miniature scale; every other
            // row must not regress at all.
            let slack = if task.needs_alias_expansion { 2 } else { 0 };
            assert!(
                row.thin.inspected <= row.trad.inspected + slack,
                "{}: thin={} trad={}",
                row.id,
                row.thin.inspected,
                row.trad.inspected
            );
            total_thin += row.thin.inspected;
            total_trad += row.trad.inspected;
        }
        assert!(
            total_trad > total_thin,
            "aggregate: thin={total_thin} trad={total_trad}"
        );
    }
}
