//! Human-readable slice reports.

use crate::batch::QueryOutcome;
use crate::inspect::InspectionResult;
use crate::stmtset::StmtSet;
use std::collections::BTreeSet;
use thinslice_ir::{Program, StmtRef};
use thinslice_util::Completeness;

/// Renders a slice's statements (e.g. a
/// [`SliceResult`](crate::SliceResult)'s `stmts`) as source lines,
/// deduplicated and in the set's canonical order — inspection (BFS) order
/// for a CI slice. Synthetic statements (compiler-generated) are skipped.
pub fn stmt_lines(program: &Program, stmts: &StmtSet) -> Vec<String> {
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    for &s in stmts {
        let span = program.instr(s).span;
        if span.is_synthetic() {
            continue;
        }
        if seen.insert((span.file.raw(), span.line)) {
            out.push(render_line(program, s));
        }
    }
    out
}

fn render_line(program: &Program, s: StmtRef) -> String {
    let span = program.instr(s).span;
    let file = &program.files[span.file];
    let text = file.line(span.line).map(str::trim).unwrap_or("<unknown>");
    format!("{}:{}: {}", file.name, span.line, text)
}

/// Renders an inspection transcript: the lines a simulated user reads, in
/// order, with a footer summarising the effort.
pub fn inspection_report(result: &InspectionResult) -> String {
    let mut out = String::new();
    for (i, (file, line)) in result.order.iter().enumerate() {
        out.push_str(&format!("{:>4}. {}:{}\n", i + 1, file, line));
    }
    out.push_str(&format!(
        "-- inspected {} line(s); {}; full slice = {} line(s)\n",
        result.inspected,
        if result.found_all {
            "all desired statements found"
        } else {
            "NOT all desired statements found"
        },
        result.full_slice_lines,
    ));
    out
}

/// The marker a report appends to a truncated result; empty for complete
/// results, so ungoverned output is unchanged.
pub fn completeness_marker(c: &Completeness) -> String {
    match c {
        Completeness::Complete => String::new(),
        Completeness::Truncated { reason, frontier } => {
            format!(" [TRUNCATED: {reason}; ~{frontier} pending]")
        }
    }
}

/// One-line summary of a governed batch: how many queries came back
/// complete, truncated, degraded (CS → CI fallback) or failed, plus total
/// retries.
pub fn governed_batch_footer(outcomes: &[QueryOutcome]) -> String {
    let mut complete = 0usize;
    let mut truncated = 0usize;
    let mut degraded = 0usize;
    let mut errors = 0usize;
    let mut retries = 0u32;
    for o in outcomes {
        retries += o.retries;
        match &o.slice {
            Ok(s) => {
                if s.degraded {
                    degraded += 1;
                } else if s.completeness.is_complete() {
                    complete += 1;
                }
                if !s.completeness.is_complete() {
                    truncated += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    format!(
        "-- {} quer{}: {complete} complete, {truncated} truncated, {degraded} degraded, {errors} failed, {retries} retr{}",
        outcomes.len(),
        if outcomes.len() == 1 { "y" } else { "ies" },
        if retries == 1 { "y" } else { "ies" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{slice_from, SliceKind};
    use thinslice_ir::{compile, InstrKind};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::build_ci;

    #[test]
    fn report_renders_source_lines_once() {
        let src = "class Main { static void main() {\nint x = 1;\nint y = x + x;\nprint(y);\n} }";
        let p = compile(&[("demo.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        let seed_stmt = p
            .all_stmts()
            .find(|s| matches!(p.instr(*s).kind, InstrKind::Print { .. }))
            .unwrap();
        let slice = slice_from(&sdg, &[sdg.stmt_node(seed_stmt).unwrap()], SliceKind::Thin);
        let lines = stmt_lines(&p, &slice.stmts);
        assert_eq!(lines.len(), 3, "three distinct source lines: {lines:?}");
        assert!(lines[0].contains("print(y);"));
        assert!(lines.iter().any(|l| l.contains("int x = 1;")));
    }

    #[test]
    fn truncation_markers_render() {
        use thinslice_util::ExhaustReason;
        assert_eq!(completeness_marker(&Completeness::Complete), "");
        assert_eq!(
            completeness_marker(&Completeness::Truncated {
                reason: ExhaustReason::Deadline,
                frontier: 12
            }),
            " [TRUNCATED: deadline; ~12 pending]"
        );
    }
}
