//! Seeded compile-safe edit scripts over MJ sources.
//!
//! The [`thinslice::AnalysisSession::update`] equivalence suite needs a
//! stream of *edits* that (a) always leave the program compiling, (b)
//! change the program in different ways — comments, literal tweaks,
//! statement insertions, and method additions — and (c) are fully
//! reproducible from a seed, so a failing round can be replayed. This
//! module is that generator; it is shared by the workspace equivalence
//! and soundness tests and the edit workloads of `perfbench`.
//!
//! Edits are *textual*: the generator scans the source for safe anchor
//! points (statement lines, integer literals, block openers, class
//! closers) and rewrites the text. It never parses MJ — the compile-safety
//! of each rewrite is an invariant of the anchor choice, and the suite's
//! tests enforce it by recompiling every mutated program.

use thinslice_util::SmallRng;

/// The kind of one generated edit, in increasing order of how much of
/// the compiled program it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A `//` comment inserted on its own line: only source spans move.
    Comment,
    /// An integer literal incremented in place: one constant changes
    /// (literals are value-erased in the points-to constraints).
    IntTweak,
    /// A fresh local declaration inserted after a block opener: the
    /// method's statement list changes.
    StmtInsert,
    /// A fresh method appended to a class: the class table changes shape
    /// and later methods are renumbered.
    MethodAppend,
}

impl EditKind {
    /// Short label for logs and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            EditKind::Comment => "comment",
            EditKind::IntTweak => "int-tweak",
            EditKind::StmtInsert => "stmt-insert",
            EditKind::MethodAppend => "method-append",
        }
    }
}

/// One applied edit: which file was touched, what kind of rewrite, and at
/// which (1-based, pre-edit) line the anchor sat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Name of the edited file.
    pub file: String,
    /// What was done.
    pub kind: EditKind,
    /// 1-based line of the anchor in the *pre-edit* text.
    pub line: u32,
}

/// A seeded generator of compile-safe edit scripts.
///
/// Each [`step`](EditScript::step) call picks a file and an edit kind
/// pseudo-randomly, applies one rewrite, and returns the edited sources
/// plus a description of what changed. Identifiers introduced by edits
/// carry a monotone counter, so successive insertions never collide.
///
/// # Examples
///
/// ```
/// let sources = vec![(
///     "m.mj".to_string(),
///     "class Main { static void main() {\nint x = 1;\nprint(x);\n} }".to_string(),
/// )];
/// let mut gen = thinslice_suite::edits::EditScript::new(7);
/// let (edited, edit) = gen.step(&sources);
/// assert_ne!(edited[0].1, sources[0].1, "every step rewrites something");
/// let mut replay = thinslice_suite::edits::EditScript::new(7);
/// assert_eq!(replay.step(&sources), (edited, edit));
/// ```
#[derive(Debug, Clone)]
pub struct EditScript {
    rng: SmallRng,
    counter: u32,
}

impl EditScript {
    /// Creates a generator; the same seed replays the same script.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::new(seed),
            counter: 0,
        }
    }

    /// Applies one pseudo-random compile-safe edit to `sources`,
    /// returning the edited sources and the applied [`Edit`].
    ///
    /// Kinds that find no anchor in the chosen file (e.g. no integer
    /// literal) fall back to a comment insertion, which always applies —
    /// every step is guaranteed to change the text of exactly one file.
    pub fn step(&mut self, sources: &[(String, String)]) -> (Vec<(String, String)>, Edit) {
        let file_idx = self.rng.range_usize(0, sources.len());
        let kinds = [
            EditKind::Comment,
            EditKind::IntTweak,
            EditKind::StmtInsert,
            EditKind::MethodAppend,
        ];
        let kind = kinds[self.rng.range_usize(0, kinds.len())];
        let text = &sources[file_idx].1;
        let applied = self
            .try_apply(kind, text)
            .unwrap_or_else(|| self.insert_comment(text));
        let mut out: Vec<(String, String)> = sources.to_vec();
        out[file_idx].1 = applied.0;
        let edit = Edit {
            file: sources[file_idx].0.clone(),
            kind: applied.2,
            line: applied.1,
        };
        (out, edit)
    }

    fn try_apply(&mut self, kind: EditKind, text: &str) -> Option<(String, u32, EditKind)> {
        match kind {
            EditKind::Comment => Some(self.insert_comment(text)),
            EditKind::IntTweak => self.tweak_int(text),
            EditKind::StmtInsert => self.insert_stmt(text),
            EditKind::MethodAppend => self.append_method(text),
        }
    }

    /// Inserts `// edit N` as a full line after a random line. Always
    /// applies: every text has at least the implicit final line.
    fn insert_comment(&mut self, text: &str) -> (String, u32, EditKind) {
        let lines: Vec<&str> = text.lines().collect();
        let at = self.rng.range_usize(0, lines.len().max(1));
        self.counter += 1;
        let mut out: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
        out.insert(at.min(out.len()), format!("// edit {}", self.counter));
        (out.join("\n"), at as u32 + 1, EditKind::Comment)
    }

    /// Increments a random standalone integer literal (not part of an
    /// identifier, not inside a string or comment).
    fn tweak_int(&mut self, text: &str) -> Option<(String, u32, EditKind)> {
        let anchors = int_anchors(text);
        if anchors.is_empty() {
            return None;
        }
        let pick = self.rng.range_usize(0, anchors.len());
        apply_int_tweak(text, anchors[pick])
    }

    /// Inserts a fresh local declaration after a random block opener
    /// (a line whose code ends with `) {` — method headers, `if`,
    /// `while`; all open a scope where a new local is legal).
    fn insert_stmt(&mut self, text: &str) -> Option<(String, u32, EditKind)> {
        let anchors: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| code_part(l).is_some_and(|c| c.trim_end().ends_with(") {")))
            .map(|(i, _)| i)
            .collect();
        if anchors.is_empty() {
            return None;
        }
        let at = anchors[self.rng.range_usize(0, anchors.len())];
        self.counter += 1;
        let mut out: Vec<String> = text.lines().map(str::to_string).collect();
        out.insert(
            at + 1,
            format!("int edit{} = {};", self.counter, self.counter % 1000),
        );
        Some((out.join("\n"), at as u32 + 1, EditKind::StmtInsert))
    }

    /// Appends a fresh method before a random class-closing `}` (a line
    /// that is exactly `}` at column zero — MJ has no nested classes, so
    /// these are always class ends).
    fn append_method(&mut self, text: &str) -> Option<(String, u32, EditKind)> {
        let anchors: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim_end() == "}" && !l.starts_with(char::is_whitespace))
            .map(|(i, _)| i)
            .collect();
        if anchors.is_empty() {
            return None;
        }
        let at = anchors[self.rng.range_usize(0, anchors.len())];
        self.counter += 1;
        let mut out: Vec<String> = text.lines().map(str::to_string).collect();
        out.insert(
            at,
            format!(
                "    int edit{}() {{ return {}; }}",
                self.counter,
                self.counter % 1000
            ),
        );
        Some((out.join("\n"), at as u32 + 1, EditKind::MethodAppend))
    }
}

/// `(line, start, end)` byte anchors of every standalone integer literal —
/// not part of an identifier, not inside a string or comment.
fn int_anchors(text: &str) -> Vec<(usize, usize, usize)> {
    let mut anchors = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if let Some(code) = code_part(line) {
            let bytes = code.as_bytes();
            let mut i = 0;
            let mut in_str = false;
            while i < bytes.len() {
                let b = bytes[i];
                if b == b'"' {
                    in_str = !in_str;
                    i += 1;
                    continue;
                }
                if !in_str && b.is_ascii_digit() {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let before_ok = start == 0 || !ident_byte(bytes[start - 1]);
                    let after_ok = i == bytes.len() || !ident_byte(bytes[i]);
                    if before_ok && after_ok {
                        anchors.push((ln, start, i));
                    }
                    continue;
                }
                i += 1;
            }
        }
    }
    anchors
}

fn apply_int_tweak(
    text: &str,
    (ln, start, end): (usize, usize, usize),
) -> Option<(String, u32, EditKind)> {
    let mut out: Vec<String> = text.lines().map(str::to_string).collect();
    let line = &out[ln];
    let value: u64 = line[start..end].parse().ok()?;
    // Stay in a small range so repeated tweaks never overflow `int`.
    let replacement = (value + 1) % 1000;
    out[ln] = format!("{}{}{}", &line[..start], replacement, &line[end..]);
    Some((out.join("\n"), ln as u32 + 1, EditKind::IntTweak))
}

/// The code part of a line: everything before a `//` comment that is not
/// inside a string literal. Returns `None` for all-comment lines.
fn code_part(line: &str) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let code = &line[..i];
                return if code.trim().is_empty() {
                    None
                } else {
                    Some(code)
                };
            }
            _ => {}
        }
        i += 1;
    }
    Some(line)
}

fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(sources: &[(&str, &str)]) -> Vec<(String, String)> {
        sources
            .iter()
            .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
            .collect()
    }

    #[test]
    fn scripts_replay_bit_identically() {
        let base = owned(&crate::programs::nanoxml::benchmark().sources);
        for seed in [0u64, 1, 42] {
            let mut a = EditScript::new(seed);
            let mut b = EditScript::new(seed);
            let (mut sa, mut sb) = (base.clone(), base.clone());
            for _ in 0..12 {
                let (na, ea) = a.step(&sa);
                let (nb, eb) = b.step(&sb);
                assert_eq!(na, nb);
                assert_eq!(ea, eb);
                sa = na;
                sb = nb;
            }
        }
    }

    #[test]
    fn every_step_compiles_on_every_benchmark() {
        for b in crate::all_benchmarks() {
            let mut gen = EditScript::new(0xED17);
            let mut sources = owned(&b.sources);
            for round in 0..8 {
                let (next, edit) = gen.step(&sources);
                let refs: Vec<(&str, &str)> =
                    next.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect();
                thinslice::AnalysisSession::new(&refs).unwrap_or_else(|e| {
                    panic!("{} round {round} ({edit:?}) broke the build: {e}", b.name)
                });
                sources = next;
            }
        }
    }

    #[test]
    fn all_edit_kinds_occur() {
        let base = owned(&crate::programs::nanoxml::benchmark().sources);
        let mut gen = EditScript::new(3);
        let mut sources = base;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let (next, edit) = gen.step(&sources);
            seen.insert(edit.kind.label());
            sources = next;
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            ["comment", "int-tweak", "method-append", "stmt-insert"]
        );
    }
}
