//! The `xml-security` benchmark: a multi-stage digest pipeline in MJ.
//!
//! The paper reports that five of six xml-security bugs were *not*
//! sliceable: "the computeHash() equivalent is complex, spanning several
//! .class files, and the injected bugs were buried in the algorithm
//! internals … slicing from this assertion failure will inevitably bring in
//! most or all of the code that computes the hash function" (§6.2). This
//! program reproduces that shape: a digest computed through several
//! classes, checked against an expected value at the end. Only
//! xml-security-1 (a failure adjacent to its cause) appears in Table 2; the
//! unsliceable bugs are represented by [`unsliceable_bug_count`].

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class Chunk {
    int word;
    Chunk(int word) {
        this.word = word;
    }
}

class Canonicalizer {
    Vector normalize(InputStream input) {
        Vector chunks = new Vector();
        while (!input.eof()) {
            int raw = input.readInt();
            int canonical = raw % 65536;
            chunks.add(new Chunk(canonical));
        }
        return chunks;
    }
}

class DigestRound {
    int mix(int state, int word) {
        int a = state * 31 + word;
        int b = a % 65521;
        int c = b * 7 + 13;
        return c % 65521;
    }
    int finalize(int state, int length) {
        int folded = state + length * 59;
        return folded % 65521;
    }
}

class DigestEngine {
    DigestRound round;
    DigestEngine() {
        this.round = new DigestRound();
    }
    int computeDigest(Vector chunks) {
        int state = 1;
        int i = 0;
        while (i < chunks.size()) {
            Chunk chunk = (Chunk) chunks.get(i);
            state = this.round.mix(state, chunk.word);
            i = i + 1;
        }
        return this.round.finalize(state, chunks.size());
    }
}

class SignatureChecker {
    int expected;
    Vector log;
    SignatureChecker(int expected) {
        this.expected = expected;
        this.log = new Vector();
    }
    void check(int digest) {
        if (digest != this.expected) {
            this.log.add("mismatch");
            throw new RuntimeException("digest mismatch");
        }
        this.log.add("ok");
        print("signature ok");
    }
    int logSize() {
        return this.log.size();
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("document.xml");
        Canonicalizer canon = new Canonicalizer();
        Vector chunks = canon.normalize(in);
        DigestEngine engine = new DigestEngine();
        int digest = engine.computeDigest(chunks);
        InputStream sigIn = new InputStream("signature.bin");
        int expectedDigest = sigIn.readInt();
        SignatureChecker checker = new SignatureChecker(expectedDigest);
        checker.check(digest);
        print("checks: " + "" + checker.logSize());
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "xmlsec",
        sources: vec![("xmlsec.mj", SOURCE)],
    }
}

/// Bugs for which the paper found *no* kind of slicing useful: the injected
/// defect is buried inside the digest arithmetic, and any backward slice
/// from the mismatch contains essentially the whole pipeline.
pub fn unsliceable_bug_count() -> usize {
    5
}

/// The single sliceable task (Table 2 row xml-security-1).
pub fn bugs() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "xmlsec.mj",
        snippet,
    };
    vec![Task {
        id: "xml-security-1",
        benchmark: "xmlsec",
        kind: TaskKind::Bug,
        seed: m("throw new RuntimeException(\"digest mismatch\");"),
        desired: vec![m("int expectedDigest = sigIn.readInt();")],
        control_deps: 1,
        needs_alias_expansion: false,
        paper_thin: 2,
        paper_trad: 2,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::{Engine, Query, RunCtx, SliceKind};
    use thinslice_pta::PtaConfig;

    #[test]
    fn xmlsec_compiles_and_task_resolves() {
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in bugs() {
            let resolved = task.resolve(&b, &mut session);
            assert!(!resolved.seeds.is_empty());
        }
    }

    #[test]
    fn digest_bugs_are_unsliceable_in_spirit() {
        // Slicing from the mismatch (after following its conditional) pulls
        // in essentially the whole digest pipeline: the property the paper
        // reports for the five unsliceable xml-security bugs.
        let b = benchmark();
        let mut session = b.session(PtaConfig::default(), RunCtx::disabled());
        let src = SOURCE;
        let seed_line = crate::spec::line_with(src, "if (digest != this.expected)");
        let seeds = session.seed_at_line("xmlsec.mj", seed_line).unwrap();
        let slice = session.query(&Query::new(seeds, SliceKind::Thin, Engine::Ci));
        // The mixing arithmetic is unavoidable in the slice.
        let mix_line = crate::spec::line_with(src, "int a = state * 31 + word;");
        let mix_stmts = session.stmts_at_line("xmlsec.mj", mix_line);
        assert!(
            mix_stmts.iter().any(|s| slice.contains(*s)),
            "the digest internals flow into the checked value"
        );
    }
}
