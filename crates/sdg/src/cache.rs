//! Per-method artifact cache shared by a session's SDG builds.
//!
//! SDG construction spends its per-method (as opposed to per-instance)
//! work on two artifacts that depend only on a method's *body*: the SSA
//! def-site map and the control-dependence relation. Both are independent
//! of the points-to result and of the heap mode, so one cache serves the
//! CI and CS builds alike: the CS build of a session reuses, by `Arc`,
//! everything its CI build already computed.
//!
//! Cache entries are keyed by [`MethodId`], so one cache is valid for one
//! [`Program`] only.

use std::sync::Arc;

use thinslice_ir::{Loc, MethodId, Program, Var};
use thinslice_util::FxHashMap;

use crate::control::ControlDeps;

/// Shared per-method SSA def sites.
pub type DefSites = Arc<FxHashMap<Var, Loc>>;

/// Cache of per-method control-dependence + def-site artifacts.
#[derive(Debug, Default)]
pub struct SdgCache {
    entries: FxHashMap<MethodId, (DefSites, Arc<ControlDeps>)>,
}

impl SdgCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `method`'s def sites and control dependences, computing and
    /// retaining them on first use. `method` must have a body.
    pub fn entry(&mut self, program: &Program, method: MethodId) -> (DefSites, Arc<ControlDeps>) {
        if let Some((defs, control)) = self.entries.get(&method) {
            return (Arc::clone(defs), Arc::clone(control));
        }
        let body = program.methods[method].body.as_ref().expect("body");
        let defs: DefSites = Arc::new(
            body.instrs()
                .filter_map(|(loc, i)| i.kind.def().map(|d| (d, loc)))
                .collect(),
        );
        let control = Arc::new(ControlDeps::compute(body));
        self.entries
            .insert(method, (Arc::clone(&defs), Arc::clone(&control)));
        (defs, control)
    }

    /// A rough element count of the retained artifacts (def sites plus
    /// control-dependence edges, one extra per entry), for session
    /// footprint accounting.
    pub fn resident_estimate(&self) -> usize {
        self.entries
            .values()
            .map(|(defs, control)| {
                defs.len() + control.deps.iter().map(Vec::len).sum::<usize>() + 1
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;

    #[test]
    fn entries_are_shared_across_lookups() {
        let p = compile(&[(
            "t.mj",
            "class Main { static void main() { int x = 1; if (x > 0) { print(x); } } }",
        )])
        .unwrap();
        let mut cache = SdgCache::new();
        let (d1, c1) = cache.entry(&p, p.main_method);
        let (d2, c2) = cache.entry(&p, p.main_method);
        assert!(Arc::ptr_eq(&d1, &d2) && Arc::ptr_eq(&c1, &c2));
    }
}
