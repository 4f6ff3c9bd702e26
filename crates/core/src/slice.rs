//! Context-insensitive slicing as graph reachability (paper §5.2).
//!
//! One metered BFS serves every caller: the ungoverned entrypoints pass an
//! unlimited [`Meter`] (one predictable branch per node), the governed ones
//! an armed meter. The [`crate::AnalysisSession`] query path and the batch
//! engine drive the same loops through [`crate::Query`]; [`slice_from`] is
//! the one-shot reference slicer the query path is pinned against.

use crate::stmtset::StmtSet;
use thinslice_ir::StmtRef;
use thinslice_sdg::{DepGraph, FrozenSdg, NodeId, NO_DISPLAY};
use thinslice_util::{BitSet, Completeness, FxHashSet, Meter};

/// Which dependence relation a slice follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceKind {
    /// Producer flow dependences only: no base-pointer/array-index flow, no
    /// control dependence. The paper's contribution (§2–3).
    Thin,
    /// All flow dependences (including base pointers) but no control
    /// dependence — the "traditional data slicer" configuration the paper
    /// evaluates against (§6.1 handles control dependence out of band).
    TraditionalData,
    /// Everything, including control and interprocedural control (Call)
    /// edges: Weiser-style full relevance.
    TraditionalFull,
}

impl SliceKind {
    /// Whether this slice follows `kind`-labelled edges.
    pub fn follows(&self, kind: &thinslice_sdg::EdgeKind) -> bool {
        match self {
            SliceKind::Thin => kind.in_thin_slice(),
            SliceKind::TraditionalData => kind.in_data_slice(),
            SliceKind::TraditionalFull => kind.in_traditional_slice(),
        }
    }
}

/// The result of a context-insensitive backward slice.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The dependence relation used.
    pub kind: SliceKind,
    /// All visited nodes (statements and connective nodes).
    pub nodes: FxHashSet<NodeId>,
    /// Statements in the slice, in canonical BFS order from the seed:
    /// distance first, node id within a level.
    pub stmts: StmtSet,
}

impl Slice {
    /// Statements in the slice as a hash set.
    pub fn stmt_set(&self) -> FxHashSet<StmtRef> {
        self.stmts.to_hash_set()
    }

    /// Whether the slice contains `stmt`.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        self.stmts.contains(stmt)
    }

    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

/// Reusable buffers for repeated slicing queries over one graph.
///
/// A BFS needs a visited set, the current and next wavefront, and a
/// statement-dedup set; on a query-per-seed workload, allocating them anew
/// per query dominates the cost of small slices. The scratch keeps them
/// warm: after each query only the touched bits are cleared, so reuse is
/// O(|slice|), not O(|graph|).
#[derive(Debug, Default)]
pub struct SliceScratch {
    visited: BitSet<NodeId>,
    touched: Vec<NodeId>,
    /// The current BFS level, sorted into canonical (external-id) order.
    cur: Vec<NodeId>,
    /// The next BFS level, collected during expansion.
    next: Vec<NodeId>,
    /// Word-level discovery set for the dense wavefront's wide levels.
    next_bits: BitSet<NodeId>,
    stmt_set: FxHashSet<StmtRef>,
    /// Dense-id statement dedup for [`slice_dense`]; mirrors `stmt_set`
    /// but costs a bit test instead of a hash per node.
    stmt_seen: BitSet<u32>,
    stmt_touched: Vec<u32>,
}

impl SliceScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub fn new() -> SliceScratch {
        SliceScratch::default()
    }
}

/// Once the current level's frontier covers this fraction of the graph
/// (one node per `WIDE_LEVEL_DIVISOR` graph nodes), the dense wavefront
/// switches from per-edge visited tests to word-level bitset discovery.
const WIDE_LEVEL_DIVISOR: usize = 16;

/// The one backward-reachability loop: a metered level-synchronous
/// wavefront, generic over [`DepGraph`], hash statement dedup.
///
/// The canonical visit order is (BFS level, ascending node id in the
/// *external* numbering): each level is discovered as a set, sorted by
/// [`DepGraph::to_external`], and emitted in that order. The order is a
/// property of the dependence relation alone — independent of the graph
/// representation and of any internal renumbering a frozen graph applies —
/// which is what keeps batched, sequential, growable and CSR runs
/// bit-identical.
///
/// With an unlimited meter the completeness is always `Complete`; once an
/// armed meter exhausts, emission stops at the failing node and the
/// emitted prefix — an exact prefix of the canonical order — is returned
/// `Truncated` with the abandoned frontier size. Seeds and result nodes
/// are in the external numbering; conversion happens here at the boundary.
pub(crate) fn slice_sparse<G: DepGraph>(
    sdg: &G,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    meter: &mut Meter,
) -> (Slice, Completeness) {
    let SliceScratch {
        visited,
        touched,
        cur,
        next,
        stmt_set,
        ..
    } = scratch;
    let mut stmts = Vec::new();
    for &s in seeds {
        let n = sdg.to_internal(s);
        if visited.insert(n) {
            cur.push(n);
        }
    }
    cur.sort_unstable_by_key(|&n| sdg.to_external(n));
    let mut leftover = 0usize;
    while !cur.is_empty() {
        // Emit this level in canonical order, one meter tick per node.
        let mut emitted = 0;
        for &n in cur.iter() {
            if !meter.tick_tracked(touched.len()) {
                leftover = cur.len() - emitted;
                break;
            }
            touched.push(n);
            if let Some(stmt) = sdg.display_stmt(n) {
                if stmt_set.insert(stmt) {
                    stmts.push(stmt);
                }
            }
            emitted += 1;
        }
        if leftover > 0 {
            // Discovered-but-unemitted bits must not leak into the next
            // query on this scratch.
            for &n in &cur[emitted..] {
                visited.remove(n);
            }
            break;
        }
        // Expand: discover the next level (set semantics — expansion order
        // within a level cannot affect membership).
        for &n in cur.iter() {
            for e in sdg.deps(n) {
                if kind.follows(&e.kind) && visited.insert(e.target) {
                    next.push(e.target);
                }
            }
        }
        next.sort_unstable_by_key(|&n| sdg.to_external(n));
        std::mem::swap(cur, next);
        next.clear();
    }
    let completeness = meter.completeness(leftover);
    cur.clear();
    let nodes: FxHashSet<NodeId> = touched.iter().map(|&n| sdg.to_external(n)).collect();
    for n in touched.drain(..) {
        visited.remove(n);
    }
    stmt_set.clear();
    (
        Slice {
            kind,
            nodes,
            stmts: StmtSet::from_ordered(stmts),
        },
        completeness,
    )
}

/// [`slice_sparse`] over a frozen graph, using its dense statement
/// numbering ([`FrozenSdg::display_dense`]) so the per-node statement dedup
/// is a bit test instead of a hash — the inner loop of every
/// context-insensitive query.
///
/// Wide levels (more than one frontier node per [`WIDE_LEVEL_DIVISOR`]
/// graph nodes) switch discovery to word-parallel bitset algebra: targets
/// are OR-ed into a discovery set unconditionally, then one `subtract` and
/// one `union_with` per level replace the per-edge visited tests. Level
/// membership — and therefore the canonical (level, external id) order and
/// the slice — matches [`slice_sparse`] exactly; only the bookkeeping
/// differs.
pub(crate) fn slice_dense(
    sdg: &FrozenSdg,
    seeds: &[NodeId],
    kind: SliceKind,
    scratch: &mut SliceScratch,
    meter: &mut Meter,
) -> (Slice, Completeness) {
    let SliceScratch {
        visited,
        touched,
        cur,
        next,
        next_bits,
        stmt_seen,
        stmt_touched,
        ..
    } = scratch;
    let node_count = sdg.node_count();
    let mut stmts = Vec::new();
    for &s in seeds {
        let n = sdg.to_internal(s);
        if visited.insert(n) {
            cur.push(n);
        }
    }
    cur.sort_unstable_by_key(|&n| sdg.to_external(n));
    let mut leftover = 0usize;
    while !cur.is_empty() {
        let mut emitted = 0;
        for &n in cur.iter() {
            if !meter.tick_tracked(touched.len()) {
                leftover = cur.len() - emitted;
                break;
            }
            touched.push(n);
            let d = sdg.display_dense(n);
            if d != NO_DISPLAY && stmt_seen.insert(d) {
                stmt_touched.push(d);
                stmts.push(sdg.dense_stmt(d));
            }
            emitted += 1;
        }
        if leftover > 0 {
            for &n in &cur[emitted..] {
                visited.remove(n);
            }
            break;
        }
        if cur.len() * WIDE_LEVEL_DIVISOR >= node_count {
            // Word mode: unconditional discovery, then level-wide algebra.
            for &n in cur.iter() {
                for e in sdg.deps(n) {
                    if kind.follows(&e.kind) {
                        next_bits.insert(e.target);
                    }
                }
            }
            next_bits.subtract(visited);
            visited.union_with(next_bits);
            next_bits.drain_into(next);
        } else {
            for &n in cur.iter() {
                for e in sdg.deps(n) {
                    if kind.follows(&e.kind) && visited.insert(e.target) {
                        next.push(e.target);
                    }
                }
            }
        }
        next.sort_unstable_by_key(|&n| sdg.to_external(n));
        std::mem::swap(cur, next);
        next.clear();
    }
    let completeness = meter.completeness(leftover);
    cur.clear();
    let nodes: FxHashSet<NodeId> = touched.iter().map(|&n| sdg.to_external(n)).collect();
    for n in touched.drain(..) {
        visited.remove(n);
    }
    for d in stmt_touched.drain(..) {
        stmt_seen.remove(d);
    }
    (
        Slice {
            kind,
            nodes,
            stmts: StmtSet::from_ordered(stmts),
        },
        completeness,
    )
}

/// The reference context-insensitive slicer: a backward slice from
/// `seeds` by BFS over the edges `kind` follows, with fresh scratch and no
/// budget. Seeds at distance 0; ties within a level broken by node id.
///
/// Generic over [`DepGraph`]: runs identically over the growable
/// [`thinslice_sdg::Sdg`] and its frozen CSR form
/// ([`thinslice_sdg::FrozenSdg`]). [`crate::AnalysisSession::query`] with
/// [`crate::Engine::Ci`] returns bit-identical statements (same order) and
/// nodes; the tests pin that.
pub fn slice_from<G: DepGraph>(sdg: &G, seeds: &[NodeId], kind: SliceKind) -> Slice {
    slice_sparse(
        sdg,
        seeds,
        kind,
        &mut SliceScratch::new(),
        &mut Meter::unlimited(),
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{compile, InstrKind};
    use thinslice_pta::{Pta, PtaConfig};
    use thinslice_sdg::{build_ci, Sdg};

    fn setup(src: &str) -> (thinslice_ir::Program, Sdg) {
        let p = compile(&[("t.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        (p, sdg)
    }

    fn print_seed(p: &thinslice_ir::Program, sdg: &Sdg) -> NodeId {
        let s = p
            .all_stmts()
            .find(|s| {
                s.method == p.main_method && matches!(p.instr(*s).kind, InstrKind::Print { .. })
            })
            .unwrap();
        sdg.stmt_node(s).unwrap()
    }

    #[test]
    fn thin_slice_excludes_container_internals() {
        // The paper's Figure 1 in miniature: the thin slice from the print
        // includes the stored value's chain but not the Vector's
        // constructor internals.
        let (p, sdg) = setup(
            "class Main { static void main() {
                Vector names = new Vector();
                String first = \"John\";
                names.add(first);
                String got = (String) names.get(0);
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice_from(&sdg, &[seed], SliceKind::Thin);
        let trad = slice_from(&sdg, &[seed], SliceKind::TraditionalData);

        // The string literal (producer) is in both slices.
        let lit = p
            .all_stmts()
            .find(|s| matches!(&p.instr(*s).kind, InstrKind::StrConst { value, .. } if value == "John"))
            .unwrap();
        assert!(
            thin.contains(lit),
            "thin slice must trace the value to its literal"
        );
        assert!(trad.contains(lit));

        // The Vector constructor's array allocation is an explainer: only
        // the traditional slice contains it.
        let vector = p.class_named("Vector").unwrap();
        let ctor = p.ctor_of(vector).unwrap();
        let ctor_alloc = p
            .all_stmts()
            .find(|s| s.method == ctor && matches!(p.instr(*s).kind, InstrKind::NewArray { .. }))
            .unwrap();
        assert!(
            !thin.contains(ctor_alloc),
            "thin slice must not contain the Vector's backing-array allocation"
        );
        assert!(
            trad.contains(ctor_alloc),
            "the traditional slice reaches the allocation through base pointers"
        );
        assert!(thin.len() < trad.len());
    }

    #[test]
    fn thin_slice_traces_through_heap() {
        let (p, sdg) = setup(
            "class Box { Object item; }
             class Main { static void main() {
                Box b = new Box();
                b.item = new Main();
                Object got = b.item;
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice_from(&sdg, &[seed], SliceKind::Thin);
        let alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("Main").unwrap())
            })
            .unwrap();
        assert!(thin.contains(alloc), "value flows store→load→print");
        // But the Box allocation (base pointer) is not a producer.
        let box_alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("Box").unwrap())
            })
            .unwrap();
        assert!(!thin.contains(box_alloc));
    }

    #[test]
    fn full_slice_includes_control() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                int x = 7;
                if (x > 3) { print(1); }
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice_from(&sdg, &[seed], SliceKind::Thin);
        let full = slice_from(&sdg, &[seed], SliceKind::TraditionalFull);
        let if_stmt = p
            .all_stmts()
            .find(|s| s.method == p.main_method && matches!(p.instr(*s).kind, InstrKind::If { .. }))
            .unwrap();
        assert!(
            !thin.contains(if_stmt),
            "thin slices exclude control dependence"
        );
        assert!(full.contains(if_stmt));
        // The full slice pulls the condition's data deps too.
        assert!(full.len() > thin.len());
    }

    #[test]
    fn frozen_graph_slices_identically() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                Vector names = new Vector();
                String first = \"John\";
                names.add(first);
                String got = (String) names.get(0);
                print(got);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let frozen = sdg.freeze();
        for kind in [
            SliceKind::Thin,
            SliceKind::TraditionalData,
            SliceKind::TraditionalFull,
        ] {
            let warm = slice_from(&sdg, &[seed], kind);
            let cold = slice_sparse(
                &frozen,
                &[seed],
                kind,
                &mut SliceScratch::new(),
                &mut Meter::unlimited(),
            )
            .0;
            let dense = slice_dense(
                &frozen,
                &[seed],
                kind,
                &mut SliceScratch::new(),
                &mut Meter::unlimited(),
            )
            .0;
            assert_eq!(
                warm.stmts, cold.stmts,
                "{kind:?}: BFS order must be bit-identical over the CSR graph"
            );
            assert_eq!(
                warm.stmts, dense.stmts,
                "{kind:?}: the dense-dedup loop must match too"
            );
            assert_eq!(warm.nodes, cold.nodes);
        }
    }

    #[test]
    fn seed_is_in_its_own_slice() {
        let (p, sdg) = setup("class Main { static void main() { print(1); } }");
        let seed = print_seed(&p, &sdg);
        let thin = slice_from(&sdg, &[seed], SliceKind::Thin);
        assert_eq!(
            thin.stmts.in_order().first().copied(),
            sdg.node(seed).as_stmt()
        );
    }

    #[test]
    fn bfs_order_is_distance_sorted() {
        let (p, sdg) = setup(
            "class Main { static void main() {
                int a = 1;
                int b = a + 1;
                int c = b + 1;
                print(c);
            } }",
        );
        let seed = print_seed(&p, &sdg);
        let thin = slice_from(&sdg, &[seed], SliceKind::Thin);
        // Seed first; then c's def, then b's, then a's chain.
        let order = thin.stmts.in_order();
        let pos = |pred: &dyn Fn(&InstrKind) -> bool| {
            order.iter().position(|s| pred(&p.instr(*s).kind)).unwrap()
        };
        let print_pos = pos(&|k| matches!(k, InstrKind::Print { .. }));
        let c_pos = pos(&|k| {
            matches!(k, InstrKind::Binary { lhs, .. }
                if matches!(lhs, thinslice_ir::Operand::Var(_)))
        });
        assert!(print_pos < c_pos);
    }
}
