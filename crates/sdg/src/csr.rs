//! A frozen, compressed-sparse-row view of a built dependence graph.
//!
//! [`Sdg`] is built incrementally: each node owns a `Vec<Edge>`, so a BFS
//! hops between heap allocations. Once construction is done the graph is
//! immutable for the whole query phase, which makes the classic CSR layout
//! pay off: one contiguous edge array plus an offset array per node. The
//! reference slicers traverse the graph through the [`DepGraph`] trait, so
//! they run unchanged over either representation; the served query path
//! runs on the frozen form only, which adds a dense display-statement
//! numbering ([`FrozenSdg::display_dense`]) and a cached down-edge index
//! ([`FrozenSdg::down_consumers`]).
//!
//! [`Sdg::freeze`] additionally renumbers the nodes into BFS (wavefront)
//! order over the dependence edges: nodes a backward slice visits together
//! get adjacent ids, so a traversal's visited bitset and edge rows stay in
//! cache. The permutation is internal — every [`NodeId`] crossing the API
//! boundary (seed resolution via [`DepGraph::stmt_nodes_of`], slice result
//! node sets) stays in the *original* growable-graph numbering via
//! [`DepGraph::to_internal`]/[`DepGraph::to_external`], and per-node edge
//! order is preserved exactly, so slice output — statement order included —
//! is bit-for-bit identical to slicing the growable graph.

use crate::node::{Edge, EdgeKind, NodeId, NodeKind};
use crate::{HeapMode, Sdg};
use std::sync::OnceLock;
use thinslice_ir::StmtRef;
use thinslice_util::{FxHashMap, Idx, RunCtx};

/// The read-only graph surface the slicers need.
///
/// Implemented by the growable [`Sdg`] and the frozen [`FrozenSdg`]; query
/// code is generic over this trait and never notices which one it walks.
pub trait DepGraph {
    /// Total node count; node ids are dense in `0..node_count()`.
    fn node_count(&self) -> usize;

    /// The dependencies of `n`, in insertion order.
    fn deps(&self, n: NodeId) -> &[Edge];

    /// The kind of a node.
    fn node(&self, n: NodeId) -> NodeKind;

    /// The statement a node is displayed as in a slice (see
    /// [`Sdg::display_stmt`]).
    fn display_stmt(&self, n: NodeId) -> Option<StmtRef>;

    /// All instance nodes of a statement (empty if unreachable).
    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId];

    /// The graph's heap mode.
    fn mode(&self) -> HeapMode;

    /// Maps an *external* node id (the growable graph's numbering, used at
    /// every API boundary) to this graph's traversal id. Identity except on
    /// graphs that renumber internally ([`FrozenSdg`]).
    #[inline]
    fn to_internal(&self, n: NodeId) -> NodeId {
        n
    }

    /// Inverse of [`DepGraph::to_internal`]: maps a traversal id back to
    /// the external numbering results are reported in.
    #[inline]
    fn to_external(&self, n: NodeId) -> NodeId {
        n
    }
}

impl DepGraph for Sdg {
    fn node_count(&self) -> usize {
        Sdg::node_count(self)
    }

    fn deps(&self, n: NodeId) -> &[Edge] {
        Sdg::deps(self, n)
    }

    fn node(&self, n: NodeId) -> NodeKind {
        Sdg::node(self, n)
    }

    fn display_stmt(&self, n: NodeId) -> Option<StmtRef> {
        Sdg::display_stmt(self, n)
    }

    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId] {
        Sdg::stmt_nodes_of(self, s)
    }

    fn mode(&self) -> HeapMode {
        Sdg::mode(self)
    }
}

/// A dependence graph frozen into compressed-sparse-row arrays.
///
/// `edges[offsets[n] .. offsets[n + 1]]` are the dependencies of node `n`,
/// in exactly the order [`Sdg::deps`] returned them. Node kinds and display
/// statements are likewise flattened into dense arrays, so a backward BFS
/// touches only contiguous memory. The frozen graph is immutable and safe
/// to share across threads ([`Sync`]), which is what the batched query
/// engine relies on.
///
/// # Examples
///
/// ```
/// use thinslice_ir::compile;
/// use thinslice_pta::{Pta, PtaConfig};
/// use thinslice_sdg::{build_ci, DepGraph};
///
/// let program = compile(&[(
///     "t.mj",
///     "class Main { static void main() { int x = 1; print(x); } }",
/// )]).unwrap();
/// let pta = Pta::analyze(&program, PtaConfig::default());
/// let sdg = build_ci(&program, &pta);
/// let frozen = sdg.freeze();
/// assert_eq!(frozen.node_count(), sdg.node_count());
/// ```
#[derive(Debug, Clone)]
pub struct FrozenSdg {
    pub(crate) mode: HeapMode,
    /// CSR row offsets; `offsets.len() == node_count + 1`.
    pub(crate) offsets: Vec<u32>,
    /// All edges, grouped by source node, per-node order preserved.
    pub(crate) edges: Vec<Edge>,
    /// Node kinds, indexed by `NodeId`.
    pub(crate) kinds: Vec<NodeKind>,
    /// Pre-resolved display statements, indexed by `NodeId`.
    pub(crate) display: Vec<Option<StmtRef>>,
    /// Dense id of each node's display statement ([`NO_DISPLAY`] if none):
    /// distinct display statements numbered `0..display_stmts.len()`.
    pub(crate) display_idx: Vec<u32>,
    /// The distinct display statements, indexed by their dense id.
    pub(crate) display_stmts: Vec<StmtRef>,
    /// All instance nodes of a statement, for seed resolution. Holds
    /// *external* (growable-graph) ids in original intern order.
    pub(crate) nodes_of_stmt: FxHashMap<StmtRef, Vec<NodeId>>,
    /// BFS renumbering: `perm[external] = internal`.
    pub(crate) perm: Vec<NodeId>,
    /// Inverse renumbering: `inv[internal] = external`.
    pub(crate) inv: Vec<NodeId>,
    /// Lazily built [`DownConsumers`] index (a pure graph fact, so it is
    /// cached on the graph and shared by every batch and thread).
    pub(crate) down: OnceLock<DownConsumers>,
}

/// Sentinel dense id for nodes without a display statement.
pub const NO_DISPLAY: u32 = u32::MAX;

impl FrozenSdg {
    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Some instance node of a statement, if the statement is reachable.
    pub fn stmt_node(&self, s: StmtRef) -> Option<NodeId> {
        self.stmt_nodes_of(s).first().copied()
    }

    /// The graph's [`DownConsumers`] index, built on first use and cached
    /// for the life of the frozen graph.
    pub fn down_consumers(&self) -> &DownConsumers {
        self.down.get_or_init(|| DownConsumers::build(self))
    }

    /// The dense id of `n`'s display statement, or [`NO_DISPLAY`].
    ///
    /// A slice's statement set is the set of display statements of its
    /// visited nodes. Deduplicating those through a hash set is the hottest
    /// per-node operation of a big BFS; freezing instead numbers the
    /// distinct display statements densely, so a traversal can dedup with a
    /// bit set over `0..dense_stmt_count()`. Consistent with
    /// [`DepGraph::display_stmt`]: `display_dense(n)` is [`NO_DISPLAY`]
    /// exactly when `display_stmt(n)` is `None`, and
    /// `dense_stmt(display_dense(n))` equals `display_stmt(n).unwrap()`
    /// otherwise.
    #[inline]
    pub fn display_dense(&self, n: NodeId) -> u32 {
        self.display_idx[n.index()]
    }

    /// The statement with dense id `i` (see [`FrozenSdg::display_dense`]).
    #[inline]
    pub fn dense_stmt(&self, i: u32) -> StmtRef {
        self.display_stmts[i as usize]
    }

    /// Number of distinct display statements.
    pub fn dense_stmt_count(&self) -> usize {
        self.display_stmts.len()
    }
}

/// The call-return index demand-driven tabulation needs: `(call site,
/// callee exit)` → caller-side consumer nodes, i.e. an index of every
/// `ParamOut` edge. A pure graph fact, so it can be shared across any
/// number of queries and threads; [`FrozenSdg::down_consumers`] caches one
/// per frozen graph.
///
/// Stored as sorted key groups rather than a hash map: building is one
/// collect + sort with no per-entry allocation (the build used to cost
/// more than the small queries it served), and the lookup — a binary
/// search, only on the hit path of a tabulation ascent — is rare enough
/// that hashing never paid for its setup.
#[derive(Debug, Clone, Default)]
pub struct DownConsumers {
    /// Distinct `(site, exit)` keys, sorted.
    pub(crate) keys: Vec<(NodeId, NodeId)>,
    /// `consumers[offsets[i]..offsets[i + 1]]` = consumers of `keys[i]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) consumers: Vec<NodeId>,
}

impl DownConsumers {
    /// Scans `sdg` and indexes all `ParamOut` edges.
    pub fn build<G: DepGraph + ?Sized>(sdg: &G) -> DownConsumers {
        let mut triples: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        for n in (0..sdg.node_count()).map(NodeId::from_usize) {
            for e in sdg.deps(n) {
                if let EdgeKind::ParamOut { site } = e.kind {
                    triples.push((site, e.target, n));
                }
            }
        }
        triples.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut consumers = Vec::with_capacity(triples.len());
        for (site, exit, consumer) in triples {
            if keys.last() != Some(&(site, exit)) {
                keys.push((site, exit));
                offsets.push(consumers.len() as u32);
            }
            consumers.push(consumer);
        }
        offsets.push(consumers.len() as u32);
        DownConsumers {
            keys,
            offsets,
            consumers,
        }
    }

    /// The consumers that descend into `exit` at call site `site`.
    pub fn get(&self, site: NodeId, exit: NodeId) -> Option<&[NodeId]> {
        let i = self.keys.binary_search(&(site, exit)).ok()?;
        Some(&self.consumers[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }
}

impl DepGraph for FrozenSdg {
    fn node_count(&self) -> usize {
        self.kinds.len()
    }

    fn deps(&self, n: NodeId) -> &[Edge] {
        let i = n.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn node(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    fn display_stmt(&self, n: NodeId) -> Option<StmtRef> {
        self.display[n.index()]
    }

    fn stmt_nodes_of(&self, s: StmtRef) -> &[NodeId] {
        self.nodes_of_stmt.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    fn mode(&self) -> HeapMode {
        self.mode
    }

    fn to_internal(&self, n: NodeId) -> NodeId {
        self.perm[n.index()]
    }

    fn to_external(&self, n: NodeId) -> NodeId {
        self.inv[n.index()]
    }
}

impl Sdg {
    /// Like [`Sdg::freeze`], but under a [`RunCtx`]: the freeze is recorded
    /// as a `sdg.freeze` span with a `sdg.csr_edges` counter and gauge.
    /// With a disabled context this is exactly [`Sdg::freeze`].
    pub fn freeze_ctx(&self, ctx: &RunCtx) -> FrozenSdg {
        let tel = ctx.telemetry();
        let csr = {
            let mut span = tel.span("sdg.freeze");
            let csr = self.freeze();
            span.add("sdg.csr_edges", csr.edge_count() as u64);
            csr
        };
        tel.gauge("sdg.csr_edges", csr.edge_count() as u64);
        csr
    }

    /// Freezes the graph into its CSR form, renumbering nodes into BFS
    /// order over the dependence edges (cache-aware layout: a slice's
    /// wavefront reads adjacent edge rows and adjacent visited-bitset
    /// words).
    ///
    /// The renumbering is invisible outside the graph: seed resolution
    /// ([`DepGraph::stmt_nodes_of`]) keeps original ids, traversal code
    /// converts at the boundary via [`DepGraph::to_internal`] /
    /// [`DepGraph::to_external`], and per-node edge order is preserved
    /// exactly — so traversals over the frozen graph visit the same nodes
    /// in the same order as over `self` and report identical results.
    pub fn freeze(&self) -> FrozenSdg {
        let n = Sdg::node_count(self);
        let placeholder = NodeId::new(0);
        // BFS forest over the dependence edges, roots taken in original id
        // order, new ids assigned at discovery time.
        let mut perm: Vec<NodeId> = vec![placeholder; n];
        let mut inv: Vec<NodeId> = Vec::with_capacity(n);
        let mut discovered = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..n {
            if discovered[root] {
                continue;
            }
            discovered[root] = true;
            let old = NodeId::new(root);
            perm[root] = NodeId::new(inv.len());
            inv.push(old);
            queue.push_back(old);
            while let Some(at) = queue.pop_front() {
                for e in Sdg::deps(self, at) {
                    let t = e.target.index();
                    if !discovered[t] {
                        discovered[t] = true;
                        perm[t] = NodeId::new(inv.len());
                        inv.push(e.target);
                        queue.push_back(e.target);
                    }
                }
            }
        }

        // Node ids embedded in edge and node payloads move with the
        // permutation so the frozen graph is self-consistent internally.
        let remap_edge = |e: &Edge| -> Edge {
            let target = perm[e.target.index()];
            let kind = match e.kind {
                EdgeKind::ParamIn { site } => EdgeKind::ParamIn {
                    site: perm[site.index()],
                },
                EdgeKind::ParamOut { site } => EdgeKind::ParamOut {
                    site: perm[site.index()],
                },
                k => k,
            };
            Edge { target, kind }
        };
        let remap_kind = |k: NodeKind| -> NodeKind {
            match k {
                NodeKind::ActualParam(site, i) => NodeKind::ActualParam(perm[site.index()], i),
                NodeKind::ActualIn(site, p) => NodeKind::ActualIn(perm[site.index()], p),
                NodeKind::ActualOut(site, p) => NodeKind::ActualOut(perm[site.index()], p),
                k => k,
            }
        };

        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.edge_count());
        let mut kinds = Vec::with_capacity(n);
        let mut display = Vec::with_capacity(n);
        let mut display_idx = Vec::with_capacity(n);
        let mut display_stmts = Vec::new();
        let mut dense_of: FxHashMap<StmtRef, u32> = FxHashMap::default();
        offsets.push(0);
        for &old in &inv {
            edges.extend(Sdg::deps(self, old).iter().map(remap_edge));
            offsets.push(u32::try_from(edges.len()).expect("edge count exceeds u32"));
            kinds.push(remap_kind(Sdg::node(self, old)));
            // Display statements resolve through the growable graph, where
            // the embedded site ids are still original.
            let d = Sdg::display_stmt(self, old);
            display.push(d);
            display_idx.push(match d {
                Some(s) => *dense_of.entry(s).or_insert_with(|| {
                    display_stmts.push(s);
                    u32::try_from(display_stmts.len() - 1).expect("stmt count exceeds u32")
                }),
                None => NO_DISPLAY,
            });
        }

        // Seed resolution keeps *external* ids in original intern order, so
        // `stmt_nodes_of`/`stmt_node` answer identically to the growable
        // graph.
        let mut nodes_of_stmt: FxHashMap<StmtRef, Vec<NodeId>> = FxHashMap::default();
        for (id, &kind) in self.nodes() {
            if let NodeKind::Stmt(_, s) = kind {
                nodes_of_stmt.entry(s).or_default().push(id);
            }
        }

        FrozenSdg {
            mode: Sdg::mode(self),
            offsets,
            edges,
            kinds,
            display,
            display_idx,
            display_stmts,
            nodes_of_stmt,
            perm,
            inv,
            down: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{BlockId, Loc, MethodId};
    use thinslice_pta::CgNode;

    fn stmt(m: u32, i: u32) -> NodeKind {
        NodeKind::Stmt(
            CgNode::new(0),
            StmtRef {
                method: MethodId::new(m as usize),
                loc: Loc {
                    block: BlockId::new(0),
                    index: i,
                },
            },
        )
    }

    #[test]
    fn freeze_preserves_nodes_edges_and_order() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let a = g.intern(stmt(0, 0));
        let b = g.intern(stmt(0, 1));
        let c = g.intern(stmt(0, 2));
        // Two edges out of `a` in a deliberate order, one out of `c`.
        g.add_edge(
            a,
            Edge {
                target: c,
                kind: EdgeKind::Control,
            },
        );
        g.add_edge(
            a,
            Edge {
                target: b,
                kind: EdgeKind::Flow {
                    excluded_from_thin: false,
                },
            },
        );
        g.add_edge(
            c,
            Edge {
                target: b,
                kind: EdgeKind::Call,
            },
        );

        let f = g.freeze();
        assert_eq!(DepGraph::node_count(&f), Sdg::node_count(&g));
        assert_eq!(f.edge_count(), g.edge_count());
        for (id, _) in g.nodes() {
            // The frozen graph renumbers internally; modulo the id
            // mapping, every node keeps its kind, display statement, and
            // dependence list in the original order.
            let fid = f.to_internal(id);
            assert_eq!(f.to_external(fid), id, "permutation roundtrip");
            let mapped: Vec<(NodeId, EdgeKind)> = DepGraph::deps(&f, fid)
                .iter()
                .map(|e| (f.to_external(e.target), e.kind))
                .collect();
            let want: Vec<(NodeId, EdgeKind)> = Sdg::deps(&g, id)
                .iter()
                .map(|e| (e.target, e.kind))
                .collect();
            assert_eq!(mapped, want, "edge order at {id:?}");
            assert_eq!(DepGraph::node(&f, fid), Sdg::node(&g, id));
            assert_eq!(DepGraph::display_stmt(&f, fid), Sdg::display_stmt(&g, id));
        }
        assert_eq!(DepGraph::mode(&f), HeapMode::DirectEdges);
    }

    #[test]
    fn freeze_renumbers_into_bfs_order() {
        // Original intern order deliberately scatters the dependence
        // chain: a -> c -> b. BFS from root `a` must lay them out as
        // a=0, c=1, b=2 internally.
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let a = g.intern(stmt(0, 0));
        let b = g.intern(stmt(0, 1));
        let c = g.intern(stmt(0, 2));
        g.add_edge(
            a,
            Edge {
                target: c,
                kind: EdgeKind::Control,
            },
        );
        g.add_edge(
            c,
            Edge {
                target: b,
                kind: EdgeKind::Call,
            },
        );
        let f = g.freeze();
        assert_eq!(f.to_internal(a).index(), 0);
        assert_eq!(f.to_internal(c).index(), 1);
        assert_eq!(f.to_internal(b).index(), 2);
    }

    #[test]
    fn freeze_preserves_stmt_node_mapping() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        let sr = StmtRef {
            method: MethodId::new(1),
            loc: Loc {
                block: BlockId::new(0),
                index: 0,
            },
        };
        let a = g.intern(NodeKind::Stmt(CgNode::new(0), sr));
        let b = g.intern(NodeKind::Stmt(CgNode::new(1), sr));
        let f = g.freeze();
        assert_eq!(DepGraph::stmt_nodes_of(&f, sr), &[a, b]);
        assert_eq!(f.stmt_node(sr), Some(a));
    }

    #[test]
    fn dense_display_is_consistent_with_display_stmt() {
        let mut g = Sdg::empty(HeapMode::DirectEdges);
        // Two clones of the same statement share a dense id; distinct
        // statements get distinct ids.
        let sr0 = StmtRef {
            method: MethodId::new(0),
            loc: Loc {
                block: BlockId::new(0),
                index: 0,
            },
        };
        g.intern(NodeKind::Stmt(CgNode::new(0), sr0));
        g.intern(NodeKind::Stmt(CgNode::new(1), sr0));
        g.intern(stmt(0, 1));
        let f = g.freeze();
        assert_eq!(f.dense_stmt_count(), 2);
        let mut seen = std::collections::HashSet::new();
        for (id, _) in g.nodes() {
            let fid = f.to_internal(id);
            let dense = f.display_dense(fid);
            match DepGraph::display_stmt(&f, fid) {
                None => assert_eq!(dense, NO_DISPLAY),
                Some(s) => {
                    assert_ne!(dense, NO_DISPLAY);
                    assert_eq!(f.dense_stmt(dense), s);
                    seen.insert(dense);
                }
            }
        }
        assert_eq!(seen.len(), f.dense_stmt_count());
    }

    #[test]
    fn empty_graph_freezes() {
        let g = Sdg::empty(HeapMode::Parameters);
        let f = g.freeze();
        assert_eq!(DepGraph::node_count(&f), 0);
        assert_eq!(f.edge_count(), 0);
        assert_eq!(DepGraph::mode(&f), HeapMode::Parameters);
    }
}
