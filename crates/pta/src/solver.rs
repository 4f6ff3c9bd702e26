//! The Andersen-style points-to solver with on-the-fly call graph
//! construction and object-sensitive cloning for container classes.
//!
//! This implements the analysis the paper uses as its substrate (§6.1): "a
//! variant of Andersen's analysis with on-the-fly call graph construction,
//! with fully object-sensitive cloning for objects of key collections
//! classes". Casts filter points-to sets by type, which is what makes a
//! *tough cast* (§6.3) "a downcast that cannot be verified by precise and
//! scalable pointer analysis".

use crate::callgraph::{CallGraph, CgNode, Ctx};
use crate::heap::{AbstractObject, AllocSite, ObjId, ObjKind};
use crate::incr::GenCache;
use crate::PtaConfig;
use thinslice_ir::{
    CallKind, ClassId, FieldId, InstrKind, Loc, MethodId, Operand, Program, StmtRef, Type, Var,
};
use thinslice_util::{
    new_index, BitSet, Completeness, FxHashMap, FxHashSet, IdxVec, Meter, Worklist,
};

new_index!(
    /// A node in the points-to constraint graph.
    pub struct PtrNode
);

/// What a constraint-graph node stands for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PtrKey {
    /// A local SSA variable of one method instance.
    Var(CgNode, Var),
    /// A static field.
    Static(FieldId),
    /// An instance field of an abstract object.
    ObjField(ObjId, FieldId),
    /// The merged element slot of an abstract array object.
    ArrayElem(ObjId),
    /// The merged return value of a method instance.
    Ret(CgNode),
}

/// A complex (dereferencing) constraint pending on a pointer node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Constraint {
    /// For each `o` in pts(self): `pts(dst) ⊇ pts(o.field)`.
    Load { field: FieldId, dst: PtrNode },
    /// For each `o` in pts(self): `pts(o.field) ⊇ pts(src)`.
    Store { field: FieldId, src: PtrNode },
    /// For each array `o` in pts(self): `pts(dst) ⊇ pts(o[*])`.
    ALoad { dst: PtrNode },
    /// For each array `o` in pts(self): `pts(o[*]) ⊇ pts(src)`.
    AStore { src: PtrNode },
    /// Dispatch the call at `(caller, site)` for each receiver object.
    Call { caller: CgNode, site: Loc },
}

/// Propagation statistics from one solver run.
///
/// Collected unconditionally — each figure is a plain integer update on an
/// already-touched cache line, so the ungoverned hot path stays as fast as
/// before. Telemetry and [`crate::ProgramStats`] read these after the fact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Worklist pops processed — the number of delta-propagation rounds.
    pub delta_rounds: u64,
    /// Deduplicated worklist pushes (nodes scheduled because they grew).
    pub worklist_pushes: u64,
    /// Deepest the pending worklist ever got.
    pub max_worklist_depth: usize,
    /// Total objects moved through delta sets (sum of delta sizes at
    /// processing time) — the difference-propagation work measure.
    pub delta_objects: u64,
    /// Governance slow checks the meter performed during the solve.
    pub meter_checks: u64,
}

/// The result of running the solver (before collapsing into [`crate::Pta`]).
pub struct SolverResult {
    /// All abstract objects.
    pub objects: IdxVec<ObjId, AbstractObject>,
    /// The context-sensitive call graph.
    pub callgraph: CallGraph,
    /// Constraint-graph node keys.
    pub keys: IdxVec<PtrNode, PtrKey>,
    /// Final points-to sets.
    pub pts: IdxVec<PtrNode, BitSet<ObjId>>,
    /// Node lookup.
    pub node_of: FxHashMap<PtrKey, PtrNode>,
    /// Total number of copy edges (a size statistic).
    pub edge_count: usize,
    /// Propagation statistics of the run.
    pub stats: SolveStats,
}

/// Runs the points-to analysis from `program`'s `main`.
pub fn solve(program: &Program, config: &PtaConfig) -> SolverResult {
    let mut cache = GenCache::new();
    Solver::new(program, config, &mut cache).run()
}

/// Like [`solve`], but metered — it stops pulling worklist items once
/// `meter` is exhausted and labels the (sound, partial) result accordingly
/// — and replaying per-method generation streams from (and retaining new
/// ones into) `cache`, the incremental-update entry point. With a warm
/// cache the result is bit-identical to a cold one, because cached streams
/// are byte-equal to freshly built ones for unchanged methods.
pub fn solve_governed_cached(
    program: &Program,
    config: &PtaConfig,
    meter: &mut Meter,
    cache: &mut GenCache,
) -> (SolverResult, Completeness) {
    Solver::new(program, config, cache).run_governed(meter)
}

struct Solver<'p> {
    program: &'p Program,
    config: &'p PtaConfig,
    container_classes: FxHashSet<ClassId>,
    cg: CallGraph,
    objects: IdxVec<ObjId, AbstractObject>,
    obj_of: FxHashMap<(AllocSite, Option<ObjId>), ObjId>,
    obj_depth: IdxVec<ObjId, u32>,
    keys: IdxVec<PtrNode, PtrKey>,
    node_of: FxHashMap<PtrKey, PtrNode>,
    pts: IdxVec<PtrNode, BitSet<ObjId>>,
    /// Objects added to `pts[n]` since `n` was last processed (difference
    /// propagation): the worklist step pushes only these along edges.
    delta: IdxVec<PtrNode, BitSet<ObjId>>,
    /// Copy edges `n → (dst, optional cast filter)`.
    succ: IdxVec<PtrNode, Vec<(PtrNode, Option<Type>)>>,
    pending: IdxVec<PtrNode, Vec<Constraint>>,
    worklist: Worklist<PtrNode>,
    edge_count: usize,
    stats: SolveStats,
    /// Per-method generation streams, shared across context clones and —
    /// when the caller keeps the cache — across incremental re-solves.
    cache: &'p mut GenCache,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, config: &'p PtaConfig, cache: &'p mut GenCache) -> Self {
        let container_classes = config
            .container_classes
            .iter()
            .filter_map(|n| program.class_named(n))
            .collect();
        Self {
            program,
            config,
            container_classes,
            cg: CallGraph::new(),
            objects: IdxVec::new(),
            obj_of: FxHashMap::default(),
            obj_depth: IdxVec::new(),
            keys: IdxVec::new(),
            node_of: FxHashMap::default(),
            pts: IdxVec::new(),
            delta: IdxVec::new(),
            succ: IdxVec::new(),
            pending: IdxVec::new(),
            worklist: Worklist::new(),
            edge_count: 0,
            stats: SolveStats::default(),
            cache,
        }
    }

    fn run(self) -> SolverResult {
        self.run_governed(&mut Meter::unlimited()).0
    }

    fn run_governed(mut self, meter: &mut Meter) -> (SolverResult, Completeness) {
        let (main, _) = self.cg.intern(self.program.main_method, Ctx::Insensitive);
        self.process_method(main);
        while let Some(n) = self.worklist.pop() {
            if !meter.tick_tracked(self.pts.len()) {
                // Unprocessed: put it back so the frontier count is honest.
                self.worklist.push(n);
                break;
            }
            self.stats.delta_rounds += 1;
            self.process_node(n);
        }
        let completeness = meter.completeness(self.worklist.len());
        self.stats.meter_checks = meter.slow_checks();
        let result = SolverResult {
            objects: self.objects,
            callgraph: self.cg,
            keys: self.keys,
            pts: self.pts,
            node_of: self.node_of,
            edge_count: self.edge_count,
            stats: self.stats,
        };
        (result, completeness)
    }

    // ---- interning ----

    fn node(&mut self, key: PtrKey) -> PtrNode {
        if let Some(&n) = self.node_of.get(&key) {
            return n;
        }
        let n = self.keys.push(key.clone());
        self.node_of.insert(key, n);
        self.pts.push(BitSet::new());
        self.delta.push(BitSet::new());
        self.succ.push(Vec::new());
        self.pending.push(Vec::new());
        n
    }

    fn var_node(&mut self, inst: CgNode, v: Var) -> PtrNode {
        self.node(PtrKey::Var(inst, v))
    }

    fn intern_obj(&mut self, site: AllocSite, kind: ObjKind, ctx: Option<ObjId>) -> ObjId {
        if let Some(&o) = self.obj_of.get(&(site, ctx)) {
            return o;
        }
        let depth = ctx.map(|c| self.obj_depth[c] + 1).unwrap_or(0);
        let o = self.objects.push(AbstractObject { site, kind, ctx });
        self.obj_depth.push(depth);
        self.obj_of.insert((site, ctx), o);
        o
    }

    /// The heap context for an allocation performed by method instance
    /// `inst`: the receiver object when inside a cloned container method,
    /// depth-capped.
    fn heap_ctx(&self, inst: CgNode) -> Option<ObjId> {
        match self.cg.node(inst).1 {
            Ctx::Obj(o) if self.obj_depth[o] + 1 < self.config.max_heap_ctx_depth => Some(o),
            _ => None,
        }
    }

    // ---- graph mutation ----

    /// Queues a node whose points-to set grew, tracking push statistics.
    #[inline]
    fn schedule(&mut self, n: PtrNode) {
        if self.worklist.push(n) {
            self.stats.worklist_pushes += 1;
            if self.worklist.len() > self.stats.max_worklist_depth {
                self.stats.max_worklist_depth = self.worklist.len();
            }
        }
    }

    fn insert_obj(&mut self, n: PtrNode, o: ObjId) {
        if self.pts[n].insert(o) {
            self.delta[n].insert(o);
            self.schedule(n);
        }
    }

    /// Pushes `set` into `pts[dst]` through an optional cast filter,
    /// recording genuinely new objects in `delta[dst]` and scheduling `dst`
    /// when it grew.
    fn propagate(&mut self, set: &BitSet<ObjId>, dst: PtrNode, filter: &Option<Type>) {
        let changed = match filter {
            None => {
                // `pts` and `delta` are disjoint fields, so both halves can
                // be borrowed mutably at once.
                let (pts, delta) = (&mut self.pts[dst], &mut self.delta[dst]);
                pts.union_with_delta(set, delta)
            }
            Some(ty) => {
                let mut changed = false;
                for o in set.iter() {
                    if self.objects[o].compatible_with(self.program, ty) && self.pts[dst].insert(o)
                    {
                        self.delta[dst].insert(o);
                        changed = true;
                    }
                }
                changed
            }
        };
        if changed {
            self.schedule(dst);
        }
    }

    fn add_edge(&mut self, src: PtrNode, dst: PtrNode, filter: Option<Type>) {
        if src == dst && filter.is_none() {
            return;
        }
        if self.succ[src]
            .iter()
            .any(|(d, f)| *d == dst && *f == filter)
        {
            return;
        }
        self.succ[src].push((dst, filter.clone()));
        self.edge_count += 1;
        // A new edge must carry the *entire* current set across once; the
        // worklist thereafter only moves deltas.
        if !self.pts[src].is_empty() {
            let set = self.pts[src].clone();
            self.propagate(&set, dst, &filter);
        }
    }

    fn add_pending(&mut self, n: PtrNode, c: Constraint) {
        if self.pending[n].contains(&c) {
            return;
        }
        self.pending[n].push(c.clone());
        // A new constraint must see the *entire* current set once; the
        // worklist thereafter applies it only to deltas.
        if !self.pts[n].is_empty() {
            let set = self.pts[n].clone();
            self.apply_constraint(&set, &c);
        }
    }

    // ---- the fixpoint step ----

    /// Difference propagation: only the objects added since `n` was last
    /// processed travel along edges and into constraints. Full sets are
    /// handled exactly once, at edge/constraint insertion.
    fn process_node(&mut self, n: PtrNode) {
        let delta = std::mem::take(&mut self.delta[n]);
        if delta.is_empty() {
            return;
        }
        self.stats.delta_objects += delta.len() as u64;
        let succs = self.succ[n].clone();
        for (dst, filter) in &succs {
            self.propagate(&delta, *dst, filter);
        }
        let pending = self.pending[n].clone();
        for c in &pending {
            self.apply_constraint(&delta, c);
        }
    }

    /// Applies one complex constraint to the given (sub)set of the
    /// constrained node's points-to set.
    fn apply_constraint(&mut self, set: &BitSet<ObjId>, c: &Constraint) {
        match *c {
            Constraint::Load { field, dst } => {
                for o in set.iter() {
                    let of = self.node(PtrKey::ObjField(o, field));
                    self.add_edge(of, dst, None);
                }
            }
            Constraint::Store { field, src } => {
                for o in set.iter() {
                    let of = self.node(PtrKey::ObjField(o, field));
                    self.add_edge(src, of, None);
                }
            }
            Constraint::ALoad { dst } => {
                for o in set.iter() {
                    if matches!(self.objects[o].kind, ObjKind::Array(_)) {
                        let el = self.node(PtrKey::ArrayElem(o));
                        self.add_edge(el, dst, None);
                    }
                }
            }
            Constraint::AStore { src } => {
                for o in set.iter() {
                    if matches!(self.objects[o].kind, ObjKind::Array(_)) {
                        let el = self.node(PtrKey::ArrayElem(o));
                        self.add_edge(src, el, None);
                    }
                }
            }
            Constraint::Call { caller, site } => {
                for o in set.iter() {
                    self.dispatch(caller, site, o);
                }
            }
        }
    }

    // ---- call handling ----

    /// The analysis context a callee runs in: object-sensitive when the
    /// resolved target is declared in a container class.
    fn callee_ctx(&self, target: MethodId, receiver: ObjId) -> Ctx {
        let class = self.program.methods[target].class;
        if self.config.object_sensitive_containers && self.container_classes.contains(&class) {
            Ctx::Obj(receiver)
        } else {
            Ctx::Insensitive
        }
    }

    /// Resolves and links one receiver object at a virtual/special call site.
    fn dispatch(&mut self, caller: CgNode, site: Loc, receiver: ObjId) {
        let (caller_m, _) = self.cg.node(caller);
        let body = self.program.methods[caller_m]
            .body
            .as_ref()
            .expect("caller has body");
        let instr = body.instr(site).kind.clone();
        let InstrKind::Call {
            dst,
            kind,
            callee,
            args,
        } = instr
        else {
            unreachable!("call constraint on non-call instruction");
        };
        let target = match kind {
            CallKind::Special => callee,
            CallKind::Virtual => {
                let class = self.objects[receiver].dispatch_class(self.program);
                match self
                    .program
                    .resolve_method(class, &self.program.methods[callee].name)
                {
                    Some(t) => t,
                    None => return,
                }
            }
            CallKind::Static => unreachable!("static calls are linked directly"),
        };
        // Filter impossible dispatches: the receiver object must be
        // compatible with the class declaring the *statically resolved*
        // callee (e.g. a String in an Object-typed set does not receive
        // Vector.add).
        let decl_class = self.program.methods[callee].class;
        if kind == CallKind::Virtual {
            let recv_class = self.objects[receiver].dispatch_class(self.program);
            if !self.program.is_subclass(recv_class, decl_class) {
                return;
            }
        }
        let ctx = self.callee_ctx(target, receiver);
        let (inst, new_inst) = self.cg.intern(target, ctx);
        if new_inst {
            self.process_method(inst);
        }
        let new_edge = self.cg.add_edge(caller, site, inst);

        if self.program.methods[target].is_native {
            if new_edge {
                self.link_native_ret(caller, site, &dst, target);
            }
            return;
        }

        // Bind the receiver: directly insert this object (per-object, more
        // precise than a copy edge from the receiver node).
        let this_param = self.program.methods[target]
            .body
            .as_ref()
            .expect("body")
            .params[0];
        let this_node = self.var_node(inst, this_param);
        self.insert_obj(this_node, receiver);

        if new_edge {
            self.link_args_and_ret(caller, site, &dst, &args, inst, true);
        }
    }

    /// Adds parameter and return copy edges for a resolved call edge.
    /// `skip_receiver` is true for instance calls (the receiver is bound
    /// per-object in [`Self::dispatch`]).
    fn link_args_and_ret(
        &mut self,
        caller: CgNode,
        _site: Loc,
        dst: &Option<Var>,
        args: &[Operand],
        callee_inst: CgNode,
        skip_receiver: bool,
    ) {
        let (callee_m, _) = self.cg.node(callee_inst);
        let callee = &self.program.methods[callee_m];
        let body = callee.body.as_ref().expect("non-native callee");
        let params = body.params.clone();
        let start = usize::from(skip_receiver);
        for (i, param) in params.iter().enumerate().skip(start) {
            if let Some(Operand::Var(av)) = args.get(i).copied() {
                if self.program.methods[callee_m].body.as_ref().unwrap().vars[*param]
                    .ty
                    .is_reference()
                {
                    let a = self.var_node(caller, av);
                    let p = self.var_node(callee_inst, *param);
                    self.add_edge(a, p, None);
                }
            }
        }
        if let Some(d) = dst {
            if callee.ret_ty.is_reference() {
                let r = self.node(PtrKey::Ret(callee_inst));
                let dn = self.var_node(caller, *d);
                self.add_edge(r, dn, None);
            }
        }
    }

    /// Models a native call: the return value is a fresh object per call
    /// site (of the declared return type).
    fn link_native_ret(&mut self, caller: CgNode, site: Loc, dst: &Option<Var>, target: MethodId) {
        let Some(d) = dst else { return };
        let ret_ty = self.program.methods[target].ret_ty.clone();
        let kind = match &ret_ty {
            Type::Class(c) => ObjKind::Class(*c),
            Type::Array(elem) => ObjKind::Array((**elem).clone()),
            _ => return,
        };
        let (caller_m, _) = self.cg.node(caller);
        let site_ref = StmtRef {
            method: caller_m,
            loc: site,
        };
        let ctx = self.heap_ctx(caller);
        let o = self.intern_obj(AllocSite::NativeRet(site_ref), kind, ctx);
        let dn = self.var_node(caller, *d);
        self.insert_obj(dn, o);
    }

    // ---- constraint generation per method instance ----

    fn process_method(&mut self, inst: CgNode) {
        let (m, ctx) = self.cg.node(inst);
        let method = &self.program.methods[m];
        if method.is_native {
            return;
        }
        let body = method.body.as_ref().expect("non-native");

        // A cloned container-method instance knows its exact receiver.
        if let Ctx::Obj(o) = ctx {
            if !method.is_static {
                let this_node = self.var_node(inst, body.params[0]);
                self.insert_obj(this_node, o);
            }
        }

        let stmts = self.cache.stream(self.program, m);
        for &(loc, ref kind) in stmts.iter() {
            self.gen_constraints(inst, m, loc, kind);
        }
    }

    fn gen_constraints(&mut self, inst: CgNode, m: MethodId, loc: Loc, kind: &InstrKind) {
        let sr = StmtRef { method: m, loc };
        match kind {
            InstrKind::New { dst, class } => {
                let ctx = self.heap_ctx(inst);
                let o = self.intern_obj(AllocSite::Stmt(sr), ObjKind::Class(*class), ctx);
                let d = self.var_node(inst, *dst);
                self.insert_obj(d, o);
            }
            InstrKind::NewArray { dst, elem, .. } => {
                let ctx = self.heap_ctx(inst);
                let o = self.intern_obj(AllocSite::Stmt(sr), ObjKind::Array(elem.clone()), ctx);
                let d = self.var_node(inst, *dst);
                self.insert_obj(d, o);
            }
            InstrKind::StrConst { dst, .. } | InstrKind::StrConcat { dst, .. } => {
                let ctx = self.heap_ctx(inst);
                let o = self.intern_obj(
                    AllocSite::Stmt(sr),
                    ObjKind::Class(self.program.string_class),
                    ctx,
                );
                let d = self.var_node(inst, *dst);
                self.insert_obj(d, o);
            }
            InstrKind::Move {
                dst,
                src: Operand::Var(s),
            } if self.is_ref_var(m, *dst) => {
                let sn = self.var_node(inst, *s);
                let dn = self.var_node(inst, *dst);
                self.add_edge(sn, dn, None);
            }
            InstrKind::Phi { dst, args } if self.is_ref_var(m, *dst) => {
                let dn = self.var_node(inst, *dst);
                for (_, a) in args {
                    if let Operand::Var(v) = a {
                        let sn = self.var_node(inst, *v);
                        self.add_edge(sn, dn, None);
                    }
                }
            }
            InstrKind::Cast {
                dst,
                ty,
                src: Operand::Var(s),
            } if ty.is_reference() => {
                let sn = self.var_node(inst, *s);
                let dn = self.var_node(inst, *dst);
                let filter = self.config.cast_filtering.then(|| ty.clone());
                self.add_edge(sn, dn, filter);
            }
            InstrKind::Load { dst, base, field }
                if self.program.fields[*field].ty.is_reference() =>
            {
                let bn = self.var_node(inst, *base);
                let dn = self.var_node(inst, *dst);
                self.add_pending(
                    bn,
                    Constraint::Load {
                        field: *field,
                        dst: dn,
                    },
                );
            }
            InstrKind::Store {
                base,
                field,
                value: Operand::Var(v),
            } if self.program.fields[*field].ty.is_reference() => {
                let bn = self.var_node(inst, *base);
                let vn = self.var_node(inst, *v);
                self.add_pending(
                    bn,
                    Constraint::Store {
                        field: *field,
                        src: vn,
                    },
                );
            }
            InstrKind::StaticLoad { dst, field }
                if self.program.fields[*field].ty.is_reference() =>
            {
                let sn = self.node(PtrKey::Static(*field));
                let dn = self.var_node(inst, *dst);
                self.add_edge(sn, dn, None);
            }
            InstrKind::StaticStore {
                field,
                value: Operand::Var(v),
            } if self.program.fields[*field].ty.is_reference() => {
                let vn = self.var_node(inst, *v);
                let sn = self.node(PtrKey::Static(*field));
                self.add_edge(vn, sn, None);
            }
            InstrKind::ArrayLoad { dst, base, .. } if self.is_ref_var(m, *dst) => {
                let bn = self.var_node(inst, *base);
                let dn = self.var_node(inst, *dst);
                self.add_pending(bn, Constraint::ALoad { dst: dn });
            }
            InstrKind::ArrayStore {
                base,
                value: Operand::Var(v),
                ..
            } if self.is_ref_var(m, *v) => {
                let bn = self.var_node(inst, *base);
                let vn = self.var_node(inst, *v);
                self.add_pending(bn, Constraint::AStore { src: vn });
            }
            InstrKind::Return {
                value: Some(Operand::Var(v)),
            } if self.program.methods[m].ret_ty.is_reference() => {
                let vn = self.var_node(inst, *v);
                let rn = self.node(PtrKey::Ret(inst));
                self.add_edge(vn, rn, None);
            }
            InstrKind::Call {
                dst,
                kind,
                callee,
                args,
            } => match kind {
                CallKind::Static => {
                    if self.program.methods[*callee].is_native {
                        // Intern a node for stats, then model the return.
                        let (n, _) = self.cg.intern(*callee, Ctx::Insensitive);
                        self.cg.add_edge(inst, loc, n);
                        self.link_native_ret(inst, loc, dst, *callee);
                        return;
                    }
                    let (callee_inst, new_inst) = self.cg.intern(*callee, Ctx::Insensitive);
                    if new_inst {
                        self.process_method(callee_inst);
                    }
                    if self.cg.add_edge(inst, loc, callee_inst) {
                        self.link_args_and_ret(inst, loc, dst, args, callee_inst, false);
                    }
                }
                CallKind::Virtual | CallKind::Special => {
                    if let Some(Operand::Var(recv)) = args.first() {
                        let rn = self.var_node(inst, *recv);
                        self.add_pending(
                            rn,
                            Constraint::Call {
                                caller: inst,
                                site: loc,
                            },
                        );
                    }
                }
            },
            _ => {}
        }
    }

    fn is_ref_var(&self, m: MethodId, v: Var) -> bool {
        self.program.methods[m].body.as_ref().expect("body").vars[v]
            .ty
            .is_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;

    fn analyze(src: &str) -> (thinslice_ir::Program, SolverResult) {
        let p = compile(&[("t.mj", src)]).unwrap();
        let cfg = PtaConfig::default();
        let r = solve(&p, &cfg);
        (p, r)
    }

    fn pts_of_main_var(p: &thinslice_ir::Program, r: &SolverResult, name: &str) -> BitSet<ObjId> {
        let main_inst = r.callgraph.get(p.main_method, Ctx::Insensitive).unwrap();
        let body = p.methods[p.main_method].body.as_ref().unwrap();
        let mut out = BitSet::new();
        for (v, info) in body.vars.iter_enumerated() {
            if info.name == name {
                if let Some(&n) = r.node_of.get(&PtrKey::Var(main_inst, v)) {
                    out.union_with(&r.pts[n]);
                }
            }
        }
        out
    }

    #[test]
    fn alloc_flows_to_var() {
        let (p, r) = analyze(
            "class A {} class Main { static void main() { A a = new A(); A b = a; print(1); } }",
        );
        let pts = pts_of_main_var(&p, &r, "b");
        assert_eq!(pts.len(), 1);
        let o = pts.iter().next().unwrap();
        let a_class = p.class_named("A").unwrap();
        assert_eq!(r.objects[o].kind, ObjKind::Class(a_class));
    }

    #[test]
    fn field_store_load_connects() {
        let (p, r) = analyze(
            "class Box { Object item; }
             class A {}
             class Main { static void main() {
                Box box = new Box();
                box.item = new A();
                Object got = box.item;
             } }",
        );
        let pts = pts_of_main_var(&p, &r, "got");
        let a_class = p.class_named("A").unwrap();
        assert!(pts
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
    }

    #[test]
    fn virtual_dispatch_resolves_by_object_type() {
        let (p, r) = analyze(
            "class A { Object make() { return new A(); } }
             class B extends A { Object make() { return new Main(); } }
             class Main { static void main() {
                A x = new B();
                Object o = x.make();
             } }",
        );
        // Only B.make is reachable for the call; its Main allocation flows
        // to o, A's does not.
        let pts = pts_of_main_var(&p, &r, "o");
        let main_class = p.class_named("Main").unwrap();
        let a_class = p.class_named("A").unwrap();
        assert!(pts
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(main_class)));
        assert!(!pts
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
    }

    #[test]
    fn cast_filters_points_to_sets() {
        let (p, r) = analyze(
            "class A {} class B {}
             class Main { static void main() {
                Vector v = new Vector();
                v.add(new A());
                v.add(new B());
                Object o = v.get(0);
                A a = (A) o;
             } }",
        );
        let o_pts = pts_of_main_var(&p, &r, "o");
        let a_pts = pts_of_main_var(&p, &r, "a");
        let a_class = p.class_named("A").unwrap();
        let b_class = p.class_named("B").unwrap();
        assert!(o_pts
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(b_class)));
        assert!(a_pts
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
        assert!(
            !a_pts
                .iter()
                .any(|o| r.objects[o].kind == ObjKind::Class(b_class)),
            "cast must filter out B"
        );
    }

    #[test]
    fn object_sensitive_containers_separate_vectors() {
        let (p, r) = analyze(
            "class A {} class B {}
             class Main { static void main() {
                Vector va = new Vector();
                Vector vb = new Vector();
                va.add(new A());
                vb.add(new B());
                Object oa = va.get(0);
                Object ob = vb.get(0);
             } }",
        );
        let a_class = p.class_named("A").unwrap();
        let b_class = p.class_named("B").unwrap();
        let oa = pts_of_main_var(&p, &r, "oa");
        let ob = pts_of_main_var(&p, &r, "ob");
        assert!(oa
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
        assert!(
            !oa.iter()
                .any(|o| r.objects[o].kind == ObjKind::Class(b_class)),
            "object-sensitive Vectors must not mix contents"
        );
        assert!(ob
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(b_class)));
        assert!(!ob
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
    }

    #[test]
    fn context_insensitive_containers_mix_contents() {
        let p = compile(&[(
            "t.mj",
            "class A {} class B {}
             class Main { static void main() {
                Vector va = new Vector();
                Vector vb = new Vector();
                va.add(new A());
                vb.add(new B());
                Object oa = va.get(0);
             } }",
        )])
        .unwrap();
        let cfg = PtaConfig {
            object_sensitive_containers: false,
            ..PtaConfig::default()
        };
        let r = solve(&p, &cfg);
        let oa = pts_of_main_var(&p, &r, "oa");
        let b_class = p.class_named("B").unwrap();
        assert!(
            oa.iter()
                .any(|o| r.objects[o].kind == ObjKind::Class(b_class)),
            "without object sensitivity the two Vectors share one backing array"
        );
    }

    #[test]
    fn native_returns_fresh_object() {
        let (p, r) = analyze(
            "class Main { static void main() {
                InputStream in = new InputStream(\"f\");
                String line = in.readLine();
             } }",
        );
        let pts = pts_of_main_var(&p, &r, "line");
        assert_eq!(pts.len(), 1);
        let o = pts.iter().next().unwrap();
        assert!(matches!(r.objects[o].site, AllocSite::NativeRet(_)));
        assert_eq!(r.objects[o].kind, ObjKind::Class(p.string_class));
    }

    #[test]
    fn call_graph_has_clones_for_containers() {
        let (p, r) = analyze(
            "class Main { static void main() {
                Vector v1 = new Vector();
                Vector v2 = new Vector();
                v1.add(new Main());
                v2.add(new Main());
             } }",
        );
        let vector = p.class_named("Vector").unwrap();
        let add = p.resolve_method(vector, "add").unwrap();
        let clones = r
            .callgraph
            .iter_nodes()
            .filter(|(_, m, _)| *m == add)
            .count();
        assert_eq!(clones, 2, "Vector.add must be cloned per receiver object");
        assert!(r.callgraph.node_count() > r.callgraph.method_count());
    }

    #[test]
    fn unreachable_methods_not_analyzed() {
        let (p, r) = analyze(
            "class Dead { void never() { Vector v = new Vector(); } }
             class Main { static void main() { print(1); } }",
        );
        let dead = p.class_named("Dead").unwrap();
        let never = p.resolve_method(dead, "never").unwrap();
        assert!(r.callgraph.iter_nodes().all(|(_, m, _)| m != never));
    }

    #[test]
    fn recursion_terminates() {
        let (_, r) = analyze(
            "class Node { Node next; }
             class Main {
                static Node build(int n) {
                    if (n == 0) { return null; }
                    Node h = new Node();
                    h.next = Main.build(n - 1);
                    return h;
                }
                static void main() {
                    Node list = Main.build(10);
                    Node second = list.next;
                }
             }",
        );
        assert!(r.callgraph.node_count() >= 2);
    }

    #[test]
    fn linked_list_through_hashtable() {
        let (p, r) = analyze(
            "class A {} class B {}
             class Main { static void main() {
                Hashtable h1 = new Hashtable();
                Hashtable h2 = new Hashtable();
                String k = \"key\";
                h1.put(k, new A());
                h2.put(k, new B());
                Object oa = h1.get(k);
             } }",
        );
        let oa = pts_of_main_var(&p, &r, "oa");
        let a_class = p.class_named("A").unwrap();
        let b_class = p.class_named("B").unwrap();
        assert!(oa
            .iter()
            .any(|o| r.objects[o].kind == ObjKind::Class(a_class)));
        assert!(
            !oa.iter()
                .any(|o| r.objects[o].kind == ObjKind::Class(b_class)),
            "object-sensitive Hashtables must not mix values"
        );
    }
}
