//! The MJ interpreter: a direct IR executor that records a dynamic
//! dependence trace.
//!
//! Every executed instruction becomes an [`Event`] carrying dynamic
//! dependence edges to the events that produced the values it used, with
//! the same producer/base-pointer classification the static slicer uses —
//! so a *dynamic thin slice* (paper §1: "dynamic thin slices can be defined
//! in a straightforward manner using dynamic data dependences") falls out
//! of backward reachability over the trace.

use crate::natives::{self, NativeWorld};
use std::collections::HashMap;
use thinslice_ir::{
    BlockId, Body, CallKind, ClassId, Const, FieldId, Instr, InstrKind, IrBinOp, IrUnOp, Loc,
    MethodId, Operand, Program, StmtRef, Type, Var,
};
use thinslice_util::{new_index, Budget, ExhaustReason, IdxVec, Meter, RunCtx, Telemetry};

new_index!(
    /// Identifies a heap object during execution.
    pub struct HeapRef
);

new_index!(
    /// Identifies one executed instruction instance in the trace.
    pub struct EventId
);

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// The null reference.
    Null,
    /// A reference to a heap object.
    Ref(HeapRef),
}

impl Value {
    fn truthy(self) -> bool {
        matches!(self, Value::Bool(true))
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub enum HeapObject {
    /// A class instance.
    Instance {
        /// Runtime class.
        class: ClassId,
        /// Field values (defaults until written).
        fields: HashMap<FieldId, Value>,
    },
    /// An array.
    Array {
        /// Element type (for default values).
        elem: Type,
        /// Element values.
        data: Vec<Value>,
    },
    /// A string (payload lives Rust-side).
    Str {
        /// The text.
        text: String,
    },
}

/// One executed instruction instance.
#[derive(Debug, Clone)]
pub struct Event {
    /// The statement this instance executed.
    pub stmt: StmtRef,
    /// Dynamic dependences: producing events, with `true` marking
    /// base-pointer/array-index uses (excluded from thin slices).
    pub deps: Vec<(EventId, bool)>,
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `main` returned normally.
    Finished,
    /// An exception was thrown (class name of the thrown object).
    Threw(String),
    /// A runtime error (null dereference, index out of bounds, failed
    /// cast, division by zero), with a description.
    RuntimeError(String),
    /// The step budget was exhausted (e.g. an infinite loop).
    StepLimit,
    /// Some other resource limit fired first (deadline, cancellation or
    /// memory watermark from the attached [`Budget`]).
    BudgetExhausted(ExhaustReason),
}

/// Interpreter inputs and limits.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Lines served by `InputStream.readLine` (then eof).
    pub lines: Vec<String>,
    /// Integers served by `InputStream.readInt` (then zeros + eof).
    pub ints: Vec<i64>,
    /// Maximum executed instructions.
    pub max_steps: usize,
    /// Additional resource limits (deadline, cancellation, memory). The
    /// effective step quota is the *minimum* of `max_steps` and the
    /// budget's own step limit, so the historical default cap still holds.
    pub budget: Budget,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            lines: Vec::new(),
            ints: Vec::new(),
            max_steps: 200_000,
            budget: Budget::unlimited(),
        }
    }
}

/// The recorded run: trace, output and outcome.
#[derive(Debug)]
pub struct Execution {
    /// Every executed instruction instance, in order.
    pub events: IdxVec<EventId, Event>,
    /// The values printed, rendered as text.
    pub prints: Vec<(EventId, String)>,
    /// How the run ended.
    pub outcome: Outcome,
}

impl Execution {
    /// The last executed instance of `stmt`, if any.
    pub fn last_event_of(&self, stmt: StmtRef) -> Option<EventId> {
        (0..self.events.len())
            .rev()
            .map(EventId::new)
            .find(|&id| self.events[id].stmt == stmt)
    }

    /// Number of executed instructions.
    pub fn step_count(&self) -> usize {
        self.events.len()
    }
}

/// Runs `program` from `main` under `config`.
pub fn run(program: &Program, config: &ExecConfig) -> Execution {
    let mut m = Machine {
        program,
        heap: IdxVec::new(),
        statics: HashMap::new(),
        static_writers: HashMap::new(),
        field_writers: HashMap::new(),
        array_writers: HashMap::new(),
        events: IdxVec::new(),
        prints: Vec::new(),
        meter: config
            .budget
            .clone()
            .cap_steps(config.max_steps as u64)
            .meter(),
        world: NativeWorld::new(config.lines.clone(), config.ints.clone()),
    };
    let outcome = match m.call(program.main_method, Vec::new(), Vec::new()) {
        Ok(Flow::Normal(_)) => Outcome::Finished,
        Ok(Flow::Thrown(v, _)) => {
            let name = match v {
                Value::Ref(r) => match &m.heap[r] {
                    HeapObject::Instance { class, .. } => program.classes[*class].name.clone(),
                    _ => "<non-instance>".to_string(),
                },
                _ => "<non-reference>".to_string(),
            };
            Outcome::Threw(name)
        }
        Err(Stop::RuntimeError(msg)) => Outcome::RuntimeError(msg),
        Err(Stop::Exhausted(ExhaustReason::StepQuota)) => Outcome::StepLimit,
        Err(Stop::Exhausted(reason)) => Outcome::BudgetExhausted(reason),
    };
    Execution {
        events: m.events,
        prints: m.prints,
        outcome,
    }
}

/// [`run`] under a [`RunCtx`]: records an `interp.run` span counting
/// executed instructions and printed values, a per-outcome counter, and an
/// `interp.budget_exhausted` event when a resource limit stopped the run.
/// When the context carries a budget and `config.budget` is unlimited, the
/// context's budget governs the run (the per-run `config.budget` wins
/// otherwise). With a disabled context this is exactly [`run`].
pub fn run_ctx(program: &Program, config: &ExecConfig, ctx: &RunCtx) -> Execution {
    let tel = ctx.telemetry();
    let effective: std::borrow::Cow<'_, ExecConfig> =
        if config.budget.is_unlimited() && ctx.is_governed() {
            std::borrow::Cow::Owned(ExecConfig {
                budget: ctx.budget().clone(),
                ..config.clone()
            })
        } else {
            std::borrow::Cow::Borrowed(config)
        };
    let mut span = tel.span("interp.run");
    let exec = run(program, &effective);
    record_run(tel, &mut span, &exec);
    exec
}

fn record_run(tel: &Telemetry, span: &mut thinslice_util::telemetry::Span<'_>, exec: &Execution) {
    span.add("interp.steps", exec.step_count() as u64);
    span.add("interp.prints", exec.prints.len() as u64);
    let outcome = match &exec.outcome {
        Outcome::Finished => "interp.outcome.finished",
        Outcome::Threw(_) => "interp.outcome.threw",
        Outcome::RuntimeError(_) => "interp.outcome.runtime_error",
        Outcome::StepLimit => "interp.outcome.step_limit",
        Outcome::BudgetExhausted(_) => "interp.outcome.budget_exhausted",
    };
    tel.count(outcome, 1);
    if let Outcome::BudgetExhausted(reason) = &exec.outcome {
        tel.event(
            "interp.budget_exhausted",
            &[
                ("stage", "interp".to_string()),
                ("reason", reason.to_string()),
            ],
        );
    }
}

/// How a method invocation ended.
enum Flow {
    /// Returned (value and its producing event, if non-void).
    Normal(Option<(Value, Option<EventId>)>),
    /// Threw: the value and the throw event.
    Thrown(Value, EventId),
}

/// Unrecoverable interpreter stops.
pub(crate) enum Stop {
    RuntimeError(String),
    Exhausted(ExhaustReason),
}

/// One activation record.
struct Frame {
    method: MethodId,
    locals: IdxVec<Var, Value>,
    writers: IdxVec<Var, Option<EventId>>,
}

pub(crate) struct Machine<'p> {
    program: &'p Program,
    heap: IdxVec<HeapRef, HeapObject>,
    statics: HashMap<FieldId, Value>,
    static_writers: HashMap<FieldId, EventId>,
    field_writers: HashMap<(HeapRef, FieldId), EventId>,
    array_writers: HashMap<(HeapRef, usize), EventId>,
    events: IdxVec<EventId, Event>,
    prints: Vec<(EventId, String)>,
    meter: Meter,
    world: NativeWorld,
}

impl<'p> Machine<'p> {
    fn default_value(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            _ => Value::Null,
        }
    }

    fn alloc(&mut self, obj: HeapObject) -> HeapRef {
        self.heap.push(obj)
    }

    /// Allocates a string object.
    pub(crate) fn alloc_str(&mut self, text: String) -> Value {
        Value::Ref(self.alloc(HeapObject::Str { text }))
    }

    fn record(&mut self, stmt: StmtRef, deps: Vec<(EventId, bool)>) -> Result<EventId, Stop> {
        if !self.meter.tick_tracked(self.heap.len() + self.events.len()) {
            let reason = self.meter.reason().unwrap_or(ExhaustReason::StepQuota);
            return Err(Stop::Exhausted(reason));
        }
        Ok(self.events.push(Event { stmt, deps }))
    }

    fn operand(&self, frame: &Frame, o: &Operand) -> (Value, Option<EventId>) {
        match o {
            Operand::Var(v) => (frame.locals[*v], frame.writers[*v]),
            Operand::Const(Const::Int(n)) => (Value::Int(*n), None),
            Operand::Const(Const::Bool(b)) => (Value::Bool(*b), None),
            Operand::Const(Const::Null) => (Value::Null, None),
        }
    }

    fn as_ref(&self, v: Value, what: &str) -> Result<HeapRef, Stop> {
        match v {
            Value::Ref(r) => Ok(r),
            Value::Null => Err(Stop::RuntimeError(format!("null dereference at {what}"))),
            other => Err(Stop::RuntimeError(format!(
                "non-reference {other:?} at {what}"
            ))),
        }
    }

    /// Renders a value for `print` / string concatenation.
    fn render(&self, v: Value) -> String {
        match v {
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::Ref(r) => match &self.heap[r] {
                HeapObject::Str { text } => text.clone(),
                HeapObject::Instance { class, .. } => {
                    format!("{}@{}", self.program.classes[*class].name, r.raw())
                }
                HeapObject::Array { data, .. } => format!("array[{}]", data.len()),
            },
        }
    }

    fn runtime_class(&self, v: Value) -> Option<ClassId> {
        match v {
            Value::Ref(r) => match &self.heap[r] {
                HeapObject::Instance { class, .. } => Some(*class),
                HeapObject::Str { .. } => Some(self.program.string_class),
                HeapObject::Array { .. } => Some(self.program.object_class),
            },
            _ => None,
        }
    }

    fn value_compatible(&self, v: Value, target: &Type) -> bool {
        match v {
            Value::Null => true,
            Value::Ref(r) => match (&self.heap[r], target) {
                (HeapObject::Instance { class, .. }, Type::Class(c)) => {
                    self.program.is_subclass(*class, *c)
                }
                (HeapObject::Str { .. }, Type::Class(c)) => {
                    self.program.is_subclass(self.program.string_class, *c)
                }
                (HeapObject::Array { elem, .. }, Type::Array(t)) => {
                    elem == &**t
                        || self
                            .program
                            .is_assignable(&Type::Array(Box::new(elem.clone())), target)
                }
                (HeapObject::Array { .. }, Type::Class(c)) => *c == self.program.object_class,
                _ => false,
            },
            _ => false,
        }
    }

    /// Invokes `method` with evaluated arguments and their producer events.
    fn call(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        writers: Vec<Option<EventId>>,
    ) -> Result<Flow, Stop> {
        let body = self.program.methods[method]
            .body
            .as_ref()
            .unwrap_or_else(|| panic!("call to native {} must be intercepted", method));
        let mut frame = Frame {
            method,
            locals: IdxVec::from_elem(Value::Null, body.vars.len()),
            writers: IdxVec::from_elem(None, body.vars.len()),
        };
        for (v, info) in body.vars.iter_enumerated() {
            frame.locals[v] = Self::default_value(&info.ty);
        }
        for (i, p) in body.params.iter().enumerate() {
            if let Some(a) = args.get(i) {
                frame.locals[*p] = *a;
                frame.writers[*p] = writers.get(i).copied().flatten();
            }
        }
        self.run_body(body, &mut frame)
    }

    fn run_body(&mut self, body: &Body, frame: &mut Frame) -> Result<Flow, Stop> {
        let method = frame.method;
        let mut block = body.entry;
        let mut pred: Option<BlockId> = None;
        loop {
            // φ nodes first, evaluated simultaneously against the old state.
            let mut phi_updates: Vec<(Var, Value, Option<EventId>, EventId)> = Vec::new();
            let mut index = 0u32;
            for instr in &body.blocks[block].instrs {
                if let InstrKind::Phi { dst, args } = &instr.kind {
                    let from = pred.expect("phi in entry block");
                    // A block may appear several times as a predecessor; all
                    // its operands carry the same renamed value, so the
                    // first match is correct.
                    let (_, operand) = args
                        .iter()
                        .find(|(b, _)| *b == from)
                        .expect("phi has an operand for the taken predecessor");
                    let (v, w) = self.operand(frame, operand);
                    let sr = StmtRef {
                        method,
                        loc: Loc { block, index },
                    };
                    let deps = w.map(|e| (e, false)).into_iter().collect();
                    let ev = self.record(sr, deps)?;
                    phi_updates.push((*dst, v, w, ev));
                } else {
                    break;
                }
                index += 1;
            }
            for (dst, v, _w, ev) in phi_updates {
                frame.locals[dst] = v;
                frame.writers[dst] = Some(ev);
            }

            // Straight-line portion.
            let first_non_phi = index as usize;
            let instrs: &[Instr] = &body.blocks[block].instrs;
            let mut next_block: Option<BlockId> = None;
            for (i, instr) in instrs.iter().enumerate().skip(first_non_phi) {
                let sr = StmtRef {
                    method,
                    loc: Loc {
                        block,
                        index: i as u32,
                    },
                };
                match self.step(frame, sr, instr)? {
                    StepResult::Continue => {}
                    StepResult::Jump(b) => {
                        next_block = Some(b);
                        break;
                    }
                    StepResult::Return(v) => return Ok(Flow::Normal(v)),
                    StepResult::Thrown(v, e) => return Ok(Flow::Thrown(v, e)),
                }
            }
            match next_block {
                Some(b) => {
                    pred = Some(block);
                    block = b;
                }
                None => return Ok(Flow::Normal(None)),
            }
        }
    }

    fn step(&mut self, frame: &mut Frame, sr: StmtRef, instr: &Instr) -> Result<StepResult, Stop> {
        use InstrKind::*;
        let kind = &instr.kind;
        match kind {
            Const { dst, value } => {
                let (v, _) = self.operand(frame, &Operand::Const(*value));
                let ev = self.record(sr, Vec::new())?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            StrConst { dst, value } => {
                let ev = self.record(sr, Vec::new())?;
                let v = self.alloc_str(value.clone());
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            Move { dst, src } => {
                let (v, w) = self.operand(frame, src);
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            Unary { dst, op, src } => {
                let (v, w) = self.operand(frame, src);
                let out = match (op, v) {
                    (IrUnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                    (IrUnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    _ => return Err(Stop::RuntimeError("unary type error".into())),
                };
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                frame.locals[*dst] = out;
                frame.writers[*dst] = Some(ev);
            }
            Binary { dst, op, lhs, rhs } => {
                let (a, wa) = self.operand(frame, lhs);
                let (b, wb) = self.operand(frame, rhs);
                let out = self.binop(*op, a, b)?;
                let deps = [wa, wb].into_iter().flatten().map(|e| (e, false)).collect();
                let ev = self.record(sr, deps)?;
                frame.locals[*dst] = out;
                frame.writers[*dst] = Some(ev);
            }
            StrConcat { dst, lhs, rhs } => {
                let (a, wa) = self.operand(frame, lhs);
                let (b, wb) = self.operand(frame, rhs);
                let text = format!("{}{}", self.render(a), self.render(b));
                let deps = [wa, wb].into_iter().flatten().map(|e| (e, false)).collect();
                let ev = self.record(sr, deps)?;
                let v = self.alloc_str(text);
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            New { dst, class } => {
                let ev = self.record(sr, Vec::new())?;
                let r = self.alloc(HeapObject::Instance {
                    class: *class,
                    fields: HashMap::new(),
                });
                frame.locals[*dst] = Value::Ref(r);
                frame.writers[*dst] = Some(ev);
            }
            NewArray { dst, elem, len } => {
                let (l, wl) = self.operand(frame, len);
                let Value::Int(n) = l else {
                    return Err(Stop::RuntimeError("array length not an int".into()));
                };
                if n < 0 {
                    return Err(Stop::RuntimeError("negative array length".into()));
                }
                let ev = self.record(sr, wl.map(|e| (e, false)).into_iter().collect())?;
                let r = self.alloc(HeapObject::Array {
                    elem: elem.clone(),
                    data: vec![Self::default_value(elem); n as usize],
                });
                frame.locals[*dst] = Value::Ref(r);
                frame.writers[*dst] = Some(ev);
            }
            Load { dst, base, field } => {
                let (b, wb) = self.operand(frame, &Operand::Var(*base));
                let r = self.as_ref(b, "field read")?;
                let fty = self.program.fields[*field].ty.clone();
                let v = match &self.heap[r] {
                    HeapObject::Instance { fields, .. } => fields
                        .get(field)
                        .copied()
                        .unwrap_or(Self::default_value(&fty)),
                    _ => return Err(Stop::RuntimeError("field read on non-instance".into())),
                };
                let mut deps: Vec<(EventId, bool)> = wb.map(|e| (e, true)).into_iter().collect();
                if let Some(&writer) = self.field_writers.get(&(r, *field)) {
                    deps.push((writer, false));
                }
                let ev = self.record(sr, deps)?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            Store { base, field, value } => {
                let (b, wb) = self.operand(frame, &Operand::Var(*base));
                let (v, wv) = self.operand(frame, value);
                let r = self.as_ref(b, "field write")?;
                let mut deps: Vec<(EventId, bool)> = wb.map(|e| (e, true)).into_iter().collect();
                deps.extend(wv.map(|e| (e, false)));
                let ev = self.record(sr, deps)?;
                match &mut self.heap[r] {
                    HeapObject::Instance { fields, .. } => {
                        fields.insert(*field, v);
                    }
                    _ => return Err(Stop::RuntimeError("field write on non-instance".into())),
                }
                self.field_writers.insert((r, *field), ev);
            }
            StaticLoad { dst, field } => {
                let fty = self.program.fields[*field].ty.clone();
                let v = self
                    .statics
                    .get(field)
                    .copied()
                    .unwrap_or(Self::default_value(&fty));
                let deps = self
                    .static_writers
                    .get(field)
                    .map(|&e| (e, false))
                    .into_iter()
                    .collect();
                let ev = self.record(sr, deps)?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            StaticStore { field, value } => {
                let (v, wv) = self.operand(frame, value);
                let ev = self.record(sr, wv.map(|e| (e, false)).into_iter().collect())?;
                self.statics.insert(*field, v);
                self.static_writers.insert(*field, ev);
            }
            ArrayLoad { dst, base, index } => {
                let (b, wb) = self.operand(frame, &Operand::Var(*base));
                let (ix, wi) = self.operand(frame, index);
                let r = self.as_ref(b, "array read")?;
                let Value::Int(i) = ix else {
                    return Err(Stop::RuntimeError("array index not an int".into()));
                };
                let v = match &self.heap[r] {
                    HeapObject::Array { data, .. } => *data
                        .get(i as usize)
                        .ok_or_else(|| Stop::RuntimeError(format!("index {i} out of bounds")))?,
                    _ => return Err(Stop::RuntimeError("array read on non-array".into())),
                };
                let mut deps: Vec<(EventId, bool)> = wb.map(|e| (e, true)).into_iter().collect();
                deps.extend(wi.map(|e| (e, true)));
                if let Some(&writer) = self.array_writers.get(&(r, i as usize)) {
                    deps.push((writer, false));
                }
                let ev = self.record(sr, deps)?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            ArrayStore { base, index, value } => {
                let (b, wb) = self.operand(frame, &Operand::Var(*base));
                let (ix, wi) = self.operand(frame, index);
                let (v, wv) = self.operand(frame, value);
                let r = self.as_ref(b, "array write")?;
                let Value::Int(i) = ix else {
                    return Err(Stop::RuntimeError("array index not an int".into()));
                };
                let mut deps: Vec<(EventId, bool)> = wb.map(|e| (e, true)).into_iter().collect();
                deps.extend(wi.map(|e| (e, true)));
                deps.extend(wv.map(|e| (e, false)));
                let ev = self.record(sr, deps)?;
                match &mut self.heap[r] {
                    HeapObject::Array { data, .. } => {
                        let slot = data.get_mut(i as usize).ok_or_else(|| {
                            Stop::RuntimeError(format!("index {i} out of bounds"))
                        })?;
                        *slot = v;
                    }
                    _ => return Err(Stop::RuntimeError("array write on non-array".into())),
                }
                self.array_writers.insert((r, i as usize), ev);
            }
            ArrayLen { dst, base } => {
                let (b, wb) = self.operand(frame, &Operand::Var(*base));
                let r = self.as_ref(b, "array length")?;
                let v = match &self.heap[r] {
                    HeapObject::Array { data, .. } => Value::Int(data.len() as i64),
                    _ => return Err(Stop::RuntimeError("length of non-array".into())),
                };
                let ev = self.record(sr, wb.map(|e| (e, true)).into_iter().collect())?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            Cast { dst, ty, src } => {
                let (v, w) = self.operand(frame, src);
                if !self.value_compatible(v, ty) {
                    return Err(Stop::RuntimeError(format!(
                        "class cast failure to {}",
                        ty.display(self.program)
                    )));
                }
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                frame.locals[*dst] = v;
                frame.writers[*dst] = Some(ev);
            }
            InstanceOf { dst, src, class } => {
                let (v, w) = self.operand(frame, src);
                let out = Value::Bool(
                    self.runtime_class(v)
                        .is_some_and(|c| self.program.is_subclass(c, *class)),
                );
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                frame.locals[*dst] = out;
                frame.writers[*dst] = Some(ev);
            }
            Call {
                dst,
                kind,
                callee,
                args,
            } => {
                return self.exec_call(frame, sr, *dst, *kind, *callee, args);
            }
            Print { value } => {
                let (v, w) = self.operand(frame, value);
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                let text = self.render(v);
                self.prints.push((ev, text));
            }
            Phi { .. } => unreachable!("phis handled at block entry"),
            Goto { target } => {
                self.record(sr, Vec::new())?;
                return Ok(StepResult::Jump(*target));
            }
            If {
                cond,
                then_bb,
                else_bb,
            } => {
                let (v, w) = self.operand(frame, cond);
                self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                return Ok(StepResult::Jump(if v.truthy() {
                    *then_bb
                } else {
                    *else_bb
                }));
            }
            Return { value } => {
                let out = match value {
                    Some(o) => {
                        let (v, w) = self.operand(frame, o);
                        let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                        Some((v, Some(ev)))
                    }
                    None => {
                        self.record(sr, Vec::new())?;
                        None
                    }
                };
                return Ok(StepResult::Return(out));
            }
            Throw { value } => {
                let (v, w) = self.operand(frame, value);
                let ev = self.record(sr, w.map(|e| (e, false)).into_iter().collect())?;
                return Ok(StepResult::Thrown(v, ev));
            }
        }
        Ok(StepResult::Continue)
    }

    fn binop(&self, op: IrBinOp, a: Value, b: Value) -> Result<Value, Stop> {
        use IrBinOp::*;
        Ok(match (op, a, b) {
            (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
            (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(y)),
            (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(y)),
            (Div, Value::Int(x), Value::Int(y)) => {
                if y == 0 {
                    return Err(Stop::RuntimeError("division by zero".into()));
                }
                Value::Int(x.wrapping_div(y))
            }
            (Rem, Value::Int(x), Value::Int(y)) => {
                if y == 0 {
                    return Err(Stop::RuntimeError("modulo by zero".into()));
                }
                Value::Int(x.wrapping_rem(y))
            }
            (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
            (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
            (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
            (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
            (Eq, x, y) => Value::Bool(x == y),
            (Ne, x, y) => Value::Bool(x != y),
            _ => return Err(Stop::RuntimeError("binary type error".into())),
        })
    }

    fn exec_call(
        &mut self,
        frame: &mut Frame,
        sr: StmtRef,
        dst: Option<Var>,
        kind: CallKind,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<StepResult, Stop> {
        let mut values = Vec::with_capacity(args.len());
        let mut writers = Vec::with_capacity(args.len());
        for a in args {
            let (v, w) = self.operand(frame, a);
            values.push(v);
            writers.push(w);
        }

        // Resolve the runtime target.
        let target = match kind {
            CallKind::Static | CallKind::Special => callee,
            CallKind::Virtual => {
                let recv = values
                    .first()
                    .copied()
                    .ok_or_else(|| Stop::RuntimeError("virtual call without receiver".into()))?;
                let class = match recv {
                    Value::Null => {
                        return Err(Stop::RuntimeError("null receiver".into()));
                    }
                    v => self
                        .runtime_class(v)
                        .ok_or_else(|| Stop::RuntimeError("primitive receiver".into()))?,
                };
                self.program
                    .resolve_method(class, &self.program.methods[callee].name)
                    .ok_or_else(|| Stop::RuntimeError("unresolved virtual call".into()))?
            }
        };

        if self.program.methods[target].is_native {
            // Native model: the result derives from *all* arguments
            // (matching the static native rule).
            let deps: Vec<(EventId, bool)> =
                writers.iter().flatten().map(|&e| (e, false)).collect();
            let call_event = self.record(sr, deps)?;
            let result = natives::call_native(self, target, &values)?;
            if let (Some(d), Some(v)) = (dst, result) {
                frame.locals[d] = v;
                frame.writers[d] = Some(call_event);
            }
            return Ok(StepResult::Continue);
        }

        // One binding event per argument — the dynamic mirror of the
        // static actual-parameter nodes. Each parameter's value then flows
        // through *its own* argument slot (the call line still appears in
        // slices, like `names.add(firstName)` in the paper's Figure 1),
        // without conflating the receiver's history with the arguments'.
        let mut arg_writers: Vec<Option<EventId>> = Vec::with_capacity(values.len());
        for w in &writers {
            let deps: Vec<(EventId, bool)> = w.map(|e| (e, false)).into_iter().collect();
            arg_writers.push(Some(self.record(sr, deps)?));
        }

        match self.call(target, values, arg_writers)? {
            Flow::Normal(ret) => {
                if let (Some(d), Some((v, w))) = (dst, ret) {
                    frame.locals[d] = v;
                    // The result flows through the call statement: a result
                    // event depending on the callee's return event.
                    let deps: Vec<(EventId, bool)> = w.map(|e| (e, false)).into_iter().collect();
                    let result_event = self.record(sr, deps)?;
                    frame.writers[d] = Some(result_event);
                }
                Ok(StepResult::Continue)
            }
            Flow::Thrown(v, e) => Ok(StepResult::Thrown(v, e)),
        }
    }

    /// Gives natives access to the heap.
    pub(crate) fn heap_object(&self, r: HeapRef) -> &HeapObject {
        &self.heap[r]
    }

    pub(crate) fn program(&self) -> &'p Program {
        self.program
    }

    pub(crate) fn world_mut(&mut self) -> &mut NativeWorld {
        &mut self.world
    }
}

enum StepResult {
    Continue,
    Jump(BlockId),
    Return(Option<(Value, Option<EventId>)>),
    Thrown(Value, EventId),
}
