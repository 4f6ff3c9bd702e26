//! The compilation pipeline: parse → collect class tables → lower bodies →
//! SSA.

use crate::ast::{AstProgram, ClassDecl, TypeExpr, CTOR_NAME};
use crate::error::{CompileError, Phase};
use crate::ir::*;
use crate::lower::lower_body;
use crate::span::{FileId, SourceFile, Span};
use crate::ssa;
use crate::stdlib::STDLIB_SOURCE;
use thinslice_util::FxHashMap;
use thinslice_util::IdxVec;
use thinslice_util::RunCtx;
use thinslice_util::Telemetry;

/// Compiles MJ sources into a [`Program`], prepending the built-in standard
/// library.
///
/// `sources` is a list of `(file name, source text)` pairs.
///
/// # Errors
///
/// Returns the first [`CompileError`] from any phase (lexing, parsing, class
/// resolution, type checking).
///
/// # Examples
///
/// ```
/// let program = thinslice_ir::compile(&[(
///     "hello.mj",
///     "class Main { static void main() { print(\"hello\"); } }",
/// )])?;
/// assert!(program.methods[program.main_method].is_static);
/// # Ok::<(), thinslice_ir::error::CompileError>(())
/// ```
pub fn compile(sources: &[(&str, &str)]) -> Result<Program, CompileError> {
    compile_ctx(sources, &RunCtx::disabled())
}

/// Like [`compile`], but under a run context: records frontend telemetry
/// (`ir.parse`, `ir.resolve`, `ir.lower` and `ir.ssa` spans with size
/// counters) through `ctx.telemetry()`. With a disabled context this is
/// exactly [`compile`].
pub fn compile_ctx(sources: &[(&str, &str)], ctx: &RunCtx) -> Result<Program, CompileError> {
    let mut all: Vec<(&str, &str)> = vec![("<stdlib>", STDLIB_SOURCE)];
    all.extend_from_slice(sources);
    compile_raw_telemetry(&all, ctx.telemetry())
}

/// Like [`compile_ctx`], but also returns the sources'
/// [`crate::delta::ProgramFingerprints`], computed from the same parse — so an
/// incremental caller can later diff this version against an edited one
/// ([`ProgramDelta::between_fingerprints`][crate::delta::ProgramDelta::between_fingerprints])
/// without ever re-reading this version's text.
///
/// The fingerprints cover the prepended standard library too; that is
/// harmless for diffing because every compiled version carries the same
/// stdlib, which therefore cancels out of any delta.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_fingerprinted(
    sources: &[(&str, &str)],
    ctx: &RunCtx,
) -> Result<(Program, crate::delta::ProgramFingerprints), CompileError> {
    let mut all: Vec<(&str, &str)> = vec![("<stdlib>", STDLIB_SOURCE)];
    all.extend_from_slice(sources);
    let tel = ctx.telemetry();
    let (files, asts) = parse_sources(&all, tel)?;
    let fps = crate::delta::ProgramFingerprints::of_asts(asts.iter().map(|(_, ast)| ast));
    Ok((collect(files, asts, tel)?, fps))
}

/// Compiles MJ sources *without* the standard library. The sources must
/// define `Object` and `String` themselves. Mostly useful in tests.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_raw(sources: &[(&str, &str)]) -> Result<Program, CompileError> {
    compile_raw_telemetry(sources, &Telemetry::disabled())
}

fn compile_raw_telemetry(
    sources: &[(&str, &str)],
    tel: &Telemetry,
) -> Result<Program, CompileError> {
    let (files, asts) = parse_sources(sources, tel)?;
    collect(files, asts, tel)
}

type ParsedSources = (IdxVec<FileId, SourceFile>, Vec<(FileId, AstProgram)>);

fn parse_sources(sources: &[(&str, &str)], tel: &Telemetry) -> Result<ParsedSources, CompileError> {
    let mut files: IdxVec<FileId, SourceFile> = IdxVec::new();
    let mut asts: Vec<(FileId, AstProgram)> = Vec::new();
    let mut parse_span = tel.span("ir.parse");
    for (name, text) in sources {
        let file = files.push(SourceFile {
            name: name.to_string(),
            text: text.to_string(),
        });
        let ast = crate::parser::parse(file, text)?;
        asts.push((file, ast));
    }
    parse_span.add("ir.files", asts.len() as u64);
    Ok((files, asts))
}

fn collect(
    files: IdxVec<FileId, SourceFile>,
    asts: Vec<(FileId, AstProgram)>,
    tel: &Telemetry,
) -> Result<Program, CompileError> {
    let decls: Vec<ClassDecl> = asts.into_iter().flat_map(|(_, ast)| ast.classes).collect();
    Collector::new(files).run(decls, tel)
}

struct Collector {
    files: IdxVec<FileId, SourceFile>,
    classes: IdxVec<ClassId, Class>,
    fields: IdxVec<FieldId, Field>,
    methods: IdxVec<MethodId, Method>,
    class_by_name: FxHashMap<String, ClassId>,
}

impl Collector {
    fn new(files: IdxVec<FileId, SourceFile>) -> Self {
        Self {
            files,
            classes: IdxVec::new(),
            fields: IdxVec::new(),
            methods: IdxVec::new(),
            class_by_name: FxHashMap::default(),
        }
    }

    fn err(&self, message: impl Into<String>, span: Span) -> CompileError {
        CompileError::new(Phase::Resolve, message, span)
    }

    fn resolve_type(&self, ty: &TypeExpr, span: Span) -> Result<Type, CompileError> {
        Ok(match ty {
            TypeExpr::Int => Type::Int,
            TypeExpr::Boolean => Type::Bool,
            TypeExpr::Void => Type::Void,
            TypeExpr::Named(n) => Type::Class(
                *self
                    .class_by_name
                    .get(n)
                    .ok_or_else(|| self.err(format!("unknown class `{n}`"), span))?,
            ),
            TypeExpr::Array(e) => Type::Array(Box::new(self.resolve_type(e, span)?)),
        })
    }

    fn run(mut self, decls: Vec<ClassDecl>, tel: &Telemetry) -> Result<Program, CompileError> {
        let mut resolve_span = tel.span("ir.resolve");
        resolve_span.add("ir.classes", decls.len() as u64);
        // Pass 1: declare class names.
        for d in &decls {
            if self.class_by_name.contains_key(&d.name) {
                return Err(self.err(format!("duplicate class `{}`", d.name), d.span));
            }
            let id = self.classes.push(Class {
                name: d.name.clone(),
                superclass: None,
                fields: Vec::new(),
                methods: Vec::new(),
                span: d.span,
            });
            self.class_by_name.insert(d.name.clone(), id);
        }

        let object_class = *self
            .class_by_name
            .get("Object")
            .ok_or_else(|| self.err("no `Object` class defined", Span::synthetic()))?;
        let string_class = *self
            .class_by_name
            .get("String")
            .ok_or_else(|| self.err("no `String` class defined", Span::synthetic()))?;

        // Pass 2: superclasses.
        for d in &decls {
            let id = self.class_by_name[&d.name];
            let superclass = match &d.superclass {
                Some(s) => Some(
                    *self
                        .class_by_name
                        .get(s)
                        .ok_or_else(|| self.err(format!("unknown superclass `{s}`"), d.span))?,
                ),
                None if id == object_class => None,
                None => Some(object_class),
            };
            if superclass == Some(id) {
                return Err(self.err(format!("class `{}` extends itself", d.name), d.span));
            }
            self.classes[id].superclass = superclass;
        }
        self.check_cycles(&decls)?;

        // Pass 3: fields and method signatures.
        for d in &decls {
            let id = self.class_by_name[&d.name];
            for f in &d.fields {
                if d.fields.iter().filter(|g| g.name == f.name).count() > 1 {
                    return Err(self.err(
                        format!("duplicate field `{}` in `{}`", f.name, d.name),
                        f.span,
                    ));
                }
                let ty = self.resolve_type(&f.ty, f.span)?;
                let fid = self.fields.push(Field {
                    class: id,
                    name: f.name.clone(),
                    ty,
                    is_static: f.is_static,
                    span: f.span,
                });
                self.classes[id].fields.push(fid);
            }
            for m in &d.methods {
                if d.methods.iter().filter(|g| g.name == m.name).count() > 1 {
                    return Err(self.err(
                        format!(
                            "duplicate method `{}` in `{}` (MJ has no overloading)",
                            m.name, d.name
                        ),
                        m.span,
                    ));
                }
                let ret_ty = self.resolve_type(&m.ret, m.span)?;
                let mut param_tys = Vec::new();
                for (pt, pname) in &m.params {
                    if m.params.iter().filter(|(_, n)| n == pname).count() > 1 {
                        return Err(self.err(format!("duplicate parameter `{pname}`"), m.span));
                    }
                    param_tys.push(self.resolve_type(pt, m.span)?);
                }
                let mid = self.methods.push(Method {
                    class: id,
                    name: m.name.clone(),
                    param_tys,
                    ret_ty,
                    is_static: m.is_static,
                    is_native: m.is_native,
                    body: None,
                    span: m.span,
                });
                self.classes[id].methods.push(mid);
            }
            // Synthesize a default constructor when none is declared.
            if !d.methods.iter().any(|m| m.name == CTOR_NAME) {
                let mid = self.methods.push(Method {
                    class: id,
                    name: CTOR_NAME.to_string(),
                    param_tys: Vec::new(),
                    ret_ty: Type::Void,
                    is_static: false,
                    is_native: false,
                    body: None,
                    span: d.span,
                });
                self.classes[id].methods.push(mid);
            }
        }

        let mut program = Program {
            files: self.files,
            classes: self.classes,
            fields: self.fields,
            methods: self.methods,
            class_by_name: self.class_by_name,
            object_class,
            string_class,
            main_method: MethodId::new(0), // fixed up below
        };
        check_overrides(&program, &decls)?;
        drop(resolve_span);

        // Pass 4: lower bodies.
        let mut lower_span = tel.span("ir.lower");
        let mut bodies: Vec<(MethodId, Body)> = Vec::new();
        for d in &decls {
            let class = program.class_by_name[&d.name];
            for m in &d.methods {
                let mid = program
                    .resolve_method_in_class(class, &m.name)
                    .expect("declared method must resolve");
                if let Some(body_ast) = &m.body {
                    let body = lower_body(&program, mid, &m.params, body_ast, m.span)?;
                    bodies.push((mid, body));
                }
            }
            // Default ctor body: just the implicit super() call.
            if !d.methods.iter().any(|m| m.name == CTOR_NAME) {
                let mid = program.resolve_method_in_class(class, CTOR_NAME).unwrap();
                let body = lower_body(&program, mid, &[], &[], d.span)?;
                bodies.push((mid, body));
            }
        }
        lower_span.add("ir.bodies", bodies.len() as u64);
        lower_span.add(
            "ir.instrs",
            bodies.iter().map(|(_, b)| b.instr_count() as u64).sum(),
        );
        drop(lower_span);

        let mut ssa_span = tel.span("ir.ssa");
        let mut phis = 0u64;
        for (mid, mut body) in bodies {
            ssa::into_ssa(&mut body);
            if tel.is_enabled() {
                phis += body
                    .instrs()
                    .filter(|(_, i)| matches!(i.kind, InstrKind::Phi { .. }))
                    .count() as u64;
            }
            program.methods[mid].body = Some(body);
        }
        ssa_span.add("ir.phis", phis);
        drop(ssa_span);

        // Locate main.
        let mains: Vec<MethodId> = program
            .methods
            .iter_enumerated()
            .filter(|(_, m)| m.name == "main" && m.is_static)
            .map(|(id, _)| id)
            .collect();
        match mains.as_slice() {
            [m] => program.main_method = *m,
            [] => {
                return Err(CompileError::new(
                    Phase::Resolve,
                    "no `static void main` method found",
                    Span::synthetic(),
                ))
            }
            _ => {
                return Err(CompileError::new(
                    Phase::Resolve,
                    "multiple `static main` methods found",
                    program.methods[mains[1]].span,
                ))
            }
        }
        Ok(program)
    }

    fn check_cycles(&self, decls: &[ClassDecl]) -> Result<(), CompileError> {
        for d in decls {
            let start = self.class_by_name[&d.name];
            let mut slow = Some(start);
            let mut fast = self.classes[start].superclass;
            while let (Some(s), Some(f)) = (slow, fast) {
                if s == f {
                    return Err(
                        self.err(format!("inheritance cycle involving `{}`", d.name), d.span)
                    );
                }
                slow = self.classes[s].superclass;
                fast = self.classes[f]
                    .superclass
                    .and_then(|g| self.classes[g].superclass);
            }
        }
        Ok(())
    }
}

fn check_overrides(program: &Program, decls: &[ClassDecl]) -> Result<(), CompileError> {
    {
        for d in decls {
            let class = program.class_by_name[&d.name];
            let Some(sup) = program.classes[class].superclass else {
                continue;
            };
            for &mid in &program.classes[class].methods {
                let m = &program.methods[mid];
                if m.is_ctor() {
                    continue;
                }
                if let Some(overridden) = program.resolve_method(sup, &m.name) {
                    let o = &program.methods[overridden];
                    if o.is_static != m.is_static
                        || o.param_tys != m.param_tys
                        || o.ret_ty != m.ret_ty
                    {
                        return Err(CompileError::new(
                            Phase::Resolve,
                            format!(
                                "method `{}` overrides `{}` with an incompatible signature",
                                m.qualified_name(program),
                                o.qualified_name(program)
                            ),
                            m.span,
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Program {
    /// Resolves a method declared *directly* in `class` by name.
    pub fn resolve_method_in_class(&self, class: ClassId, selector: &str) -> Option<MethodId> {
        self.classes[class]
            .methods
            .iter()
            .copied()
            .find(|&m| self.methods[m].name == selector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_hello_world() {
        let p = compile(&[("t.mj", "class Main { static void main() { print(1); } }")]).unwrap();
        assert_eq!(p.methods[p.main_method].name, "main");
        assert!(p.class_named("Object").is_some());
        assert!(p.class_named("Vector").is_some());
    }

    #[test]
    fn duplicate_class_is_an_error() {
        let err = compile(&[(
            "t.mj",
            "class A {} class A {} class Main { static void main() {} }",
        )])
        .unwrap_err();
        assert!(err.message.contains("duplicate class"));
    }

    #[test]
    fn unknown_superclass_is_an_error() {
        let err = compile(&[(
            "t.mj",
            "class A extends Zzz {} class Main { static void main() {} }",
        )])
        .unwrap_err();
        assert!(err.message.contains("unknown superclass"));
    }

    #[test]
    fn inheritance_cycle_is_an_error() {
        let err = compile(&[(
            "t.mj",
            "class A extends B {} class B extends A {} class Main { static void main() {} }",
        )])
        .unwrap_err();
        assert!(err.message.contains("cycle") || err.message.contains("itself"));
    }

    #[test]
    fn self_extension_is_an_error() {
        let err = compile(&[(
            "t.mj",
            "class A extends A {} class Main { static void main() {} }",
        )])
        .unwrap_err();
        assert!(err.message.contains("itself") || err.message.contains("cycle"));
    }

    #[test]
    fn missing_main_is_an_error() {
        let err = compile(&[("t.mj", "class A {}")]).unwrap_err();
        assert!(err.message.contains("main"));
    }

    #[test]
    fn incompatible_override_is_an_error() {
        let err = compile(&[(
            "t.mj",
            "class A { int m() { return 1; } }
             class B extends A { boolean m() { return true; } }
             class Main { static void main() {} }",
        )])
        .unwrap_err();
        assert!(err.message.contains("incompatible"));
    }

    #[test]
    fn default_ctor_is_synthesized() {
        let p = compile(&[(
            "t.mj",
            "class A {} class Main { static void main() { A a = new A(); } }",
        )])
        .unwrap();
        let a = p.class_named("A").unwrap();
        let ctor = p.ctor_of(a).unwrap();
        assert!(p.methods[ctor].body.is_some());
    }

    #[test]
    fn subclass_and_assignability() {
        let p = compile(&[(
            "t.mj",
            "class A {} class B extends A {} class Main { static void main() {} }",
        )])
        .unwrap();
        let a = p.class_named("A").unwrap();
        let b = p.class_named("B").unwrap();
        assert!(p.is_subclass(b, a));
        assert!(!p.is_subclass(a, b));
        assert!(p.is_assignable(&Type::Class(b), &Type::Class(a)));
        assert!(p.is_assignable(&Type::Null, &Type::Class(a)));
        assert!(!p.is_assignable(&Type::Class(a), &Type::Class(b)));
        assert!(p.is_assignable(
            &Type::Array(Box::new(Type::Class(b))),
            &Type::Class(p.object_class)
        ));
        assert!(p.cast_may_succeed(&Type::Class(a), &Type::Class(b)));
    }
}
