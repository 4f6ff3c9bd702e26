#![warn(missing_docs)]

//! # thinslice-ir — the MJ frontend
//!
//! This crate provides everything needed to get from MJ source text (a
//! Java-like language; see [`ast`]) to an analysable SSA intermediate
//! representation:
//!
//! * [`lexer`] / [`parser`] — MJ surface syntax,
//! * [`mod@compile`] — class-table construction, type checking and lowering,
//! * [`ir`] — the three-address IR with explicit base-pointer uses,
//! * [`dom`] / [`ssa`] — dominators and SSA construction,
//! * [`stdlib`] — the built-in container library (`Vector`, `Hashtable`, …),
//! * [`pretty`] — rendering for slice reports.
//!
//! # Examples
//!
//! ```
//! use thinslice_ir::compile;
//!
//! let program = compile(&[(
//!     "names.mj",
//!     r#"class Main {
//!         static void main() {
//!             Vector names = new Vector();
//!             names.add("alice");
//!             print((String) names.get(0));
//!         }
//!     }"#,
//! )])?;
//!
//! // Every method body is in SSA form.
//! let main = &program.methods[program.main_method];
//! assert!(main.body.is_some());
//! # Ok::<(), thinslice_ir::error::CompileError>(())
//! ```

pub mod ast;
pub mod compile;
pub mod delta;
pub mod dom;
pub mod error;
pub mod ir;
pub mod lexer;
mod lower;
pub mod parser;
pub mod pretty;
pub mod snap;
pub mod span;
pub mod ssa;
pub mod stdlib;
pub mod token;

pub use compile::{compile, compile_ctx, compile_fingerprinted, compile_raw};
pub use error::CompileError;
pub use ir::{
    Block, BlockId, Body, CallKind, Class, ClassId, Const, Field, FieldId, Instr, InstrKind,
    IrBinOp, IrUnOp, Loc, Method, MethodId, Operand, Program, StmtRef, Type, UseKind, Var, VarInfo,
};
pub use span::{FileId, SourceFile, Span};
