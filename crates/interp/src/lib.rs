#![warn(missing_docs)]

//! # thinslice-interp — MJ execution and dynamic thin slicing
//!
//! A direct interpreter for the MJ IR that records a *dynamic dependence
//! trace*: every executed instruction remembers which earlier instructions
//! produced the values it used, classified as producer vs. base-pointer
//! uses exactly like the static dependence graph. On top of the trace:
//!
//! * [`dynamic_thin_slice`] — the paper's §1 remark made concrete:
//!   backward closure over dynamic *producer* dependences;
//! * [`dynamic_data_slice`] — the full dynamic data slice, for contrast.
//!
//! The interpreter also serves as a differential oracle for the static
//! analyses: every statement in a dynamic thin slice must appear in the
//! static thin slice of the same seed (see `tests/` of the workspace).
//!
//! # Examples
//!
//! ```
//! use thinslice_interp::{run, ExecConfig};
//!
//! let program = thinslice_ir::compile(&[(
//!     "t.mj",
//!     "class Main { static void main() { print(21 * 2); } }",
//! )]).unwrap();
//! let exec = run(&program, &ExecConfig::default());
//! assert_eq!(exec.prints[0].1, "42");
//! ```

pub mod dynslice;
pub mod machine;
pub mod natives;

pub use dynslice::{dynamic_data_slice, dynamic_thin_slice, DynamicSlice};
pub use machine::{run, run_ctx, EventId, ExecConfig, Execution, Outcome};
pub use natives::NativeWorld;
pub use thinslice_util::{Budget, CancelToken, ExhaustReason};
