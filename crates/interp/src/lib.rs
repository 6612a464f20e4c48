//! SPMD bytecode interpreter for PSL: executes a checked program under a
//! memory [`Layout`](fsr_layout::Layout), emitting the interleaved
//! shared-memory reference trace that drives the cache simulator.
//!
//! The interpreter plays the role of the paper's inline tracing tool
//! [EKKL90]: processes execute round-robin, one instruction per round;
//! every load/store of a global object (including lock words, indirection
//! pointers and spin rereads of contended locks) becomes a trace event.
//!
//! # Example
//! ```
//! use fsr_interp::{compile_program, run, RunConfig, VecSink};
//!
//! let src = "param NPROC = 2; shared int c[NPROC];
//!            fn main() { forall p in 0 .. NPROC { c[p] = c[p] + 1; } }";
//! let prog = fsr_lang::compile(src).unwrap();
//! let plan = fsr_transform::LayoutPlan::unoptimized(64);
//! let layout = fsr_layout::Layout::build(&prog, &plan, 2);
//! let code = compile_program(&prog).unwrap();
//! let mut sink = VecSink::default();
//! let fin = run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap();
//! assert!(fin.stats.refs > 0);
//! ```

pub mod bytecode;
pub mod compile;
pub mod hb;
pub mod vm;

pub use bytecode::{Compiled, Instr};
pub use compile::compile_program;
pub use hb::HbChecker;
pub use vm::{
    runs_started, CountingSink, FinalState, Interp, MemRef, RecordedTrace, RunConfig, RunStats,
    RuntimeError, Schedule, TeeSink, TraceEvent, TraceSink, VecSink,
};

use fsr_lang::ast::Program;
use fsr_layout::Layout;

/// Compile-and-run convenience wrapper.
pub fn run(
    prog: &Program,
    layout: &Layout,
    code: &Compiled,
    cfg: RunConfig,
    sink: &mut dyn TraceSink,
) -> Result<FinalState, RuntimeError> {
    Interp::new(prog, layout, code, cfg).run(sink)
}

#[cfg(test)]
mod tests;
