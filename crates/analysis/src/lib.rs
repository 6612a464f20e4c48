//! Compile-time analysis of explicitly parallel PSL programs.
//!
//! Implements the three analysis stages of Jeremiassen & Eggers
//! (PPoPP'95) for pinpointing data structures susceptible to false
//! sharing:
//!
//! 1. **Per-process control-flow analysis** — which code each process
//!    executes, tracked through `pid == c` guards on the process
//!    differentiating variable (PDV) and interprocedural PDV propagation
//!    (see [`summary`]).
//! 2. **Non-concurrency analysis** — barrier synchronization splits the
//!    program into phases; every access carries the span of phases it may
//!    execute in (see [`phase`]). Phases validate partition-array
//!    assumptions ("the partition is fixed before it is used").
//! 3. **Summary side-effect analysis with static profiling** — per-process
//!    access summaries as bounded regular section descriptors with
//!    execution-frequency weights (see [`section`], [`summary`]).
//!
//! [`classify`] turns raw summaries into per-data-structure sharing
//! patterns and owner maps, which `fsr-transform` maps to the paper's
//! four transformations.
//!
//! # Example
//! ```
//! let src = "param NPROC = 4; shared int c[NPROC];
//!            fn main() { forall p in 0 .. NPROC { c[p] = c[p] + 1; } }";
//! let prog = fsr_lang::compile(src).unwrap();
//! let analysis = fsr_analysis::analyze(&prog).unwrap();
//! let (oid, _) = prog.object_by_name("c").unwrap();
//! let class = analysis.class_for(oid, None).unwrap();
//! assert_eq!(class.write.pattern, fsr_analysis::Pattern::PerProcess);
//! ```

pub mod callgraph;
pub mod classify;
pub mod lin;
pub mod phase;
pub mod races;
pub mod rel;
pub mod report;
pub mod section;
pub mod summary;

pub use classify::{AccessClass, Analysis, OwnerMap, Pattern, SideSummary, MAX_DESCRIPTORS};
pub use phase::PhaseSpan;
pub use races::{access_label, detect, detect_with, RaceReport, SuppressedGroup};
pub use rel::{RefineFacts, RelFacts, RelVal, RelVerdict};
pub use section::{Bound, ProcCond, Rsd, Section};
pub use summary::{FinalAccess, LockIdx, LockSym, ProgramSummary};

use fsr_lang::ast::Program;
use fsr_lang::diag::Error;

/// Number of processes the program is analyzed for, taken from the
/// `forall` bounds (which must be compile-time constants — typically
/// `0 .. NPROC`).
pub fn nproc_of(prog: &Program) -> Option<i64> {
    let main = prog.func(prog.main?);
    for s in &main.body.stmts {
        if let fsr_lang::ast::StmtKind::Forall { lo, hi, .. } = &s.kind {
            let lo = const_of(prog, lo)?;
            let hi = const_of(prog, hi)?;
            return Some((hi - lo).max(1));
        }
    }
    None
}

fn const_of(prog: &Program, e: &fsr_lang::ast::Expr) -> Option<i64> {
    fsr_lang::check::const_eval(prog, e).ok()
}

/// Why a program has no usable process count (see [`require_nproc`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NprocError {
    /// No `main`, or `main`'s body has no top-level `forall`.
    NoForall,
    /// The `forall` bounds are not compile-time constants.
    NonConstBounds,
    /// The process count falls outside what the simulator supports.
    OutOfRange(i64),
}

impl std::fmt::Display for NprocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NprocError::NoForall => {
                write!(f, "no top-level forall in main: process count undeclared")
            }
            NprocError::NonConstBounds => {
                write!(f, "forall bounds are not compile-time constants")
            }
            NprocError::OutOfRange(n) => {
                write!(f, "process count {n} outside supported range 1..=64")
            }
        }
    }
}

impl std::error::Error for NprocError {}

/// Strict variant of [`nproc_of`]: a missing or non-constant process
/// declaration is an error, not a silent uniprocessor default. The
/// simulation pipeline uses this so a malformed front end cannot
/// masquerade as a 1-processor run; [`analyze`] stays lenient (analysis
/// of serial programs is still meaningful).
pub fn require_nproc(prog: &Program) -> Result<i64, NprocError> {
    let main = prog.main.ok_or(NprocError::NoForall)?;
    for s in &prog.func(main).body.stmts {
        if let fsr_lang::ast::StmtKind::Forall { lo, hi, .. } = &s.kind {
            let (lo, hi) = match (const_of(prog, lo), const_of(prog, hi)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => return Err(NprocError::NonConstBounds),
            };
            let n = (hi - lo).max(1);
            if !(1..=64).contains(&n) {
                return Err(NprocError::OutOfRange(n));
            }
            return Ok(n);
        }
    }
    Err(NprocError::NoForall)
}

/// Run the complete three-stage analysis on a checked program.
pub fn analyze(prog: &Program) -> Result<Analysis, Error> {
    let graph = callgraph::build(prog)?;
    let summary = summary::summarize(prog, &graph)?;
    let nproc = nproc_of(prog).unwrap_or(1);
    Ok(classify::classify(prog, summary, nproc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nproc_from_param() {
        let prog = fsr_lang::compile("param NPROC = 12; fn main() { forall p in 0 .. NPROC { } }")
            .unwrap();
        assert_eq!(nproc_of(&prog), Some(12));
    }

    #[test]
    fn nproc_from_expression() {
        let prog =
            fsr_lang::compile("param NPROC = 8; fn main() { forall p in 1 .. NPROC - 1 { } }")
                .unwrap();
        assert_eq!(nproc_of(&prog), Some(6));
    }

    #[test]
    fn require_nproc_rejects_missing_forall() {
        // The checker rejects forall-less sources, so exercise the
        // defense on a raw Program (what a future front end could hand
        // the driver).
        let prog = fsr_lang::ast::Program::default();
        assert_eq!(require_nproc(&prog), Err(NprocError::NoForall));
        // The lenient accessor still defaults for analysis purposes.
        assert_eq!(nproc_of(&prog), None);
    }

    #[test]
    fn require_nproc_rejects_oversized_counts() {
        let prog = fsr_lang::compile("param NPROC = 100; fn main() { forall p in 0 .. NPROC { } }")
            .unwrap();
        assert_eq!(require_nproc(&prog), Err(NprocError::OutOfRange(100)));
    }

    #[test]
    fn require_nproc_accepts_constant_bounds() {
        let prog = fsr_lang::compile("param NPROC = 12; fn main() { forall p in 0 .. NPROC { } }")
            .unwrap();
        assert_eq!(require_nproc(&prog), Ok(12));
    }

    #[test]
    fn analyze_end_to_end() {
        let prog = fsr_lang::compile(
            "param NPROC = 4; shared int c[NPROC]; shared lock lk;
             fn main() { forall p in 0 .. NPROC {
                 lock(lk); c[p] = c[p] + 1; unlock(lk);
             } }",
        )
        .unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.nproc, 4);
        assert!(a.total_weight > 0.0);
        let (lk, _) = prog.object_by_name("lk").unwrap();
        // Lock accesses are classified too (shared writes).
        let lkc = a.class_for(lk, None).unwrap();
        assert_eq!(lkc.write.pattern, Pattern::Shared);
    }
}
