//! Cross-crate integration tests live in the workspace-level `tests/`
//! directory; this crate exists to give them a Cargo target. Shared
//! helpers for those tests are exported here.

use fsr_core::{PipelineConfig, PlanSourceSpec, RunResult};
use fsr_workloads::Workload;

/// Run one workload version at test scale.
pub fn run_version(w: &Workload, plan: PlanSourceSpec, nproc: i64, block: u32) -> RunResult {
    fsr_core::run_pipeline(
        w.source,
        &[("NPROC", nproc), ("SCALE", 1)],
        plan,
        &PipelineConfig::with_block(block),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}
