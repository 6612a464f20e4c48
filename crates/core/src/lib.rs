//! End-to-end pipeline: PSL source → analysis → transformation plan →
//! layout → SPMD execution → cache simulation → KSR2-style timing.
//!
//! This crate is the public face of the reproduction. A single call to
//! [`run_pipeline`] does what the paper's toolchain did: compile-time
//! analysis and restructuring (Parafrase-2 + the authors' passes), inline
//! tracing, trace-driven multiprocessor cache simulation, and execution
//! timing on the ring machine model.
//!
//! # Example
//! ```
//! use fsr_core::{run_pipeline, PipelineConfig, PlanSourceSpec};
//!
//! let src = "param NPROC = 4; shared int c[NPROC];
//!            fn main() { forall p in 0 .. NPROC { var i;
//!                for i in 0 .. 200 { c[p] = c[p] + 1; } } }";
//! let base = run_pipeline(src, &[], PlanSourceSpec::Unoptimized,
//!                         &PipelineConfig::default()).unwrap();
//! let opt = run_pipeline(src, &[], PlanSourceSpec::Compiler,
//!                        &PipelineConfig::default()).unwrap();
//! assert!(opt.sim.false_sharing() < base.sim.false_sharing());
//! ```

pub mod cost;
pub mod driver;
pub mod experiments;
pub mod world;

pub use driver::PlanSourceSpec;
pub use world::{CacheStats, Evicted, LintSummary, RecordedTrace, Snapshot, World};

pub use fsr_analysis::{Analysis, Pattern};
pub use fsr_interp::{RunConfig, Schedule};
pub use fsr_lang::Program;
pub use fsr_machine::{InterconnectKind, MachineConfig, SpeedupCurve, TimingStats, TxCost};
pub use fsr_sim::{
    report::{ObjCoherence, ObjMisses},
    CacheConfig, CoherenceEvent, MissKind, ProtocolKind, SimStats,
};
pub use fsr_transform::{LayoutPlan, ObjPlan, PlanConfig};

use fsr_interp::{MemRef, RunStats, TraceSink};
use fsr_machine::TimingModel;
use fsr_sim::{MultiSim, Outcome, CHUNK_LANES};
use std::collections::BTreeMap;
use std::fmt;

/// Everything configurable about one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Block size used for both the plan and the cache simulation.
    pub block_bytes: u32,
    /// L1 capacity and associativity.
    pub cache_bytes: u32,
    pub assoc: u32,
    /// Coherence protocol the cache simulator runs (MSI is the paper's).
    pub protocol: ProtocolKind,
    /// Machine/timing parameters, including the interconnect topology
    /// (`machine.interconnect`; the KSR2 ring is the paper's).
    pub machine: MachineConfig,
    pub run: RunConfig,
    pub plan_cfg: PlanConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            block_bytes: 128,
            cache_bytes: 32 * 1024,
            assoc: 4,
            protocol: ProtocolKind::Msi,
            machine: MachineConfig::default(),
            run: RunConfig::default(),
            plan_cfg: PlanConfig::default(),
        }
    }
}

impl PipelineConfig {
    pub fn with_block(block_bytes: u32) -> PipelineConfig {
        let mut c = PipelineConfig {
            block_bytes,
            ..PipelineConfig::default()
        };
        c.plan_cfg.block_bytes = block_bytes;
        c
    }

    /// Select a (protocol, interconnect) backend pair, leaving every
    /// other knob alone.
    pub fn with_backends(mut self, protocol: ProtocolKind, ic: InterconnectKind) -> PipelineConfig {
        self.protocol = protocol;
        self.machine.interconnect = ic;
        self
    }
}

/// Result of one pipeline run. `Clone` lets a warm [`World`] serve a
/// cached result to any number of identical requests.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub nproc: u32,
    pub plan: LayoutPlan,
    pub sim: SimStats,
    pub per_obj: BTreeMap<String, ObjMisses>,
    /// Per-object coherence-event counters (invalidations, upgrades,
    /// interventions, exclusive hits) plus interconnect queueing stalls,
    /// attributed via the layout address map.
    pub per_obj_coherence: BTreeMap<String, ObjCoherence>,
    /// Per-object reference counts (hits and misses alike), attributed
    /// via the layout address map. A pure function of the trace and the
    /// layout — bit-identical across coherence backends, which the
    /// cross-backend equivalence suite asserts.
    pub per_obj_refs: BTreeMap<String, u64>,
    /// Execution time (cycles) on the machine model.
    pub exec_cycles: u64,
    pub timing: TimingStats,
    pub interp: RunStats,
    /// False-sharing stall fraction of total cycles.
    pub fs_stall_frac: f64,
}

impl RunResult {
    pub fn miss_rate(&self) -> f64 {
        self.sim.miss_rate()
    }

    pub fn false_sharing_miss_rate(&self) -> f64 {
        if self.sim.refs == 0 {
            0.0
        } else {
            self.sim.false_sharing() as f64 / self.sim.refs as f64
        }
    }
}

/// Pipeline errors. `Clone` lets the batched driver report one shared
/// front-end or interpretation failure against every affected job.
#[derive(Debug, Clone)]
pub enum PipelineError {
    Lang(fsr_lang::Error),
    Runtime(fsr_interp::RuntimeError),
    /// The layout engine could not assign addresses (e.g. the plan's
    /// padded/replicated footprint overflows the 32-bit address space).
    Layout(fsr_layout::LayoutError),
    /// The program declares no usable process count (no constant-bound
    /// `forall`, or a count the simulator cannot represent). The
    /// pipeline refuses to guess — silently simulating a malformed
    /// program as a uniprocessor run hides the error.
    Nproc(fsr_analysis::NprocError),
    /// The driver machinery itself failed (worker panic, batch grouping
    /// bug) — see [`driver::DriverError`].
    Driver(driver::DriverError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lang(e) => write!(f, "{e}"),
            PipelineError::Runtime(e) => write!(f, "{e}"),
            PipelineError::Layout(e) => write!(f, "{e}"),
            PipelineError::Nproc(e) => write!(f, "{e}"),
            PipelineError::Driver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<fsr_lang::Error> for PipelineError {
    fn from(e: fsr_lang::Error) -> Self {
        PipelineError::Lang(e)
    }
}

impl From<fsr_interp::RuntimeError> for PipelineError {
    fn from(e: fsr_interp::RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

impl From<fsr_layout::LayoutError> for PipelineError {
    fn from(e: fsr_layout::LayoutError) -> Self {
        PipelineError::Layout(e)
    }
}

impl From<fsr_analysis::NprocError> for PipelineError {
    fn from(e: fsr_analysis::NprocError) -> Self {
        PipelineError::Nproc(e)
    }
}

impl From<driver::DriverError> for PipelineError {
    fn from(e: driver::DriverError) -> Self {
        PipelineError::Driver(e)
    }
}

/// The process count a simulation of `prog` must use: the constant
/// `forall` bounds, strictly validated. Shared by [`run_pipeline`] and
/// the batch driver so neither path can degrade a malformed program to
/// a silent uniprocessor run.
pub fn resolve_nproc(prog: &Program) -> Result<u32, PipelineError> {
    Ok(fsr_analysis::require_nproc(prog)? as u32)
}

/// Fixed-width lane buffer for the chunked replay: references
/// accumulate here until [`CHUNK_LANES`] are pending (or a
/// synchronization event forces a flush), then replay as one batch
/// through [`MultiSim::access_chunk`] + `TimingModel::record_chunk`.
struct ChunkBuf {
    len: usize,
    pid: [u8; CHUNK_LANES],
    addr: [u32; CHUNK_LANES],
    gap: [u32; CHUNK_LANES],
    /// Bit `i` set = lane `i` is a write.
    write: u64,
}

impl ChunkBuf {
    fn new() -> ChunkBuf {
        ChunkBuf {
            len: 0,
            pid: [0; CHUNK_LANES],
            addr: [0; CHUNK_LANES],
            gap: [0; CHUNK_LANES],
            write: 0,
        }
    }
}

/// Sink wiring the interpreter to the cache simulator and timing model.
/// Also accumulates per-block interconnect queueing stalls (the sink is
/// the one place that sees both the address and the transaction cost),
/// so queue pressure can be attributed per object alongside the
/// simulator's coherence events.
struct PipelineSink {
    sim: MultiSim,
    timing: TimingModel,
    block_queue: Vec<u64>,
    chunk: ChunkBuf,
}

impl PipelineSink {
    fn new(sim: MultiSim, timing: TimingModel) -> PipelineSink {
        let nblocks = sim.num_blocks() as usize;
        PipelineSink {
            sim,
            timing,
            block_queue: vec![0; nblocks],
            chunk: ChunkBuf::new(),
        }
    }

    /// Replay every buffered reference: one lane-parallel simulator
    /// batch, then one fused timing pass over the outcome stream. A
    /// no-op when nothing is buffered.
    fn flush_chunk(&mut self) {
        let PipelineSink {
            sim,
            timing,
            block_queue,
            chunk,
            ..
        } = self;
        let n = chunk.len;
        if n == 0 {
            return;
        }
        let bb = sim.block_bytes();
        let mut outs = [Outcome::default(); CHUNK_LANES];
        sim.access_chunk(
            &chunk.pid[..n],
            &chunk.addr[..n],
            chunk.write,
            &mut outs[..n],
        );
        timing.record_chunk(
            &chunk.pid[..n],
            &chunk.gap[..n],
            &outs[..n],
            |lane, cost| {
                block_queue[(chunk.addr[lane] / bb) as usize] += cost.queue;
            },
        );
        chunk.len = 0;
        chunk.write = 0;
    }

    /// Fold the finished sink into a [`RunResult`], attributing misses,
    /// coherence events and queueing stalls per object through
    /// `name_of` (layout address → object name).
    fn into_result(
        mut self,
        nproc: u32,
        plan: LayoutPlan,
        interp: RunStats,
        mut name_of: impl FnMut(u32) -> Option<String>,
    ) -> RunResult {
        self.flush_chunk();
        let per_obj = fsr_sim::report::attribute_misses(&self.sim, &mut name_of);
        let mut per_obj_coherence = fsr_sim::report::attribute_coherence(&self.sim, &mut name_of);
        let bb = self.sim.block_bytes();
        for (b, &q) in self.block_queue.iter().enumerate() {
            if q == 0 {
                continue;
            }
            let name = name_of(b as u32 * bb).unwrap_or_else(|| "<unattributed>".to_string());
            per_obj_coherence.entry(name).or_default().queue_stall += q;
        }
        let mut per_obj_refs: BTreeMap<String, u64> = BTreeMap::new();
        for (b, &n) in self.sim.per_block_refs().iter().enumerate() {
            if n == 0 {
                continue;
            }
            let name = name_of(b as u32 * bb).unwrap_or_else(|| "<unattributed>".to_string());
            *per_obj_refs.entry(name).or_default() += n;
        }
        RunResult {
            nproc,
            plan,
            sim: self.sim.stats().clone(),
            per_obj,
            per_obj_coherence,
            per_obj_refs,
            exec_cycles: self.timing.finish_time(),
            timing: self.timing.stats().clone(),
            interp,
            fs_stall_frac: self.timing.false_sharing_stall_fraction(),
        }
    }
}

impl TraceSink for PipelineSink {
    fn access(&mut self, r: MemRef) {
        let i = self.chunk.len;
        self.chunk.pid[i] = r.pid;
        self.chunk.addr[i] = r.addr;
        self.chunk.gap[i] = r.gap;
        if r.write {
            self.chunk.write |= 1 << i;
        }
        self.chunk.len = i + 1;
        if self.chunk.len == CHUNK_LANES {
            self.flush_chunk();
        }
    }

    fn sync(&mut self, pids: &[u32]) {
        // Barrier release: clocks are about to align across processors,
        // so pending lanes must land first.
        self.flush_chunk();
        self.timing.sync(pids);
    }

    fn handoff(&mut self, from: u32, to: u32) {
        self.flush_chunk();
        self.timing.handoff(from, to);
    }

    fn steal(&mut self, thief: u32, victim: u32) {
        // The steal joins the thief's clock to the victim's, so pending
        // lanes must land first, exactly like a hand-off.
        self.flush_chunk();
        self.timing.steal(thief, victim);
    }
}

/// Run the full pipeline on PSL source text: a batch of one job on a
/// transient [`World`] (see [`driver::run_batch`]).
///
/// `params` override `param` declarations (e.g. `[("NPROC", 12)]`); the
/// process count is taken from the program's `forall` bounds after
/// binding.
pub fn run_pipeline(
    src: &str,
    params: &[(&str, i64)],
    plan: PlanSourceSpec,
    cfg: &PipelineConfig,
) -> Result<RunResult, PipelineError> {
    let job = driver::Job::new((), src, params, plan, cfg.clone());
    driver::run_batch(vec![job], 1).remove(0).1
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
        fn main() { forall p in 0 .. NPROC { var i;
            for i in 0 .. 500 { c[p] = c[p] + 1; } } }";

    #[test]
    fn compiler_plan_removes_false_sharing() {
        let cfg = PipelineConfig::default();
        let base = run_pipeline(COUNTERS, &[], PlanSourceSpec::Unoptimized, &cfg).unwrap();
        let opt = run_pipeline(COUNTERS, &[], PlanSourceSpec::Compiler, &cfg).unwrap();
        assert!(
            base.sim.false_sharing() > 100,
            "unoptimized adjacent counters must false-share: {}",
            base.sim
        );
        assert_eq!(
            opt.sim.false_sharing(),
            0,
            "transposed counters must not false-share: {}",
            opt.sim
        );
        assert!(opt.exec_cycles < base.exec_cycles);
    }

    #[test]
    fn per_object_attribution_names_the_culprit() {
        let cfg = PipelineConfig::default();
        let base = run_pipeline(COUNTERS, &[], PlanSourceSpec::Unoptimized, &cfg).unwrap();
        let c = base.per_obj.get("c").expect("attributed");
        assert!(c.false_sharing() > 100);
    }

    #[test]
    fn nproc_override_applies() {
        let cfg = PipelineConfig::default();
        let r = run_pipeline(COUNTERS, &[("NPROC", 2)], PlanSourceSpec::Unoptimized, &cfg).unwrap();
        assert_eq!(r.nproc, 2);
    }

    #[test]
    fn explicit_plan_is_used() {
        let prog = fsr_lang::compile(COUNTERS).unwrap();
        let (c, _) = prog.object_by_name("c").unwrap();
        let mut plan = LayoutPlan::unoptimized(128);
        plan.insert(c, ObjPlan::PadElems, "test");
        let cfg = PipelineConfig::default();
        let r = run_pipeline(COUNTERS, &[], PlanSourceSpec::Explicit(plan), &cfg).unwrap();
        assert_eq!(r.sim.false_sharing(), 0);
    }

    #[test]
    fn block_size_sweep_shows_monotone_false_sharing() {
        let mut last = 0;
        for block in [16u32, 64, 256] {
            let cfg = PipelineConfig::with_block(block);
            let r = run_pipeline(COUNTERS, &[], PlanSourceSpec::Unoptimized, &cfg).unwrap();
            assert!(
                r.sim.false_sharing() >= last,
                "false sharing should not shrink with larger blocks"
            );
            last = r.sim.false_sharing();
        }
        assert!(last > 0);
    }

    #[test]
    fn lang_errors_propagate() {
        let cfg = PipelineConfig::default();
        let e = run_pipeline("fn main() {", &[], PlanSourceSpec::Unoptimized, &cfg).unwrap_err();
        assert!(matches!(e, PipelineError::Lang(_)));
    }

    #[test]
    fn oversized_process_counts_are_errors_not_panics() {
        // 100 processes exceeds the simulator's 64-way sharing vectors;
        // the pipeline must refuse with a diagnostic instead of tripping
        // an assert (or silently running as a uniprocessor).
        let cfg = PipelineConfig::default();
        let e = run_pipeline(
            COUNTERS,
            &[("NPROC", 100)],
            PlanSourceSpec::Unoptimized,
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            PipelineError::Nproc(fsr_analysis::NprocError::OutOfRange(100))
        ));
    }

    #[test]
    fn panicking_plans_come_back_as_worker_panics() {
        // run_pipeline is a one-job batch: a panicking plan is caught at
        // the plan/layout stage and returned, never unwound into the caller.
        let plan = PlanSourceSpec::Programmer(|_, _| panic!("plan exploded deliberately"));
        let e = run_pipeline(COUNTERS, &[], plan, &PipelineConfig::default()).unwrap_err();
        let PipelineError::Driver(driver::DriverError::WorkerPanic {
            stage,
            job_index: 0,
            payload,
            ..
        }) = &e
        else {
            panic!("expected WorkerPanic, got {e:?}")
        };
        assert_eq!(*stage, "plan/layout");
        assert!(payload.contains("plan exploded deliberately"), "{payload}");
    }

    #[test]
    fn runtime_errors_propagate() {
        let cfg = PipelineConfig::default();
        let e = run_pipeline(
            "shared int a[2]; fn main() { forall p in 0 .. 4 { a[p] = 1; } }",
            &[],
            PlanSourceSpec::Unoptimized,
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(e, PipelineError::Runtime(_)));
    }
}
