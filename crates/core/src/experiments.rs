//! The paper's experiments, reusable by the bench binaries and the
//! integration suite.
//!
//! - [`figure3`]: total miss rate split into false-sharing vs other
//!   misses, unoptimized vs compiler-transformed, per block size.
//! - [`table2`]: false-sharing reduction attributed per transformation
//!   (ablation: apply only one directive class at a time), averaged over
//!   block sizes.
//! - [`speedup_sweep`] / [`table3`]: execution-time scalability on the
//!   ring machine model, per program version.
//! - [`headline`]: the §5 aggregate claims (share of misses that are
//!   false sharing, fraction eliminated, change in other misses).
//!
//! All generators enqueue their full grid as one [`run_batch`] call, so
//! front ends are compiled once per (program, params) and configurations
//! with address-identical layouts — e.g. the unoptimized baseline across
//! every block size — share a single interpretation (the paper's own
//! trace-once, simulate-many methodology). Figure 3 and Table 2 also
//! expose their job lists and row folds ([`figure3_jobs`] /
//! [`figure3_rows`], [`table2_jobs`] / [`table2_rows`]) so the same
//! grid can run through the per-job reference path,
//! [`run_jobs`](crate::driver::run_jobs).

use crate::driver::{run_batch, Job, JobResults, PlanSourceSpec};
use crate::{
    run_pipeline, InterconnectKind, MissKind, ObjCoherence, PipelineConfig, PipelineError,
    ProtocolKind, SimStats, Snapshot, World,
};
use fsr_machine::SpeedupCurve;
use fsr_transform::ObjPlan;
use fsr_workloads::{Version, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// Which program version to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vsn {
    N,
    C,
    P,
}

impl Vsn {
    pub fn label(self) -> &'static str {
        match self {
            Vsn::N => "unopt",
            Vsn::C => "compiler",
            Vsn::P => "programmer",
        }
    }
}

/// The simulator/timing backend an experiment grid runs against: a
/// (protocol, interconnect) pair. The paper's figures and tables run on
/// the default; the directory ablation compares [`Backend::ABLATION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Backend {
    pub protocol: ProtocolKind,
    pub interconnect: InterconnectKind,
}

impl Default for Backend {
    /// The paper's substrate: MSI over the KSR2 ring hierarchy.
    fn default() -> Self {
        Backend::new(ProtocolKind::Msi, InterconnectKind::Ksr2Ring)
    }
}

impl Backend {
    pub const fn new(protocol: ProtocolKind, interconnect: InterconnectKind) -> Backend {
        Backend {
            protocol,
            interconnect,
        }
    }

    /// The three coherence substrates the directory ablation compares:
    /// the paper's MSI + ring, MESI + ring, and the home-node directory
    /// protocol over its per-node fabric.
    pub const ABLATION: [Backend; 3] = [
        Backend::new(ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        Backend::new(ProtocolKind::Mesi, InterconnectKind::Ksr2Ring),
        Backend::new(ProtocolKind::Directory, InterconnectKind::HomeDir),
    ];

    /// Pipeline configuration for this backend at one block size.
    pub fn config(&self, block: u32) -> PipelineConfig {
        PipelineConfig::with_block(block).with_backends(self.protocol, self.interconnect)
    }
}

/// Plan source for a workload version.
pub fn plan_spec(w: &Workload, v: Vsn) -> PlanSourceSpec {
    match v {
        Vsn::N => PlanSourceSpec::Unoptimized,
        Vsn::C => PlanSourceSpec::Compiler,
        Vsn::P => match w.programmer_plan {
            Some(f) => PlanSourceSpec::Programmer(f),
            None => PlanSourceSpec::Unoptimized,
        },
    }
}

fn std_params(nproc: i64, scale: i64) -> Vec<(String, i64)> {
    vec![("NPROC".to_string(), nproc), ("SCALE".to_string(), scale)]
}

/// One Figure 3 bar: miss rates split into false-sharing and other.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub program: String,
    pub block: u32,
    pub version: String,
    /// Coherence protocol the row was simulated under.
    pub protocol: String,
    /// Interconnect the row was timed against.
    pub interconnect: String,
    pub refs: u64,
    pub fs_miss_rate: f64,
    pub other_miss_rate: f64,
}

/// Which Figure 3 bar a job computes.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Meta {
    program: &'static str,
    block: u32,
    version: Vsn,
}

/// Figure 3: the six N+C programs at the given block sizes (paper: 16
/// and 128 bytes, 12 processors), on the paper's MSI + ring substrate.
pub fn figure3(nproc: i64, scale: i64, blocks: &[u32], threads: usize) -> Vec<Fig3Row> {
    figure3_rows(run_batch(figure3_jobs(nproc, scale, blocks), threads))
}

/// The jobs behind [`figure3`]: one per (program, block, version).
pub fn figure3_jobs(nproc: i64, scale: i64, blocks: &[u32]) -> Vec<Job<Fig3Meta>> {
    let backend = Backend::default();
    let set = fsr_workloads::figure3_set();
    let mut jobs = Vec::new();
    for w in &set {
        let src: Arc<str> = Arc::from(w.source);
        for &b in blocks {
            for v in [Vsn::N, Vsn::C] {
                jobs.push(Job {
                    meta: Fig3Meta {
                        program: w.name,
                        block: b,
                        version: v,
                    },
                    src: src.clone(),
                    params: std_params(nproc, scale),
                    plan: plan_spec(w, v),
                    cfg: backend.config(b),
                });
            }
        }
    }
    jobs
}

/// Figure 3 rows from the results of [`figure3_jobs`], in job order;
/// failed jobs leave no row.
pub fn figure3_rows(results: JobResults<Fig3Meta>) -> Vec<Fig3Row> {
    results
        .into_iter()
        .filter_map(|(job, r)| {
            let r = r.ok()?;
            Some(Fig3Row {
                program: job.meta.program.to_string(),
                block: job.meta.block,
                version: job.meta.version.label().to_string(),
                protocol: job.cfg.protocol.name().to_string(),
                interconnect: job.cfg.machine.interconnect.name().to_string(),
                refs: r.sim.refs,
                fs_miss_rate: r.sim.false_sharing() as f64 / r.sim.refs.max(1) as f64,
                other_miss_rate: r.sim.other_misses() as f64 / r.sim.refs.max(1) as f64,
            })
        })
        .collect()
}

/// Table 2 row: per-transformation attribution of the false-sharing
/// reduction, as "apply only this class" ablations.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub program: String,
    /// Coherence protocol the ablation was simulated under.
    pub protocol: String,
    /// Interconnect the ablation was timed against.
    pub interconnect: String,
    /// Total reduction with the full plan, percent of baseline FS misses.
    pub total_reduction_pct: f64,
    /// Reduction with only group&transpose directives, etc.
    pub transpose_pct: f64,
    pub indirection_pct: f64,
    pub pad_pct: f64,
    pub locks_pct: f64,
    /// Block sizes excluded from the average because the unoptimized
    /// baseline had zero false-sharing misses there (a 0% denominator).
    pub dropped_blocks: usize,
}

/// Which Table 2 sample a job computes.
#[derive(Debug, Clone, Copy)]
pub struct T2Meta {
    prog_idx: usize,
    block: u32,
    /// 0 = unoptimized baseline, 1 = full plan, 2..=5 = per-class
    /// ablations (transpose, indirection, pad, locks).
    cell: usize,
}

/// Table 2: averaged over the given block sizes (paper: 8–256 bytes),
/// on the paper's MSI + ring substrate.
///
/// All (program, block, cell) samples run as one batch on the transient
/// world whose front ends built the ablation plans, so each program is
/// compiled and analyzed once; baselines whose layout does not depend
/// on the block size collapse into a single interpretation.
pub fn table2(
    nproc: i64,
    scale: i64,
    blocks: &[u32],
    threads: usize,
) -> Result<Vec<Table2Row>, PipelineError> {
    let snap = World::transient().snapshot();
    let jobs = table2_jobs(&snap, nproc, scale, blocks)?;
    Ok(table2_rows(
        blocks,
        snap.run_batch_with_stats(jobs, threads).0,
    ))
}

/// The jobs behind [`table2`]: per (program, block), the unoptimized
/// baseline, the full compiler plan and its four one-class ablations.
/// The plans come from `snap`'s front ends, which a batch on the same
/// snapshot then reuses. Fails if a program does not compile or
/// analyze.
pub fn table2_jobs(
    snap: &Snapshot,
    nproc: i64,
    scale: i64,
    blocks: &[u32],
) -> Result<Vec<Job<T2Meta>>, PipelineError> {
    let backend = Backend::default();
    let set = fsr_workloads::figure3_set();
    let mut jobs: Vec<Job<T2Meta>> = Vec::new();
    for (wi, w) in set.iter().enumerate() {
        let src: Arc<str> = Arc::from(w.source);
        let fe = snap.front_end(&src, &std_params(nproc, scale))?;
        for &b in blocks {
            let cfg = backend.config(b);
            let full = fe.plan(&PlanSourceSpec::Compiler, &cfg)?;
            let cells = [
                PlanSourceSpec::Unoptimized,
                PlanSourceSpec::Explicit(full.clone()),
                PlanSourceSpec::Explicit(
                    full.retain_kind(|p| matches!(p, ObjPlan::Transpose { .. })),
                ),
                PlanSourceSpec::Explicit(
                    full.retain_kind(|p| matches!(p, ObjPlan::Indirect { .. })),
                ),
                PlanSourceSpec::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadElems))),
                PlanSourceSpec::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadLock))),
            ];
            for (cell, plan) in cells.into_iter().enumerate() {
                jobs.push(Job {
                    meta: T2Meta {
                        prog_idx: wi,
                        block: b,
                        cell,
                    },
                    src: src.clone(),
                    params: std_params(nproc, scale),
                    plan,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    Ok(jobs)
}

/// Table 2 rows from the results of [`table2_jobs`] over `blocks`, one
/// per program. A block whose baseline has no false-sharing misses is
/// dropped from that program's average (and logged).
pub fn table2_rows(blocks: &[u32], results: JobResults<T2Meta>) -> Vec<Table2Row> {
    let backend = Backend::default();
    let set = fsr_workloads::figure3_set();
    let mut fs: HashMap<(usize, u32, usize), u64> = HashMap::new();
    for (job, r) in results {
        if let Ok(r) = r {
            fs.insert(
                (job.meta.prog_idx, job.meta.block, job.meta.cell),
                r.sim.false_sharing(),
            );
        }
    }

    let mut rows = Vec::new();
    for (wi, w) in set.iter().enumerate() {
        let mut acc = [0.0f64; 5]; // total, transpose, ind, pad, locks
        let mut samples = 0usize;
        let mut dropped = 0usize;
        for &b in blocks {
            let base = fs.get(&(wi, b, 0)).copied().unwrap_or(0);
            if base == 0 {
                dropped += 1;
                eprintln!(
                    "table2: dropping {} @ {b}B from the average \
                     (baseline has no false-sharing misses)",
                    w.name
                );
                continue;
            }
            let reduction = |v: u64| 100.0 * base.saturating_sub(v) as f64 / base as f64;
            for (k, a) in acc.iter_mut().enumerate() {
                if let Some(&v) = fs.get(&(wi, b, k + 1)) {
                    *a += reduction(v);
                }
            }
            samples += 1;
        }
        let n = samples.max(1) as f64;
        rows.push(Table2Row {
            program: w.name.to_string(),
            protocol: backend.protocol.name().to_string(),
            interconnect: backend.interconnect.name().to_string(),
            total_reduction_pct: acc[0] / n,
            transpose_pct: acc[1] / n,
            indirection_pct: acc[2] / n,
            pad_pct: acc[3] / n,
            locks_pct: acc[4] / n,
            dropped_blocks: dropped,
        });
    }
    rows
}

/// Speedup sweep for one program version over processor counts.
/// Returns the curve plus the uniprocessor time of the *unoptimized*
/// version (the paper's speedup baseline).
pub fn speedup_sweep(
    w: &Workload,
    v: Vsn,
    procs: &[u32],
    scale: i64,
    block: u32,
    threads: usize,
) -> SpeedupCurve {
    let backend = Backend::default();
    let src: Arc<str> = Arc::from(w.source);
    let jobs: Vec<Job<u32>> = procs
        .iter()
        .map(|&p| Job {
            meta: p,
            src: src.clone(),
            params: std_params(p as i64, scale),
            plan: plan_spec(w, v),
            cfg: backend.config(block),
        })
        .collect();
    let mut curve = SpeedupCurve::default();
    for (job, r) in run_batch(jobs, threads) {
        if let Ok(r) = r {
            curve.push(job.meta, r.exec_cycles);
        }
    }
    curve
}

/// The uniprocessor execution time of the unoptimized version — the
/// baseline every speedup in Figure 4 / Table 3 is relative to.
pub fn t1_unoptimized(w: &Workload, scale: i64, block: u32) -> Result<u64, PipelineError> {
    let r = run_pipeline(
        w.source,
        &[("NPROC", 1), ("SCALE", scale)],
        PlanSourceSpec::Unoptimized,
        &PipelineConfig::with_block(block),
    )?;
    Ok(r.exec_cycles)
}

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub program: String,
    /// (max speedup, at #procs) per version; None when the version does
    /// not exist for this program (Table 1).
    pub original: Option<(f64, u32)>,
    pub compiler: (f64, u32),
    pub programmer: Option<(f64, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct T3Meta {
    prog_idx: usize,
    version: Vsn,
    procs: u32,
    /// The unoptimized uniprocessor baseline time job.
    baseline: bool,
}

/// Table 3 for all ten programs, as one batch over every (program,
/// version, #procs) point plus the per-program baselines.
pub fn table3(procs: &[u32], scale: i64, block: u32, threads: usize) -> Vec<Table3Row> {
    let backend = Backend::default();
    let all = fsr_workloads::all();
    let mut jobs: Vec<Job<T3Meta>> = Vec::new();
    for (wi, w) in all.iter().enumerate() {
        let src: Arc<str> = Arc::from(w.source);
        jobs.push(Job {
            meta: T3Meta {
                prog_idx: wi,
                version: Vsn::N,
                procs: 1,
                baseline: true,
            },
            src: src.clone(),
            params: std_params(1, scale),
            plan: plan_spec(w, Vsn::N),
            cfg: backend.config(block),
        });
        let mut versions = vec![Vsn::C];
        if w.has(Version::Unoptimized) {
            versions.push(Vsn::N);
        }
        if w.has(Version::Programmer) {
            versions.push(Vsn::P);
        }
        for v in versions {
            for &p in procs {
                jobs.push(Job {
                    meta: T3Meta {
                        prog_idx: wi,
                        version: v,
                        procs: p,
                        baseline: false,
                    },
                    src: src.clone(),
                    params: std_params(p as i64, scale),
                    plan: plan_spec(w, v),
                    cfg: backend.config(block),
                });
            }
        }
    }

    let mut t1: Vec<u64> = vec![1; all.len()];
    let mut curves: HashMap<(usize, Vsn), SpeedupCurve> = HashMap::new();
    for (job, r) in run_batch(jobs, threads) {
        let Ok(r) = r else { continue };
        if job.meta.baseline {
            t1[job.meta.prog_idx] = r.exec_cycles;
        } else {
            curves
                .entry((job.meta.prog_idx, job.meta.version))
                .or_default()
                .push(job.meta.procs, r.exec_cycles);
        }
    }

    all.iter()
        .enumerate()
        .map(|(wi, w)| {
            let ms = |v: Vsn| {
                curves
                    .get(&(wi, v))
                    .map(|c| c.max_speedup(t1[wi]))
                    .unwrap_or_else(|| SpeedupCurve::default().max_speedup(t1[wi]))
            };
            Table3Row {
                program: w.name.to_string(),
                original: w.has(Version::Unoptimized).then(|| ms(Vsn::N)),
                compiler: ms(Vsn::C),
                programmer: w.has(Version::Programmer).then(|| ms(Vsn::P)),
            }
        })
        .collect()
}

/// §5 headline aggregate at one block size: fraction of all misses that
/// are false sharing (unoptimized), fraction of those eliminated, and
/// relative change in other misses.
#[derive(Debug, Clone)]
pub struct Headline {
    pub block: u32,
    pub fs_share_of_misses: f64,
    pub fs_eliminated: f64,
    pub other_miss_change: f64,
    pub total_miss_change: f64,
}

/// Pool already-computed [`figure3`] rows at one block size into the
/// headline aggregate. Lets callers that also render Figure 3 derive the
/// headline without re-running any simulation.
pub fn headline_from_rows(rows: &[Fig3Row], block: u32) -> Headline {
    let mut base_fs = 0.0;
    let mut base_other = 0.0;
    let mut opt_fs = 0.0;
    let mut opt_other = 0.0;
    for r in rows.iter().filter(|r| r.block == block) {
        // Weight rates by references so the aggregate matches pooled
        // miss counts.
        let w = r.refs as f64;
        if r.version == "unopt" {
            base_fs += r.fs_miss_rate * w;
            base_other += r.other_miss_rate * w;
        } else {
            opt_fs += r.fs_miss_rate * w;
            opt_other += r.other_miss_rate * w;
        }
    }
    Headline {
        block,
        fs_share_of_misses: base_fs / (base_fs + base_other).max(1e-12),
        fs_eliminated: 1.0 - opt_fs / base_fs.max(1e-12),
        other_miss_change: opt_other / base_other.max(1e-12) - 1.0,
        total_miss_change: (opt_fs + opt_other) / (base_fs + base_other).max(1e-12) - 1.0,
    }
}

pub fn headline(nproc: i64, scale: i64, block: u32, threads: usize) -> Headline {
    headline_from_rows(&figure3(nproc, scale, &[block], threads), block)
}

/// One cell of the backend matrix: a (program, version, protocol,
/// interconnect) run with its coherence-event observability.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    pub program: String,
    pub version: String,
    pub protocol: String,
    pub interconnect: String,
    pub block: u32,
    pub nproc: u32,
    pub sim: SimStats,
    pub exec_cycles: u64,
    /// Total interconnect queueing stall cycles.
    pub queue_stall: u64,
    /// Per-object coherence events + queue stalls, via the layout map.
    pub per_obj: Vec<(String, ObjCoherence)>,
}

#[derive(Debug, Clone, Copy)]
struct MxMeta {
    prog_idx: usize,
    version: Vsn,
    protocol: ProtocolKind,
    ic: InterconnectKind,
}

/// Cross-backend sweep: every workload × {unopt, compiler} × coherence
/// protocol × interconnect ([`ProtocolKind::ALL`] ×
/// [`InterconnectKind::ALL`]), one cell each, as a single [`run_batch`]
/// call.
///
/// The batch groups by (front end, run config, layout fingerprint) —
/// protocol and interconnect are simulator/timing state, not trace
/// state — so all backend variants of one program version share a
/// single interpretation, exactly like a block-size sweep does.
pub fn protocol_matrix_cells(
    set: &[Workload],
    nproc: i64,
    scale: i64,
    block: u32,
    threads: usize,
) -> Vec<MatrixCell> {
    let mut jobs: Vec<Job<MxMeta>> = Vec::new();
    for (wi, w) in set.iter().enumerate() {
        let src: Arc<str> = Arc::from(w.source);
        for v in [Vsn::N, Vsn::C] {
            for protocol in ProtocolKind::ALL {
                for ic in InterconnectKind::ALL {
                    jobs.push(Job {
                        meta: MxMeta {
                            prog_idx: wi,
                            version: v,
                            protocol,
                            ic,
                        },
                        src: src.clone(),
                        params: std_params(nproc, scale),
                        plan: plan_spec(w, v),
                        cfg: PipelineConfig::with_block(block).with_backends(protocol, ic),
                    });
                }
            }
        }
    }
    run_batch(jobs, threads)
        .into_iter()
        .filter_map(|(job, r)| {
            let r = r.ok()?;
            Some(MatrixCell {
                program: set[job.meta.prog_idx].name.to_string(),
                version: job.meta.version.label().to_string(),
                protocol: job.meta.protocol.name().to_string(),
                interconnect: job.meta.ic.name().to_string(),
                block,
                nproc: r.nproc,
                queue_stall: r.timing.total_queue(),
                exec_cycles: r.exec_cycles,
                sim: r.sim,
                per_obj: r.per_obj_coherence.into_iter().collect(),
            })
        })
        .collect()
}

/// One cell of the directory ablation: a (program, version, backend)
/// run reduced to the miss taxonomy and the cost counters that differ
/// across coherence substrates.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub program: String,
    pub version: String,
    pub protocol: String,
    pub interconnect: String,
    pub block: u32,
    pub nproc: u32,
    /// Miss counts by kind (cold, replacement, true-, false-sharing) —
    /// identical across the backends by the protocol-invariance
    /// property; committed so the golden diff proves it.
    pub misses: [u64; MissKind::COUNT],
    pub upgrades: u64,
    pub invalidations: u64,
    /// Home-directory transactions (0 under the snooping backends).
    pub dir_txns: u64,
    pub exec_cycles: u64,
    /// Stall cycles attributed to false-sharing misses — the per-
    /// workload false-sharing *cost*, which does shift per backend.
    pub fs_stall: u64,
    /// Total interconnect queueing stall.
    pub queue_stall: u64,
    /// 2-hop / 3-hop directory transaction split (0 under snooping).
    pub two_hop: u64,
    pub three_hop: u64,
    /// Occupancy cycles of the busiest channel (hottest home node under
    /// the directory fabric, busiest ring under the KSR2).
    pub max_channel_busy: u64,
}

#[derive(Debug, Clone, Copy)]
struct AblMeta {
    prog_idx: usize,
    version: Vsn,
    backend: Backend,
}

/// The directory ablation: every given workload × {unopt, compiler} ×
/// [`Backend::ABLATION`], one [`run_batch`] call. The unopt-vs-compiler
/// pair shows how much of each backend's cost the paper's
/// transformations recover; the backend axis shows how the *same*
/// misses are charged by broadcast vs directory substrates.
pub fn directory_ablation(
    set: &[Workload],
    nproc: i64,
    scale: i64,
    block: u32,
    threads: usize,
) -> Vec<AblationRow> {
    let mut jobs: Vec<Job<AblMeta>> = Vec::new();
    for (wi, w) in set.iter().enumerate() {
        let src: Arc<str> = Arc::from(w.source);
        for v in [Vsn::N, Vsn::C] {
            for backend in Backend::ABLATION {
                jobs.push(Job {
                    meta: AblMeta {
                        prog_idx: wi,
                        version: v,
                        backend,
                    },
                    src: src.clone(),
                    params: std_params(nproc, scale),
                    plan: plan_spec(w, v),
                    cfg: backend.config(block),
                });
            }
        }
    }
    run_batch(jobs, threads)
        .into_iter()
        .filter_map(|(job, r)| {
            let r = r.ok()?;
            Some(AblationRow {
                program: set[job.meta.prog_idx].name.to_string(),
                version: job.meta.version.label().to_string(),
                protocol: job.meta.backend.protocol.name().to_string(),
                interconnect: job.meta.backend.interconnect.name().to_string(),
                block,
                nproc: r.nproc,
                misses: r.sim.misses,
                upgrades: r.sim.upgrades,
                invalidations: r.sim.invalidations,
                dir_txns: r.sim.dir_txns,
                exec_cycles: r.exec_cycles,
                fs_stall: r.timing.stall_by_kind[MissKind::FalseSharing as usize],
                queue_stall: r.timing.total_queue(),
                two_hop: r.timing.two_hop,
                three_hop: r.timing.three_hop,
                max_channel_busy: r.timing.max_channel_busy(),
            })
        })
        .collect()
}
