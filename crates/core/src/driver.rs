//! Experiment drivers.
//!
//! Every pipeline run goes through one batch engine. Two entry points
//! feed it a set of independent experiment configurations:
//!
//! - [`run_jobs`] — the reference path: every job is a batch of one on
//!   its own transient [`World`], so nothing (front end, analysis,
//!   interpretation) is shared between jobs; the jobs run on a worker
//!   pool.
//! - [`run_batch`] — the trace-once/simulate-many engine. Front-end
//!   artifacts (checked [`Program`](crate::Program), analysis, bytecode)
//!   are compiled once per distinct (source, params) and shared via
//!   `Arc`; jobs whose memory layouts are address-identical (equal
//!   [`Layout::trace_fingerprint`], confirmed by `trace_eq`) share a
//!   *single* interpretation. Beyond exact matches, *direct-only* layout
//!   groups of the same (front end, run config) — everything except
//!   indirection, whose first-touch allocation is interpreter state —
//!   differ only by a static address bijection, so they also merge into
//!   one pass with a per-group [`Layout::word_map_to`] translation
//!   applied on the way into each simulator. This mirrors the paper's
//!   own methodology — trace each program once, replay the trace through
//!   every simulator configuration — and produces bit-identical
//!   statistics to the reference path (asserted by `tests/batch.rs`).
//!
//! # Parallelism
//!
//! Parallelism is across translation *units* (shared interpretations):
//! the worker pool runs units concurrently, and inside a unit one
//! [`TeeSink`] fans the interpreter's event stream out to every member
//! job's simulator and timing model on the unit's own thread.

use crate::world::{Caches, FeKey, FrontEnd, ResultKey, RunCounters, World};
use crate::{PipelineConfig, PipelineError, RunResult};
use fsr_interp::{MemRef, TeeSink, TraceSink};
use fsr_lang::ast::WORD_BYTES;
use fsr_layout::Layout;
use fsr_machine::TimingModel;
use fsr_sim::{CacheConfig, MultiSim};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One experiment job.
///
/// `M` is caller-owned metadata (program name, block size, version tag…)
/// carried through the driver untouched — experiment generators match
/// results back to cells structurally instead of round-tripping them
/// through parsed label strings. `src` is shared (`Arc<str>`), so
/// enqueueing the same workload source many times costs one allocation,
/// and the batch engine can key its front-end cache on it by content.
#[derive(Debug, Clone)]
pub struct Job<M = ()> {
    pub meta: M,
    pub src: Arc<str>,
    pub params: Vec<(String, i64)>,
    pub plan: PlanSourceSpec,
    pub cfg: PipelineConfig,
}

impl<M> Job<M> {
    pub fn new(
        meta: M,
        src: impl Into<Arc<str>>,
        params: &[(&str, i64)],
        plan: PlanSourceSpec,
        cfg: PipelineConfig,
    ) -> Job<M> {
        Job {
            meta,
            src: src.into(),
            params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            plan,
            cfg,
        }
    }
}

/// Where a job's layout plan comes from. [`FrontEnd::plan`] builds it.
#[derive(Debug, Clone)]
pub enum PlanSourceSpec {
    /// Original declaration-order packed layout ("N" versions).
    Unoptimized,
    /// The compiler's analysis + §3.3 heuristics ("C" versions).
    Compiler,
    /// A hand-written plan ("P" programmer versions), built from the
    /// checked program.
    Programmer(fn(&crate::Program, u32) -> crate::LayoutPlan),
    /// An explicit plan (ablation studies).
    Explicit(crate::LayoutPlan),
}

/// Failure of the driver machinery itself, as opposed to a pipeline
/// failure of the job's program. `Clone` so one shared failure can be
/// reported against every affected job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// A worker thread panicked. The panic is caught at the pool
    /// boundary and attributed to the job being processed, instead of
    /// poisoning the result slots and killing the whole batch.
    WorkerPanic {
        /// Driver stage the worker was running ("front end",
        /// "plan/layout", "simulate", "pipeline").
        stage: &'static str,
        /// Index of the failing job in submission order.
        job_index: usize,
        /// The failing job's `meta`, formatted with `Debug`.
        job_meta: String,
        /// The panic payload, when it was a string.
        payload: String,
    },
    /// Batch grouping put two layouts in one translation unit that are
    /// not address-translation compatible — a driver bug, reported with
    /// both layouts identified instead of panicking deep in a worker.
    IncompatibleLayouts { from: String, to: String },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::WorkerPanic {
                stage,
                job_index,
                job_meta,
                payload,
            } => write!(
                f,
                "worker panicked in {stage} stage on job {job_index} (meta: {job_meta}): {payload}"
            ),
            DriverError::IncompatibleLayouts { from, to } => write!(
                f,
                "no address translation from layout [{from}] to layout [{to}] \
                 (batch grouping should never unite these)"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

/// `threads` with 0 resolved to the machine's available parallelism.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Worker threads actually used for `njobs` jobs: `threads` (0 = the
/// machine's available parallelism) clamped to the job count *after*
/// resolving, so a small batch never oversubscribes its pool.
pub fn effective_threads(threads: usize, njobs: usize) -> usize {
    resolve_threads(threads).clamp(1, njobs.max(1))
}

/// Best-effort string form of a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A [`DriverError::WorkerPanic`] for `jobs[job_index]`, wrapped as a
/// pipeline error.
fn worker_panic<M: fmt::Debug>(
    stage: &'static str,
    job_index: usize,
    jobs: &[Job<M>],
    payload: String,
) -> PipelineError {
    PipelineError::Driver(DriverError::WorkerPanic {
        stage,
        job_index,
        job_meta: format!("{:?}", jobs[job_index].meta),
        payload,
    })
}

/// Order-preserving parallel map over a slice on a scoped worker pool.
/// Each item's computation is individually unwind-guarded: a panicking
/// item yields `Err(payload)` in its own slot while every other item
/// completes normally (the old path left the slot mutex poisoned and
/// died in an opaque `expect("worker completed")`).
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, String>> {
    let run_one =
        |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(&*p));
    let threads = effective_threads(threads, items.len());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    return;
                }
                let r = run_one(&items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every index claimed once"))
        .collect()
}

/// What every driver entry point returns: each job, in submission
/// order, paired with its pipeline result.
pub type JobResults<M> = Vec<(Job<M>, Result<RunResult, PipelineError>)>;

/// Per-job completion callback for streaming batch runs: fires exactly
/// once per job, from whichever worker resolved it.
pub type BatchNotify<'a> = &'a (dyn Fn(usize, &Result<RunResult, PipelineError>) + Sync);

/// Run all jobs independently, using up to `threads` worker threads
/// (0 = available parallelism): each job is a batch of one on its own
/// transient [`World`]. Results keep job order.
pub fn run_jobs<M: Sync + fmt::Debug>(jobs: Vec<Job<M>>, threads: usize) -> JobResults<M> {
    let results = parallel_map(&jobs, threads, |job: &Job<M>| {
        let one = std::slice::from_ref(job);
        let (mut out, _) = run_batch_in(World::transient().snapshot().caches(), one, 1, None);
        out.remove(0)
    });
    let results: Vec<Result<RunResult, PipelineError>> = results
        .into_iter()
        .enumerate()
        .map(|(j, r)| match r {
            // A panic caught inside the one-job batch names index 0;
            // report it against the job's place in this submission.
            Ok(Err(PipelineError::Driver(DriverError::WorkerPanic { stage, payload, .. }))) => {
                Err(worker_panic(stage, j, &jobs, payload))
            }
            Ok(r) => r,
            Err(payload) => Err(worker_panic("pipeline", j, &jobs, payload)),
        })
        .collect();
    jobs.into_iter().zip(results).collect()
}

/// What a batch actually cost, versus `jobs` full pipelines. Every
/// counter is *per run* — a long-lived daemon reports each request's own
/// cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Distinct (source, params) front ends compiled fresh this run.
    pub front_ends: usize,
    /// Front ends served from a warm [`World`] cache instead of
    /// compiling (always 0 on the transient `run_batch*` entry points).
    pub fe_hits: usize,
    /// Sharing analyses computed fresh this run.
    pub analyses: usize,
    /// Trace groups after fingerprinting: sets of jobs whose layouts are
    /// address-identical and so share one trace verbatim.
    pub trace_groups: usize,
    /// Interpreter passes actually executed. At most `trace_groups`:
    /// direct-only groups of the same (front end, run config) are merged
    /// into one pass via per-group address translation
    /// ([`Layout::word_map_to`]), so `jobs - interpretations` interpreter
    /// runs were saved in total. On a warm [`World`], units whose
    /// reference trace was recorded earlier replay it instead of
    /// re-interpreting (`trace_hits`) and don't count here.
    pub interpretations: usize,
    /// Units replayed from a recorded trace instead of interpreting.
    pub trace_hits: usize,
    /// Jobs answered whole from a warm [`World`]'s result cache, without
    /// entering the engine at all.
    pub result_hits: usize,
    /// Always 0. It counted the trace segments of a within-unit sharded
    /// engine that no longer exists; it stays so that readers of
    /// `fsr-serve`'s append-only `stats` wire keep finding the field.
    pub segments: u64,
}

/// Per-job prepared state: the plan and the concrete address map.
/// (Front-end artifacts live in [`crate::world::FrontEnd`], shared
/// across batches by a [`World`]'s content-addressed cache.)
struct Prep {
    plan: crate::LayoutPlan,
    layout: Layout,
    fingerprint: u64,
}

/// The prepared state of job `j` (only called for jobs the engine has
/// proven prepared — skipped and failed jobs never reach here).
fn prep_of(preps: &[Option<Result<Prep, PipelineError>>], j: usize) -> &Prep {
    preps[j]
        .as_ref()
        .expect("job entered the engine")
        .as_ref()
        .expect("job prepared successfully")
}

/// Run all jobs through the batched engine. Results keep job order and
/// are bit-identical to [`run_jobs`] (same `SimStats`, per-object
/// attribution, timing and interpreter statistics).
pub fn run_batch<M: Sync + fmt::Debug>(jobs: Vec<Job<M>>, threads: usize) -> JobResults<M> {
    run_batch_with_stats(jobs, threads).0
}

/// [`run_batch`], additionally reporting how much work was shared.
/// Runs on a throwaway transient [`World`]: front-end artifacts are
/// shared within the batch, and nothing outlives the call. Persistent
/// sharing across calls is the [`World`] / [`crate::world::Snapshot`]
/// API.
pub fn run_batch_with_stats<M: Sync + fmt::Debug>(
    jobs: Vec<Job<M>>,
    threads: usize,
) -> (JobResults<M>, BatchStats) {
    World::transient()
        .snapshot()
        .run_batch_with_stats(jobs, threads)
}

/// The batch engine, running against a [`World`]'s caches. Every
/// pipeline run funnels here — transient worlds reproduce the classic
/// one-shot behavior bit-for-bit, persistent worlds additionally
/// consult and feed the result and trace caches. Returns one result per
/// job, in job order.
///
/// `notify`, when given, fires once per job with its final result, from
/// whichever worker resolved it: result-cache hits immediately (in
/// submission order), prepare failures as soon as phase B settles, and
/// engine-run jobs the moment their translation unit finishes — this is
/// how `fsr-serve` streams per-cell results before the batch completes.
pub(crate) fn run_batch_in<M: Sync + fmt::Debug>(
    caches: &Caches,
    jobs: &[Job<M>],
    threads: usize,
    notify: Option<BatchNotify<'_>>,
) -> (Vec<Result<RunResult, PipelineError>>, BatchStats) {
    let n = jobs.len();
    let mut stats = BatchStats {
        jobs: n,
        ..BatchStats::default()
    };
    if n == 0 {
        return (Vec::new(), stats);
    }
    let rc = RunCounters::default();
    let notify_one = |j: usize, r: &Result<RunResult, PipelineError>| {
        if let Some(f) = notify {
            f(j, r);
        }
    };
    let mut slots: Vec<Option<Result<RunResult, PipelineError>>> = (0..n).map(|_| None).collect();

    // Phase R — whole-result probe (persistent worlds only): a job
    // identical to one served before (same source content, params, plan
    // spec and full config) is answered from the result cache without
    // entering the engine at all. A missed job keeps its key, so its
    // fresh result can be stored at the end.
    let mut rkeys: Vec<Option<ResultKey>> = jobs.iter().map(|job| caches.result_key(job)).collect();
    for (j, key) in rkeys.iter_mut().enumerate() {
        if let Some(r) = key.as_ref().and_then(|k| caches.result_get(k)) {
            *key = None;
            stats.result_hits += 1;
            let r = Ok((*r).clone());
            notify_one(j, &r);
            slots[j] = Some(r);
        }
    }

    // Phase A — front ends through the world cache: one compile (+
    // bytecode, + analysis when any job needs the compiler plan) per
    // distinct (source, params) content — per batch on a transient
    // world, *ever* on a persistent one.
    let mut fe_ids: HashMap<FeKey, usize> = HashMap::new();
    let mut fe_of_job: Vec<usize> = vec![usize::MAX; n];
    let mut fe_needs_analysis: Vec<bool> = Vec::new();
    let mut fe_rep: Vec<usize> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        if slots[j].is_some() {
            continue;
        }
        let next_id = fe_ids.len();
        let id = *fe_ids
            .entry((job.src.clone(), job.params.clone()))
            .or_insert(next_id);
        if id == fe_needs_analysis.len() {
            fe_needs_analysis.push(false);
            fe_rep.push(j);
        }
        if matches!(job.plan, PlanSourceSpec::Compiler) {
            fe_needs_analysis[id] = true;
        }
        fe_of_job[j] = id;
    }

    let fe_inputs: Vec<(usize, bool)> = fe_rep
        .iter()
        .copied()
        .zip(fe_needs_analysis.iter().copied())
        .collect();
    let fronts: Vec<Result<Arc<FrontEnd>, PipelineError>> =
        parallel_map(&fe_inputs, threads, |&(j, needs_analysis)| {
            let job = &jobs[j];
            caches.front_end(&job.src, &job.params, needs_analysis, &rc)
        })
        .into_iter()
        .zip(&fe_inputs)
        .map(|(r, &(j, _))| match r {
            Ok(r) => r,
            Err(payload) => Err(worker_panic("front end", j, jobs, payload)),
        })
        .collect();

    // Phase B — per-job plan, layout and trace fingerprint (jobs already
    // answered from the result cache are skipped).
    let active: Vec<usize> = (0..n).filter(|&j| slots[j].is_none()).collect();
    let prep_results = parallel_map(&active, threads, |&j| {
        let fe: &FrontEnd = fronts[fe_of_job[j]]
            .as_ref()
            .map_err(PipelineError::clone)?;
        let plan = fe.plan(&jobs[j].plan, &jobs[j].cfg)?;
        let layout = Layout::try_build(&fe.prog, &plan, fe.nproc)?;
        let fingerprint = layout.trace_fingerprint();
        Ok(Prep {
            plan,
            layout,
            fingerprint,
        })
    });
    let mut preps: Vec<Option<Result<Prep, PipelineError>>> = (0..n).map(|_| None).collect();
    for (r, &j) in prep_results.into_iter().zip(&active) {
        preps[j] = Some(match r {
            Ok(r) => r,
            Err(payload) => Err(worker_panic("plan/layout", j, jobs, payload)),
        });
    }
    for j in 0..n {
        if let Some(Err(e)) = &preps[j] {
            let r = Err(e.clone());
            notify_one(j, &r);
            slots[j] = Some(r);
        }
    }

    // Phase C — group jobs whose traces are provably identical: same
    // front end, same interpreter config, same address map. The
    // fingerprint buckets candidates; exact `trace_eq` splits any hash
    // collision.
    let mut buckets: HashMap<(usize, fsr_interp::RunConfig, u64), Vec<usize>> = HashMap::new();
    for &j in &active {
        if let Some(Ok(p)) = &preps[j] {
            buckets
                .entry((fe_of_job[j], jobs[j].cfg.run, p.fingerprint))
                .or_default()
                .push(j);
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for bucket in buckets.into_values() {
        let mut parts: Vec<Vec<usize>> = Vec::new();
        for j in bucket {
            let lay = &prep_of(&preps, j).layout;
            match parts
                .iter_mut()
                .find(|p| prep_of(&preps, p[0]).layout.trace_eq(lay))
            {
                Some(p) => p.push(j),
                None => parts.push(vec![j]),
            }
        }
        groups.append(&mut parts);
    }
    stats.trace_groups = groups.len();

    // Phase C' — translation super-groups. Two direct-only layouts of the
    // same front end are related by a static word-address bijection (the
    // interpreter's only layout dependence is the pure `resolve`; with no
    // indirection there is no first-touch state). All direct-only groups
    // sharing a (front end, run config) therefore merge into ONE
    // interpreter pass: the first group's layout drives the VM, and each
    // other group rewrites the address stream through its
    // [`Layout::word_map_to`] map on the way into its simulators. Groups
    // with indirection keep their own pass.
    let mut unit_ids: HashMap<(usize, fsr_interp::RunConfig), usize> = HashMap::new();
    let mut units: Vec<Vec<Vec<usize>>> = Vec::new();
    for group in groups {
        let rep = group[0];
        if prep_of(&preps, rep).layout.direct_only() {
            let next = units.len();
            let id = *unit_ids
                .entry((fe_of_job[rep], jobs[rep].cfg.run))
                .or_insert(next);
            if id == units.len() {
                units.push(Vec::new());
            }
            units[id].push(group);
        } else {
            units.push(vec![group]);
        }
    }

    // Phase D — one interpretation (or trace replay, on a warm world)
    // per unit, fanned out to per-job simulators + timing models; the
    // worker pool runs units concurrently.
    let group_outputs = parallel_map(&units, threads, |unit| {
        let out = run_unit(jobs, &fronts, &fe_of_job, &preps, unit, caches, &rc);
        for (j, r) in &out {
            notify_one(*j, r);
        }
        out
    });

    for (u, out) in group_outputs.into_iter().enumerate() {
        match out {
            Ok(out) => {
                for (j, r) in out {
                    slots[j] = Some(r);
                }
            }
            // A panic inside a unit is charged to every member job of
            // the unit.
            Err(payload) => {
                for &j in units[u].iter().flatten() {
                    let r = Err(worker_panic("simulate", j, jobs, payload.clone()));
                    notify_one(j, &r);
                    slots[j] = Some(r);
                }
            }
        }
    }

    stats.front_ends = rc.fe_fresh.load(Ordering::Relaxed);
    stats.fe_hits = rc.fe_hits.load(Ordering::Relaxed);
    stats.analyses = rc.analyses.load(Ordering::Relaxed);
    stats.interpretations = rc.interpretations.load(Ordering::Relaxed);
    stats.trace_hits = rc.trace_hits.load(Ordering::Relaxed);

    // Feed fresh successes back into the result cache (persistent
    // worlds only), so the next identical job takes phase R.
    for (key, slot) in rkeys.into_iter().zip(&slots) {
        if let (Some(key), Some(Ok(r))) = (key, slot) {
            caches.result_put(key, Arc::new(r.clone()));
        }
    }

    let results = slots
        .into_iter()
        .map(|r| r.expect("every job resolved"))
        .collect();
    (results, stats)
}

/// Identify a layout in diagnostics.
fn layout_desc(lay: &Layout) -> String {
    format!(
        "fingerprint {:#018x}, {} words",
        lay.trace_fingerprint(),
        lay.total_words()
    )
}

/// Translate a driving-layout address through a group's word map
/// (`None` = the driving group itself, identity).
fn translate(map: Option<&Vec<u32>>, addr: u32) -> u32 {
    match map {
        None => addr,
        Some(m) => {
            let w = m[(addr / WORD_BYTES) as usize];
            debug_assert_ne!(w, u32::MAX, "resolvable addresses are always mapped");
            w * WORD_BYTES
        }
    }
}

/// Drive every member job's cache simulator and timing model with a
/// unit's shared trace through a [`TeeSink`] of per-group translating
/// [`GroupSink`]s. The world decides where the trace comes from
/// ([`Caches::drive`]): one interpretation on a transient world, a
/// recording (made now or earlier) on a persistent one.
fn run_unit<M>(
    jobs: &[Job<M>],
    fronts: &[Result<Arc<FrontEnd>, PipelineError>],
    fe_of_job: &[usize],
    preps: &[Option<Result<Prep, PipelineError>>],
    unit: &[Vec<usize>],
    caches: &Caches,
    rc: &RunCounters,
) -> Vec<(usize, Result<RunResult, PipelineError>)> {
    let rep = unit[0][0];
    let fe: &FrontEnd = fronts[fe_of_job[rep]]
        .as_ref()
        .expect("units only contain prepared jobs");
    let nproc = fe.nproc;
    let rep_layout = &prep_of(preps, rep).layout;

    // Per-group translation maps up front: a group whose layout turns
    // out not to be reachable from the driving layout gets a structured
    // error naming both layouts, and its siblings proceed (the old path
    // panicked the whole unit's worker from deep inside sink setup).
    let mut failed: Vec<(usize, Result<RunResult, PipelineError>)> = Vec::new();
    let mut live: Vec<(&Vec<usize>, Option<Vec<u32>>)> = Vec::new();
    for (gi, group) in unit.iter().enumerate() {
        if gi == 0 {
            live.push((group, None));
            continue;
        }
        let glay = &prep_of(preps, group[0]).layout;
        match rep_layout.word_map_to(glay) {
            Some(map) => live.push((group, Some(map))),
            None => {
                let e = PipelineError::Driver(DriverError::IncompatibleLayouts {
                    from: layout_desc(rep_layout),
                    to: layout_desc(glay),
                });
                failed.extend(group.iter().map(|&j| (j, Err(e.clone()))));
            }
        }
    }

    let members: Vec<&Vec<usize>> = live.iter().map(|(g, _)| *g).collect();
    let group_sinks: Vec<GroupSink> = live
        .into_iter()
        .map(|(group, map)| {
            let bound_bytes = group_bound_bytes(preps, group);
            let sinks = group
                .iter()
                .map(|&j| {
                    crate::PipelineSink::new(
                        MultiSim::new(sim_cfg_of(jobs, j, nproc), bound_bytes),
                        TimingModel::new(jobs[j].cfg.machine, nproc),
                    )
                })
                .collect();
            GroupSink { map, sinks }
        })
        .collect();
    let mut tee = TeeSink::new(group_sinks);
    let run_out = caches.drive(fe, rep_layout, jobs[rep].cfg.run, &mut tee, rc);

    let mut out: Vec<(usize, Result<RunResult, PipelineError>)> = match run_out {
        Err(e) => members
            .iter()
            .flat_map(|g| g.iter())
            .map(|&j| (j, Err(PipelineError::Runtime(e.clone()))))
            .collect(),
        Ok(stats) => tee
            .into_inner()
            .into_iter()
            .zip(members)
            .flat_map(|(gs, group)| {
                gs.sinks
                    .into_iter()
                    .zip(group)
                    .map(|(sink, &j)| {
                        let prep = prep_of(preps, j);
                        let r = sink.into_result(nproc, prep.plan.clone(), stats.clone(), |addr| {
                            prep.layout
                                .attribute(addr)
                                .map(|oid| fe.prog.object(oid).name.clone())
                        });
                        (j, Ok(r))
                    })
                    .collect::<Vec<_>>()
            })
            .collect(),
    };
    out.append(&mut failed);
    out
}

/// One trace group's receiving end inside a translation unit: rewrites
/// each reference through the group's word map (identity for the group
/// whose layout drives the interpreter), then fans it out to the group's
/// per-job simulator + timing sinks.
struct GroupSink {
    /// Word-indexed translation from the driving layout's addresses to
    /// this group's; `None` = identity (the driving group itself).
    map: Option<Vec<u32>>,
    sinks: Vec<crate::PipelineSink>,
}

impl TraceSink for GroupSink {
    fn access(&mut self, r: MemRef) {
        let r = MemRef {
            addr: translate(self.map.as_ref(), r.addr),
            ..r
        };
        for s in &mut self.sinks {
            s.access(r);
        }
    }

    fn sync(&mut self, pids: &[u32]) {
        for s in &mut self.sinks {
            s.sync(pids);
        }
    }

    fn handoff(&mut self, from: u32, to: u32) {
        for s in &mut self.sinks {
            s.handoff(from, to);
        }
    }

    fn steal(&mut self, thief: u32, victim: u32) {
        for s in &mut self.sinks {
            s.steal(thief, victim);
        }
    }
}

/// The simulation cache config for job `j` of a unit.
fn sim_cfg_of<M>(jobs: &[Job<M>], j: usize, nproc: u32) -> CacheConfig {
    let cfg = &jobs[j].cfg;
    CacheConfig {
        nproc,
        block_bytes: cfg.block_bytes,
        cache_bytes: cfg.cache_bytes,
        assoc: cfg.assoc,
        protocol: cfg.protocol,
    }
}

/// One address-space bound per group: group members differ at most in
/// trailing alignment slack, and a larger bound only sizes vectors —
/// statistics are unaffected.
fn group_bound_bytes(preps: &[Option<Result<Prep, PipelineError>>], group: &[usize]) -> u32 {
    group
        .iter()
        .map(|&j| prep_of(preps, j).layout.total_words())
        .max()
        .unwrap()
        * WORD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &str = "param NPROC = 2; shared int c[NPROC];
               fn main() { forall p in 0 .. NPROC { var i;
                   for i in 0 .. 50 { c[p] = c[p] + 1; } } }";

    fn block_jobs(blocks: &[u32]) -> Vec<Job<u32>> {
        blocks
            .iter()
            .map(|&b| Job {
                meta: b,
                src: Arc::from(COUNTERS),
                params: vec![],
                plan: PlanSourceSpec::Unoptimized,
                cfg: PipelineConfig::with_block(b),
            })
            .collect()
    }

    #[test]
    fn parallel_jobs_produce_ordered_results() {
        let out = run_jobs(block_jobs(&[16, 32, 64, 128]), 2);
        assert_eq!(out.len(), 4);
        for (i, (job, r)) in out.iter().enumerate() {
            assert_eq!(job.meta, [16, 32, 64, 128][i]);
            assert!(r.is_ok());
        }
        // Larger blocks: at least as much false sharing.
        let fs: Vec<u64> = out
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().sim.false_sharing())
            .collect();
        assert!(fs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn errors_are_reported_per_job() {
        let mut jobs = vec![Job {
            meta: (),
            src: Arc::from("fn main() {"),
            params: vec![],
            plan: PlanSourceSpec::Unoptimized,
            cfg: PipelineConfig::default(),
        }];
        let panicking = PlanSourceSpec::Programmer(|_, _| panic!("plan exploded deliberately"));
        jobs.push(Job {
            src: Arc::from(COUNTERS),
            plan: panicking,
            ..jobs[0].clone()
        });
        let out = run_jobs(jobs, 1);
        assert!(out[0].1.is_err());
        // The panic is caught inside the job's own one-job batch and
        // reported against its index in this submission.
        let e = &out[1].1;
        let stage_and_index = match e {
            Err(PipelineError::Driver(DriverError::WorkerPanic {
                stage, job_index, ..
            })) => Some((*stage, *job_index)),
            _ => None,
        };
        assert_eq!(stage_and_index, Some(("plan/layout", 1)), "{e:?}");
    }

    #[test]
    fn effective_threads_clamps_to_job_count() {
        assert_eq!(effective_threads(8, 3), 3, "small batch, explicit pool");
        assert_eq!(effective_threads(2, 5), 2);
        assert_eq!(effective_threads(5, 5), 5);
        assert_eq!(effective_threads(3, 0), 1, "empty batch still gets one");
        // threads = 0 resolves available parallelism FIRST, then clamps:
        // a single job never gets more than one worker no matter how
        // wide the machine is.
        assert_eq!(effective_threads(0, 1), 1);
        assert!(effective_threads(0, 1000) >= 1);
    }

    #[test]
    fn batch_matches_reference_path_per_block() {
        let blocks = [16u32, 32, 64, 128];
        let reference = run_jobs(block_jobs(&blocks), 1);
        let (batched, stats) = run_batch_with_stats(block_jobs(&blocks), 1);
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.front_ends, 1, "one (source, params) key");
        // Unoptimized layouts ignore the block size: one shared trace.
        assert_eq!(stats.trace_groups, 1);
        assert_eq!(stats.interpretations, 1);
        for ((_, want), (job, got)) in reference.iter().zip(&batched) {
            let want = want.as_ref().unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(want.sim, got.sim, "block {}", job.meta);
            assert_eq!(want.per_obj, got.per_obj, "block {}", job.meta);
            assert_eq!(
                want.per_obj_coherence, got.per_obj_coherence,
                "block {}",
                job.meta
            );
            assert_eq!(want.per_obj_refs, got.per_obj_refs, "block {}", job.meta);
            assert_eq!(want.exec_cycles, got.exec_cycles, "block {}", job.meta);
            assert_eq!(want.timing, got.timing, "block {}", job.meta);
            assert_eq!(want.interp, got.interp, "block {}", job.meta);
        }
    }

    #[test]
    fn sharded_batch_is_bit_identical_to_serial() {
        // A batch is sharded across worker threads one translation unit
        // at a time; three NPROC values give three units to spread.
        let jobs: Vec<Job<(i64, u32)>> = [2i64, 3, 4]
            .iter()
            .flat_map(|&nproc| {
                [16u32, 64].into_iter().flat_map(move |b| {
                    [PlanSourceSpec::Unoptimized, PlanSourceSpec::Compiler]
                        .into_iter()
                        .map(move |plan| Job {
                            meta: (nproc, b),
                            src: Arc::from(COUNTERS),
                            params: vec![("NPROC".to_string(), nproc)],
                            plan,
                            cfg: PipelineConfig::with_block(b),
                        })
                })
            })
            .collect();
        let (serial, serial_stats) = run_batch_with_stats(jobs.clone(), 1);
        let (sharded, stats) = run_batch_with_stats(jobs, 3);
        assert_eq!(serial_stats.interpretations, 3, "one unit per NPROC");
        assert_eq!(stats.front_ends, serial_stats.front_ends);
        assert_eq!(stats.trace_groups, serial_stats.trace_groups);
        assert_eq!(stats.interpretations, serial_stats.interpretations);
        for ((_, want), (job, got)) in serial.iter().zip(&sharded) {
            let want = want.as_ref().unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(want.sim, got.sim, "job {:?}", job.meta);
            assert_eq!(want.per_obj, got.per_obj, "job {:?}", job.meta);
            assert_eq!(
                want.per_obj_coherence, got.per_obj_coherence,
                "job {:?}",
                job.meta
            );
            assert_eq!(want.per_obj_refs, got.per_obj_refs, "job {:?}", job.meta);
            assert_eq!(want.exec_cycles, got.exec_cycles, "job {:?}", job.meta);
            assert_eq!(want.timing, got.timing, "job {:?}", job.meta);
            assert_eq!(want.interp, got.interp, "job {:?}", job.meta);
        }
    }

    #[test]
    fn panicking_plan_reports_job_meta_and_spares_siblings() {
        let mut jobs = block_jobs(&[16, 32]);
        jobs.insert(
            1,
            Job {
                meta: 999,
                src: Arc::from(COUNTERS),
                params: vec![],
                plan: PlanSourceSpec::Programmer(|_, _| panic!("plan exploded deliberately")),
                cfg: PipelineConfig::with_block(64),
            },
        );
        let out = run_batch(jobs, 2);
        assert_eq!(out.len(), 3);
        match &out[1].1 {
            Err(PipelineError::Driver(DriverError::WorkerPanic {
                stage,
                job_index,
                job_meta,
                payload,
            })) => {
                assert_eq!(*stage, "plan/layout");
                assert_eq!(*job_index, 1);
                assert!(job_meta.contains("999"), "meta carried: {job_meta}");
                assert!(
                    payload.contains("plan exploded deliberately"),
                    "payload carried: {payload}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(
            out[0].1.is_ok(),
            "sibling before the panicking job survives"
        );
        assert!(out[2].1.is_ok(), "sibling after the panicking job survives");
    }

    #[test]
    fn batch_splits_groups_when_layouts_differ() {
        // Compiler plans pad/transpose by block size: distinct traces.
        let jobs: Vec<Job<u32>> = [32u32, 128]
            .iter()
            .flat_map(|&b| {
                [PlanSourceSpec::Unoptimized, PlanSourceSpec::Compiler]
                    .into_iter()
                    .map(move |plan| Job {
                        meta: b,
                        src: Arc::from(COUNTERS),
                        params: vec![],
                        plan,
                        cfg: PipelineConfig::with_block(b),
                    })
            })
            .collect();
        let reference = run_jobs(jobs.clone(), 1);
        let (out, stats) = run_batch_with_stats(jobs, 0);
        assert_eq!(stats.front_ends, 1);
        assert_eq!(stats.analyses, 1);
        // 1 shared unoptimized group + one compiler group per block.
        assert_eq!(stats.trace_groups, 3);
        // All three groups are direct-only layouts of one front end, so
        // address translation collapses them into a single interpreter
        // pass...
        assert_eq!(stats.interpretations, 1);
        // ...whose translated statistics still match the reference path
        // exactly.
        for ((_, want), (job, got)) in reference.iter().zip(&out) {
            let want = want.as_ref().unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(want.sim, got.sim, "block {}", job.meta);
            assert_eq!(want.per_obj, got.per_obj, "block {}", job.meta);
            assert_eq!(want.exec_cycles, got.exec_cycles, "block {}", job.meta);
            assert_eq!(want.timing, got.timing, "block {}", job.meta);
        }
    }

    #[test]
    fn batch_reports_front_end_errors_per_job() {
        let jobs: Vec<Job<()>> = (0..3)
            .map(|_| Job {
                meta: (),
                src: Arc::from("fn main() {"),
                params: vec![],
                plan: PlanSourceSpec::Unoptimized,
                cfg: PipelineConfig::default(),
            })
            .collect();
        let (out, stats) = run_batch_with_stats(jobs, 1);
        assert_eq!(stats.front_ends, 1, "broken source compiled once");
        assert_eq!(stats.trace_groups, 0);
        assert_eq!(stats.interpretations, 0);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, r)| r.is_err()));
    }

    #[test]
    fn batch_reports_runtime_errors_for_every_group_member() {
        let src = "shared int a[2]; fn main() { forall p in 0 .. 4 { a[p] = 1; } }";
        let jobs: Vec<Job<u32>> = [16u32, 64]
            .iter()
            .map(|&b| Job {
                meta: b,
                src: Arc::from(src),
                params: vec![],
                plan: PlanSourceSpec::Unoptimized,
                cfg: PipelineConfig::with_block(b),
            })
            .collect();
        let out = run_batch(jobs, 1);
        for (_, r) in &out {
            assert!(matches!(r, Err(PipelineError::Runtime(_))));
        }
    }

    #[test]
    fn sharded_path_reports_runtime_errors_too() {
        // Two failing units and one healthy unit, spread over two
        // workers: each failure reaches every member of its own unit
        // and no other.
        let bad = "shared int a[2]; fn main() { forall p in 0 .. 4 { a[p] = 1; } }";
        let worse = "shared int a[3]; fn main() { forall p in 0 .. 4 { a[p + 1] = 1; } }";
        let jobs: Vec<Job<&str>> = [("bad", bad), ("worse", worse), ("ok", COUNTERS)]
            .iter()
            .flat_map(|&(name, src)| {
                [16u32, 64].into_iter().map(move |b| Job {
                    meta: name,
                    src: Arc::from(src),
                    params: vec![],
                    plan: PlanSourceSpec::Unoptimized,
                    cfg: PipelineConfig::with_block(b),
                })
            })
            .collect();
        let (out, stats) = run_batch_with_stats(jobs, 2);
        assert_eq!(stats.interpretations, 3, "one unit per source");
        for (job, r) in &out {
            if job.meta == "ok" {
                assert!(r.is_ok(), "healthy unit unaffected: {r:?}");
            } else {
                assert!(
                    matches!(r, Err(PipelineError::Runtime(_))),
                    "{}: {r:?}",
                    job.meta
                );
            }
        }
    }
}
