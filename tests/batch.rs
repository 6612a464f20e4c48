//! Equivalence and work-sharing guarantees of the batched experiment
//! engine (`run_batch`) against the reference per-job pipeline.

use fsr_core::driver::{
    effective_threads, run_batch, run_batch_with_stats, DriverError, Job, PlanSourceSpec,
};
use fsr_core::{run_pipeline, PipelineConfig, PipelineError, RunResult};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialize tests in this binary: the interpreter-run counter is
/// process-global, so concurrent tests would perturb each other's deltas.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];

fn assert_same(want: &RunResult, got: &RunResult, ctx: &str) {
    assert_eq!(want.nproc, got.nproc, "{ctx}: nproc");
    assert_eq!(want.sim, got.sim, "{ctx}: sim stats");
    assert_eq!(want.per_obj, got.per_obj, "{ctx}: per-object misses");
    assert_eq!(
        want.per_obj_coherence, got.per_obj_coherence,
        "{ctx}: per-object coherence"
    );
    assert_eq!(want.exec_cycles, got.exec_cycles, "{ctx}: exec cycles");
    assert_eq!(want.timing, got.timing, "{ctx}: timing stats");
    assert_eq!(want.interp, got.interp, "{ctx}: interp stats");
    assert_eq!(
        want.fs_stall_frac.to_bits(),
        got.fs_stall_frac.to_bits(),
        "{ctx}: fs stall fraction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random (workload, nproc, block pair), a batch over the N and C
    /// versions at both blocks is bit-identical to per-cell
    /// `run_pipeline` on every statistic.
    #[test]
    fn batch_equals_reference_pipeline(
        wi in 0usize..6,
        bi in 0usize..6,
        bj in 0usize..6,
        nproc in 2i64..5,
    ) {
        let _g = gate();
        let set = fsr_workloads::figure3_set();
        let w = &set[wi % set.len()];
        let src: Arc<str> = Arc::from(w.source);
        let params = [("NPROC", nproc), ("SCALE", 1)];

        let mut jobs: Vec<Job<String>> = Vec::new();
        let mut reference: Vec<RunResult> = Vec::new();
        for &b in &[BLOCKS[bi % 6], BLOCKS[bj % 6]] {
            for plan in [PlanSourceSpec::Unoptimized, PlanSourceSpec::Compiler] {
                let cfg = PipelineConfig::with_block(b);
                reference.push(run_pipeline(w.source, &params, plan.clone(), &cfg).unwrap());
                jobs.push(Job::new(
                    format!("{}/{b}/{plan:?}", w.name),
                    src.clone(),
                    &params,
                    plan,
                    cfg,
                ));
            }
        }

        let (out, stats) = run_batch_with_stats(jobs, 1);
        prop_assert_eq!(stats.front_ends, 1);
        prop_assert!(stats.trace_groups <= stats.jobs);
        for ((job, got), want) in out.iter().zip(&reference) {
            assert_same(want, got.as_ref().unwrap(), &job.meta);
        }
    }
}

const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. 200 { c[p] = c[p] + 1; } } }";

#[test]
fn fingerprint_equal_jobs_share_one_interpretation() {
    let _g = gate();
    // Unoptimized layouts never consult the block size, so all six block
    // sizes must collapse into a single trace group — and a single
    // interpreter run, which the global run counter can observe.
    let jobs: Vec<Job<u32>> = BLOCKS
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(COUNTERS),
            params: vec![],
            plan: PlanSourceSpec::Unoptimized,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let before = fsr_interp::runs_started();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    let after = fsr_interp::runs_started();
    assert_eq!(stats.jobs, 6);
    assert_eq!(stats.front_ends, 1);
    assert_eq!(stats.trace_groups, 1, "one shared trace across blocks");
    assert_eq!(after - before, 1, "exactly one interpreter run");
    assert!(out.iter().all(|(_, r)| r.is_ok()));
    // The shared trace still yields block-dependent simulation results.
    let fs: Vec<u64> = out
        .iter()
        .map(|(_, r)| r.as_ref().unwrap().sim.false_sharing())
        .collect();
    assert!(fs.windows(2).all(|w| w[0] <= w[1]));
    assert!(fs[5] > fs[0], "larger blocks must false-share more");
}

#[test]
fn block_dependent_plans_translate_into_one_pass() {
    let _g = gate();
    // A padded (compiler) layout changes with the block size: each block
    // keeps its own trace group. But all three layouts are direct-only,
    // so address translation merges them into ONE interpreter pass — and
    // statistics must still match the reference path exactly.
    let jobs: Vec<Job<u32>> = [16u32, 64, 256]
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(COUNTERS),
            params: vec![],
            plan: PlanSourceSpec::Compiler,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let before = fsr_interp::runs_started();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    let after = fsr_interp::runs_started();
    assert_eq!(stats.trace_groups, 3, "distinct padded address maps");
    assert_eq!(stats.interpretations, 1, "translated into one pass");
    assert_eq!(after - before, 1, "exactly one interpreter run");
    for (job, r) in &out {
        let got = r.as_ref().unwrap();
        let want = run_pipeline(
            COUNTERS,
            &[],
            PlanSourceSpec::Compiler,
            &PipelineConfig::with_block(job.meta),
        )
        .unwrap();
        assert_same(&want, got, &format!("block {}", job.meta));
    }
}

#[test]
fn indirection_groups_keep_their_own_pass() {
    let _g = gate();
    // First-touch arena allocation is interpreter state, not a static
    // address map: indirected layouts must never share a translated pass.
    let src = "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
        fn main() {
            var q;
            for q in 0 .. NPROC + 1 { first[q] = q * 64; }
            forall p in 0 .. NPROC { var i; var t;
                for t in 0 .. 50 {
                for i in first[p] .. first[p + 1] { d[i] = d[i] + 1; } }
            }
        }";
    let jobs: Vec<Job<u32>> = [16u32, 64]
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(src),
            params: vec![],
            plan: PlanSourceSpec::Compiler,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let before = fsr_interp::runs_started();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    let after = fsr_interp::runs_started();
    assert_eq!(stats.trace_groups, 2);
    assert_eq!(stats.interpretations, 2, "indirection is never translated");
    assert_eq!(after - before, 2);
    for (job, r) in &out {
        let got = r.as_ref().unwrap();
        let want = run_pipeline(
            src,
            &[],
            PlanSourceSpec::Compiler,
            &PipelineConfig::with_block(job.meta),
        )
        .unwrap();
        assert_same(&want, got, &format!("block {}", job.meta));
    }
}

#[test]
fn batch_caches_front_ends_across_plan_variants() {
    let _g = gate();
    let mut jobs: Vec<Job<&'static str>> = Vec::new();
    let src: Arc<str> = Arc::from(COUNTERS);
    for (tag, plan) in [
        ("unopt", PlanSourceSpec::Unoptimized),
        ("compiler", PlanSourceSpec::Compiler),
    ] {
        for &b in &[32u32, 128] {
            jobs.push(Job {
                meta: tag,
                src: src.clone(),
                params: vec![],
                plan: plan.clone(),
                cfg: PipelineConfig::with_block(b),
            });
        }
    }
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.front_ends, 1, "same (source, params) compiled once");
    assert_eq!(stats.analyses, 1, "analysis shared by all compiler jobs");
    assert!(out.iter().all(|(_, r)| r.is_ok()));
}

/// A deterministic panic planted in one job's plan stage must come back
/// as a structured `WorkerPanic` naming that job's index and meta — and
/// every sibling job, running on the same worker pool, must complete
/// normally (the old path poisoned the result slots and aborted the
/// whole batch).
#[test]
fn panicking_job_reports_meta_without_wedging_siblings() {
    let _g = gate();
    let src: Arc<str> = Arc::from(COUNTERS);
    let mk = |meta: &str, plan| Job {
        meta: meta.to_string(),
        src: src.clone(),
        params: vec![],
        plan,
        cfg: PipelineConfig::with_block(64),
    };
    let jobs = vec![
        mk("healthy-0", PlanSourceSpec::Unoptimized),
        mk(
            "seeded-panic",
            PlanSourceSpec::Programmer(|_, _| panic!("seeded plan panic")),
        ),
        mk("healthy-2", PlanSourceSpec::Compiler),
    ];
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
            assert!(job_meta.contains("seeded-panic"), "meta: {job_meta}");
            assert!(payload.contains("seeded plan panic"), "payload: {payload}");
        }
        other => panic!("expected structured WorkerPanic, got {other:?}"),
    }
    assert!(out[0].1.is_ok(), "sibling 0 must finish");
    assert!(out[2].1.is_ok(), "sibling 2 must finish");
}

/// The thread budget resolves available parallelism *before* clamping
/// to the job count, so a small batch on a wide machine never spawns
/// idle workers.
#[test]
fn thread_budget_never_oversubscribes_small_batches() {
    assert_eq!(effective_threads(16, 2), 2);
    assert_eq!(effective_threads(1, 100), 1);
    assert_eq!(effective_threads(0, 1), 1, "auto on a single job is serial");
    assert_eq!(
        effective_threads(4, 0),
        1,
        "empty batch still gets a worker"
    );
    let auto = effective_threads(0, usize::MAX);
    assert!(
        auto >= 1,
        "auto resolves to at least one thread, got {auto}"
    );
}
