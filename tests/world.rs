//! The persistent `World` layer: content-addressed sharing across
//! snapshots, whole-result serving on repeat requests, and *surgical*
//! invalidation — editing one of N open sources must recompile and
//! re-interpret only the entries that content touched, observed through
//! the process-global interpreter-run counter (the `tests/batch.rs`
//! technique) and through `Arc` pointer identity of the untouched
//! front ends.

use fsr_core::driver::{Job, PlanSourceSpec};
use fsr_core::{PipelineConfig, World};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialize tests in this binary: the interpreter-run counter is
/// process-global, so concurrent tests would perturb each other's deltas.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Three distinct little programs — distinct contents, so the world
/// holds three independent front ends.
fn source(reps: u32) -> String {
    format!(
        "param NPROC = 2; shared int c[NPROC];
         fn main() {{ forall p in 0 .. NPROC {{ var i;
             for i in 0 .. {reps} {{ c[p] = c[p] + 1; }} }} }}"
    )
}

fn job(src: &Arc<str>, meta: usize) -> Job<usize> {
    Job {
        meta,
        src: src.clone(),
        params: vec![],
        plan: PlanSourceSpec::Unoptimized,
        cfg: PipelineConfig::with_block(64),
    }
}

fn run_all(world: &World, docs: &[&str]) -> (Vec<u64>, fsr_core::driver::BatchStats) {
    let snapshot = world.snapshot();
    let jobs: Vec<Job<usize>> = docs
        .iter()
        .enumerate()
        .map(|(i, name)| job(&snapshot.doc(name).expect("doc open"), i))
        .collect();
    let (out, stats) = snapshot.run_batch_with_stats(jobs, 1);
    let cycles = out
        .into_iter()
        .map(|(_, r)| r.expect("clean run").exec_cycles)
        .collect();
    (cycles, stats)
}

#[test]
fn editing_one_source_recompiles_only_that_entry() {
    let _g = gate();
    let mut world = World::new();
    let docs = ["a", "b", "c"];
    for (i, name) in docs.iter().enumerate() {
        world.open(name, source(40 + 10 * i as u32));
    }

    // Cold: every doc compiles and interprets once.
    let before = fsr_interp::runs_started();
    let (cold, stats) = run_all(&world, &docs);
    assert_eq!(stats.front_ends, 3, "three distinct contents compile");
    assert_eq!(stats.interpretations, 3);
    assert_eq!(fsr_interp::runs_started() - before, 3);

    // Warm repeat: the whole batch is served from the result cache —
    // zero interpreter passes, zero front-end work, identical results.
    let before = fsr_interp::runs_started();
    let (warm, stats) = run_all(&world, &docs);
    assert_eq!(stats.result_hits, 3, "all three served whole");
    assert_eq!(stats.front_ends + stats.fe_hits, 0);
    assert_eq!(stats.interpretations, 0);
    assert_eq!(
        fsr_interp::runs_started() - before,
        0,
        "no interpreter runs"
    );
    assert_eq!(cold, warm);

    // Hold the untouched front-end Arcs across the edit.
    let snapshot = world.snapshot();
    let fe_b = snapshot
        .front_end(&snapshot.doc("b").unwrap(), &[])
        .unwrap();
    let fe_c = snapshot
        .front_end(&snapshot.doc("c").unwrap(), &[])
        .unwrap();

    // Edit doc "a": exactly its cached artifacts fall out.
    let evicted = world.change("a", source(99)).expect("doc is open");
    assert_eq!(evicted.front_ends, 1, "only the edited content evicts");
    assert_eq!(evicted.results, 1);

    // Re-run all three: only "a" recompiles and re-interprets; "b" and
    // "c" are still whole-result hits backed by the same Arcs.
    let before = fsr_interp::runs_started();
    let (after_edit, stats) = run_all(&world, &docs);
    assert_eq!(stats.front_ends, 1, "one fresh compile");
    assert_eq!(stats.interpretations, 1, "one fresh interpretation");
    assert_eq!(stats.result_hits, 2, "untouched entries served whole");
    assert_eq!(fsr_interp::runs_started() - before, 1);
    assert_ne!(after_edit[0], cold[0], "edited program really changed");
    assert_eq!(after_edit[1..], cold[1..], "untouched results unchanged");

    let snapshot = world.snapshot();
    let fe_b2 = snapshot
        .front_end(&snapshot.doc("b").unwrap(), &[])
        .unwrap();
    let fe_c2 = snapshot
        .front_end(&snapshot.doc("c").unwrap(), &[])
        .unwrap();
    assert!(
        Arc::ptr_eq(&fe_b, &fe_b2),
        "b's front end survived the edit"
    );
    assert!(
        Arc::ptr_eq(&fe_c, &fe_c2),
        "c's front end survived the edit"
    );
}

#[test]
fn reverting_an_edit_is_a_fresh_compile_not_a_hit() {
    let _g = gate();
    // The cache is keyed by content: an edit away and back evicts on
    // each transition, so the revert recompiles — no stale artifacts
    // from the intermediate content survive it.
    let mut world = World::new();
    world.open("a", source(40));
    let (first, _) = run_all(&world, &["a"]);
    world.change("a", source(99)).unwrap();
    run_all(&world, &["a"]);
    let evicted = world.change("a", source(40)).unwrap();
    assert_eq!(evicted.front_ends, 1, "the 99-rep content evicts");
    let before = fsr_interp::runs_started();
    let (reverted, stats) = run_all(&world, &["a"]);
    assert_eq!(stats.front_ends, 1, "revert recompiles from source");
    assert_eq!(fsr_interp::runs_started() - before, 1);
    assert_eq!(reverted, first, "reverted content reproduces old results");
}

#[test]
fn two_docs_sharing_content_share_one_front_end() {
    let _g = gate();
    let mut world = World::new();
    world.open("x", source(50));
    world.open("y", source(50));
    let snapshot = world.snapshot();
    let fx = snapshot
        .front_end(&snapshot.doc("x").unwrap(), &[])
        .unwrap();
    let fy = snapshot
        .front_end(&snapshot.doc("y").unwrap(), &[])
        .unwrap();
    assert!(Arc::ptr_eq(&fx, &fy), "same content, same artifacts");
    // Editing one name must NOT evict the content the other still holds.
    let evicted = world.change("x", source(51)).unwrap();
    assert_eq!(evicted.total(), 0, "content still referenced by `y`");
    let snapshot = world.snapshot();
    let fy2 = snapshot
        .front_end(&snapshot.doc("y").unwrap(), &[])
        .unwrap();
    assert!(Arc::ptr_eq(&fy, &fy2));
}

/// The refined lint and an unoptimized default-config job of the same
/// source record one shared reference trace, in either order: the
/// second replays the first one's recording instead of interpreting.
#[test]
fn refined_lint_and_unoptimized_job_share_one_recording() {
    let _g = gate();
    let src: Arc<str> = Arc::from(source(40));
    let job = Job {
        cfg: PipelineConfig::default(),
        ..job(&src, 0)
    };
    for lint_first in [true, false] {
        let world = World::new();
        let snapshot = world.snapshot();
        let lint = || snapshot.lint_refined(&src, &[]).expect("lints");
        let before = fsr_interp::runs_started();
        if lint_first {
            lint();
        }
        let (out, stats) = snapshot.run_batch_with_stats(vec![job.clone()], 1);
        assert!(out[0].1.is_ok());
        if !lint_first {
            lint();
        }
        let want = if lint_first { (0, 1) } else { (1, 0) };
        assert_eq!((stats.interpretations, stats.trace_hits), want);
        let caches = world.cache_stats();
        assert_eq!(
            (caches.traces, caches.trace_hits),
            (1, 1),
            "lint first: {lint_first}"
        );
        assert_eq!(fsr_interp::runs_started() - before, 1);
    }
}
