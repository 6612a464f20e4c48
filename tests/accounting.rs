//! Accounting-surface coverage: the `MissKind::COUNT` /
//! `CoherenceEvent::COUNT`-sized arrays that thread through the
//! simulator, timing model and per-object reports, and the
//! `Layout::try_build` overflow guard as the pipeline and the batched
//! driver surface it.
//!
//! These invariants were previously only exercised indirectly through
//! full pipeline runs; here they are asserted directly so a new miss
//! class or event added without updating every consumer fails loudly.

use fsr_core::driver::{run_batch, Job, PlanSourceSpec};
use fsr_core::{
    run_pipeline, InterconnectKind, MissKind, PipelineConfig, PipelineError, ProtocolKind,
    Schedule, World,
};
use fsr_interp::{MemRef, TraceEvent};
use fsr_layout::{Layout, LayoutError, MAX_WORDS};
use fsr_sim::{CacheConfig, CoherenceEvent, MultiSim};
use fsr_transform::{LayoutPlan, ObjPlan};
use std::sync::Arc;

#[test]
fn per_kind_enums_are_self_consistent() {
    // The `ALL` tables are the one authority the JSON writers and the
    // report renderers iterate; their discriminants must be dense and
    // their names unique, or per-kind arrays silently misattribute.
    assert_eq!(MissKind::ALL.len(), MissKind::COUNT);
    for (i, k) in MissKind::ALL.iter().enumerate() {
        assert_eq!(*k as usize, i, "MissKind::ALL out of discriminant order");
    }
    let mut names: Vec<&str> = MissKind::ALL.iter().map(|k| k.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), MissKind::COUNT, "duplicate MissKind name");

    assert_eq!(CoherenceEvent::ALL.len(), CoherenceEvent::COUNT);
    for (i, e) in CoherenceEvent::ALL.iter().enumerate() {
        assert_eq!(*e as usize, i, "CoherenceEvent::ALL out of order");
    }
    let mut names: Vec<&str> = CoherenceEvent::ALL.iter().map(|e| e.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CoherenceEvent::COUNT);

    // Backend selectors ride the same pattern.
    let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ProtocolKind::ALL.len());
    let mut names: Vec<&str> = InterconnectKind::ALL.iter().map(|i| i.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), InterconnectKind::ALL.len());
}

#[test]
fn trace_event_kind_tables_are_self_consistent() {
    // Same discipline as the miss/event enums: `KIND_NAMES` is sized by
    // `KIND_COUNT` at compile time, so a new trace-event variant added
    // without a name fails to build; here we pin that `kind_index` is
    // dense, in table order, and that the names are unique.
    let one_of_each: [TraceEvent; TraceEvent::KIND_COUNT] = [
        TraceEvent::Access(MemRef {
            pid: 0,
            addr: 0,
            write: false,
            gap: 0,
        }),
        TraceEvent::Sync(vec![0]),
        TraceEvent::Handoff { from: 0, to: 1 },
        TraceEvent::Steal {
            thief: 1,
            victim: 0,
        },
    ];
    for (i, e) in one_of_each.iter().enumerate() {
        assert_eq!(e.kind_index(), i, "kind_index out of table order");
        assert_eq!(e.kind_name(), TraceEvent::KIND_NAMES[i]);
    }
    let mut names = TraceEvent::KIND_NAMES.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), TraceEvent::KIND_COUNT, "duplicate kind name");
}

/// A kernel whose per-process work is deliberately skewed, so the
/// work-stealing schedule actually steals.
const SKEWED: &str = "param NPROC = 4; shared int c[NPROC]; shared lock lk;
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. (5 + p * 40) { c[p] = c[p] + 1; }
        barrier;
        for i in 0 .. 10 { lock(lk); c[0] = c[0] + 1; unlock(lk); }
        barrier;
        for i in 0 .. (160 - p * 40) { c[p] = c[p] + 2; } } }";

#[test]
fn steal_counters_close_over_the_trace() {
    // The steal counter must agree at every layer: recorded trace
    // events, interpreter stats, and the timing model's applied joins.
    let mut pcfg = PipelineConfig::with_block(64);
    pcfg.run.schedule = Schedule::WorkSteal { seed: 3 };
    let rec = World::transient()
        .snapshot()
        .record_trace(&Arc::from(SKEWED), &[], &PlanSourceSpec::Unoptimized, &pcfg)
        .unwrap();
    let recorded = rec
        .trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Steal { .. }))
        .count() as u64;
    assert!(recorded > 0, "skewed kernel must provoke steals");
    assert_eq!(rec.interp.steals, recorded, "interp counter vs trace");

    // Whole pipeline: the interpreter's count survives to the result
    // and matches the timing model's join count exactly.
    let r = run_pipeline(SKEWED, &[], PlanSourceSpec::Unoptimized, &pcfg).unwrap();
    assert!(r.interp.steals > 0);
    assert_eq!(r.interp.steals, r.timing.steal_joins, "one join per steal");

    // And round-robin reports zero on both sides.
    let r0 = run_pipeline(
        SKEWED,
        &[],
        PlanSourceSpec::Unoptimized,
        &PipelineConfig::with_block(64),
    )
    .unwrap();
    assert_eq!(r0.interp.steals, 0);
    assert_eq!(r0.timing.steal_joins, 0);
}

const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. 200 { c[p] = c[p] + 1; } } }";

#[test]
fn per_block_arrays_sum_to_the_global_counters() {
    for protocol in ProtocolKind::ALL {
        let cfg = CacheConfig {
            protocol,
            ..CacheConfig::with_block(32, 4)
        };
        let mut sim = MultiSim::new(cfg, 64 * 4);
        // A deterministic mixed trace: strided writes force sharing,
        // wrap-around reads force replacements.
        for round in 0..50u32 {
            for pid in 0..4u8 {
                let w = (round * 7 + pid as u32 * 3) % 64;
                sim.access(pid, w * 4, round % 3 != 0);
            }
        }
        let st = sim.stats();
        assert_eq!(st.refs, st.reads + st.writes);
        assert_eq!(st.total_misses(), st.misses.iter().sum::<u64>());

        // Per-block arrays are sized by the address space and their
        // columns sum to the global per-kind counters.
        assert_eq!(sim.per_block_misses().len(), sim.num_blocks() as usize);
        assert_eq!(sim.per_block_refs().len(), sim.num_blocks() as usize);
        for k in MissKind::ALL {
            let col: u64 = sim
                .per_block_misses()
                .iter()
                .map(|b| b[k as usize] as u64)
                .sum();
            assert_eq!(col, st.miss_of(k), "{protocol:?}/{}", k.name());
        }
        let refs: u64 = sim.per_block_refs().iter().sum();
        assert_eq!(refs, st.refs, "{protocol:?}: per-block refs");
    }
}

#[test]
fn pipeline_reports_close_over_the_simulator_counters() {
    let cfg = PipelineConfig::default();
    let r = run_pipeline(COUNTERS, &[], PlanSourceSpec::Unoptimized, &cfg).unwrap();

    // Per-object miss attribution is total: every miss of every kind
    // lands on some named object (or the explicit unattributed bucket).
    for k in MissKind::ALL {
        let col: u64 = r.per_obj.values().map(|o| o.misses[k as usize]).sum();
        assert_eq!(col, r.sim.miss_of(k), "{}", k.name());
    }
    let refs: u64 = r.per_obj_refs.values().sum();
    assert_eq!(refs, r.sim.refs);

    // Same for the coherence events.
    for e in CoherenceEvent::ALL {
        let col: u64 = r.per_obj_coherence.values().map(|o| o.event_of(e)).sum();
        assert_eq!(col, r.sim.event_of(e), "{}", e.name());
    }

    // Stall attribution uses the same indexing: no stall charged to a
    // miss kind that never occurred.
    for k in MissKind::ALL {
        if r.sim.miss_of(k) == 0 {
            assert_eq!(r.timing.stall_by_kind[k as usize], 0, "{}", k.name());
        }
    }
}

#[test]
fn transpose_blowup_is_rejected_before_address_arithmetic() {
    // 40M words fit unpadded; transposition replicates per process, so
    // at 64 processes the bound crosses the 32-bit word space.
    let src = "param NPROC = 2; shared int big[40000000];
         fn main() { forall p in 0 .. NPROC { big[p] = 1; } }";
    let prog = fsr_lang::compile(src).unwrap();
    let (big, _) = prog.object_by_name("big").unwrap();
    let mut plan = LayoutPlan::unoptimized(128);
    plan.insert(
        big,
        ObjPlan::Transpose {
            owner: fsr_analysis::OwnerMap::Dim { dim: 0 },
            group: None,
        },
        "test",
    );
    assert!(Layout::try_build(&prog, &plan, 2).is_ok());
    let e = Layout::try_build(&prog, &plan, 64).unwrap_err();
    let LayoutError::AddressSpaceOverflow {
        words_bound,
        words_max,
    } = e;
    assert!(words_bound > words_max);
    assert_eq!(words_max, MAX_WORDS);
    // The error names both bounds — it is the user-facing diagnosis.
    let msg = e.to_string();
    assert!(msg.contains(&words_bound.to_string()), "{msg}");
    assert!(msg.contains("addressable space"), "{msg}");
}

#[test]
fn indirect_blowup_is_rejected_before_address_arithmetic() {
    // Indirection doubles the footprint (pointer table + arena): 600M
    // words fit directly but not once indirected.
    let src = "param NPROC = 2; shared int big[600000000];
         fn main() { forall p in 0 .. NPROC { big[p] = 1; } }";
    let prog = fsr_lang::compile(src).unwrap();
    assert!(Layout::try_build(&prog, &LayoutPlan::unoptimized(128), 2).is_ok());
    let (big, _) = prog.object_by_name("big").unwrap();
    let mut plan = LayoutPlan::unoptimized(128);
    plan.insert(big, ObjPlan::Indirect { fields: vec![] }, "test");
    assert!(matches!(
        Layout::try_build(&prog, &plan, 2),
        Err(LayoutError::AddressSpaceOverflow { .. })
    ));
}

#[test]
fn pipeline_and_batch_surface_layout_overflow_as_errors() {
    let huge = "param NPROC = 2; shared int huge[2147483648];
         fn main() { forall p in 0 .. NPROC { huge[p] = 1; } }";

    // Single-run path.
    let err = run_pipeline(
        huge,
        &[],
        PlanSourceSpec::Unoptimized,
        &PipelineConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::Layout(_)), "{err}");
    assert!(err.to_string().contains("addressable space"), "{err}");

    // Batched path: the overflowing job fails alone; jobs sharing the
    // batch are unaffected.
    let jobs = vec![
        Job {
            meta: "ok",
            src: Arc::from(COUNTERS),
            params: vec![],
            plan: PlanSourceSpec::Unoptimized,
            cfg: PipelineConfig::default(),
        },
        Job {
            meta: "overflow",
            src: Arc::from(huge),
            params: vec![],
            plan: PlanSourceSpec::Unoptimized,
            cfg: PipelineConfig::default(),
        },
    ];
    let out = run_batch(jobs, 1);
    assert_eq!(out.len(), 2);
    for (job, res) in &out {
        match job.meta {
            "ok" => {
                let r = res.as_ref().expect("healthy job survives the batch");
                assert_eq!(r.sim.refs, 1600);
            }
            _ => {
                let e = res.as_ref().expect_err("overflow job must fail");
                assert!(matches!(e, PipelineError::Layout(_)), "{e}");
            }
        }
    }
}
