//! Before/after wall-clock for the batched experiment engine.
//!
//! Regenerates Figure 3 + Table 2 + the §5 headline twice:
//! - *unbatched*: the reference path — every (program, block, version)
//!   cell runs the full pipeline by itself, and the headline re-runs its
//!   own Figure 3 column (the pre-batching behavior);
//! - *batched*: the `run_batch` generators, with the headline pooled
//!   from the already-computed Figure 3 rows.
//!
//! Asserts the two paths produce bit-identical rows, then writes the
//! measurements to `BENCH_experiments.json` (override the path with
//! `FSR_BENCH_OUT`).

use fsr_bench::Knobs;
use fsr_core::driver::{run_jobs, Job, PlanSourceSpec};
use fsr_core::experiments::{
    figure3, headline_from_rows, plan_spec, table2, Fig3Row, Table2Row, Vsn,
};
use fsr_core::world::FrontEnd;
use fsr_core::PipelineConfig;
use fsr_transform::ObjPlan;
use std::sync::Arc;
use std::time::Instant;

const FIG3_BLOCKS: [u32; 2] = [16, 128];
const TABLE2_BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];
const HEADLINE_BLOCK: u32 = 128;

/// Figure 3 via the reference path: one full pipeline per cell.
fn fig3_unbatched(nproc: i64, scale: i64, blocks: &[u32], threads: usize) -> Vec<Fig3Row> {
    let set = fsr_workloads::figure3_set();
    let mut jobs: Vec<Job<(&'static str, u32, Vsn)>> = Vec::new();
    for w in &set {
        for &b in blocks {
            for v in [Vsn::N, Vsn::C] {
                jobs.push(Job {
                    meta: (w.name, b, v),
                    src: Arc::from(w.source),
                    params: vec![("NPROC".into(), nproc), ("SCALE".into(), scale)],
                    plan: plan_spec(w, v),
                    cfg: PipelineConfig::with_block(b),
                });
            }
        }
    }
    run_jobs(jobs, threads)
        .into_iter()
        .filter_map(|(job, r)| {
            let r = r.ok()?;
            let (program, block, version) = job.meta;
            Some(Fig3Row {
                program: program.to_string(),
                block,
                version: version.label().to_string(),
                protocol: fsr_core::ProtocolKind::Msi.name().to_string(),
                interconnect: fsr_core::InterconnectKind::Ksr2Ring.name().to_string(),
                refs: r.sim.refs,
                fs_miss_rate: r.sim.false_sharing() as f64 / r.sim.refs.max(1) as f64,
                other_miss_rate: r.sim.other_misses() as f64 / r.sim.refs.max(1) as f64,
            })
        })
        .collect()
}

/// Table 2 via the reference path: per-(program, block) job sets, each
/// cell a full pipeline.
fn table2_unbatched(nproc: i64, scale: i64, blocks: &[u32], threads: usize) -> Vec<Table2Row> {
    let set = fsr_workloads::figure3_set();
    let mut rows = Vec::new();
    for w in &set {
        let mut acc = [0.0f64; 5];
        let mut samples = 0usize;
        let mut dropped = 0usize;
        for &b in blocks {
            let cfg = PipelineConfig::with_block(b);
            let params = [("NPROC".to_string(), nproc), ("SCALE".to_string(), scale)];
            let fe = FrontEnd::compile(w.source, &params).expect("workload compiles");
            let full = fe.plan(&PlanSourceSpec::Compiler, &cfg).expect("plan");
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
            let jobs: Vec<Job<usize>> = cells
                .into_iter()
                .enumerate()
                .map(|(cell, plan)| Job {
                    meta: cell,
                    src: Arc::from(w.source),
                    params: params.to_vec(),
                    plan,
                    cfg: cfg.clone(),
                })
                .collect();
            let out = run_jobs(jobs, threads);
            let fs_of = |cell: usize| -> Option<u64> {
                out.iter()
                    .find(|(j, _)| j.meta == cell)
                    .and_then(|(_, r)| r.as_ref().ok().map(|r| r.sim.false_sharing()))
            };
            let base = fs_of(0).unwrap_or(0);
            if base == 0 {
                dropped += 1;
                continue;
            }
            let reduction = |fs: u64| 100.0 * (base.saturating_sub(fs)) as f64 / base as f64;
            for (k, a) in acc.iter_mut().enumerate() {
                if let Some(f) = fs_of(k + 1) {
                    *a += reduction(f);
                }
            }
            samples += 1;
        }
        let n = samples.max(1) as f64;
        rows.push(Table2Row {
            program: w.name.to_string(),
            protocol: fsr_core::ProtocolKind::Msi.name().to_string(),
            interconnect: fsr_core::InterconnectKind::Ksr2Ring.name().to_string(),
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

/// Bit-identity of two result sets: `f64`'s `Debug` rendering is the
/// shortest string that round-trips, so equal renderings mean equal bits
/// in every field.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn main() {
    let k = Knobs::from_env();
    eprintln!(
        "bench_experiments: nproc={} scale={} threads={}",
        k.nproc, k.scale, k.threads
    );

    // Unbatched reference suite.
    let i0 = fsr_interp::runs_started();
    let t0 = Instant::now();
    let ref_fig3 = fig3_unbatched(k.nproc, k.scale, &FIG3_BLOCKS, k.threads);
    let ref_table2 = table2_unbatched(k.nproc, k.scale, &TABLE2_BLOCKS, k.threads);
    // Pre-batching headline: re-runs its own Figure 3 column.
    let ref_headline = headline_from_rows(
        &fig3_unbatched(k.nproc, k.scale, &[HEADLINE_BLOCK], k.threads),
        HEADLINE_BLOCK,
    );
    let unbatched = t0.elapsed();
    let unbatched_interps = fsr_interp::runs_started() - i0;

    // Batched suite.
    let i1 = fsr_interp::runs_started();
    let t1 = Instant::now();
    let new_fig3 = figure3(k.nproc, k.scale, &FIG3_BLOCKS, k.threads);
    let new_table2 =
        table2(k.nproc, k.scale, &TABLE2_BLOCKS, k.threads).expect("table2 experiment");
    let new_headline = headline_from_rows(&new_fig3, HEADLINE_BLOCK);
    let batched = t1.elapsed();
    let batched_interps = fsr_interp::runs_started() - i1;

    let identical = same(&ref_fig3, &new_fig3)
        && same(&ref_table2, &new_table2)
        && same(&ref_headline, &new_headline);
    assert!(identical, "batched results diverge from the reference path");

    let speedup = unbatched.as_secs_f64() / batched.as_secs_f64().max(1e-9);
    println!(
        "unbatched: {:8.1} ms  ({unbatched_interps} interpretations)",
        unbatched.as_secs_f64() * 1e3
    );
    println!(
        "batched:   {:8.1} ms  ({batched_interps} interpretations)",
        batched.as_secs_f64() * 1e3
    );
    println!("speedup:   {speedup:.2}x  (bit-identical: {identical})");

    let out = std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_experiments.json".into());
    let json = format!(
        "{{\n  \"suite\": \"fig3 + table2 + headline\",\n  \"nproc\": {},\n  \
         \"scale\": {},\n  \"threads\": {},\n  \"unbatched_ms\": {:.1},\n  \
         \"batched_ms\": {:.1},\n  \"speedup\": {:.2},\n  \
         \"unbatched_interpretations\": {},\n  \"batched_interpretations\": {},\n  \
         \"bit_identical\": {}\n}}\n",
        k.nproc,
        k.scale,
        k.threads,
        unbatched.as_secs_f64() * 1e3,
        batched.as_secs_f64() * 1e3,
        speedup,
        unbatched_interps,
        batched_interps,
        identical
    );
    std::fs::write(&out, json).expect("write benchmark results");
    eprintln!("wrote {out}");
}
