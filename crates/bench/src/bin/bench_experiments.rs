//! Before/after wall-clock for the batched experiment engine.
//!
//! Regenerates Figure 3 + Table 2 + the §5 headline twice:
//! - *unbatched*: the generators' own job lists (`figure3_jobs`,
//!   `table2_jobs`) through the reference path, `run_jobs`, so every
//!   cell runs the full pipeline by itself, and the headline re-runs its
//!   own Figure 3 column (the pre-batching behavior);
//! - *batched*: the `run_batch` generators, with the headline pooled
//!   from the already-computed Figure 3 rows.
//!
//! Asserts the two paths produce bit-identical rows, then writes the
//! measurements to `BENCH_experiments.json` (override the path with
//! `FSR_BENCH_OUT`).

use fsr_bench::Knobs;
use fsr_core::driver::run_jobs;
use fsr_core::experiments::{
    figure3, figure3_jobs, figure3_rows, headline_from_rows, table2, table2_jobs, table2_rows,
};
use fsr_core::World;
use std::time::Instant;

const FIG3_BLOCKS: [u32; 2] = [16, 128];
const TABLE2_BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];
const HEADLINE_BLOCK: u32 = 128;

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
    let ref_fig3 = figure3_rows(run_jobs(
        figure3_jobs(k.nproc, k.scale, &FIG3_BLOCKS),
        k.threads,
    ));
    let snap = World::transient().snapshot();
    let t2_jobs = table2_jobs(&snap, k.nproc, k.scale, &TABLE2_BLOCKS).expect("table2 jobs");
    let ref_table2 = table2_rows(&TABLE2_BLOCKS, run_jobs(t2_jobs, k.threads));
    // Pre-batching headline: re-runs its own Figure 3 column.
    let ref_headline = headline_from_rows(
        &figure3_rows(run_jobs(
            figure3_jobs(k.nproc, k.scale, &[HEADLINE_BLOCK]),
            k.threads,
        )),
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
