//! Block-size sweep: how false sharing grows with the coherence unit —
//! and how the transformations keep it flat (4..=256 bytes, the paper's
//! simulation range).
//!
//! Usage: cargo run --release -p fsr-core --example blocksweep -- [workload]

use fsr_core::{run_pipeline, PipelineConfig, PlanSourceSpec};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "topopt".into());
    let w = fsr_workloads::by_name(&name).expect("known workload");
    println!("block-size sweep: {} (8 processors)\n", w.name);
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "block", "unopt fs%", "unopt total%", "comp fs%", "comp total%"
    );
    for block in [4u32, 8, 16, 32, 64, 128, 256] {
        let cfg = PipelineConfig::with_block(block);
        let run = |src: PlanSourceSpec| {
            run_pipeline(w.source, &[("NPROC", 8), ("SCALE", 1)], src, &cfg).unwrap()
        };
        let base = run(PlanSourceSpec::Unoptimized);
        let opt = run(PlanSourceSpec::Compiler);
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            block,
            100.0 * base.false_sharing_miss_rate(),
            100.0 * base.miss_rate(),
            100.0 * opt.false_sharing_miss_rate(),
            100.0 * opt.miss_rate(),
        );
    }
}
