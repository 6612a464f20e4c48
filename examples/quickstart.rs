//! Quickstart: the classic false-sharing demo — per-process counters
//! packed into one cache block — analyzed, transformed and measured.
//!
//! Run with: `cargo run --release -p fsr-core --example quickstart`

use fsr_core::{run_pipeline, PipelineConfig, PlanSourceSpec};

const SRC: &str = r#"
// Each process increments its own counter; the unoptimized layout packs
// all counters into one cache block.
param NPROC = 8;
shared int counter[NPROC];

fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 2000 {
            counter[p] = counter[p] + 1;
        }
    }
}
"#;

fn main() {
    let cfg = PipelineConfig::with_block(128);

    // 1. Show what the compiler decides.
    let prog = fsr_lang::compile(SRC).unwrap();
    let analysis = fsr_analysis::analyze(&prog).unwrap();
    println!("{}", fsr_analysis::report::render(&prog, &analysis));
    let plan = fsr_transform::plan_for(&prog, &analysis, &cfg.plan_cfg);
    println!("{}", fsr_transform::report::render(&prog, &plan));

    // 2. Measure both layouts.
    let base = run_pipeline(SRC, &[], PlanSourceSpec::Unoptimized, &cfg).unwrap();
    let opt = run_pipeline(SRC, &[], PlanSourceSpec::Compiler, &cfg).unwrap();

    println!("unoptimized: {}", base.sim);
    println!("transformed: {}", opt.sim);
    println!(
        "\nfalse-sharing misses: {} -> {}  ({}x reduction)",
        base.sim.false_sharing(),
        opt.sim.false_sharing(),
        base.sim.false_sharing().max(1) / opt.sim.false_sharing().max(1)
    );
    println!(
        "execution time:       {} -> {} cycles ({:.1}% faster)",
        base.exec_cycles,
        opt.exec_cycles,
        100.0 * (1.0 - opt.exec_cycles as f64 / base.exec_cycles as f64)
    );
}
