//! Compiler explorer for the workload suite: show the analysis, the
//! transformation decisions and the per-data-structure miss attribution
//! for any benchmark.
//!
//! Usage:
//!   cargo run --release -p fsr-core --example explorer -- <workload> [nproc] [block]
//!   cargo run --release -p fsr-core --example explorer -- pverify 12 128

use fsr_core::{run_pipeline, PipelineConfig, PlanSourceSpec};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| {
        eprintln!(
            "usage: explorer <workload> [nproc] [block]\nworkloads: {}",
            fsr_workloads::all()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });
    let nproc: i64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let block: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);

    let w = fsr_workloads::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}`");
        std::process::exit(2);
    });
    println!("== {} — {}\n", w.name, w.description);

    let prog = fsr_lang::compile_with_params(w.source, &[("NPROC", nproc), ("SCALE", 1)]).unwrap();
    let analysis = fsr_analysis::analyze(&prog).unwrap();
    println!("{}", fsr_analysis::report::render(&prog, &analysis));

    let cfg = PipelineConfig::with_block(block);
    let plan = fsr_transform::plan_for(&prog, &analysis, &cfg.plan_cfg);
    println!("{}", fsr_transform::report::render(&prog, &plan));

    for (label, source) in [
        ("unoptimized", PlanSourceSpec::Unoptimized),
        ("compiler", PlanSourceSpec::Compiler),
    ] {
        let r = run_pipeline(w.source, &[("NPROC", nproc), ("SCALE", 1)], source, &cfg).unwrap();
        println!("== {label}: {}  exec={} cycles", r.sim, r.exec_cycles);
        println!("{}", fsr_sim::report::render_attribution(&r.per_obj));
    }
}
