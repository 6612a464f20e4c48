//! Directory-coherence ablation: how the paper's miss taxonomy and
//! false-sharing *costs* shift when the broadcast-style KSR2 substrate
//! is replaced by a home-node directory fabric.
//!
//! Runs [`fsr_core::experiments::directory_ablation`] — every workload
//! × {unopt, compiler} × [`Backend::ABLATION`] (MSI + ring, MESI +
//! ring, directory + home-dir) as one `run_batch` call — prints a
//! summary table plus the per-workload false-sharing cost deltas, and
//! writes the rows as structured JSON to
//! `BENCH_directory_ablation.json` (override with `FSR_BENCH_OUT`).
//!
//! The miss-classification columns are identical across the three
//! backends (the taxonomy is protocol-invariant; the property tests
//! prove it on random traces, this report commits it for the real
//! workloads); the cost columns are where the substrates diverge.
//!
//! Knobs: `FSR_NPROC`, `FSR_SCALE`, `FSR_THREADS` as usual, plus
//! `FSR_ABLATION_WORKLOADS` (comma-separated names, default: all ten;
//! an unknown name exits 2).
//!
//! [`Backend::ABLATION`]: fsr_core::experiments::Backend::ABLATION

use fsr_bench::{json_str, Knobs, Table};
use fsr_core::experiments::{directory_ablation, AblationRow};
use fsr_core::MissKind;
use std::fmt::Write as _;

const BLOCK: u32 = 128;

fn row_json(r: &AblationRow) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"program\": {}, \"version\": {}, \"protocol\": {}, \"interconnect\": {},\n     \
         \"block\": {}, \"nproc\": {}, \"misses\": {{",
        json_str(&r.program),
        json_str(&r.version),
        json_str(&r.protocol),
        json_str(&r.interconnect),
        r.block,
        r.nproc,
    );
    for (i, k) in MissKind::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k.name()),
            r.misses[*k as usize]
        );
    }
    let _ = write!(
        s,
        "}},\n     \"upgrades\": {}, \"invalidations\": {}, \"dir_txns\": {},\n     \
         \"exec_cycles\": {}, \"fs_stall\": {}, \"queue_stall\": {},\n     \
         \"two_hop\": {}, \"three_hop\": {}, \"max_channel_busy\": {}}}",
        r.upgrades,
        r.invalidations,
        r.dir_txns,
        r.exec_cycles,
        r.fs_stall,
        r.queue_stall,
        r.two_hop,
        r.three_hop,
        r.max_channel_busy,
    );
    s
}

fn main() {
    let k = Knobs::from_env();
    let all: Vec<&str> = fsr_workloads::all().iter().map(|w| w.name).collect();
    let set = fsr_bench::workloads_from_env("FSR_ABLATION_WORKLOADS", &all);
    let names: Vec<&str> = set.iter().map(|w| w.name).collect();
    eprintln!(
        "directory_ablation: nproc={} scale={} block={} workloads={names:?}",
        k.nproc, k.scale, BLOCK
    );

    let rows = directory_ablation(&set, k.nproc, k.scale, BLOCK, k.threads);
    assert!(!rows.is_empty(), "no rows for {names:?}");

    let mut t = Table::new(&[
        "program", "version", "protocol", "net", "fs_miss", "fs_stall", "exec", "dir_txn", "3hop",
        "queue", "hot_chan",
    ]);
    for r in &rows {
        t.row(vec![
            r.program.clone(),
            r.version.clone(),
            r.protocol.clone(),
            r.interconnect.clone(),
            r.misses[MissKind::FalseSharing as usize].to_string(),
            r.fs_stall.to_string(),
            r.exec_cycles.to_string(),
            r.dir_txns.to_string(),
            r.three_hop.to_string(),
            r.queue_stall.to_string(),
            r.max_channel_busy.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Per-workload false-sharing cost deltas: directory vs the two
    // snooping backends, on the unoptimized version (where the false
    // sharing lives).
    let find = |prog: &str, version: &str, protocol: &str| {
        rows.iter()
            .find(|r| r.program == prog && r.version == version && r.protocol == protocol)
    };
    println!("false-sharing stall, unopt (directory vs snooping):");
    for &name in &names {
        let (Some(msi), Some(mesi), Some(dir)) = (
            find(name, "unopt", "msi"),
            find(name, "unopt", "mesi"),
            find(name, "unopt", "directory"),
        ) else {
            continue;
        };
        let pct = |a: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                100.0 * (a as f64 - b as f64) / b as f64
            }
        };
        println!(
            "  {name:>10}: dir {:>10} vs msi {:>10} ({:+6.1}%) vs mesi {:>10} ({:+6.1}%)",
            dir.fs_stall,
            msi.fs_stall,
            pct(dir.fs_stall, msi.fs_stall),
            mesi.fs_stall,
            pct(dir.fs_stall, mesi.fs_stall),
        );
    }

    let progs: Vec<String> = names.iter().map(|n| json_str(n)).collect();
    let body: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"directory_ablation\",\n  \"nproc\": {},\n  \"scale\": {},\n  \
         \"block\": {},\n  \"workloads\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        BLOCK,
        progs.join(", "),
        body.join(",\n")
    );
    let out =
        std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_directory_ablation.json".into());
    std::fs::write(&out, json).expect("write ablation results");
    eprintln!("wrote {out}");
}
