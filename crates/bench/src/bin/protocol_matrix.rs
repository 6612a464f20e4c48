//! Cross-backend coherence matrix: every workload × version ×
//! protocol × interconnect, with per-object coherence-event counters.
//!
//! Runs the [`fsr_core::experiments::protocol_matrix_cells`] sweep over
//! every protocol × interconnect pair as one `run_batch` call (so each
//! program version is interpreted once for all nine backend pairs),
//! prints a summary table, and writes the full matrix as structured
//! JSON to `BENCH_protocol_matrix.json` (override the path with
//! `FSR_BENCH_OUT`).
//!
//! Knobs: `FSR_NPROC`, `FSR_SCALE`, `FSR_THREADS` as usual, plus
//! `FSR_MATRIX_WORKLOADS` (comma-separated names, default
//! `raytrace,pverify,maxflow,topopt`; an unknown name exits 2).

use fsr_bench::{json_str, Knobs, Table};
use fsr_core::experiments::{protocol_matrix_cells, MatrixCell};
use fsr_core::{CoherenceEvent, InterconnectKind, MissKind, ProtocolKind};
use std::fmt::Write as _;

const BLOCK: u32 = 128;
const DEFAULT_WORKLOADS: [&str; 4] = ["raytrace", "pverify", "maxflow", "topopt"];

fn cell_json(c: &MatrixCell) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"program\": {}, \"version\": {}, \"protocol\": {}, \"interconnect\": {},\n     \
         \"block\": {}, \"nproc\": {}, \"exec_cycles\": {}, \"queue_stall\": {},\n     \
         \"refs\": {}, \"reads\": {}, \"writes\": {},\n     \"misses\": {{",
        json_str(&c.program),
        json_str(&c.version),
        json_str(&c.protocol),
        json_str(&c.interconnect),
        c.block,
        c.nproc,
        c.exec_cycles,
        c.queue_stall,
        c.sim.refs,
        c.sim.reads,
        c.sim.writes,
    );
    for (i, k) in MissKind::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k.name()),
            c.sim.miss_of(*k)
        );
    }
    s.push_str("},\n     \"events\": {");
    for (i, e) in CoherenceEvent::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(e.name()),
            c.sim.event_of(*e)
        );
    }
    s.push_str("},\n     \"objects\": [");
    for (i, (name, oc)) in c.per_obj.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n      {{\"name\": {}, ",
            if i > 0 { "," } else { "" },
            json_str(name)
        );
        for e in CoherenceEvent::ALL {
            let _ = write!(s, "{}: {}, ", json_str(e.name()), oc.event_of(e));
        }
        let _ = write!(s, "\"queue_stall\": {}}}", oc.queue_stall);
    }
    if !c.per_obj.is_empty() {
        s.push_str("\n     ");
    }
    s.push_str("]}");
    s
}

fn main() {
    let k = Knobs::from_env();
    let set = fsr_bench::workloads_from_env("FSR_MATRIX_WORKLOADS", &DEFAULT_WORKLOADS);
    let names: Vec<&str> = set.iter().map(|w| w.name).collect();
    eprintln!(
        "protocol_matrix: nproc={} scale={} block={} workloads={names:?}",
        k.nproc, k.scale, BLOCK
    );

    let cells = protocol_matrix_cells(&set, k.nproc, k.scale, BLOCK, k.threads);
    assert!(!cells.is_empty(), "no cells for {names:?}");

    let mut t = Table::new(&[
        "program", "version", "protocol", "net", "exec", "queue", "inval", "upgr", "intv", "excl",
    ]);
    for c in &cells {
        t.row(vec![
            c.program.clone(),
            c.version.clone(),
            c.protocol.clone(),
            c.interconnect.clone(),
            c.exec_cycles.to_string(),
            c.queue_stall.to_string(),
            c.sim.invalidations.to_string(),
            c.sim.upgrades.to_string(),
            c.sim.interventions.to_string(),
            c.sim.exclusive_hits.to_string(),
        ]);
    }
    println!("{}", t.render());

    let protos: Vec<String> = ProtocolKind::ALL
        .iter()
        .map(|p| json_str(p.name()))
        .collect();
    let nets: Vec<String> = InterconnectKind::ALL
        .iter()
        .map(|i| json_str(i.name()))
        .collect();
    let progs: Vec<String> = names.iter().map(|n| json_str(n)).collect();
    let body: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"protocol_matrix\",\n  \"nproc\": {},\n  \"scale\": {},\n  \
         \"block\": {},\n  \"protocols\": [{}],\n  \
         \"interconnects\": [{}],\n  \"workloads\": [{}],\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        BLOCK,
        protos.join(", "),
        nets.join(", "),
        progs.join(", "),
        body.join(",\n")
    );
    let out =
        std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_protocol_matrix.json".into());
    std::fs::write(&out, json).expect("write matrix results");
    eprintln!("wrote {out}");
}
