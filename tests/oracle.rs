//! The chunked replay against its scalar reference.
//!
//! Production simulates every trace through `MultiSim::access_chunk`
//! and `TimingModel::record_chunk`, fed by the batch driver's sinks.
//! The reference is the plainest possible replay of the same trace:
//! `Snapshot::record_trace`'s events, one `MultiSim::access` and one
//! `TimingModel::record` per reference, and `sync`/`handoff`/`steal`
//! per ordering event. These tests pin the two bit-identical — every
//! statistic, not approximately — on every workload, protocol backend,
//! plan, batch width and cache geometry, and on random raw traces.

use fsr_core::driver::{run_batch, Job, PlanSourceSpec};
use fsr_core::{
    InterconnectKind, PipelineConfig, ProtocolKind, RecordedTrace, SimStats, TimingStats, World,
};
use fsr_interp::TraceEvent;
use fsr_lang::ast::WORD_BYTES;
use fsr_machine::TimingModel;
use fsr_sim::{CacheConfig, MultiSim, Outcome, CHUNK_LANES};
use proptest::prelude::*;
use std::sync::Arc;

const NPROC: i64 = 4;
const BLOCK: u32 = 128;

/// Each protocol on its natural interconnect (directory traffic needs
/// the home-node fabric for its 2/3-hop costs to be exercised).
fn backend_pairs() -> [(ProtocolKind, InterconnectKind); 3] {
    [
        (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        (ProtocolKind::Mesi, InterconnectKind::Bus),
        (ProtocolKind::Directory, InterconnectKind::HomeDir),
    ]
}

/// (cache bytes, associativity): the default geometry (64 sets at
/// block 128), and one whose set count is not a power of two (96 sets),
/// which takes the chunked replay's per-reference fallback.
const GEOMETRIES: [(u32, u32); 2] = [(32 * 1024, 4), (48 * 1024, 4)];

/// What the oracle compares: the simulator and timing statistics and the
/// execution time.
type Observed = (SimStats, TimingStats, u64);

/// Replay a recorded trace one reference at a time.
fn scalar_replay(trace: &RecordedTrace, cfg: &PipelineConfig) -> Observed {
    let nproc = trace.layout.nproc;
    let mut sim = MultiSim::new(
        CacheConfig {
            nproc,
            block_bytes: cfg.block_bytes,
            cache_bytes: cfg.cache_bytes,
            assoc: cfg.assoc,
            protocol: cfg.protocol,
        },
        trace.layout.total_words() * WORD_BYTES,
    );
    let mut timing = TimingModel::new(cfg.machine, nproc);
    for e in &trace.trace.events {
        match e {
            TraceEvent::Access(r) => {
                let outcome = sim.access(r.pid, r.addr, r.write);
                timing.record(r.pid, r.gap, &outcome);
            }
            TraceEvent::Sync(pids) => timing.sync(pids),
            TraceEvent::Handoff { from, to } => timing.handoff(*from, *to),
            TraceEvent::Steal { thief, victim } => timing.steal(*thief, *victim),
        }
    }
    (
        sim.stats().clone(),
        timing.stats().clone(),
        timing.finish_time(),
    )
}

/// Acceptance gate: all ten workloads × three protocol backends ×
/// {unoptimized, compiler} × both geometries, through `run_batch` at one
/// and two worker threads, against the scalar replay.
#[test]
fn chunked_batches_match_the_scalar_reference_on_every_workload() {
    let params = [("NPROC", NPROC), ("SCALE", 1)];
    let owned: Vec<(String, i64)> = params.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let plans = [PlanSourceSpec::Unoptimized, PlanSourceSpec::Compiler];
    let snap = World::transient().snapshot();
    for w in fsr_workloads::all() {
        let src: Arc<str> = Arc::from(w.source);
        // The trace depends on the plan, never on the backend or the
        // cache geometry: one recording per plan serves every cell.
        let traces: Vec<Arc<RecordedTrace>> = plans
            .iter()
            .map(|plan| {
                snap.record_trace(&src, &owned, plan, &PipelineConfig::with_block(BLOCK))
                    .unwrap()
            })
            .collect();
        for (protocol, ic) in backend_pairs() {
            let mut jobs: Vec<Job<String>> = Vec::new();
            let mut want: Vec<Observed> = Vec::new();
            for (spec, trace) in plans.iter().zip(&traces) {
                for (cache_bytes, assoc) in GEOMETRIES {
                    let mut cfg = PipelineConfig::with_block(BLOCK).with_backends(protocol, ic);
                    cfg.cache_bytes = cache_bytes;
                    cfg.assoc = assoc;
                    want.push(scalar_replay(trace, &cfg));
                    jobs.push(Job::new(
                        format!("{}/{protocol:?}/{spec:?}/{cache_bytes}B", w.name),
                        src.clone(),
                        &params,
                        spec.clone(),
                        cfg,
                    ));
                }
            }
            for threads in [1, 2] {
                for ((job, got), want) in run_batch(jobs.clone(), threads).iter().zip(&want) {
                    let ctx = format!("{} threads={threads}", job.meta);
                    let got = got.as_ref().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(got.sim, want.0, "{ctx}: sim stats");
                    assert_eq!(got.timing, want.1, "{ctx}: timing stats");
                    assert_eq!(got.exec_cycles, want.2, "{ctx}: exec cycles");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random reference streams straight into the simulator: the chunked
    /// replay, with proptest-chosen ragged chunk boundaries, reproduces
    /// the per-reference path's outcomes, statistics, and global
    /// coherence snapshot on every protocol. This is the layer below the
    /// pipeline test: no interpreter, no timing model, just the coherence
    /// engine on adversarial address streams.
    #[test]
    fn raw_random_traces_replay_bit_identically(
        len in 1usize..600,
        pids in proptest::collection::vec(0u8..4, 600),
        words in proptest::collection::vec(0u32..4096, 600),
        writes in proptest::collection::vec(0u8..2, 600),
        splits in proptest::collection::vec(1usize..(CHUNK_LANES + 1), 32),
    ) {
        let trace: Vec<(u8, u32, bool)> = (0..len)
            .map(|i| (pids[i], words[i], writes[i] == 1))
            .collect();
        for protocol in ProtocolKind::ALL {
            let cfg = CacheConfig {
                nproc: 4,
                block_bytes: 64,
                cache_bytes: 16 * 1024,
                assoc: 4,
                protocol,
            };
            let bound = 4096 * 4;
            let mut scalar = MultiSim::new(cfg, bound);
            let mut chunked = MultiSim::new(cfg, bound);

            let want: Vec<Outcome> = trace
                .iter()
                .map(|&(p, w, wr)| scalar.access(p, w * 4, wr))
                .collect();

            // Feed the same stream in ragged chunks (cycling through
            // `splits`), as the sink does at synchronization events.
            let mut got = vec![Outcome::default(); trace.len()];
            let mut at = 0usize;
            let mut si = 0usize;
            while at < trace.len() {
                let n = splits[si % splits.len()].min(trace.len() - at);
                si += 1;
                let mut pids = [0u8; CHUNK_LANES];
                let mut addrs = [0u32; CHUNK_LANES];
                let mut mask = 0u64;
                for (j, &(p, w, wr)) in trace[at..at + n].iter().enumerate() {
                    pids[j] = p;
                    addrs[j] = w * 4;
                    if wr {
                        mask |= 1 << j;
                    }
                }
                chunked.access_chunk(&pids[..n], &addrs[..n], mask, &mut got[at..at + n]);
                at += n;
            }
            prop_assert_eq!(&got, &want, "outcomes ({:?})", protocol);
            prop_assert_eq!(chunked.stats(), scalar.stats(), "stats ({:?})", protocol);
            prop_assert_eq!(
                chunked.snapshot(),
                scalar.snapshot(),
                "snapshot ({:?})",
                protocol
            );
        }
    }
}
