//! Protocol invariants on random traces, for every coherence protocol
//! (MSI, MESI, home-node directory).
//!
//! Three families:
//! - *coherence*: at every point in the simulation, each block has a
//!   single writer or multiple readers, never both;
//! - *directory exactness*: the presence bitmask and owner the
//!   simulator maintains (which the directory protocol serves from its
//!   home nodes) always match the sharer set recovered by inspecting
//!   every cache;
//! - *classification invariance*: the paper's miss taxonomy (cold /
//!   replacement / true-sharing / false-sharing) is identical across
//!   all three protocols on any trace, even though traffic and cost
//!   differ.
//!
//! The vendored proptest engine is deterministic (fixed seed), so these
//! run the same cases on every invocation — the tier-1 gate relies on
//! that.

use fsr_sim::{CacheConfig, DirState, LineState, MissKind, MultiSim, ProtocolKind};
use proptest::prelude::*;

const NPROC: u32 = 4;
const WORDS: u32 = 64;

/// A synthetic access trace: each draw decodes to (pid, word, is_write).
fn traces() -> impl Strategy<Value = Vec<(u8, u32, bool)>> {
    proptest::collection::vec(0u64..1024, 400).prop_map(|raw| {
        raw.into_iter()
            .map(|x| {
                (
                    (x & 3) as u8,
                    ((x >> 2) & (WORDS as u64 - 1)) as u32,
                    (x >> 8) & 1 == 1,
                )
            })
            .collect()
    })
}

fn sim_for(protocol: ProtocolKind) -> MultiSim {
    let cfg = CacheConfig {
        protocol,
        ..CacheConfig::with_block(32, NPROC)
    };
    MultiSim::new(cfg, WORDS * 4)
}

/// Recover the sharer bitmask and Modified/Exclusive owner of `block`
/// by inspecting every cache — the ground truth the directory's
/// presence bits must match.
fn inspect(sim: &MultiSim, block: u32) -> (u64, Option<u8>) {
    let mut sharers = 0u64;
    let mut owner = None;
    for pid in 0..NPROC as u8 {
        match sim.line_state(pid, block) {
            LineState::Invalid => {}
            LineState::Shared => sharers |= 1 << pid,
            LineState::Modified | LineState::Exclusive => {
                assert!(owner.is_none(), "two owners of block {block}");
                owner = Some(pid);
                sharers |= 1 << pid;
            }
        }
    }
    (sharers, owner)
}

fn check_invariants(sim: &MultiSim) {
    for block in 0..sim.num_blocks() {
        let (sharers, owner) = inspect(sim, block);

        // Single writer or multiple readers: a Modified/Exclusive copy
        // is the only valid copy anywhere.
        if let Some(o) = owner {
            prop_assert_eq!(
                sharers,
                1u64 << o,
                "block {}: owner P{} coexists with other copies",
                block,
                o
            );
        }

        // Directory presence bits are exact, not approximate.
        prop_assert_eq!(
            sim.sharers_of(block),
            sharers,
            "block {}: presence bitmask diverged from the caches",
            block
        );
        prop_assert_eq!(
            sim.owner_of(block),
            owner,
            "block {}: directory owner diverged from the caches",
            block
        );

        // Home-node state derives from those bits.
        let want = match (owner, sharers) {
            (Some(_), _) => DirState::Exclusive,
            (None, 0) => DirState::Uncached,
            (None, _) => DirState::Shared,
        };
        prop_assert_eq!(sim.dir_state(block), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Single-writer-multiple-reader and directory-exactness hold after
    /// every access, under every protocol.
    #[test]
    fn coherence_invariants_hold_under_every_protocol(trace in traces()) {
        for protocol in ProtocolKind::ALL {
            let mut sim = sim_for(protocol);
            for &(pid, word, write) in &trace {
                sim.access(pid, word * 4, write);
                check_invariants(&sim);
            }
        }
    }

    /// The miss taxonomy is a property of the trace and the block size,
    /// not of the protocol: all three protocols classify every miss
    /// identically (outcome by outcome, and in aggregate).
    #[test]
    fn classification_is_identical_across_protocols(trace in traces()) {
        let mut sims: Vec<MultiSim> =
            ProtocolKind::ALL.iter().map(|&p| sim_for(p)).collect();
        for (i, &(pid, word, write)) in trace.iter().enumerate() {
            let kinds: Vec<Option<MissKind>> = sims
                .iter_mut()
                .map(|s| s.access(pid, word * 4, write).miss)
                .collect();
            for k in &kinds[1..] {
                prop_assert_eq!(*k, kinds[0], "ref {} diverged", i);
            }
        }
        let (msi, rest) = sims.split_first().unwrap();
        for s in rest {
            prop_assert_eq!(&s.stats().misses, &msi.stats().misses);
            prop_assert_eq!(s.per_block_misses(), msi.per_block_misses());
        }
    }

    /// Word-level access totals and per-block reference counts are
    /// protocol-invariant; the directory's transaction counter equals
    /// misses + upgrades there and stays zero under snooping.
    #[test]
    fn access_totals_and_dir_txns(trace in traces()) {
        let mut sims: Vec<MultiSim> =
            ProtocolKind::ALL.iter().map(|&p| sim_for(p)).collect();
        for &(pid, word, write) in &trace {
            for s in sims.iter_mut() {
                s.access(pid, word * 4, write);
            }
        }
        let (msi, rest) = sims.split_first().unwrap();
        for s in rest {
            prop_assert_eq!(s.stats().refs, msi.stats().refs);
            prop_assert_eq!(s.stats().reads, msi.stats().reads);
            prop_assert_eq!(s.stats().writes, msi.stats().writes);
            prop_assert_eq!(s.per_block_refs(), msi.per_block_refs());
        }
        for s in &sims {
            let st = s.stats();
            match s.config().protocol {
                ProtocolKind::Directory => prop_assert_eq!(
                    st.dir_txns,
                    st.total_misses() + st.upgrades,
                    "every miss and upgrade is a home transaction"
                ),
                _ => prop_assert_eq!(st.dir_txns, 0),
            }
        }
    }
}
