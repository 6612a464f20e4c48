//! Per-data-structure miss and coherence-event attribution reports.

use crate::{CoherenceEvent, MissKind, MultiSim};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Miss counts for one attributed data structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjMisses {
    pub misses: [u64; MissKind::COUNT],
}

impl ObjMisses {
    pub fn total(&self) -> u64 {
        self.misses.iter().sum()
    }

    pub fn false_sharing(&self) -> u64 {
        self.misses[MissKind::FalseSharing as usize]
    }
}

/// Coherence-event counts for one attributed data structure. The event
/// classes come from the simulator; `queue_stall` is filled in by the
/// timing layer (interconnect queueing cycles spent on this object's
/// blocks) and is 0 straight out of the simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjCoherence {
    pub events: [u64; CoherenceEvent::COUNT],
    pub queue_stall: u64,
}

impl ObjCoherence {
    pub fn event_of(&self, e: CoherenceEvent) -> u64 {
        self.events[e as usize]
    }

    pub fn invalidations(&self) -> u64 {
        self.event_of(CoherenceEvent::Invalidation)
    }
}

/// Fold per-block count rows into per-object totals.
fn fold_counts<'a, const N: usize>(
    block_bytes: u32,
    rows: impl Iterator<Item = (usize, &'a [u32; N])>,
    mut name_of: impl FnMut(u32) -> Option<String>,
) -> BTreeMap<String, [u64; N]> {
    let mut out: BTreeMap<String, [u64; N]> = BTreeMap::new();
    for (b, counts) in rows {
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let addr = (b as u32) * block_bytes;
        let name = name_of(addr).unwrap_or_else(|| "<unattributed>".to_string());
        let e = out.entry(name).or_insert([0; N]);
        for (acc, &c) in e.iter_mut().zip(counts) {
            *acc += c as u64;
        }
    }
    out
}

/// Aggregate the simulator's per-block miss counts into per-object counts
/// using an address→name attribution function.
pub fn attribute_misses(
    sim: &MultiSim,
    name_of: impl FnMut(u32) -> Option<String>,
) -> BTreeMap<String, ObjMisses> {
    fold_counts(
        sim.block_bytes(),
        sim.per_block_misses().iter().enumerate(),
        name_of,
    )
    .into_iter()
    .map(|(k, misses)| (k, ObjMisses { misses }))
    .collect()
}

/// Aggregate the simulator's per-block coherence-event counts into
/// per-object counts using an address→name attribution function.
/// `queue_stall` is left 0 — see [`ObjCoherence`].
pub fn attribute_coherence(
    sim: &MultiSim,
    name_of: impl FnMut(u32) -> Option<String>,
) -> BTreeMap<String, ObjCoherence> {
    fold_counts(
        sim.block_bytes(),
        sim.per_block_events().iter().enumerate(),
        name_of,
    )
    .into_iter()
    .map(|(k, events)| {
        (
            k,
            ObjCoherence {
                events,
                queue_stall: 0,
            },
        )
    })
    .collect()
}

/// Render an attribution table sorted by false-sharing misses.
pub fn render_attribution(misses: &BTreeMap<String, ObjMisses>) -> String {
    let mut rows: Vec<(&String, &ObjMisses)> = misses.iter().collect();
    rows.sort_by_key(|(_, m)| std::cmp::Reverse(m.false_sharing()));
    let mut out = String::new();
    writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "data structure", "total", "cold", "repl", "true", "false"
    )
    .unwrap();
    for (name, m) in rows {
        writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
            name,
            m.total(),
            m.misses[0],
            m.misses[1],
            m.misses[2],
            m.misses[3]
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    #[test]
    fn attribution_groups_blocks_by_name() {
        let mut s = MultiSim::new(CacheConfig::with_block(64, 2), 1 << 16);
        s.access(0, 0x100, false);
        s.access(1, 0x108, true);
        s.access(0, 0x100, false); // false sharing
        s.access(0, 0x4000, false); // cold in another "object"
        let table = attribute_misses(&s, |addr| {
            Some(if addr < 0x2000 { "hot" } else { "cold_obj" }.to_string())
        });
        assert_eq!(table["hot"].false_sharing(), 1);
        assert_eq!(table["cold_obj"].total(), 1);
        let text = render_attribution(&table);
        assert!(text.contains("hot"));
        assert!(text.contains("cold_obj"));
    }

    #[test]
    fn coherence_attribution_groups_events_by_name() {
        let mut s = MultiSim::new(CacheConfig::with_block(64, 2), 1 << 16);
        s.access(0, 0x100, false);
        s.access(1, 0x100, false);
        s.access(0, 0x100, true); // upgrade + invalidation on "hot"
        let table = attribute_coherence(&s, |addr| {
            Some(if addr < 0x2000 { "hot" } else { "cold_obj" }.to_string())
        });
        assert_eq!(table["hot"].event_of(CoherenceEvent::Upgrade), 1);
        assert_eq!(table["hot"].invalidations(), 1);
        assert!(!table.contains_key("cold_obj"));
    }
}
