//! Interconnect timing models replaying classified reference streams.
//!
//! The machine replays the same stream the cache simulator classifies
//! and accounts cycles per processor. Topology and transaction routing
//! are selected by [`InterconnectKind`]:
//!
//! - [`InterconnectKind::Ksr2Ring`] (the default) models the paper's
//!   56-processor KSR2: processors arranged on rings of 32; a miss
//!   serviced within the requester's ring costs 175 cycles, a miss
//!   serviced by a processor on another ring costs 600 cycles;
//!   cold/capacity misses are served by the local ALLCACHE partition
//!   without touching a ring.
//! - [`InterconnectKind::Bus`] is a flat bus/crossbar: one shared
//!   channel, uniform miss latency (no cross-ring penalty), but *every*
//!   fill occupies the single channel — it saturates earlier as
//!   processors are added.
//! - [`InterconnectKind::HomeDir`] is a DASH-style home-node directory
//!   fabric: one channel per node, every miss and upgrade visits the
//!   referenced block's address-interleaved home (`block % nproc`), and
//!   a dirty third-party owner turns a 2-hop fill into a 3-hop forward.
//!   Pair it with the `directory` protocol.
//!
//! Channel ids are interconnect-defined — ring index for the KSR2
//! rings, always 0 for the bus, home-node id for the directory fabric.
//! Every coherence transaction (miss fill or invalidating upgrade)
//! *occupies* its channel(s) for a fixed number of slot cycles, so
//! aggregate coherence traffic is bounded by interconnect bandwidth: as
//! more processors generate misses — in particular the superlinear
//! ping-pong traffic of falsely shared blocks — queueing delay grows and
//! the speedup curve rolls over, reproducing the paper's scalability
//! collapse for unoptimized programs.
//!
//! The models deliberately stay analytic (per-channel next-free-time
//! counters, no packet-level simulation): the paper's execution-time
//! observations depend on latency and bandwidth saturation, not on
//! interconnect micro-ordering. See DESIGN.md "Substitutions".

use fsr_sim::{MissKind, Outcome};

/// Which interconnect topology the timing model replays against: its
/// channel count and per-transaction routing. The shared replay
/// machinery (per-processor clocks, channel next-free-time counters,
/// stall attribution) lives in [`TimingModel`]; an interconnect only
/// decides *where* a transaction goes and *what it costs*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    #[default]
    /// KSR2-like two-level ring hierarchy (the paper's machine).
    Ksr2Ring,
    /// Flat single-channel bus/crossbar with uniform miss latency.
    Bus,
    /// Home-node directory fabric: per-node channels, 2/3-hop misses.
    HomeDir,
}

impl InterconnectKind {
    pub const ALL: [InterconnectKind; 3] = [
        InterconnectKind::Ksr2Ring,
        InterconnectKind::Bus,
        InterconnectKind::HomeDir,
    ];

    pub fn name(self) -> &'static str {
        match self {
            InterconnectKind::Ksr2Ring => "ksr2-ring",
            InterconnectKind::Bus => "bus",
            InterconnectKind::HomeDir => "home-dir",
        }
    }

    /// Number of shared channels an `nproc`-processor machine has: its
    /// rings for the KSR2 hierarchy, one for the bus, one per node for
    /// the directory fabric.
    pub fn num_channels(self, cfg: &MachineConfig, nproc: u32) -> usize {
        match self {
            InterconnectKind::Ksr2Ring => nproc.div_ceil(cfg.procs_per_ring).max(1) as usize,
            InterconnectKind::Bus => 1,
            InterconnectKind::HomeDir => nproc.max(1) as usize,
        }
    }

    /// Route one non-hit transaction (`outcome.hit()` is false) by
    /// processor `pid`. `nproc` is the machine size — home-node
    /// topologies interleave `outcome.block` across it to find the home.
    pub fn route(self, cfg: &MachineConfig, nproc: u32, pid: u32, outcome: &Outcome) -> Route {
        match self {
            InterconnectKind::Ksr2Ring => ring_route(cfg, pid, outcome),
            InterconnectKind::Bus => bus_route(cfg, outcome),
            InterconnectKind::HomeDir => home_dir_route(cfg, nproc, pid, outcome),
        }
    }
}

/// Machine parameters (defaults approximate the KSR2).
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Processors per ring (KSR2: 32 per ring, two rings for 56 procs).
    /// Only the ring topology reads this; the bus has one channel and
    /// the home-directory fabric one channel per node regardless.
    pub procs_per_ring: u32,
    /// Latency of a miss served by the processor's local second-level
    /// (ALLCACHE) partition: cold and capacity misses.
    pub l2_miss_cycles: u64,
    /// Miss latency when serviced within the requester's ring.
    pub local_miss_cycles: u64,
    /// Miss latency when serviced from another ring.
    pub remote_miss_cycles: u64,
    /// Latency of an invalidating upgrade (no data transfer).
    pub upgrade_cycles: u64,
    /// Channel occupancy of a miss fill (block transfer slots).
    pub miss_occupancy: u64,
    /// Channel occupancy of an upgrade/invalidate transaction.
    pub upgrade_occupancy: u64,
    /// Channel occupancy per remote cache invalidated: each invalidation
    /// is a coherence message the interconnect must carry, which is what
    /// makes false-sharing traffic grow *superlinearly* with the
    /// processor count (every ping-pong write invalidates every current
    /// sharer).
    pub invalidation_occupancy: u64,
    /// Fixed cost of a barrier episode (hardware barrier / flag tree).
    pub barrier_cycles: u64,
    /// Latency of a 3-hop directory miss: requester → home → dirty
    /// owner → requester. Only the home-directory fabric reads this.
    pub three_hop_miss_cycles: u64,
    /// Directory lookup overhead a remote home adds to every
    /// transaction it mediates. Only the home-directory fabric reads
    /// this.
    pub dir_lookup_cycles: u64,
    /// Topology the timing model routes transactions over.
    pub interconnect: InterconnectKind,
}

fn default_three_hop_miss_cycles() -> u64 {
    270
}

fn default_dir_lookup_cycles() -> u64 {
    25
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            procs_per_ring: 32,
            l2_miss_cycles: 30,
            local_miss_cycles: 175,
            remote_miss_cycles: 600,
            upgrade_cycles: 90,
            miss_occupancy: 8,
            upgrade_occupancy: 4,
            invalidation_occupancy: 4,
            barrier_cycles: 60,
            three_hop_miss_cycles: default_three_hop_miss_cycles(),
            dir_lookup_cycles: default_dir_lookup_cycles(),
            interconnect: InterconnectKind::Ksr2Ring,
        }
    }
}

/// How one non-hit transaction travels the interconnect: its latency,
/// the slot cycles it holds its channel(s) for (invalidation traffic
/// included), and which channels it involves — up to three distinct
/// ones (requester, home, forwarded-to owner for a 3-hop directory
/// miss; snooping topologies use at most two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    pub latency: u64,
    pub occupancy: u64,
    pub channels: [Option<usize>; 3],
    /// Directory transaction hop count: 2 (home supplies) or 3 (home
    /// forwards to a dirty owner). 0 for snooping topologies, where the
    /// notion doesn't apply.
    pub hops: u8,
}

impl Route {
    /// A snooping-topology route (no hop classification).
    fn snoop(latency: u64, occupancy: u64, first: usize, second: Option<usize>) -> Route {
        Route {
            latency,
            occupancy,
            channels: [Some(first), second, None],
            hops: 0,
        }
    }
}

/// The paper's machine: processors on rings of `procs_per_ring`;
/// cold/capacity misses served by the local ALLCACHE level (no ring
/// occupancy), sharing misses pay local or cross-ring latency.
fn ring_route(cfg: &MachineConfig, pid: u32, outcome: &Outcome) -> Route {
    let ring_of = |p: u32| (p / cfg.procs_per_ring) as usize;
    let my_ring = ring_of(pid);
    let inval_occ = outcome.invalidations as u64 * cfg.invalidation_occupancy;
    let (latency, occupancy, remote_ring) = if let Some(kind) = outcome.miss {
        let remote = outcome
            .supplier
            .map(|s| ring_of(s as u32))
            .filter(|&r| r != my_ring);
        // Cold/capacity misses with no remote supplier are served by
        // the local ALLCACHE level; sharing misses travel the ring.
        let served_locally =
            outcome.supplier.is_none() && matches!(kind, MissKind::Cold | MissKind::Replacement);
        let lat = if served_locally {
            cfg.l2_miss_cycles
        } else if remote.is_some() {
            cfg.remote_miss_cycles
        } else {
            cfg.local_miss_cycles
        };
        let occ = if served_locally {
            0
        } else {
            cfg.miss_occupancy
        };
        (lat, occ, remote)
    } else {
        // Upgrade.
        (cfg.upgrade_cycles, cfg.upgrade_occupancy, None)
    };
    Route::snoop(latency, occupancy + inval_occ, my_ring, remote_ring)
}

/// Flat bus/crossbar: one shared channel, uniform memory access. A
/// sharing miss costs the local-miss latency wherever the supplier
/// sits (no cross-ring penalty), cold/capacity misses cost the L2
/// latency — but *every* fill occupies the single channel, so the bus
/// saturates as processors are added where the ring hierarchy still
/// has headroom.
fn bus_route(cfg: &MachineConfig, outcome: &Outcome) -> Route {
    let inval_occ = outcome.invalidations as u64 * cfg.invalidation_occupancy;
    let (latency, occupancy) = if let Some(kind) = outcome.miss {
        let served_by_memory =
            outcome.supplier.is_none() && matches!(kind, MissKind::Cold | MissKind::Replacement);
        let lat = if served_by_memory {
            cfg.l2_miss_cycles
        } else {
            cfg.local_miss_cycles
        };
        // Memory sits on the bus: every fill holds the channel.
        (lat, cfg.miss_occupancy)
    } else {
        (cfg.upgrade_cycles, cfg.upgrade_occupancy)
    };
    Route::snoop(latency, occupancy + inval_occ, 0, None)
}

/// DASH-style home-node directory fabric: memory and directory state
/// are interleaved across the nodes by block index (`block % nproc`),
/// and every miss or upgrade is mediated by the home. Channel id =
/// node id, so the *home's* channel absorbs the occupancy of every
/// transaction on its blocks — a falsely shared block hammers one home
/// node rather than spreading over a broadcast medium, which is exactly
/// the contention shift the directory ablation measures.
///
/// Cost model (all transactions also pay `dir_lookup_cycles` unless the
/// requester *is* the home):
///
/// - clean block, requester is home → `l2_miss_cycles`, no occupancy
///   (a purely local fill, like the ring's ALLCACHE serve);
/// - clean block, remote home → 2-hop fill at `local_miss_cycles`;
/// - dirty owner is the home → 2-hop fill at `local_miss_cycles`;
/// - dirty third-party owner → 3-hop forward at
///   `three_hop_miss_cycles`, occupying the owner's channel too;
/// - upgrade → `upgrade_cycles`, plus one invalidation message per
///   presence bit (`invalidation_occupancy` each) charged at the home.
fn home_dir_route(cfg: &MachineConfig, nproc: u32, pid: u32, outcome: &Outcome) -> Route {
    let requester = pid as usize;
    let home = (outcome.block % nproc.max(1)) as usize;
    let lookup = if home == requester {
        0
    } else {
        cfg.dir_lookup_cycles
    };
    let inval_occ = outcome.invalidations as u64 * cfg.invalidation_occupancy;
    // Third-party dirty owner the home must forward to (owner == home
    // or owner == requester stays 2-hop).
    let forwarded = outcome
        .supplier
        .map(|s| s as usize)
        .filter(|&o| o != home && o != requester);
    let (latency, occupancy, hops) = if outcome.miss.is_some() {
        if let Some(_owner) = forwarded {
            (cfg.three_hop_miss_cycles + lookup, cfg.miss_occupancy, 3)
        } else if home == requester && outcome.supplier.is_none() {
            // Local home with a clean block: fill from the node's own
            // memory, no fabric occupancy.
            (cfg.l2_miss_cycles, 0, 2)
        } else {
            (cfg.local_miss_cycles + lookup, cfg.miss_occupancy, 2)
        }
    } else {
        (cfg.upgrade_cycles + lookup, cfg.upgrade_occupancy, 2)
    };
    // `forwarded` excludes both home and requester, so the three
    // channels are distinct by construction.
    Route {
        latency,
        occupancy: occupancy + inval_occ,
        channels: [
            Some(home),
            (home != requester).then_some(requester),
            forwarded,
        ],
        hops,
    }
}

/// Cycle accounting per processor plus stall attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Busy (compute + cache hit) cycles, per processor.
    pub busy: Vec<u64>,
    /// Memory stall cycles, per processor.
    pub stall: Vec<u64>,
    /// Of which: queueing delay waiting for the interconnect.
    pub queue: Vec<u64>,
    /// Stall cycles attributed to each miss kind (global).
    pub stall_by_kind: [u64; MissKind::COUNT],
    /// Stall cycles from upgrades.
    pub upgrade_stall: u64,
    /// Occupancy slot cycles charged per channel (per home node under
    /// the directory fabric — its hot spots; per ring on the KSR2).
    pub channel_busy: Vec<u64>,
    /// Directory transactions the home satisfied itself (2-hop).
    pub two_hop: u64,
    /// Directory transactions forwarded to a dirty owner (3-hop).
    pub three_hop: u64,
    /// Work-steal clock joins applied (one per steal event in the
    /// trace; always 0 under the round-robin schedule).
    pub steal_joins: u64,
}

impl TimingStats {
    /// Total interconnect queueing stall across processors.
    pub fn total_queue(&self) -> u64 {
        self.queue.iter().sum()
    }

    /// The busiest channel's occupancy cycles — the hottest home node
    /// under the directory fabric.
    pub fn max_channel_busy(&self) -> u64 {
        self.channel_busy.iter().copied().max().unwrap_or(0)
    }
}

/// What one recorded reference cost its processor, so callers (which
/// know the referenced address) can attribute interconnect pressure per
/// object. Zero for hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxCost {
    /// Total stall cycles (latency + queueing).
    pub stall: u64,
    /// Of which: queueing delay waiting for the channel(s).
    pub queue: u64,
}

/// The timing model: feed it the same stream the cache simulator
/// classifies, then read the execution time.
#[derive(Debug)]
pub struct TimingModel {
    cfg: MachineConfig,
    nproc: u32,
    proc_time: Vec<u64>,
    chan_free: Vec<u64>,
    stats: TimingStats,
}

impl TimingModel {
    pub fn new(cfg: MachineConfig, nproc: u32) -> TimingModel {
        let channels = cfg.interconnect.num_channels(&cfg, nproc);
        TimingModel {
            cfg,
            nproc,
            proc_time: vec![0; nproc as usize],
            chan_free: vec![0; channels],
            stats: TimingStats {
                busy: vec![0; nproc as usize],
                stall: vec![0; nproc as usize],
                queue: vec![0; nproc as usize],
                channel_busy: vec![0; channels],
                ..Default::default()
            },
        }
    }

    /// Account one reference: `gap` compute cycles since the processor's
    /// previous reference, then the access itself with its classified
    /// outcome. `outcome.supplier` is the remote holder when the block
    /// came from another cache. Returns what the reference cost so the
    /// caller can attribute it (per block / per object).
    pub fn record(&mut self, pid: u8, gap: u32, outcome: &Outcome) -> TxCost {
        let p = pid as usize;
        // Compute cycles plus one cycle for the (L1-hit) access itself.
        let busy = gap as u64 + 1;
        self.proc_time[p] += busy;
        self.stats.busy[p] += busy;

        if outcome.hit() {
            return TxCost::default();
        }
        self.record_tx(pid, outcome)
    }

    /// Account one chunk of classified references in lane order —
    /// the timing-side counterpart of the simulator's chunked replay.
    /// Equivalent to calling [`TimingModel::record`] per lane; the hit
    /// path (the common case) runs inline without routing, and
    /// `on_cost(lane, cost)` fires for every lane that paid queueing
    /// delay so callers can attribute it by address.
    ///
    /// Lanes must stay in order: per-processor clocks and channel
    /// next-free times evolve lane to lane, so this is a fused loop,
    /// not a reduction.
    pub fn record_chunk(
        &mut self,
        pids: &[u8],
        gaps: &[u32],
        outs: &[Outcome],
        mut on_cost: impl FnMut(usize, TxCost),
    ) {
        debug_assert_eq!(pids.len(), outs.len());
        debug_assert_eq!(gaps.len(), outs.len());
        for i in 0..outs.len() {
            let p = pids[i] as usize;
            let busy = gaps[i] as u64 + 1;
            self.proc_time[p] += busy;
            self.stats.busy[p] += busy;
            if outs[i].hit() {
                continue;
            }
            let cost = self.record_tx(pids[i], &outs[i]);
            if cost.queue > 0 {
                on_cost(i, cost);
            }
        }
    }

    /// The non-hit tail shared by [`TimingModel::record`] and
    /// [`TimingModel::record_chunk`]: route the transaction, acquire
    /// channels, account stall and queueing.
    fn record_tx(&mut self, pid: u8, outcome: &Outcome) -> TxCost {
        let p = pid as usize;
        let route = self
            .cfg
            .interconnect
            .route(&self.cfg, self.nproc, pid as u32, outcome);

        // Acquire the channel slot(s): wait until every channel involved
        // is free, then occupy them.
        let mut start = self.proc_time[p];
        for ch in route.channels.into_iter().flatten() {
            start = start.max(self.chan_free[ch]);
        }
        let queue_delay = start - self.proc_time[p];
        for ch in route.channels.into_iter().flatten() {
            self.chan_free[ch] = start + route.occupancy;
            self.stats.channel_busy[ch] += route.occupancy;
        }
        match route.hops {
            2 => self.stats.two_hop += 1,
            3 => self.stats.three_hop += 1,
            _ => {}
        }
        let done = start + route.latency;
        let stall = done - self.proc_time[p];
        self.proc_time[p] = done;
        self.stats.stall[p] += stall;
        self.stats.queue[p] += queue_delay;
        match outcome.miss {
            Some(kind) => self.stats.stall_by_kind[kind as usize] += stall,
            None => self.stats.upgrade_stall += stall,
        }
        TxCost {
            stall,
            queue: queue_delay,
        }
    }

    /// Synchronization point: align the listed processors' clocks to the
    /// latest among them (barrier release / spawn / join). Optionally add
    /// a fixed barrier overhead.
    pub fn sync(&mut self, pids: &[u32]) {
        let t = pids
            .iter()
            .map(|&p| self.proc_time[p as usize])
            .max()
            .unwrap_or(0)
            + self.cfg.barrier_cycles;
        for &p in pids {
            self.proc_time[p as usize] = t;
        }
    }

    /// Lock hand-off: the acquirer cannot proceed before the releaser's
    /// current time (the release happened at or before it).
    pub fn handoff(&mut self, from: u32, to: u32) {
        let t = self.proc_time[from as usize];
        let me = &mut self.proc_time[to as usize];
        if *me < t {
            *me = t;
        }
    }

    /// Work steal: the thief read the victim's deque top, so it cannot
    /// proceed before the victim's current time — the same one-way clock
    /// join as a lock hand-off.
    pub fn steal(&mut self, thief: u32, victim: u32) {
        self.stats.steal_joins += 1;
        self.handoff(victim, thief);
    }

    /// Execution time = the slowest processor.
    pub fn finish_time(&self) -> u64 {
        self.proc_time.iter().copied().max().unwrap_or(0)
    }

    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    pub fn nproc(&self) -> u32 {
        self.nproc
    }

    /// Fraction of total cycles spent stalled on false sharing.
    pub fn false_sharing_stall_fraction(&self) -> f64 {
        let total: u64 = self.proc_time.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.stats.stall_by_kind[MissKind::FalseSharing as usize] as f64 / total as f64
    }

    /// Capture the model's *dynamic* state — processor clocks and
    /// channel next-free times — so two replays of one stream can be
    /// compared beyond their cumulative statistics.
    pub fn snapshot(&self) -> TimingSnapshot {
        TimingSnapshot {
            proc_time: self.proc_time.clone(),
            chan_free: self.chan_free.clone(),
        }
    }
}

/// Dynamic timing state: per-processor clocks and per-channel next-free
/// times (see [`TimingModel::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingSnapshot {
    pub proc_time: Vec<u64>,
    pub chan_free: Vec<u64>,
}

/// A speedup curve: execution times per processor count.
#[derive(Debug, Clone, Default)]
pub struct SpeedupCurve {
    pub points: Vec<(u32, u64)>,
}

impl SpeedupCurve {
    pub fn push(&mut self, nproc: u32, time: u64) {
        self.points.push((nproc, time));
    }

    /// Speedups relative to the supplied uniprocessor baseline time.
    pub fn speedups(&self, t1: u64) -> Vec<(u32, f64)> {
        self.points
            .iter()
            .map(|&(p, t)| (p, if t == 0 { 0.0 } else { t1 as f64 / t as f64 }))
            .collect()
    }

    /// Maximum speedup and the processor count where it occurs (Table 3).
    pub fn max_speedup(&self, t1: u64) -> (f64, u32) {
        let mut best = (0.0f64, 1u32);
        for (p, s) in self.speedups(t1) {
            if s > best.0 {
                best = (s, p);
            }
        }
        best
    }

    /// Largest processor count at which adding processors still helped
    /// (the scaling knee).
    pub fn scaling_limit(&self, t1: u64) -> u32 {
        self.max_speedup(t1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit() -> Outcome {
        Outcome {
            miss: None,
            block: 0,
            supplier: None,
            upgrade: false,
            invalidations: 0,
        }
    }

    fn miss(kind: MissKind, supplier: Option<u8>) -> Outcome {
        miss_at(0, kind, supplier)
    }

    fn miss_at(block: u32, kind: MissKind, supplier: Option<u8>) -> Outcome {
        Outcome {
            miss: Some(kind),
            block,
            supplier,
            upgrade: false,
            invalidations: 0,
        }
    }

    fn bus_cfg() -> MachineConfig {
        MachineConfig {
            interconnect: InterconnectKind::Bus,
            ..Default::default()
        }
    }

    fn dir_cfg() -> MachineConfig {
        MachineConfig {
            interconnect: InterconnectKind::HomeDir,
            ..Default::default()
        }
    }

    #[test]
    fn hits_cost_one_cycle_plus_gap() {
        let mut m = TimingModel::new(MachineConfig::default(), 2);
        m.record(0, 9, &hit());
        m.record(0, 0, &hit());
        assert_eq!(m.finish_time(), 11);
        assert_eq!(m.stats().busy[0], 11);
        assert_eq!(m.stats().stall[0], 0);
    }

    #[test]
    fn cold_miss_costs_l2_latency() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 2);
        m.record(0, 0, &miss(MissKind::Cold, None));
        assert_eq!(m.finish_time(), 1 + cfg.l2_miss_cycles);
        // A sharing miss travels the ring even without a dirty supplier.
        let mut m2 = TimingModel::new(cfg, 2);
        m2.record(0, 0, &miss(MissKind::FalseSharing, None));
        assert_eq!(m2.finish_time(), 1 + cfg.local_miss_cycles);
    }

    #[test]
    fn cross_ring_miss_costs_remote_latency() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 56);
        // Proc 0 (ring 0) misses; supplier is proc 40 (ring 1).
        m.record(0, 0, &miss(MissKind::TrueSharing, Some(40)));
        assert_eq!(m.finish_time(), 1 + cfg.remote_miss_cycles);
        // Same-ring supplier: local latency.
        let mut m2 = TimingModel::new(cfg, 56);
        m2.record(0, 0, &miss(MissKind::TrueSharing, Some(3)));
        assert_eq!(m2.finish_time(), 1 + cfg.local_miss_cycles);
    }

    #[test]
    fn ring_contention_queues_transactions() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 8);
        // All eight processors miss at time ~1: their fills serialize on
        // the ring in occupancy slots.
        for p in 0..8u8 {
            m.record(p, 0, &miss(MissKind::FalseSharing, None));
        }
        let q: u64 = m.stats().total_queue();
        assert!(q > 0, "later misses must queue");
        // The last requester waited ~7 occupancy slots.
        assert!(m.finish_time() >= cfg.local_miss_cycles + 7 * cfg.miss_occupancy);
        assert!(cfg.miss_occupancy >= 2);
    }

    #[test]
    fn stall_attributed_to_miss_kind() {
        let mut m = TimingModel::new(MachineConfig::default(), 4);
        m.record(0, 0, &miss(MissKind::FalseSharing, None));
        m.record(1, 0, &miss(MissKind::Cold, None));
        assert!(m.stats().stall_by_kind[MissKind::FalseSharing as usize] > 0);
        assert!(m.stats().stall_by_kind[MissKind::Cold as usize] > 0);
        assert!(m.false_sharing_stall_fraction() > 0.0);
    }

    #[test]
    fn upgrades_use_upgrade_costs() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 2);
        m.record(
            0,
            0,
            &Outcome {
                miss: None,
                block: 0,
                supplier: None,
                upgrade: true,
                invalidations: 1,
            },
        );
        assert_eq!(m.finish_time(), 1 + cfg.upgrade_cycles);
        assert_eq!(m.stats().upgrade_stall, cfg.upgrade_cycles);
    }

    #[test]
    fn record_returns_the_cost_it_accounted() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 2);
        assert_eq!(m.record(0, 5, &hit()), TxCost::default());
        let c = m.record(0, 0, &miss(MissKind::FalseSharing, None));
        assert_eq!(c.stall, cfg.local_miss_cycles);
        assert_eq!(c.queue, 0);
        // A second requester right behind queues on the occupied ring.
        let c2 = m.record(1, 0, &miss(MissKind::FalseSharing, None));
        assert!(c2.queue > 0);
        assert_eq!(m.stats().queue[1], c2.queue);
    }

    #[test]
    fn speedup_curve_finds_knee() {
        let mut c = SpeedupCurve::default();
        // Times: improves to 8 procs, then degrades.
        c.push(1, 1000);
        c.push(2, 520);
        c.push(4, 270);
        c.push(8, 160);
        c.push(16, 240);
        let (s, at) = c.max_speedup(1000);
        assert_eq!(at, 8);
        assert!((s - 6.25).abs() < 1e-9);
        assert_eq!(c.scaling_limit(1000), 8);
    }

    #[test]
    fn sync_aligns_clocks_to_the_latest() {
        let cfg = MachineConfig::default();
        let mut m = TimingModel::new(cfg, 3);
        m.record(0, 99, &hit());
        m.record(1, 9, &hit());
        m.sync(&[0, 1, 2]);
        let expect = 100 + cfg.barrier_cycles;
        m.record(0, 0, &hit());
        m.record(2, 0, &hit());
        assert_eq!(m.finish_time(), expect + 1);
        // Both latecomers were pulled up to the barrier release time.
        assert!(m.stats().busy[2] > 0);
    }

    #[test]
    fn handoff_orders_acquirer_after_releaser() {
        let mut m = TimingModel::new(MachineConfig::default(), 2);
        m.record(0, 499, &hit()); // releaser at t=500
        m.record(1, 9, &hit()); // acquirer at t=10
        m.handoff(0, 1);
        m.record(1, 0, &hit());
        assert_eq!(m.finish_time(), 501);
        // Reverse direction is a no-op (acquirer already later).
        m.handoff(1, 0);
        m.record(0, 0, &hit());
        assert_eq!(m.finish_time(), 502);
    }

    #[test]
    fn invalidations_add_ring_occupancy() {
        let cfg = MachineConfig::default();
        let mut with_inv = TimingModel::new(cfg, 4);
        with_inv.record(
            0,
            0,
            &Outcome {
                miss: Some(MissKind::FalseSharing),
                block: 0,
                supplier: None,
                upgrade: false,
                invalidations: 3,
            },
        );
        with_inv.record(1, 0, &miss(MissKind::FalseSharing, None));
        let mut without = TimingModel::new(cfg, 4);
        without.record(0, 0, &miss(MissKind::FalseSharing, None));
        without.record(1, 0, &miss(MissKind::FalseSharing, None));
        // The second requester queues longer behind the invalidating
        // transaction.
        assert!(
            with_inv.stats().queue[1] > without.stats().queue[1],
            "{} vs {}",
            with_inv.stats().queue[1],
            without.stats().queue[1]
        );
    }

    #[test]
    fn independent_procs_overlap_in_time() {
        // Two procs each compute 100 cycles: wall-clock ~101, not 202.
        let mut m = TimingModel::new(MachineConfig::default(), 2);
        m.record(0, 100, &hit());
        m.record(1, 100, &hit());
        assert_eq!(m.finish_time(), 101);
    }

    #[test]
    fn bus_has_one_channel_and_uniform_latency() {
        let cfg = bus_cfg();
        let mut m = TimingModel::new(cfg, 56);
        // Processors 0 and 40 (different KSR2 rings) share the channel.
        assert_eq!(InterconnectKind::Bus.num_channels(&cfg, 56), 1);
        // A far-away supplier costs the same as a near one: no remote
        // penalty on a flat crossbar.
        m.record(0, 0, &miss(MissKind::TrueSharing, Some(40)));
        assert_eq!(m.finish_time(), 1 + cfg.local_miss_cycles);
    }

    #[test]
    fn bus_charges_cold_fills_channel_occupancy() {
        // On the bus, memory fills occupy the shared channel (the ring
        // model serves cold misses from the local ALLCACHE level for
        // free); concurrent cold misses therefore queue.
        let mut m = TimingModel::new(bus_cfg(), 8);
        for p in 0..8u8 {
            m.record(p, 0, &miss(MissKind::Cold, None));
        }
        assert!(m.stats().total_queue() > 0);
        let mut ring = TimingModel::new(MachineConfig::default(), 8);
        for p in 0..8u8 {
            ring.record(p, 0, &miss(MissKind::Cold, None));
        }
        assert_eq!(ring.stats().total_queue(), 0);
    }

    #[test]
    fn bus_saturates_where_rings_still_have_headroom() {
        // 40 processors split across two rings spread the same sharing
        // traffic over two channels; the bus serializes it all.
        let run = |ic: InterconnectKind| {
            let cfg = MachineConfig {
                interconnect: ic,
                ..Default::default()
            };
            let mut m = TimingModel::new(cfg, 40);
            for _ in 0..4 {
                for p in 0..40u8 {
                    m.record(p, 0, &miss(MissKind::FalseSharing, None));
                }
            }
            m.stats().total_queue()
        };
        assert!(run(InterconnectKind::Bus) > run(InterconnectKind::Ksr2Ring));
    }

    #[test]
    fn home_dir_has_one_channel_per_node() {
        let cfg = dir_cfg();
        let ic = InterconnectKind::HomeDir;
        assert_eq!(ic.num_channels(&cfg, 8), 8);
        // Processor 5 sits on channel 5: its miss on block 1 occupies the
        // home's channel (node 1) and its own.
        let route = ic.route(&cfg, 8, 5, &miss_at(1, MissKind::Cold, None));
        assert_eq!(route.channels, [Some(1), Some(5), None]);
        let m = TimingModel::new(cfg, 8);
        assert_eq!(m.stats().channel_busy.len(), 8);
    }

    #[test]
    fn home_dir_local_clean_fill_is_an_l2_serve() {
        let cfg = dir_cfg();
        let mut m = TimingModel::new(cfg, 4);
        // Proc 1 misses on block 1: home is 1 % 4 = proc 1 itself.
        m.record(1, 0, &miss_at(1, MissKind::Cold, None));
        assert_eq!(m.finish_time(), 1 + cfg.l2_miss_cycles);
        assert_eq!(m.stats().two_hop, 1);
        assert_eq!(m.stats().channel_busy.iter().sum::<u64>(), 0);
    }

    #[test]
    fn home_dir_remote_clean_fill_is_two_hop() {
        let cfg = dir_cfg();
        let mut m = TimingModel::new(cfg, 4);
        // Proc 0 misses on block 1: home is proc 1, clean → 2-hop.
        m.record(0, 0, &miss_at(1, MissKind::Cold, None));
        assert_eq!(
            m.finish_time(),
            1 + cfg.local_miss_cycles + cfg.dir_lookup_cycles
        );
        assert_eq!(m.stats().two_hop, 1);
        assert_eq!(m.stats().three_hop, 0);
        // Occupancy lands on the home's channel and the requester's.
        assert_eq!(m.stats().channel_busy[1], cfg.miss_occupancy);
        assert_eq!(m.stats().channel_busy[0], cfg.miss_occupancy);
    }

    #[test]
    fn home_dir_dirty_third_party_owner_is_three_hop() {
        let cfg = dir_cfg();
        let mut m = TimingModel::new(cfg, 4);
        // Proc 0 misses on block 1 (home: proc 1), dirty at proc 2:
        // home forwards — 3 hops, three channels occupied.
        m.record(0, 0, &miss_at(1, MissKind::TrueSharing, Some(2)));
        assert_eq!(
            m.finish_time(),
            1 + cfg.three_hop_miss_cycles + cfg.dir_lookup_cycles
        );
        assert_eq!(m.stats().three_hop, 1);
        for ch in [0, 1, 2] {
            assert_eq!(m.stats().channel_busy[ch], cfg.miss_occupancy);
        }
        assert_eq!(m.stats().channel_busy[3], 0);

        // Owner == home stays 2-hop at local latency.
        let mut m2 = TimingModel::new(cfg, 4);
        m2.record(0, 0, &miss_at(1, MissKind::TrueSharing, Some(1)));
        assert_eq!(
            m2.finish_time(),
            1 + cfg.local_miss_cycles + cfg.dir_lookup_cycles
        );
        assert_eq!(m2.stats().two_hop, 1);
        assert_eq!(m2.stats().three_hop, 0);
    }

    #[test]
    fn home_dir_serializes_a_contended_home() {
        // Every processor misses on blocks homed at node 0: the home's
        // channel serializes them, unlike the two-ring hierarchy where
        // the same traffic spreads across rings.
        let cfg = dir_cfg();
        let mut m = TimingModel::new(cfg, 8);
        for p in 1..8u8 {
            m.record(p, 0, &miss_at(0, MissKind::FalseSharing, None));
        }
        assert!(m.stats().total_queue() > 0, "home channel must congest");
        assert_eq!(m.stats().max_channel_busy(), m.stats().channel_busy[0]);
        // Home-local blocks: every node fills from its own memory, no
        // fabric traffic, no queueing.
        let mut spread = TimingModel::new(cfg, 8);
        for p in 1..8u8 {
            spread.record(p, 0, &miss_at(p as u32, MissKind::FalseSharing, None));
        }
        assert_eq!(spread.stats().total_queue(), 0);
    }

    #[test]
    fn home_dir_upgrade_charges_invalidations_at_the_home() {
        let cfg = dir_cfg();
        let mut m = TimingModel::new(cfg, 4);
        m.record(
            0,
            0,
            &Outcome {
                miss: None,
                block: 1,
                supplier: None,
                upgrade: true,
                invalidations: 3,
            },
        );
        assert_eq!(
            m.finish_time(),
            1 + cfg.upgrade_cycles + cfg.dir_lookup_cycles
        );
        let expect = cfg.upgrade_occupancy + 3 * cfg.invalidation_occupancy;
        assert_eq!(m.stats().channel_busy[1], expect);
    }

    #[test]
    fn snooping_routes_report_no_hop_class() {
        let mut m = TimingModel::new(MachineConfig::default(), 8);
        m.record(0, 0, &miss(MissKind::TrueSharing, Some(1)));
        assert_eq!(m.stats().two_hop, 0);
        assert_eq!(m.stats().three_hop, 0);
        // But channel occupancy is still accounted per ring.
        assert_eq!(
            m.stats().channel_busy[0],
            m.stats().channel_busy.iter().sum()
        );
    }

    /// A contended reference stream: every processor misses to its
    /// neighbor's cache, so channel occupancy stays saturated and any
    /// lost carryover is visible in queueing delay.
    fn contended_stream(nproc: u32, len: u32) -> Vec<(u8, u32, Outcome)> {
        (0..len)
            .map(|i| {
                let pid = (i % nproc) as u8;
                let supplier = Some(((i + 1) % nproc) as u8);
                (pid, i % 3, miss_at(i % 7, MissKind::TrueSharing, supplier))
            })
            .collect()
    }

    #[test]
    fn record_chunk_matches_per_reference_record() {
        for cfg in [MachineConfig::default(), bus_cfg(), dir_cfg()] {
            // Mix hits in among the contended misses so the chunked hit
            // fast path is exercised between transactions.
            let stream: Vec<(u8, u32, Outcome)> = contended_stream(8, 150)
                .into_iter()
                .enumerate()
                .map(|(i, (pid, gap, o))| {
                    if i % 3 == 0 {
                        (pid, gap + 2, hit())
                    } else {
                        (pid, gap, o)
                    }
                })
                .collect();
            let mut serial = TimingModel::new(cfg, 8);
            let mut serial_costs = Vec::new();
            for (pid, gap, o) in &stream {
                let c = serial.record(*pid, *gap, o);
                if c.queue > 0 {
                    serial_costs.push(c);
                }
            }
            let mut chunked = TimingModel::new(cfg, 8);
            let mut chunk_costs = Vec::new();
            for win in stream.chunks(17) {
                let pids: Vec<u8> = win.iter().map(|r| r.0).collect();
                let gaps: Vec<u32> = win.iter().map(|r| r.1).collect();
                let outs: Vec<Outcome> = win.iter().map(|r| r.2).collect();
                chunked.record_chunk(&pids, &gaps, &outs, |_, c| chunk_costs.push(c));
            }
            assert_eq!(serial.snapshot(), chunked.snapshot());
            assert_eq!(serial.stats(), chunked.stats());
            assert_eq!(serial.finish_time(), chunked.finish_time());
            assert_eq!(serial_costs, chunk_costs);
        }
    }
}
