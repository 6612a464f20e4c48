//! Write-invalidate multiprocessor cache simulator with false-sharing
//! miss classification.
//!
//! Models the paper's simulation substrate: per-processor set-associative
//! first-level caches kept coherent by a write-invalidate protocol, with
//! an infinite second level (every miss is eventually satisfied; only L1
//! behaviour is classified). Block sizes from 4 to 256 bytes are
//! supported.
//!
//! The line-state machine is selected by [`ProtocolKind`]: the paper's
//! substrate is [`ProtocolKind::Msi`] (the default),
//! [`ProtocolKind::Mesi`] adds an Exclusive state that makes write hits
//! on private data silent (no invalidating upgrade transaction), and
//! [`ProtocolKind::Directory`] is a home-node directory protocol
//! (DASH-style: MSI cache states, but every miss and upgrade is a
//! transaction at the block's home directory, counted in
//! [`SimStats::dir_txns`] and routed with 2/3-hop costs by the
//! `fsr-machine` home-node interconnect). Miss *classification* is one
//! function all three protocols share, so they classify every reference
//! identically; only the coherence traffic they generate and its cost
//! differ (see `tests/coherence_props.rs` for the property tests).
//!
//! The per-block sharer bitmask and owner the simulator keeps for
//! snooping bookkeeping double as the directory's presence bits and
//! Shared/Exclusive/Uncached state ([`MultiSim::dir_state`]); they are
//! maintained exactly (evictions and invalidations both clear presence
//! bits), which the invariant proptests assert against the simulated
//! sharer set.
//!
//! ## Miss classification
//!
//! Following the classification used by Eggers/Jeremiassen and Torrellas
//! et al., every miss is attributed to exactly one cause:
//!
//! - **cold** — the processor never cached the block before;
//! - **replacement** — the block was last lost to eviction
//!   (capacity/conflict);
//! - **true sharing** — the block was lost to an invalidation and the
//!   *word now referenced* was modified by another processor since;
//! - **false sharing** — the block was lost to an invalidation but the
//!   referenced word was *not* modified since: only coherence at block
//!   granularity forced the miss.
//!
//! The implementation keeps a global per-word last-write clock and a
//! per-processor record of when and why each block was lost; the
//! comparison is exact, not sampled.

use std::fmt;

pub mod report;

/// Which coherence protocol a simulator runs: the line-state machine of
/// a write-invalidate protocol (which state a read miss installs, and
/// whether a home directory mediates its transactions). The
/// block-granularity bookkeeping (directory, word clocks, LRU, loss
/// records) and miss classification are shared by all protocols and
/// live in [`MultiSim`]. `Copy + Eq + Hash` because the batched driver
/// groups jobs by config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    #[default]
    /// Write-invalidate MSI — the paper's simulated substrate. Every
    /// read fill installs Shared, so the first write to any block pays
    /// an upgrade transaction.
    Msi,
    /// MESI: a read miss with no other cached copy installs Exclusive,
    /// and the subsequent write hit upgrades silently — private data
    /// generates no invalidation traffic.
    Mesi,
    /// Home-node directory protocol (DASH-style Dir-N). Cache-side
    /// states are MSI — the home grants read-only copies, so even a sole
    /// reader fills Shared and the first write pays an explicit upgrade
    /// at the directory (keeping presence bits authoritative; the DASH
    /// exclusive-on-read optimization is deliberately omitted so the
    /// directory ablation isolates *cost* effects from state-machine
    /// effects). What differs from MSI is that every miss and upgrade is
    /// a transaction at the block's home node: the simulator counts them
    /// ([`SimStats::dir_txns`]) and the `home-dir` interconnect charges
    /// 2-hop (home supplies) vs 3-hop (home forwards to a dirty owner)
    /// latency plus per-home channel occupancy, including one
    /// invalidation message per presence bit on writes.
    Directory,
}

impl ProtocolKind {
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        ProtocolKind::Directory,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Msi => "msi",
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Directory => "directory",
        }
    }

    /// State installed by a read miss, given whether any other cache
    /// holds a copy of the block.
    pub fn read_fill_state(self, other_copies: bool) -> LineState {
        match self {
            ProtocolKind::Mesi if !other_copies => LineState::Exclusive,
            ProtocolKind::Msi | ProtocolKind::Mesi | ProtocolKind::Directory => LineState::Shared,
        }
    }

    /// Whether a home-node directory mediates this protocol's coherence
    /// transactions. When true, every miss and every upgrade counts one
    /// directory transaction at the block's home
    /// ([`SimStats::dir_txns`]); the snooping protocols leave it false.
    pub fn uses_home_directory(self) -> bool {
        self == ProtocolKind::Directory
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub nproc: u32,
    /// Coherence block size in bytes (power of two, 4..=256 typical).
    pub block_bytes: u32,
    /// Per-processor first-level cache capacity.
    pub cache_bytes: u32,
    /// Set associativity.
    pub assoc: u32,
    /// Line-state machine the caches run.
    pub protocol: ProtocolKind,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            nproc: 12,
            block_bytes: 128,
            cache_bytes: 32 * 1024,
            assoc: 4,
            protocol: ProtocolKind::Msi,
        }
    }
}

impl CacheConfig {
    pub fn with_block(block_bytes: u32, nproc: u32) -> CacheConfig {
        CacheConfig {
            nproc,
            block_bytes,
            ..Default::default()
        }
    }

    pub fn num_sets(&self) -> u32 {
        (self.cache_bytes / self.block_bytes / self.assoc).max(1)
    }
}

/// Miss cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    Cold = 0,
    Replacement = 1,
    TrueSharing = 2,
    FalseSharing = 3,
}

impl MissKind {
    /// Number of miss classes — the one authority for sizing per-kind
    /// count arrays.
    pub const COUNT: usize = 4;

    pub const ALL: [MissKind; MissKind::COUNT] = [
        MissKind::Cold,
        MissKind::Replacement,
        MissKind::TrueSharing,
        MissKind::FalseSharing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MissKind::Cold => "cold",
            MissKind::Replacement => "replacement",
            MissKind::TrueSharing => "true-sharing",
            MissKind::FalseSharing => "false-sharing",
        }
    }
}

/// Coherence event class, for per-object observability. These count
/// protocol *transactions and their consequences*, not misses: one
/// upgrade may cause several invalidations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceEvent {
    /// A remote copy was invalidated (by an upgrade or a write miss).
    Invalidation = 0,
    /// Write hit on a Shared line: an invalidating upgrade transaction.
    Upgrade = 1,
    /// A dirty or exclusive remote copy was downgraded to service a read.
    Intervention = 2,
    /// Write hit on an Exclusive line: silent upgrade, no transaction
    /// (MESI only — the traffic MSI would have paid).
    ExclusiveHit = 3,
}

impl CoherenceEvent {
    pub const COUNT: usize = 4;

    pub const ALL: [CoherenceEvent; CoherenceEvent::COUNT] = [
        CoherenceEvent::Invalidation,
        CoherenceEvent::Upgrade,
        CoherenceEvent::Intervention,
        CoherenceEvent::ExclusiveHit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CoherenceEvent::Invalidation => "invalidations",
            CoherenceEvent::Upgrade => "upgrades",
            CoherenceEvent::Intervention => "interventions",
            CoherenceEvent::ExclusiveHit => "exclusive_hits",
        }
    }
}

/// Result of one access, consumed by the timing model. `Default` is an
/// inert placeholder (a hit with no coherence side effects) used to
/// pre-size chunk outcome buffers before the simulator fills them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub miss: Option<MissKind>,
    /// Block index of the referenced address — home-node interconnects
    /// derive the block's home from it (address-interleaved).
    pub block: u32,
    /// For misses: the processor that held the block modified or
    /// exclusive (the remote supplier), when any. `None` = served by
    /// memory/L2.
    pub supplier: Option<u8>,
    /// Write hit on a Shared line: an invalidating upgrade transaction.
    pub upgrade: bool,
    /// Number of remote caches this access invalidated (coherence
    /// traffic the interconnect must carry).
    pub invalidations: u8,
}

impl Outcome {
    pub fn hit(&self) -> bool {
        self.miss.is_none() && !self.upgrade
    }
}

/// Aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub refs: u64,
    pub reads: u64,
    pub writes: u64,
    pub misses: [u64; MissKind::COUNT],
    pub upgrades: u64,
    pub invalidations: u64,
    /// Dirty/exclusive remote copies downgraded to service reads.
    pub interventions: u64,
    /// Silent Exclusive→Modified write hits (MESI; always 0 under MSI).
    pub exclusive_hits: u64,
    /// Home-directory transactions: every miss and every upgrade visits
    /// the block's home node under a directory protocol
    /// (`dir_txns == total_misses() + upgrades` there; always 0 under
    /// the snooping protocols).
    pub dir_txns: u64,
}

impl SimStats {
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    pub fn miss_of(&self, k: MissKind) -> u64 {
        self.misses[k as usize]
    }

    pub fn false_sharing(&self) -> u64 {
        self.miss_of(MissKind::FalseSharing)
    }

    /// Misses per reference.
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.total_misses() as f64 / self.refs as f64
        }
    }

    /// Non-false-sharing misses ("other" in Figure 3).
    pub fn other_misses(&self) -> u64 {
        self.total_misses() - self.false_sharing()
    }

    pub fn event_of(&self, e: CoherenceEvent) -> u64 {
        match e {
            CoherenceEvent::Invalidation => self.invalidations,
            CoherenceEvent::Upgrade => self.upgrades,
            CoherenceEvent::Intervention => self.interventions,
            CoherenceEvent::ExclusiveHit => self.exclusive_hits,
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs {} misses {} (cold {} repl {} true {} false {}) upgrades {}",
            self.refs,
            self.total_misses(),
            self.misses[0],
            self.misses[1],
            self.misses[2],
            self.misses[3],
            self.upgrades
        )
    }
}

/// Cache-line state. The union of the states any supported protocol
/// uses; MSI never installs `Exclusive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    Invalid,
    Shared,
    /// Clean and private: the only cached copy (MESI).
    Exclusive,
    Modified,
}

/// Why a processor last lost a block (input to miss classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LostReason {
    None,
    Eviction,
    Invalidation,
}

/// Classify a miss from the loss record and the referenced word's
/// last-write clock: the paper's exact rule. Every protocol uses it,
/// which is what makes their classifications provably identical.
fn classify_miss(reason: LostReason, lost_time: u64, word_write_time: u64) -> MissKind {
    match reason {
        LostReason::None => MissKind::Cold,
        LostReason::Eviction => MissKind::Replacement,
        LostReason::Invalidation => {
            // `>=`: an invalidation at time t is always caused by a
            // write at that same timestamp, and timestamps are unique
            // per access — equality means "the invalidating write hit
            // this very word".
            if word_write_time >= lost_time {
                MissKind::TrueSharing
            } else {
                MissKind::FalseSharing
            }
        }
    }
}

/// Directory (home-node) state of one block, derived from the presence
/// bitmask and owner the simulator maintains exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the block.
    Uncached,
    /// One or more clean copies; home memory is up to date.
    Shared,
    /// A single cache holds the block modified (or MESI-exclusive); the
    /// directory forwards requests to it.
    Exclusive,
}

/// Width of one replay chunk: one lane per bit of a `u64` mask, so
/// write flags, independence masks, and sharer ballots all fit machine
/// words.
pub const CHUNK_LANES: usize = 64;

const NEVER: u64 = 0;

/// One processor's cache.
///
/// Line state is struct-of-arrays: three parallel per-way planes
/// (`tag`, `state`, `lru`), indexed `set * assoc + way`. Probing a set
/// then touches `assoc` contiguous lanes of each plane the probe
/// actually needs — a tag match reads only `tag`/`state`, never the
/// 8-byte LRU stamps — which is what makes the chunked replay's probe
/// pass cache-friendly. A lane whose `state` is [`LineState::Invalid`]
/// is empty; its `tag` is left in place on invalidation (see
/// [`Cache::lose`]), which the chunked replay's conflict argument
/// relies on: a stale tag never matches a *different* block, so an
/// invalidation in one lane cannot change another block's probe.
struct Cache {
    /// Per way: block index cached in the way (`u32::MAX` = never used).
    tag: Vec<u32>,
    /// Per way: MSI/MESI line state.
    state: Vec<LineState>,
    /// Per way: simulator time of last touch, for LRU victim selection.
    lru: Vec<u64>,
    num_sets: u32,
    assoc: u32,
    /// Per block: when and why this processor last lost it.
    lost_time: Vec<u64>,
    lost_reason: Vec<LostReason>,
}

impl Cache {
    fn new(cfg: &CacheConfig, nblocks: u32) -> Cache {
        let ways = (cfg.num_sets() * cfg.assoc) as usize;
        Cache {
            tag: vec![u32::MAX; ways],
            state: vec![LineState::Invalid; ways],
            lru: vec![0; ways],
            num_sets: cfg.num_sets(),
            assoc: cfg.assoc,
            lost_time: vec![NEVER; nblocks as usize],
            lost_reason: vec![LostReason::None; nblocks as usize],
        }
    }

    fn set_range(&self, block: u32) -> std::ops::Range<usize> {
        let set = (block % self.num_sets) as usize;
        set * self.assoc as usize..(set + 1) * self.assoc as usize
    }

    fn find(&self, block: u32) -> Option<usize> {
        self.set_range(block)
            .find(|&i| self.state[i] != LineState::Invalid && self.tag[i] == block)
    }

    /// Choose a victim way in the block's set (an invalid way if any,
    /// else LRU).
    fn victim(&self, block: u32) -> usize {
        let range = self.set_range(block);
        let mut best = range.start;
        let mut best_lru = u64::MAX;
        for i in range {
            if self.state[i] == LineState::Invalid {
                return i;
            }
            if self.lru[i] < best_lru {
                best_lru = self.lru[i];
                best = i;
            }
        }
        best
    }

    fn lose(&mut self, way: usize, time: u64, reason: LostReason) {
        let b = self.tag[way] as usize;
        self.lost_time[b] = time;
        self.lost_reason[b] = reason;
        self.state[way] = LineState::Invalid;
    }
}

/// The multiprocessor simulator.
pub struct MultiSim {
    cfg: CacheConfig,
    caches: Vec<Cache>,
    /// Directory: per block, bitmask of sharers and the modified or
    /// exclusive owner.
    sharers: Vec<u64>,
    owner: Vec<u8>,
    /// Per word: simulator time of last write.
    word_write_time: Vec<u64>,
    /// Per block per kind: miss counts (for per-object attribution).
    per_block_misses: Vec<[u32; MissKind::COUNT]>,
    /// Per block per event class: coherence-event counts.
    per_block_events: Vec<[u32; CoherenceEvent::COUNT]>,
    /// Per block: total references (hits and misses alike) — protocol
    /// choice cannot change these, which the cross-backend equivalence
    /// tests assert.
    per_block_refs: Vec<u64>,
    /// Advances once per access; every word clock, loss record and LRU
    /// stamp is a reading of it.
    time: u64,
    stats: SimStats,
    block_shift: u32,
    /// Words per coherence block (`block_bytes / 4`).
    wpb: u32,
}

const NO_OWNER: u8 = u8::MAX;

impl MultiSim {
    /// `addr_space_bytes` bounds the addresses that will be accessed.
    pub fn new(cfg: CacheConfig, addr_space_bytes: u32) -> MultiSim {
        assert!(cfg.block_bytes.is_power_of_two() && cfg.block_bytes >= 4);
        assert!(cfg.nproc >= 1 && cfg.nproc <= 64);
        let nblocks = addr_space_bytes.div_ceil(cfg.block_bytes) + 1;
        let wpb = cfg.block_bytes / 4;
        MultiSim {
            caches: (0..cfg.nproc).map(|_| Cache::new(&cfg, nblocks)).collect(),
            sharers: vec![0; nblocks as usize],
            owner: vec![NO_OWNER; nblocks as usize],
            word_write_time: vec![NEVER; (nblocks * wpb) as usize],
            per_block_misses: vec![[0; MissKind::COUNT]; nblocks as usize],
            per_block_events: vec![[0; CoherenceEvent::COUNT]; nblocks as usize],
            per_block_refs: vec![0; nblocks as usize],
            time: 1,
            stats: SimStats::default(),
            block_shift: cfg.block_bytes.trailing_zeros(),
            wpb,
            cfg,
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Per-block miss counts, indexed `[block][MissKind]` — callers map
    /// block indices to data structures via the layout.
    pub fn per_block_misses(&self) -> &[[u32; MissKind::COUNT]] {
        &self.per_block_misses
    }

    /// Per-block coherence-event counts, indexed `[block][CoherenceEvent]`.
    pub fn per_block_events(&self) -> &[[u32; CoherenceEvent::COUNT]] {
        &self.per_block_events
    }

    /// Per-block reference counts (hits and misses alike), indexed by
    /// block. Purely a function of the trace and the block size — the
    /// cross-backend equivalence tests assert these are bit-identical
    /// across protocols.
    pub fn per_block_refs(&self) -> &[u64] {
        &self.per_block_refs
    }

    /// Directory presence bitmask for `block`: bit `p` set iff processor
    /// `p` holds a valid copy. Maintained exactly (evictions and
    /// invalidations both clear bits), so under the
    /// [`ProtocolKind::Directory`] protocol this *is* the home node's
    /// presence vector.
    pub fn sharers_of(&self, block: u32) -> u64 {
        self.sharers[block as usize]
    }

    /// The processor holding `block` Modified or Exclusive, if any.
    pub fn owner_of(&self, block: u32) -> Option<u8> {
        let o = self.owner[block as usize];
        if o == NO_OWNER {
            None
        } else {
            Some(o)
        }
    }

    /// Cache-side state of `block` in processor `pid`'s cache
    /// ([`LineState::Invalid`] when not resident).
    pub fn line_state(&self, pid: u8, block: u32) -> LineState {
        match self.caches[pid as usize].find(block) {
            Some(way) => self.caches[pid as usize].state[way],
            None => LineState::Invalid,
        }
    }

    /// Home-directory state of `block`, derived from the owner and the
    /// presence bitmask (meaningful under every protocol; authoritative
    /// under [`ProtocolKind::Directory`]).
    pub fn dir_state(&self, block: u32) -> DirState {
        let b = block as usize;
        if self.owner[b] != NO_OWNER {
            DirState::Exclusive
        } else if self.sharers[b] != 0 {
            DirState::Shared
        } else {
            DirState::Uncached
        }
    }

    /// Number of blocks in the simulated address space (the valid range
    /// for [`Self::dir_state`] and friends).
    pub fn num_blocks(&self) -> u32 {
        self.sharers.len() as u32
    }

    pub fn block_bytes(&self) -> u32 {
        self.cfg.block_bytes
    }

    /// Capture the global coherence state: counters, and per block the
    /// presence bitmask, owner and home-directory state.
    pub fn snapshot(&self) -> CoherenceSnapshot {
        let n = self.num_blocks();
        CoherenceSnapshot {
            stats: self.stats.clone(),
            sharers: (0..n).map(|b| self.sharers_of(b)).collect(),
            owner: (0..n).map(|b| self.owner_of(b)).collect(),
            dir: (0..n).map(|b| self.dir_state(b)).collect(),
        }
    }

    /// Simulate one reference: advance the clock, then take the full
    /// transition. The scalar reference the chunked replay
    /// ([`Self::access_chunk`]) is held to.
    pub fn access(&mut self, pid: u8, addr: u32, write: bool) -> Outcome {
        self.time += 1;
        self.step(pid, addr, write)
    }

    /// The one transition body: simulate one reference at the
    /// already-advanced clock `self.time`. [`Self::access`] calls it per
    /// reference; [`Self::access_chunk`] for each dependent ("slow")
    /// lane, with the clock pinned to the lane's serial timestamp.
    /// Keeping one body is what makes the two bit-identical.
    fn step(&mut self, pid: u8, addr: u32, write: bool) -> Outcome {
        let p = pid as usize;
        debug_assert!(p < self.caches.len());
        self.stats.refs += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let block = addr >> self.block_shift;
        let bs = block as usize;
        let word = bs * self.wpb as usize + ((addr / 4) % self.wpb) as usize;
        self.per_block_refs[bs] += 1;

        let outcome = match self.caches[p].find(block) {
            Some(way) => {
                self.caches[p].lru[way] = self.time;
                match (self.caches[p].state[way], write) {
                    (LineState::Modified, _)
                    | (LineState::Shared, false)
                    | (LineState::Exclusive, false) => Outcome {
                        miss: None,
                        block,
                        supplier: None,
                        upgrade: false,
                        invalidations: 0,
                    },
                    (LineState::Exclusive, true) => {
                        // Silent upgrade: the only copy, no transaction.
                        self.caches[p].state[way] = LineState::Modified;
                        self.stats.exclusive_hits += 1;
                        self.per_block_events[bs][CoherenceEvent::ExclusiveHit as usize] += 1;
                        Outcome {
                            miss: None,
                            block,
                            supplier: None,
                            upgrade: false,
                            invalidations: 0,
                        }
                    }
                    (LineState::Shared, true) => {
                        // Upgrade: invalidate all other sharers.
                        let inv = self.invalidate_others(block, pid);
                        self.caches[p].state[way] = LineState::Modified;
                        self.owner[bs] = pid;
                        self.stats.upgrades += 1;
                        self.per_block_events[bs][CoherenceEvent::Upgrade as usize] += 1;
                        if self.cfg.protocol.uses_home_directory() {
                            self.stats.dir_txns += 1;
                        }
                        Outcome {
                            miss: None,
                            block,
                            supplier: None,
                            upgrade: true,
                            invalidations: inv,
                        }
                    }
                    (LineState::Invalid, _) => unreachable!("find returns valid lines"),
                }
            }
            None => {
                // Miss: classify, then fill.
                let kind = self.classify(p, bs, word);
                self.stats.misses[kind as usize] += 1;
                self.per_block_misses[bs][kind as usize] += 1;
                if self.cfg.protocol.uses_home_directory() {
                    self.stats.dir_txns += 1;
                }
                let supplier = {
                    let o = self.owner[bs];
                    if o != NO_OWNER && o != pid {
                        Some(o)
                    } else {
                        None
                    }
                };
                let mut invalidations = 0;
                if write {
                    invalidations = self.invalidate_others(block, pid);
                    self.install(p, block, LineState::Modified);
                    self.owner[bs] = pid;
                    self.sharers[bs] = 1 << pid;
                } else {
                    // Downgrade a modified or exclusive owner to Shared
                    // (an intervention: its copy services the read).
                    let o = self.owner[bs];
                    if o != NO_OWNER && o != pid {
                        let oc = &mut self.caches[o as usize];
                        if let Some(oway) = oc.find(block) {
                            oc.state[oway] = LineState::Shared;
                            self.stats.interventions += 1;
                            self.per_block_events[bs][CoherenceEvent::Intervention as usize] += 1;
                        }
                    }
                    // Sharer bits are exact (evictions and invalidations
                    // both clear them), and the missing processor's own
                    // bit is never set here.
                    let other_copies = self.sharers[bs] != 0;
                    let fill = self.cfg.protocol.read_fill_state(other_copies);
                    self.owner[bs] = if fill == LineState::Exclusive {
                        pid
                    } else {
                        NO_OWNER
                    };
                    self.install(p, block, fill);
                    self.sharers[bs] |= 1 << pid;
                }
                Outcome {
                    miss: Some(kind),
                    block,
                    supplier,
                    upgrade: false,
                    invalidations,
                }
            }
        };
        if write {
            self.word_write_time[word] = self.time;
        }
        outcome
    }

    fn classify(&self, p: usize, bs: usize, word: usize) -> MissKind {
        let c = &self.caches[p];
        classify_miss(
            c.lost_reason[bs],
            c.lost_time[bs],
            self.word_write_time[word],
        )
    }

    fn invalidate_others(&mut self, block: u32, keeper: u8) -> u8 {
        let bs = block as usize;
        let mask = self.sharers[bs] & !(1u64 << keeper);
        if mask == 0 {
            self.sharers[bs] &= 1u64 << keeper;
            return 0;
        }
        let mut count = 0u8;
        for q in 0..self.cfg.nproc {
            if mask & (1 << q) == 0 {
                continue;
            }
            let qc = &mut self.caches[q as usize];
            if let Some(way) = qc.find(block) {
                qc.lose(way, self.time, LostReason::Invalidation);
                self.stats.invalidations += 1;
                self.per_block_events[bs][CoherenceEvent::Invalidation as usize] += 1;
                count += 1;
            }
        }
        self.sharers[bs] &= 1u64 << keeper;
        if self.owner[bs] != keeper {
            self.owner[bs] = NO_OWNER;
        }
        count
    }

    fn install(&mut self, p: usize, block: u32, state: LineState) {
        let way = self.caches[p].victim(block);
        if self.caches[p].state[way] != LineState::Invalid {
            let obs = self.caches[p].tag[way] as usize;
            self.caches[p].lose(way, self.time, LostReason::Eviction);
            self.sharers[obs] &= !(1u64 << p);
            if self.owner[obs] == p as u8 {
                self.owner[obs] = NO_OWNER;
            }
        }
        let c = &mut self.caches[p];
        c.tag[way] = block;
        c.state[way] = state;
        c.lru[way] = self.time;
    }

    /// Replay one chunk of up to [`CHUNK_LANES`] references
    /// lane-parallel. Lane `i` carries `(pids[i], addrs[i], write_mask
    /// bit i)`; `outs[i]` receives its outcome. Equivalent to calling
    /// [`Self::access`] per lane in lane order, bit-for-bit (asserted by
    /// the equivalence proptests).
    ///
    /// Strategy: one fused in-order pass decodes each lane (block index,
    /// set, word offset — shifts and masks, since the geometry is a
    /// power of two) and applies a set-granular taint rule: a lane is
    /// applied fast iff it probes as a read hit, Modified-write hit, or
    /// Exclusive-write hit AND no earlier *slow* lane of this chunk
    /// touched its cache set. Slow lanes — misses, Shared-write
    /// upgrades, and tainted lanes — are deferred and replayed through
    /// [`Self::step`] in lane order with the clock pinned to their
    /// serial timestamp `base + lane + 1`. Hits never taint, so the
    /// common trace shape — a run of consecutive references to one hot
    /// block — stays on the fast path. The taint state is a single `u64`
    /// bitmap indexed by `set & 63` held in a register: exact for 64
    /// sets or fewer, conservatively aliased — never unsound — beyond
    /// it.
    ///
    /// Why set tainting is sufficient: every mutation a slow lane can
    /// make lands in its own block's set — tag-matched ways of that
    /// block in *any* cache (invalidations, downgrades; [`Cache::lose`]
    /// never clears tags), victim selection and install in its own
    /// `(pid, set)` (the victim, by construction, maps to the same
    /// set), and that block's word clock, sharers, and per-block
    /// counters. A fast lane reads and writes only its own way's
    /// `lru`/`state` plane lanes (state only the silent
    /// Exclusive→Modified flip, which no probe distinguishes from
    /// Modified), its own block's word clock, and commutative counters
    /// — all within its own set. Demoting every later lane whose set an
    /// earlier slow lane touched therefore leaves no read or write
    /// overlap between fast applications and deferred slow transitions.
    pub fn access_chunk(
        &mut self,
        pids: &[u8],
        addrs: &[u32],
        write_mask: u64,
        outs: &mut [Outcome],
    ) {
        let n = addrs.len();
        debug_assert!(n <= CHUNK_LANES);
        debug_assert_eq!(pids.len(), n);
        debug_assert_eq!(outs.len(), n);
        let num_sets = self.caches[0].num_sets;
        // The decode below is shifts and masks, which needs a
        // power-of-two set count; other geometries replay per
        // reference, bit-identically.
        if !num_sets.is_power_of_two() {
            for i in 0..n {
                outs[i] = self.access(pids[i], addrs[i], write_mask >> i & 1 == 1);
            }
            return;
        }
        let base = self.time;
        let wpb_shift = self.wpb.trailing_zeros();
        let assoc = self.caches[0].assoc as usize;

        // Fused in-order pass: decode, probe, apply hits fast with
        // chunk-local counter accumulation, taint and defer everything
        // else. The taint bitmap lives in a register, keyed by set
        // (aliased through `& 63` only for geometries with more than 64
        // sets).
        let mut taint: u64 = 0;
        let mut slow = [0u8; CHUNK_LANES];
        let mut nslow = 0usize;
        let mut fast_reads = 0u64;
        let mut fast_writes = 0u64;
        let mut fast_ex = 0u64;
        for i in 0..n {
            let b = addrs[i] >> self.block_shift;
            let set = b & (num_sets - 1);
            let bs = b as usize;
            let p = pids[i] as usize;
            let write = write_mask >> i & 1 == 1;
            if taint & (1u64 << (set & 63)) == 0 {
                let w0 = set as usize * assoc;
                let c = &self.caches[p];
                // First *valid* tag match, exactly as [`Cache::find`]
                // (a stale tag can linger in an Invalid way).
                let mut way = usize::MAX;
                for w in w0..w0 + assoc {
                    if c.tag[w] == b && c.state[w] != LineState::Invalid {
                        way = w;
                        break;
                    }
                }
                if way != usize::MAX {
                    let st = self.caches[p].state[way];
                    if !write || st != LineState::Shared {
                        let t = base + i as u64 + 1;
                        self.caches[p].lru[way] = t;
                        if write {
                            if st == LineState::Exclusive {
                                self.caches[p].state[way] = LineState::Modified;
                                fast_ex += 1;
                                self.per_block_events[bs][CoherenceEvent::ExclusiveHit as usize] +=
                                    1;
                            }
                            let woff = (addrs[i] >> 2) & (self.wpb - 1);
                            self.word_write_time[(bs << wpb_shift) + woff as usize] = t;
                            fast_writes += 1;
                        } else {
                            fast_reads += 1;
                        }
                        self.per_block_refs[bs] += 1;
                        outs[i] = Outcome {
                            miss: None,
                            block: b,
                            supplier: None,
                            upgrade: false,
                            invalidations: 0,
                        };
                        continue;
                    }
                }
            }
            taint |= 1u64 << (set & 63);
            slow[nslow] = i as u8;
            nslow += 1;
        }
        self.stats.refs += fast_reads + fast_writes;
        self.stats.reads += fast_reads;
        self.stats.writes += fast_writes;
        self.stats.exclusive_hits += fast_ex;

        // Slow pass: tainted lanes and non-trivial transitions, in lane
        // order at their serial timestamps.
        for &li in &slow[..nslow] {
            let i = li as usize;
            self.time = base + i as u64 + 1;
            outs[i] = self.step(pids[i], addrs[i], write_mask >> i & 1 == 1);
        }
        self.time = base + n as u64;
    }
}

/// Global coherence state of a simulator at one instant: aggregate
/// counters plus, per block, the presence bitmask, modified or
/// exclusive owner, and home-directory state. The equivalence tests
/// compare snapshots of the chunked replay and the scalar reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceSnapshot {
    pub stats: SimStats,
    pub sharers: Vec<u64>,
    pub owner: Vec<Option<u8>>,
    pub dir: Vec<DirState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(nproc: u32, block: u32) -> MultiSim {
        sim_with(ProtocolKind::Msi, nproc, block)
    }

    fn sim_with(protocol: ProtocolKind, nproc: u32, block: u32) -> MultiSim {
        MultiSim::new(
            CacheConfig {
                nproc,
                block_bytes: block,
                cache_bytes: 1024,
                assoc: 2,
                protocol,
            },
            1 << 20,
        )
    }

    #[test]
    fn first_access_is_cold() {
        let mut s = sim(2, 64);
        let o = s.access(0, 0x100, false);
        assert_eq!(o.miss, Some(MissKind::Cold));
        // Second access hits.
        let o = s.access(0, 0x104, false);
        assert!(o.hit());
    }

    #[test]
    fn write_invalidate_then_reread_same_word_is_true_sharing() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false); // P0 caches block
        s.access(1, 0x100, true); // P1 writes same word -> invalidates P0
        let o = s.access(0, 0x100, false); // P0 rereads the written word
        assert_eq!(o.miss, Some(MissKind::TrueSharing));
    }

    #[test]
    fn write_invalidate_then_reread_other_word_is_false_sharing() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false); // P0 caches block (word 0x100)
        s.access(1, 0x13c, true); // P1 writes a *different* word, same block
        let o = s.access(0, 0x100, false); // P0 rereads its own word
        assert_eq!(o.miss, Some(MissKind::FalseSharing));
    }

    #[test]
    fn upgrade_on_shared_write() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false);
        s.access(1, 0x100, false);
        let o = s.access(0, 0x100, true);
        assert!(o.upgrade);
        assert_eq!(o.miss, None);
        assert_eq!(s.stats().upgrades, 1);
        assert_eq!(s.stats().invalidations, 1);
        // P1's reread of the written word: true sharing.
        let o = s.access(1, 0x100, false);
        assert_eq!(o.miss, Some(MissKind::TrueSharing));
    }

    #[test]
    fn eviction_makes_replacement_miss() {
        // cache 1024B, 64B blocks, assoc 2 -> 8 sets; blocks spaced by
        // 8*64 = 512 bytes map to the same set.
        let mut s = sim(1, 64);
        s.access(0, 0x0, false);
        s.access(0, 0x200, false);
        s.access(0, 0x400, false); // evicts 0x0 (LRU)
        let o = s.access(0, 0x0, false);
        assert_eq!(o.miss, Some(MissKind::Replacement));
    }

    #[test]
    fn supplier_reported_for_dirty_remote_block() {
        let mut s = sim(2, 64);
        s.access(1, 0x100, true); // P1 owns modified
        let o = s.access(0, 0x100, false);
        assert_eq!(o.supplier, Some(1));
        // After the downgrade both share; P1 hits.
        assert!(s.access(1, 0x100, false).hit());
    }

    #[test]
    fn write_miss_invalidates_sharers() {
        let mut s = sim(3, 64);
        s.access(0, 0x100, false);
        s.access(1, 0x100, false);
        s.access(2, 0x108, true); // write miss, invalidates P0 and P1
        assert_eq!(s.stats().invalidations, 2);
        // P0 rereads its word (not written): false sharing.
        assert_eq!(s.access(0, 0x100, false).miss, Some(MissKind::FalseSharing));
        // P1 reads the written word: true sharing.
        assert_eq!(s.access(1, 0x108, false).miss, Some(MissKind::TrueSharing));
    }

    #[test]
    fn ping_pong_counts_false_sharing_on_both_sides() {
        let mut s = sim(2, 128);
        // P0 writes word A, P1 writes word B in the same block, repeatedly.
        s.access(0, 0x1000, true);
        s.access(1, 0x1040, true); // cold (never cached) but invalidates P0
        let mut fs = 0;
        for _ in 0..10 {
            if s.access(0, 0x1000, true).miss == Some(MissKind::FalseSharing) {
                fs += 1;
            }
            if s.access(1, 0x1040, true).miss == Some(MissKind::FalseSharing) {
                fs += 1;
            }
        }
        assert_eq!(fs, 20, "every miss in the ping-pong is false sharing");
    }

    #[test]
    fn small_blocks_eliminate_false_sharing() {
        let mut s = sim(2, 4);
        s.access(0, 0x1000, true);
        s.access(1, 0x1040, true);
        for _ in 0..10 {
            assert!(s.access(0, 0x1000, true).hit());
            assert!(s.access(1, 0x1040, true).hit());
        }
        assert_eq!(s.stats().false_sharing(), 0);
    }

    #[test]
    fn per_block_attribution_accumulates() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false);
        s.access(1, 0x108, true);
        s.access(0, 0x100, false); // false sharing on block 4
        let b = (0x100u32 >> s.block_bytes().trailing_zeros()) as usize;
        assert_eq!(s.per_block_misses()[b][MissKind::FalseSharing as usize], 1);
    }

    #[test]
    fn per_block_events_accumulate() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false);
        s.access(1, 0x100, false);
        s.access(0, 0x100, true); // upgrade, invalidates P1
        let b = (0x100u32 >> s.block_bytes().trailing_zeros()) as usize;
        let ev = s.per_block_events()[b];
        assert_eq!(ev[CoherenceEvent::Upgrade as usize], 1);
        assert_eq!(ev[CoherenceEvent::Invalidation as usize], 1);
    }

    #[test]
    fn stats_counts_are_consistent() {
        let mut s = sim(4, 64);
        for i in 0..100u32 {
            s.access((i % 4) as u8, 0x1000 + (i * 12) % 512, i % 3 == 0);
        }
        let st = s.stats();
        assert_eq!(st.refs, 100);
        assert_eq!(st.reads + st.writes, 100);
        assert!(st.total_misses() <= st.refs);
        assert!(st.miss_rate() <= 1.0);
    }

    #[test]
    fn larger_blocks_increase_false_sharing() {
        // Two procs write adjacent words in a loop: false sharing exists
        // at 64B but not at 4B.
        let run = |block: u32| {
            let mut s = sim(2, block);
            for _ in 0..50 {
                s.access(0, 0x1000, true);
                s.access(1, 0x1004, true);
            }
            s.stats().false_sharing()
        };
        assert_eq!(run(4), 0);
        assert!(run(64) > 50);
    }

    #[test]
    fn outcome_reports_invalidation_counts() {
        let mut s = sim(4, 64);
        for p in 0..4u8 {
            s.access(p, 0x100, false);
        }
        // Upgrade invalidates the other three sharers.
        let o = s.access(0, 0x100, true);
        assert!(o.upgrade);
        assert_eq!(o.invalidations, 3);
        // A write miss by another proc invalidates the single owner.
        let o = s.access(1, 0x104, true);
        assert_eq!(o.miss, Some(MissKind::FalseSharing));
        assert_eq!(o.invalidations, 1);
        // Hits invalidate nobody.
        let o = s.access(1, 0x108, true);
        assert!(o.hit());
        assert_eq!(o.invalidations, 0);
    }

    #[test]
    fn read_only_sharing_has_no_coherence_misses() {
        let mut s = sim(4, 64);
        for p in 0..4u8 {
            s.access(p, 0x2000, false);
        }
        for _ in 0..10 {
            for p in 0..4u8 {
                assert!(s.access(p, 0x2000, false).hit());
            }
        }
        assert_eq!(s.stats().false_sharing(), 0);
        assert_eq!(s.stats().miss_of(MissKind::TrueSharing), 0);
        assert_eq!(s.stats().total_misses(), 4); // cold only
    }

    #[test]
    fn msi_never_installs_exclusive() {
        let mut s = sim(2, 64);
        s.access(0, 0x100, false); // sole reader still fills Shared
        let o = s.access(0, 0x100, true);
        assert!(o.upgrade, "MSI pays an upgrade even on private data");
        assert_eq!(s.stats().exclusive_hits, 0);
    }

    #[test]
    fn mesi_private_write_after_read_is_silent() {
        let mut s = sim_with(ProtocolKind::Mesi, 2, 64);
        s.access(0, 0x100, false); // sole reader fills Exclusive
        let o = s.access(0, 0x100, true);
        assert!(o.hit(), "E->M upgrade is silent");
        assert!(!o.upgrade);
        assert_eq!(s.stats().upgrades, 0);
        assert_eq!(s.stats().exclusive_hits, 1);
    }

    #[test]
    fn mesi_shared_data_still_pays_upgrades() {
        let mut s = sim_with(ProtocolKind::Mesi, 2, 64);
        s.access(0, 0x100, false); // Exclusive at P0
        s.access(1, 0x100, false); // second reader: both Shared, intervention
        assert_eq!(s.stats().interventions, 1);
        let o = s.access(0, 0x100, true);
        assert!(o.upgrade, "shared line upgrades like MSI");
        assert_eq!(o.invalidations, 1);
    }

    #[test]
    fn mesi_exclusive_holder_is_supplier() {
        let mut s = sim_with(ProtocolKind::Mesi, 2, 64);
        s.access(1, 0x100, false); // P1 Exclusive
        let o = s.access(0, 0x100, false);
        assert_eq!(o.supplier, Some(1), "cache-to-cache from the E holder");
    }

    #[test]
    fn mesi_and_msi_classify_identically_on_a_ping_pong() {
        let mut a = sim_with(ProtocolKind::Msi, 2, 128);
        let mut b = sim_with(ProtocolKind::Mesi, 2, 128);
        for i in 0..100u32 {
            let pid = (i % 2) as u8;
            let addr = 0x1000 + (i % 2) * 4;
            let write = i % 3 != 2;
            let oa = a.access(pid, addr, write);
            let ob = b.access(pid, addr, write);
            assert_eq!(oa.miss, ob.miss, "ref {i}");
        }
        assert_eq!(a.stats().misses, b.stats().misses);
    }

    #[test]
    fn directory_matches_msi_outcomes_exactly() {
        // MSI cache states at the home: every access outcome (not just
        // the classification) is identical to snooping MSI.
        let mut a = sim_with(ProtocolKind::Msi, 4, 64);
        let mut b = sim_with(ProtocolKind::Directory, 4, 64);
        for i in 0..400u32 {
            let pid = (i % 4) as u8;
            let addr = 0x1000 + (i * 20) % 768;
            let write = i % 5 < 2;
            let oa = a.access(pid, addr, write);
            let ob = b.access(pid, addr, write);
            assert_eq!(oa, ob, "ref {i}");
        }
        assert_eq!(a.stats().misses, b.stats().misses);
        assert_eq!(a.stats().upgrades, b.stats().upgrades);
    }

    #[test]
    fn dir_txns_count_misses_and_upgrades() {
        let mut s = sim_with(ProtocolKind::Directory, 2, 64);
        s.access(0, 0x100, false); // miss
        s.access(1, 0x100, false); // miss
        s.access(0, 0x100, true); // upgrade
        s.access(0, 0x104, true); // hit (Modified)
        let st = s.stats();
        assert_eq!(st.dir_txns, st.total_misses() + st.upgrades);
        assert_eq!(st.dir_txns, 3);
    }

    #[test]
    fn snooping_protocols_never_count_dir_txns() {
        for kind in [ProtocolKind::Msi, ProtocolKind::Mesi] {
            let mut s = sim_with(kind, 2, 64);
            s.access(0, 0x100, false);
            s.access(1, 0x100, true);
            assert_eq!(s.stats().dir_txns, 0, "{}", kind.name());
        }
    }

    #[test]
    fn dir_state_tracks_presence_and_owner() {
        let mut s = sim_with(ProtocolKind::Directory, 3, 64);
        let block = 0x100 >> s.block_bytes().trailing_zeros();
        assert_eq!(s.dir_state(block), DirState::Uncached);
        s.access(0, 0x100, false);
        s.access(1, 0x100, false);
        assert_eq!(s.dir_state(block), DirState::Shared);
        assert_eq!(s.sharers_of(block), 0b11);
        assert_eq!(s.owner_of(block), None);
        s.access(2, 0x104, true);
        assert_eq!(s.dir_state(block), DirState::Exclusive);
        assert_eq!(s.sharers_of(block), 0b100);
        assert_eq!(s.owner_of(block), Some(2));
        assert_eq!(s.line_state(2, block), LineState::Modified);
        assert_eq!(s.line_state(0, block), LineState::Invalid);
    }

    #[test]
    fn per_block_refs_are_protocol_invariant() {
        let mut sims: Vec<MultiSim> = ProtocolKind::ALL
            .iter()
            .map(|&k| sim_with(k, 4, 64))
            .collect();
        for i in 0..300u32 {
            for s in &mut sims {
                s.access((i % 4) as u8, 0x2000 + (i * 28) % 1024, i % 7 == 0);
            }
        }
        for s in &sims[1..] {
            assert_eq!(s.per_block_refs(), sims[0].per_block_refs());
        }
    }

    /// A deterministic mixed read/write stream with enough set pressure
    /// to force evictions (cache 1024B, assoc 2) and enough block
    /// sharing to exercise every coherence path.
    fn stress_stream(nproc: u32) -> Vec<(u8, u32, bool)> {
        let mut refs = Vec::new();
        let mut x: u32 = 0x1234_5678;
        for i in 0..4000u32 {
            // xorshift: deterministic, no RNG dependency.
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let pid = (x % nproc) as u8;
            let addr = (x >> 3) % (1 << 14);
            refs.push((pid, addr & !3, i.is_multiple_of(3)));
        }
        refs
    }

    fn stress_cfg(protocol: ProtocolKind) -> CacheConfig {
        CacheConfig {
            nproc: 4,
            block_bytes: 64,
            cache_bytes: 1024,
            assoc: 2,
            protocol,
        }
    }

    /// Replay the stress stream per reference through `access` and, in
    /// chunks of the given sizes, through `access_chunk`; assert outcomes
    /// and every observable counter are bit-identical.
    fn assert_chunked_matches_access(cfg: CacheConfig, chunk_sizes: &[usize]) {
        let ctx = format!("{} sets={}", cfg.protocol.name(), cfg.num_sets());
        let stream = stress_stream(cfg.nproc);
        let mut scalar = MultiSim::new(cfg, 1 << 14);
        let mut chunked = MultiSim::new(cfg, 1 << 14);
        let want: Vec<Outcome> = stream
            .iter()
            .map(|&(pid, addr, w)| scalar.access(pid, addr, w))
            .collect();
        let mut got = vec![Outcome::default(); stream.len()];
        let mut at = 0usize;
        let mut csz = chunk_sizes.iter().cycle();
        while at < stream.len() {
            let n = (*csz.next().unwrap()).min(stream.len() - at).max(1);
            let pids: Vec<u8> = stream[at..at + n].iter().map(|r| r.0).collect();
            let addrs: Vec<u32> = stream[at..at + n].iter().map(|r| r.1).collect();
            let mut wmask = 0u64;
            for (i, r) in stream[at..at + n].iter().enumerate() {
                wmask |= (r.2 as u64) << i;
            }
            chunked.access_chunk(&pids, &addrs, wmask, &mut got[at..at + n]);
            at += n;
        }
        assert_eq!(want, got, "{ctx}");
        assert_eq!(scalar.snapshot(), chunked.snapshot(), "{ctx}");
        assert_eq!(scalar.per_block_misses(), chunked.per_block_misses());
        assert_eq!(scalar.per_block_events(), chunked.per_block_events());
        assert_eq!(scalar.per_block_refs(), chunked.per_block_refs());
    }

    #[test]
    fn chunked_replay_matches_access_for_every_protocol() {
        for &kind in &ProtocolKind::ALL {
            assert_chunked_matches_access(stress_cfg(kind), &[CHUNK_LANES]);
        }
    }

    #[test]
    fn chunked_replay_matches_access_with_ragged_chunks() {
        for &kind in &ProtocolKind::ALL {
            // 1152B / 64B / assoc 2 = 9 sets takes the per-reference
            // fallback.
            for cache_bytes in [1024, 1152] {
                let cfg = CacheConfig {
                    cache_bytes,
                    ..stress_cfg(kind)
                };
                assert_chunked_matches_access(cfg, &[1, 7, 64, 3, 33]);
            }
        }
    }

    #[test]
    fn chunk_timestamps_continue_the_scalar_clock() {
        // A chunked replay must leave the clock exactly where a
        // scalar replay would, so mixing entry points mid-stream (the
        // sinks flush partial chunks at sync boundaries) stays exact.
        let cfg = CacheConfig {
            nproc: 2,
            block_bytes: 64,
            cache_bytes: 1024,
            assoc: 2,
            protocol: ProtocolKind::Msi,
        };
        let stream = stress_stream(2);
        let mut a = MultiSim::new(cfg, 1 << 14);
        let mut b = MultiSim::new(cfg, 1 << 14);
        let mut outs = [Outcome {
            miss: None,
            block: 0,
            supplier: None,
            upgrade: false,
            invalidations: 0,
        }; CHUNK_LANES];
        for (i, &(pid, addr, w)) in stream.iter().enumerate() {
            let want = a.access(pid, addr, w);
            // Alternate chunk-of-one and scalar calls.
            let got = if i % 2 == 0 {
                b.access_chunk(&[pid], &[addr], w as u64, &mut outs[..1]);
                outs[0]
            } else {
                b.access(pid, addr, w)
            };
            assert_eq!(want, got, "ref {i}");
        }
        assert_eq!(a.time, b.time);
        assert_eq!(a.stats(), b.stats());
    }
}
