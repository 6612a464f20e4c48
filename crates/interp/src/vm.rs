//! The SPMD virtual machine.
//!
//! All logical processes execute in lock-step rounds: each runnable
//! process executes one instruction per round (the standard interleaving
//! assumption of trace-driven multiprocessor simulation). Barriers block
//! until every active process arrives; locks are test-and-set words whose
//! spin rereads are *emitted into the trace* (that traffic is what lock
//! padding addresses). Memory reference events stream to a [`TraceSink`]
//! as they happen, with a `gap` carrying the compute cycles (instruction
//! count) since the process's previous reference.

use crate::bytecode::*;
use fsr_lang::ast::{ObjId, Program, WORD_BYTES};
use fsr_layout::{Arena, Layout, Resolved};
use std::collections::BTreeMap;

/// One shared-memory reference event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    pub pid: u8,
    /// Byte address.
    pub addr: u32,
    pub write: bool,
    /// Compute cycles (executed instructions) since this process's
    /// previous memory reference.
    pub gap: u32,
}

/// Consumer of the reference stream.
pub trait TraceSink {
    fn access(&mut self, r: MemRef);

    /// Clock synchronization: the listed processes reached a
    /// synchronization point together (barrier release, process
    /// spawn/join). Timing models align their clocks; analyses that only
    /// count references may ignore it.
    fn sync(&mut self, pids: &[u32]) {
        let _ = pids;
    }

    /// Lock hand-off: `to` acquired a lock last released by `from`.
    /// Timing models order the acquirer after the releaser.
    fn handoff(&mut self, from: u32, to: u32) {
        let _ = (from, to);
    }

    /// Work steal: worker `thief` took its next task from worker
    /// `victim`'s deque. The thief reads the deque top the victim
    /// published, so this orders the thief after the victim (a
    /// happens-before edge, like a hand-off). Only emitted under
    /// [`Schedule::WorkSteal`]; round-robin traces never contain it.
    fn steal(&mut self, thief: u32, victim: u32) {
        let _ = (thief, victim);
    }
}

/// Count-only sink.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub refs: u64,
    pub writes: u64,
}

impl TraceSink for CountingSink {
    fn access(&mut self, r: MemRef) {
        self.refs += 1;
        self.writes += r.write as u64;
    }
}

/// Buffer sink for tests and small traces.
#[derive(Debug, Default, Clone)]
pub struct VecSink(pub Vec<MemRef>);

impl TraceSink for VecSink {
    fn access(&mut self, r: MemRef) {
        self.0.push(r);
    }
}

/// Fan-out sink: forwards every trace event to each inner sink in order.
///
/// This is the "trace once, simulate many" primitive: the interpreter is
/// sink-agnostic, so one interpretation can drive N cache simulators (one
/// per block size) plus timing models simultaneously, producing exactly
/// the event stream each would have seen in its own run.
#[derive(Debug, Default)]
pub struct TeeSink<S: TraceSink> {
    pub sinks: Vec<S>,
}

impl<S: TraceSink> TeeSink<S> {
    pub fn new(sinks: Vec<S>) -> Self {
        TeeSink { sinks }
    }

    pub fn into_inner(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: TraceSink> TraceSink for TeeSink<S> {
    fn access(&mut self, r: MemRef) {
        for s in &mut self.sinks {
            s.access(r);
        }
    }

    fn sync(&mut self, pids: &[u32]) {
        for s in &mut self.sinks {
            s.sync(pids);
        }
    }

    fn handoff(&mut self, from: u32, to: u32) {
        for s in &mut self.sinks {
            s.handoff(from, to);
        }
    }

    fn steal(&mut self, thief: u32, victim: u32) {
        for s in &mut self.sinks {
            s.steal(thief, victim);
        }
    }
}

/// One recorded trace event (access, barrier sync, lock hand-off, or
/// work steal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Access(MemRef),
    Sync(Vec<u32>),
    Handoff { from: u32, to: u32 },
    Steal { thief: u32, victim: u32 },
}

impl TraceEvent {
    /// Number of event kinds. Accounting tests assert every kind has a
    /// name and a dense index, so adding a variant without updating the
    /// counters that consume the stream fails loudly.
    pub const KIND_COUNT: usize = 4;

    /// All kind names, indexed by [`TraceEvent::kind_index`].
    pub const KIND_NAMES: [&'static str; Self::KIND_COUNT] = ["access", "sync", "handoff", "steal"];

    /// Dense index of this event's kind.
    pub fn kind_index(&self) -> usize {
        match self {
            TraceEvent::Access(_) => 0,
            TraceEvent::Sync(_) => 1,
            TraceEvent::Handoff { .. } => 2,
            TraceEvent::Steal { .. } => 3,
        }
    }

    /// Name of this event's kind.
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }
}

/// Sink that records the full event stream for later replay.
///
/// Recording costs memory proportional to the trace. `fsr-core`'s
/// trace cache is the one recorder, on persistent worlds; a transient
/// world interprets straight into each unit's [`TeeSink`].
#[derive(Debug, Default, Clone)]
pub struct RecordedTrace {
    pub events: Vec<TraceEvent>,
}

impl RecordedTrace {
    /// Feed the recorded stream into another sink, in original order.
    pub fn replay(&self, sink: &mut dyn TraceSink) {
        for e in &self.events {
            match e {
                TraceEvent::Access(r) => sink.access(*r),
                TraceEvent::Sync(pids) => sink.sync(pids),
                TraceEvent::Handoff { from, to } => sink.handoff(*from, *to),
                TraceEvent::Steal { thief, victim } => sink.steal(*thief, *victim),
            }
        }
    }
}

impl TraceSink for RecordedTrace {
    fn access(&mut self, r: MemRef) {
        self.events.push(TraceEvent::Access(r));
    }

    fn sync(&mut self, pids: &[u32]) {
        self.events.push(TraceEvent::Sync(pids.to_vec()));
    }

    fn handoff(&mut self, from: u32, to: u32) {
        self.events.push(TraceEvent::Handoff { from, to });
    }

    fn steal(&mut self, thief: u32, victim: u32) {
        self.events.push(TraceEvent::Steal { thief, victim });
    }
}

/// Process-wide count of interpreter runs started, for tests and batch
/// accounting: trace-sharing optimizations can assert that N jobs really
/// cost one interpretation.
static RUNS_STARTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total interpreter runs started in this process.
pub fn runs_started() -> u64 {
    RUNS_STARTED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Run-time error (index out of bounds, division by zero, deadlock,
/// step-limit exhaustion, arena overflow).
#[derive(Debug, Clone)]
pub struct RuntimeError {
    pub pid: u32,
    pub msg: String,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error on process {}: {}", self.pid, self.msg)
    }
}

impl std::error::Error for RuntimeError {}

/// Scheduling policy for mapping logical processes onto workers.
///
/// `PartialEq`/`Hash`/`Debug` matter: the schedule (kind *and* seed) is
/// part of every trace-group fingerprint and cache key — two jobs that
/// differ only in the work-stealing seed produce different traces and
/// must never share a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// The paper's fixed interleaving: worker `p` always executes
    /// logical process `p`, one instruction per round, in pid order.
    #[default]
    RoundRobin,
    /// Randomized work stealing: each worker owns a deque of runnable
    /// tasks, pops its own back, and steals from a seeded-random
    /// victim's front when empty. Steals migrate a task's working set
    /// between caches and are recorded as [`TraceEvent::Steal`]. Fully
    /// deterministic for a fixed seed.
    WorkSteal { seed: u64 },
}

/// Interpreter configuration.
///
/// `PartialEq`/`Hash` matter: the batched driver groups jobs whose
/// (layout, run config) pairs are identical, because those produce
/// identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Seed for the `prand` builtin (identical across layouts so control
    /// flow is layout-independent).
    pub seed: u64,
    /// Abort after this many total executed instructions.
    pub max_steps: u64,
    /// While blocked on a lock, emit a spin reread every this many rounds.
    pub spin_probe_period: u32,
    /// Scheduling policy (kind + seed). Part of the trace identity.
    pub schedule: Schedule,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0x5eed_cafe,
            max_steps: 2_000_000_000,
            spin_probe_period: 2,
            schedule: Schedule::RoundRobin,
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    pub instructions: u64,
    pub refs: u64,
    pub spin_rereads: u64,
    pub barriers_crossed: u64,
    pub lock_acquires: u64,
    /// Work-steal events (always 0 under [`Schedule::RoundRobin`]).
    pub steals: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum ProcState {
    Run,
    AtBarrier,
    /// Spinning on a lock word at this byte address.
    Spin {
        addr: u32,
        rounds: u32,
    },
    /// Master waiting for children to finish the parallel region.
    Joining,
    /// Child finished its body.
    Idle,
    Done,
}

struct Frame {
    func: u32,
    pc: u32,
    regs: Vec<i32>,
    ret_dst: Option<Reg>,
    is_body: bool,
}

struct Proc {
    pid: u32,
    frames: Vec<Frame>,
    state: ProcState,
    gap: u32,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// One scheduling decision within a lock-step round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Worker `worker` gets one turn with task `task`: execute one
    /// instruction if it is runnable, otherwise service its blocked
    /// state (barrier arrival, spin probe, join check).
    Visit { worker: u32, task: usize },
    /// Service task `task`'s blocked state only (never execute). Used
    /// for tasks that no worker currently holds.
    Poll { task: usize },
    /// The round is over; the VM checks progress/deadlock and a new
    /// round begins.
    EndRound,
}

/// The scheduling state [`Interp::run`] drives: decides, slot by slot,
/// which worker gets which task each round. The VM pulls slots so
/// decisions always see live process states, and notifies the schedule
/// when tasks block or become runnable.
///
/// Each task receives at most one slot per round (the lock-step
/// invariant), so a schedule can reorder *who* runs *where*, never how
/// much anyone runs.
enum Sched {
    /// The paper's fixed interleaving: worker `p` visits task `p`, in
    /// pid order, every round. Produces exactly the event stream the
    /// original scheduler-less VM produced.
    RoundRobin {
        n: usize,
        cursor: usize,
    },
    WorkSteal(WorkSteal),
}

impl Sched {
    fn new(schedule: Schedule, n: usize) -> Sched {
        match schedule {
            Schedule::RoundRobin => Sched::RoundRobin { n, cursor: 0 },
            Schedule::WorkSteal { seed } => Sched::WorkSteal(WorkSteal::new(n, seed)),
        }
    }

    /// Produce the next slot of the current round. Work stealing records
    /// its steal events here (into `sink`/`stats`), at the moment the
    /// steal happens, so the trace interleaves steals with the accesses
    /// they cause.
    fn next(&mut self, sink: &mut dyn TraceSink, stats: &mut RunStats) -> Slot {
        match self {
            Sched::RoundRobin { n, cursor } => {
                if *cursor == *n {
                    *cursor = 0;
                    return Slot::EndRound;
                }
                let p = *cursor;
                *cursor += 1;
                Slot::Visit {
                    worker: p as u32,
                    task: p,
                }
            }
            Sched::WorkSteal(ws) => ws.next(sink, stats),
        }
    }

    /// Task `task` just executed one instruction on `worker`;
    /// `still_run` says whether it remains runnable.
    fn stepped(&mut self, task: usize, worker: u32, still_run: bool) {
        if let Sched::WorkSteal(ws) = self {
            ws.stepped(task, worker, still_run);
        }
    }

    /// A blocked (or fresh) `task` became runnable; `worker` is the
    /// worker that last executed it (its cache holds the working set).
    fn unblocked(&mut self, task: usize, worker: u32) {
        if let Sched::WorkSteal(ws) = self {
            ws.unblocked(task, worker);
        }
    }
}

/// Seeded randomized work stealing over per-worker deques.
///
/// Each round, worker `w` pops the back of its own deque; if empty it
/// draws seeded-random victims and steals the *front* of a non-empty
/// victim deque (FIFO steal end, LIFO owner end — the classic deque
/// discipline), emitting a [`TraceEvent::Steal`]. A task keeps at most
/// one slot per round, so a steal migrates work without duplicating
/// it; blocked tasks leave the deques and re-enter at the deque of the
/// worker that last ran them. Everything is driven by one splitmix64
/// stream from `seed`, so a fixed seed reproduces the schedule —
/// steals, migrations, trace — bit-identically.
///
/// The three methods are `#[inline(never)]`: the slot loop in
/// [`Interp::run`] is the interpreter's hot path, and letting `next`
/// inline into it made the round-robin loop slower end to end
/// (`fsr_benchmark` paper-suite `wall_s` worse in 5 of 6 alternating
/// pairs on a 2-core host, medians 4.77 s → 5.35 s).
struct WorkSteal {
    n: usize,
    rng: u64,
    deques: Vec<std::collections::VecDeque<usize>>,
    in_deque: Vec<bool>,
    /// Tasks that already had their slot this round (lock-step cap).
    had_slot: Vec<bool>,
    wcur: usize,
    pcur: usize,
}

impl WorkSteal {
    fn new(n: usize, seed: u64) -> Self {
        WorkSteal {
            n,
            rng: splitmix64(seed),
            deques: vec![std::collections::VecDeque::new(); n],
            in_deque: vec![false; n],
            had_slot: vec![false; n],
            wcur: 0,
            pcur: 0,
        }
    }

    #[inline(never)]
    fn next(&mut self, sink: &mut dyn TraceSink, stats: &mut RunStats) -> Slot {
        // Phase A: each worker takes one task — own deque first, then
        // steal. A task pushed back after running this round is fenced
        // by `had_slot`, so no task runs twice per round.
        while self.wcur < self.n {
            let w = self.wcur;
            self.wcur += 1;
            if let Some(&t) = self.deques[w].back() {
                if !self.had_slot[t] {
                    self.deques[w].pop_back();
                    self.in_deque[t] = false;
                    self.had_slot[t] = true;
                    return Slot::Visit {
                        worker: w as u32,
                        task: t,
                    };
                }
                continue;
            }
            for _ in 0..2 * self.n {
                self.rng = splitmix64(self.rng);
                let v = (self.rng % self.n as u64) as usize;
                if v == w {
                    continue;
                }
                if let Some(&t) = self.deques[v].front() {
                    if !self.had_slot[t] {
                        self.deques[v].pop_front();
                        self.in_deque[t] = false;
                        self.had_slot[t] = true;
                        stats.steals += 1;
                        sink.steal(w as u32, v as u32);
                        return Slot::Visit {
                            worker: w as u32,
                            task: t,
                        };
                    }
                }
            }
        }
        // Phase B: service blocked tasks (not in any deque) in pid
        // order, so barrier releases and lock acquisitions stay
        // deterministic.
        while self.pcur < self.n {
            let p = self.pcur;
            self.pcur += 1;
            if !self.in_deque[p] && !self.had_slot[p] {
                return Slot::Poll { task: p };
            }
        }
        self.wcur = 0;
        self.pcur = 0;
        self.had_slot.iter_mut().for_each(|s| *s = false);
        Slot::EndRound
    }

    #[inline(never)]
    fn stepped(&mut self, task: usize, worker: u32, still_run: bool) {
        if still_run {
            self.deques[worker as usize].push_back(task);
            self.in_deque[task] = true;
        }
    }

    #[inline(never)]
    fn unblocked(&mut self, task: usize, worker: u32) {
        self.deques[worker as usize].push_back(task);
        self.in_deque[task] = true;
    }
}

/// The interpreter for one (program, layout) configuration.
pub struct Interp<'a> {
    layout: &'a Layout,
    code: &'a Compiled,
    dims: Vec<Vec<u32>>,
    mem: Vec<i32>,
    arenas: Vec<Arena>,
    procs: Vec<Proc>,
    cfg: RunConfig,
    stats: RunStats,
    barrier_arrived: u32,
    /// Last releaser of each lock word (for hand-off ordering), in
    /// worker-id space: the cache that last owned the lock line.
    lock_releaser: std::collections::HashMap<u32, u32>,
    /// Worker currently (or last) executing each task. Trace events are
    /// attributed to workers — the caches references actually go
    /// through — so a stolen task's working set migrates in the trace.
    /// Under round-robin `worker_of[p] == p` always.
    worker_of: Vec<u32>,
    /// Tasks that became runnable during the current slot; drained to
    /// the scheduler after the slot completes.
    woke: Vec<u32>,
    /// Emit barrier syncs over *all* workers instead of the released
    /// pids: under work stealing a released task may resume on any
    /// worker, so only a global clock alignment is sound.
    sync_all: bool,
}

impl<'a> Interp<'a> {
    pub fn new(prog: &Program, layout: &'a Layout, code: &'a Compiled, cfg: RunConfig) -> Self {
        RUNS_STARTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let nproc = layout.nproc;
        let main_fc = code.func(code.main);
        let mut procs: Vec<Proc> = (0..nproc)
            .map(|pid| Proc {
                pid,
                frames: Vec::new(),
                state: ProcState::Idle,
                gap: 0,
            })
            .collect();
        procs[0].frames.push(Frame {
            func: code.main,
            pc: 0,
            regs: vec![0; main_fc.num_regs as usize],
            ret_dst: None,
            is_body: false,
        });
        procs[0].state = ProcState::Run;
        Interp {
            layout,
            code,
            dims: prog.objects.iter().map(|o| o.dims.clone()).collect(),
            mem: vec![0; layout.total_words() as usize],
            arenas: layout.arenas.iter().map(Arena::new).collect(),
            procs,
            cfg,
            stats: RunStats::default(),
            barrier_arrived: 0,
            lock_releaser: std::collections::HashMap::new(),
            worker_of: (0..nproc).collect(),
            woke: Vec::new(),
            sync_all: cfg.schedule != Schedule::RoundRobin,
        }
    }

    fn rt(&self, pid: u32, msg: impl Into<String>) -> RuntimeError {
        RuntimeError {
            pid,
            msg: msg.into(),
        }
    }

    /// Resolve an access spec against the registers of the current frame.
    fn resolve(&self, p: usize, acc: &AccessSpec) -> Result<(Resolved, u64), RuntimeError> {
        let pid = self.procs[p].pid;
        let frame = self.procs[p].frames.last().unwrap();
        let dims = &self.dims[acc.obj.index()];
        let mut flat: u64 = 0;
        for (k, &r) in acc.idx.iter().enumerate() {
            let v = frame.regs[r as usize];
            if v < 0 || v as u64 >= dims[k] as u64 {
                return Err(self.rt(
                    pid,
                    format!(
                        "index {} out of bounds 0..{} (dim {k}, object {})",
                        v, dims[k], acc.obj.0
                    ),
                ));
            }
            flat = flat * dims[k] as u64 + v as u64;
        }
        let field_sel = match &acc.field {
            None => None,
            Some((f, fr)) => {
                let (_, len) = self.layout.field_layout(acc.obj, *f);
                let fi = match fr {
                    None => 0,
                    Some(r) => {
                        let v = frame.regs[*r as usize];
                        if v < 0 || v as u32 >= len {
                            return Err(
                                self.rt(pid, format!("field index {v} out of bounds 0..{len}"))
                            );
                        }
                        v as u32
                    }
                };
                Some((*f, fi))
            }
        };
        Ok((self.layout.resolve(acc.obj, flat, field_sel, pid), flat))
    }

    /// Perform a data access (load or store), emitting trace events.
    fn access(
        &mut self,
        p: usize,
        acc: &AccessSpec,
        write: bool,
        value: i32,
        sink: &mut dyn TraceSink,
    ) -> Result<i32, RuntimeError> {
        let pid = self.procs[p].pid;
        let (resolved, _flat) = self.resolve(p, acc)?;
        let word = match resolved {
            Resolved::Direct(w) => w,
            Resolved::Indirect {
                ptr,
                off,
                slot_words,
                arena,
                lane,
            } => {
                // Pointer read.
                self.emit(p, ptr, false, sink);
                let mut target = self.mem[ptr as usize];
                if target == 0 {
                    // First touch: allocate in the toucher's arena lane.
                    let slot = self.arenas[arena as usize]
                        .alloc(pid, lane, slot_words)
                        .ok_or_else(|| self.rt(pid, "indirection arena exhausted"))?;
                    self.mem[ptr as usize] = slot as i32;
                    self.emit(p, ptr, true, sink);
                    target = slot as i32;
                }
                target as u32 + off
            }
        };
        self.emit(p, word, write, sink);
        if write {
            self.mem[word as usize] = value;
            Ok(value)
        } else {
            Ok(self.mem[word as usize])
        }
    }

    fn emit(&mut self, p: usize, word_addr: u32, write: bool, sink: &mut dyn TraceSink) {
        let gap = self.procs[p].gap;
        self.procs[p].gap = 0;
        self.stats.refs += 1;
        sink.access(MemRef {
            pid: self.worker_of[p] as u8,
            addr: word_addr * WORD_BYTES,
            write,
            gap,
        });
    }

    fn active_count(&self) -> u32 {
        self.procs
            .iter()
            .filter(|p| {
                matches!(
                    p.state,
                    ProcState::Run | ProcState::AtBarrier | ProcState::Spin { .. }
                )
            })
            .count() as u32
    }

    /// Run to completion under the configured schedule, streaming
    /// references into `sink`.
    ///
    /// Under [`Schedule::RoundRobin`] this produces, event for event,
    /// the stream the original fixed-interleaving loop produced: each
    /// round visits tasks in pid order with worker == pid, and the slot
    /// handler is the same per-state code the old loop inlined.
    pub fn run(mut self, sink: &mut dyn TraceSink) -> Result<FinalState, RuntimeError> {
        let mut sched = Sched::new(self.cfg.schedule, self.procs.len());
        // Hand the schedule the initially-runnable tasks (process 0).
        for p in 0..self.procs.len() {
            if self.procs[p].state == ProcState::Run {
                sched.unblocked(p, self.worker_of[p]);
            }
        }
        let mut progressed = false;
        while !matches!(self.procs[0].state, ProcState::Done) {
            match sched.next(sink, &mut self.stats) {
                Slot::Visit { worker, task } => {
                    if self.procs[task].state == ProcState::Run {
                        self.worker_of[task] = worker;
                        self.step(task, sink)?;
                        progressed = true;
                        let still_run = self.procs[task].state == ProcState::Run;
                        sched.stepped(task, worker, still_run);
                    } else {
                        progressed |= self.poll(task, sink);
                    }
                    self.drain_woke(&mut sched);
                }
                Slot::Poll { task } => {
                    progressed |= self.poll(task, sink);
                    self.drain_woke(&mut sched);
                }
                Slot::EndRound => {
                    if !progressed {
                        // Barrier release is handled in the slots;
                        // reaching here without a pending release means
                        // a real deadlock (e.g. everyone spinning on a
                        // held lock whose holder is blocked).
                        if self.barrier_arrived >= self.active_count() && self.barrier_arrived > 0 {
                            // Release fires next round.
                        } else {
                            return Err(self.rt(0, "deadlock: no process can make progress"));
                        }
                    }
                    if self.stats.instructions > self.cfg.max_steps {
                        return Err(self.rt(0, "step limit exceeded (infinite loop?)"));
                    }
                    progressed = false;
                }
            }
        }
        Ok(FinalState {
            mem: self.mem,
            stats: self.stats,
        })
    }

    /// Report tasks that became runnable during the last slot.
    fn drain_woke(&mut self, sched: &mut Sched) {
        for i in 0..self.woke.len() {
            let q = self.woke[i] as usize;
            sched.unblocked(q, self.worker_of[q]);
        }
        self.woke.clear();
    }

    /// Service one blocked task: barrier arrival, spin probe, or join
    /// check. Returns whether anything progressed.
    fn poll(&mut self, p: usize, sink: &mut dyn TraceSink) -> bool {
        match self.procs[p].state {
            ProcState::AtBarrier => {
                if self.barrier_arrived >= self.active_count() {
                    // Release everyone at the barrier.
                    let mut released = Vec::new();
                    for q in self.procs.iter_mut() {
                        if q.state == ProcState::AtBarrier {
                            q.state = ProcState::Run;
                            released.push(q.pid);
                        }
                    }
                    self.barrier_arrived = 0;
                    self.stats.barriers_crossed += 1;
                    self.woke.extend_from_slice(&released);
                    if self.sync_all {
                        let all: Vec<u32> = (0..self.procs.len() as u32).collect();
                        sink.sync(&all);
                    } else {
                        sink.sync(&released);
                    }
                    !released.is_empty()
                } else {
                    false
                }
            }
            ProcState::Spin { addr, rounds } => {
                // Test the lock word; reread goes into the trace every
                // probe period, charged to the worker that last ran the
                // task (its cache is doing the spinning).
                let word = addr / WORD_BYTES;
                let probe = rounds % self.cfg.spin_probe_period == 0;
                if probe {
                    self.emit(p, word, false, sink);
                    self.stats.spin_rereads += 1;
                }
                if self.mem[word as usize] == 0 {
                    // Acquire: read saw it free; now test-and-set.
                    self.emit(p, word, true, sink);
                    self.mem[word as usize] = 1;
                    self.stats.lock_acquires += 1;
                    let me = self.worker_of[p];
                    if let Some(&from) = self.lock_releaser.get(&word) {
                        if from != me {
                            sink.handoff(from, me);
                        }
                    }
                    self.procs[p].state = ProcState::Run;
                    self.woke.push(self.procs[p].pid);
                    true
                } else {
                    self.procs[p].state = ProcState::Spin {
                        addr,
                        rounds: rounds + 1,
                    };
                    false
                }
            }
            ProcState::Joining => {
                let all_idle = self.procs.iter().all(|q| {
                    q.pid == self.procs[p].pid
                        || matches!(q.state, ProcState::Idle | ProcState::Done)
                });
                if all_idle {
                    self.procs[p].state = ProcState::Run;
                    self.woke.push(self.procs[p].pid);
                    let all: Vec<u32> = self.procs.iter().map(|q| q.pid).collect();
                    sink.sync(&all);
                    true
                } else {
                    false
                }
            }
            ProcState::Run | ProcState::Idle | ProcState::Done => false,
        }
    }

    /// Execute one instruction of process `p`.
    fn step(&mut self, p: usize, sink: &mut dyn TraceSink) -> Result<(), RuntimeError> {
        self.stats.instructions += 1;
        self.procs[p].gap = self.procs[p].gap.saturating_add(1);
        let pid = self.procs[p].pid;
        let frame = self.procs[p].frames.last().unwrap();
        let fc = self.code.func(frame.func);
        if frame.pc as usize >= fc.code.len() {
            return self.do_ret(p, None);
        }
        let instr = fc.code[frame.pc as usize].clone();
        // Default: advance pc; jumps overwrite it.
        self.procs[p].frames.last_mut().unwrap().pc += 1;
        let regs = |procs: &Vec<Proc>, r: Reg| procs[p].frames.last().unwrap().regs[r as usize];
        match instr {
            Instr::Const { dst, v } => {
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Mov { dst, src } => {
                let v = regs(&self.procs, src);
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Bin { op, dst, a, b } => {
                let x = regs(&self.procs, a);
                let y = regs(&self.procs, b);
                let v = match op {
                    Alu::Add => x.wrapping_add(y),
                    Alu::Sub => x.wrapping_sub(y),
                    Alu::Mul => x.wrapping_mul(y),
                    Alu::Div => {
                        if y == 0 {
                            return Err(self.rt(pid, "division by zero"));
                        }
                        x.wrapping_div(y)
                    }
                    Alu::Rem => {
                        if y == 0 {
                            return Err(self.rt(pid, "remainder by zero"));
                        }
                        x.wrapping_rem(y)
                    }
                    Alu::Eq => (x == y) as i32,
                    Alu::Ne => (x != y) as i32,
                    Alu::Lt => (x < y) as i32,
                    Alu::Le => (x <= y) as i32,
                    Alu::Gt => (x > y) as i32,
                    Alu::Ge => (x >= y) as i32,
                    Alu::BitAnd => x & y,
                    Alu::BitOr => x | y,
                    Alu::BitXor => x ^ y,
                    Alu::Shl => x.wrapping_shl((y & 31) as u32),
                    Alu::Shr => x.wrapping_shr((y & 31) as u32),
                };
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Neg { dst, src } => {
                let v = regs(&self.procs, src).wrapping_neg();
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Not { dst, src } => {
                let v = (regs(&self.procs, src) == 0) as i32;
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Jmp { target } => {
                self.procs[p].frames.last_mut().unwrap().pc = target;
            }
            Instr::Jz { src, target } => {
                if regs(&self.procs, src) == 0 {
                    self.procs[p].frames.last_mut().unwrap().pc = target;
                }
            }
            Instr::Jnz { src, target } => {
                if regs(&self.procs, src) != 0 {
                    self.procs[p].frames.last_mut().unwrap().pc = target;
                }
            }
            Instr::Ld { dst, acc } => {
                let v = self.access(p, &acc, false, 0, sink)?;
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::St { src, acc } => {
                let v = regs(&self.procs, src);
                self.access(p, &acc, true, v, sink)?;
            }
            Instr::Call { func, args, dst } => {
                let fc = self.code.func(func);
                let mut regs_new = vec![0i32; fc.num_regs as usize];
                for (i, &r) in args.iter().enumerate() {
                    regs_new[i] = regs(&self.procs, r);
                }
                if self.procs[p].frames.len() > 256 {
                    return Err(self.rt(pid, "call stack overflow"));
                }
                self.procs[p].frames.push(Frame {
                    func,
                    pc: 0,
                    regs: regs_new,
                    ret_dst: dst,
                    is_body: false,
                });
            }
            Instr::Ret { src } => {
                let v = src.map(|r| regs(&self.procs, r));
                return self.do_ret(p, v);
            }
            Instr::Barrier => {
                self.procs[p].state = ProcState::AtBarrier;
                self.barrier_arrived += 1;
            }
            Instr::LockAcq { acc } => {
                let (resolved, _) = self.resolve(p, &acc)?;
                let Resolved::Direct(word) = resolved else {
                    return Err(self.rt(pid, "lock storage cannot be indirected"));
                };
                // Test: read the lock word.
                self.emit(p, word, false, sink);
                if self.mem[word as usize] == 0 {
                    self.emit(p, word, true, sink);
                    self.mem[word as usize] = 1;
                    self.stats.lock_acquires += 1;
                    let me = self.worker_of[p];
                    if let Some(&from) = self.lock_releaser.get(&word) {
                        if from != me {
                            sink.handoff(from, me);
                        }
                    }
                } else {
                    self.procs[p].state = ProcState::Spin {
                        addr: word * WORD_BYTES,
                        rounds: 1,
                    };
                }
            }
            Instr::LockRel { acc } => {
                let (resolved, _) = self.resolve(p, &acc)?;
                let Resolved::Direct(word) = resolved else {
                    return Err(self.rt(pid, "lock storage cannot be indirected"));
                };
                self.emit(p, word, true, sink);
                self.mem[word as usize] = 0;
                self.lock_releaser.insert(word, self.worker_of[p]);
            }
            Instr::Prand { dst, src } => {
                let x = regs(&self.procs, src);
                let h = splitmix64(self.cfg.seed ^ (x as u32 as u64));
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] =
                    (h & 0x3fff_ffff) as i32;
            }
            Instr::Min { dst, a, b } => {
                let v = regs(&self.procs, a).min(regs(&self.procs, b));
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Max { dst, a, b } => {
                let v = regs(&self.procs, a).max(regs(&self.procs, b));
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Abs { dst, src } => {
                let v = regs(&self.procs, src).wrapping_abs();
                self.procs[p].frames.last_mut().unwrap().regs[dst as usize] = v;
            }
            Instr::Spawn {
                body_func,
                pdv_slot,
            } => {
                let master_regs = self.procs[p].frames.last().unwrap().regs.clone();
                let fc = self.code.func(body_func);
                for q in 0..self.procs.len() {
                    let mut regs_new = vec![0i32; fc.num_regs as usize];
                    let n = master_regs.len().min(regs_new.len());
                    regs_new[..n].copy_from_slice(&master_regs[..n]);
                    regs_new[pdv_slot as usize] = self.procs[q].pid as i32;
                    let frame = Frame {
                        func: body_func,
                        pc: 0,
                        regs: regs_new,
                        ret_dst: None,
                        is_body: true,
                    };
                    self.procs[q].frames.push(frame);
                    if self.procs[q].state != ProcState::Run {
                        self.woke.push(self.procs[q].pid);
                    }
                    self.procs[q].state = ProcState::Run;
                }
                let all: Vec<u32> = self.procs.iter().map(|q| q.pid).collect();
                sink.sync(&all);
            }
        }
        Ok(())
    }

    fn do_ret(&mut self, p: usize, v: Option<i32>) -> Result<(), RuntimeError> {
        let frame = self.procs[p].frames.pop().unwrap();
        if frame.is_body {
            // End of the parallel body.
            if self.procs[p].pid == 0 {
                self.procs[p].state = ProcState::Joining;
            } else {
                self.procs[p].state = ProcState::Idle;
            }
            return Ok(());
        }
        if self.procs[p].frames.is_empty() {
            // main returned.
            self.procs[p].state = ProcState::Done;
            return Ok(());
        }
        if let (Some(dst), Some(v)) = (frame.ret_dst, v) {
            let fr = self.procs[p].frames.last_mut().unwrap();
            fr.regs[dst as usize] = v;
        } else if let Some(dst) = frame.ret_dst {
            // Void return into an expression slot: defined as 0.
            let fr = self.procs[p].frames.last_mut().unwrap();
            fr.regs[dst as usize] = 0;
        }
        Ok(())
    }
}

/// Final memory image and statistics.
#[derive(Debug)]
pub struct FinalState {
    pub mem: Vec<i32>,
    pub stats: RunStats,
}

impl FinalState {
    /// Logical value of every element word of every object — used by the
    /// semantics-preservation tests: for any layout plan, these values
    /// must be identical.
    pub fn logical_snapshot(&self, prog: &Program, layout: &Layout) -> BTreeMap<u32, Vec<i32>> {
        let mut out = BTreeMap::new();
        for (i, obj) in prog.objects.iter().enumerate() {
            let oid = ObjId(i as u32);
            let words = prog.elem_words(obj.elem);
            let nproc_copies = if obj.is_shared() { 1 } else { layout.nproc };
            let mut vals = Vec::new();
            for pid in 0..nproc_copies {
                for e in 0..layout.elem_count(oid) {
                    for w in 0..words {
                        let field_sel = field_sel_for_word(prog, obj, w);
                        let r = layout.resolve(oid, e, field_sel, pid);
                        let v = match r {
                            Resolved::Direct(a) => self.mem[a as usize],
                            Resolved::Indirect { ptr, off, .. } => {
                                let t = self.mem[ptr as usize];
                                if t == 0 {
                                    0
                                } else {
                                    self.mem[(t as u32 + off) as usize]
                                }
                            }
                        };
                        vals.push(v);
                    }
                }
            }
            out.insert(i as u32, vals);
        }
        out
    }
}

/// Map a word offset within an element to its field selector.
fn field_sel_for_word(
    prog: &Program,
    obj: &fsr_lang::ast::ObjectDecl,
    w: u32,
) -> Option<(fsr_lang::ast::FieldId, u32)> {
    match obj.elem {
        fsr_lang::ast::ElemTy::Int => None,
        fsr_lang::ast::ElemTy::Struct(sid) => {
            let s = prog.struct_(sid);
            for (fi, f) in s.fields.iter().enumerate() {
                if w >= f.offset_words && w < f.offset_words + f.len {
                    return Some((fsr_lang::ast::FieldId(fi as u32), w - f.offset_words));
                }
            }
            None
        }
    }
}
