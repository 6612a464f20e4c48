//! The traced run's layer-by-layer re-issue of a workload's work.
//!
//! The benchmark measures layers from the outside: it calls each
//! layer's public entry point itself and records a span around the
//! call, instead of timing inside the program. A batch of jobs is
//! re-issued the way the batch driver runs it — one front end per
//! (source, params), a plan and layout per job, jobs grouped by
//! `Layout::trace_fingerprint` (exact `trace_eq`), direct-only groups of
//! one front end merged into one interpretation through
//! `Layout::word_map_to` — and every job's share of the interpreter's
//! event stream is replayed chunk by chunk, first through
//! `MultiSim::access` and then through `TimingModel`, so interpretation,
//! cache simulation and timing each get their own self time.
//!
//! Spans never nest, so a span's duration is its layer's self time.

use fsr_core::driver::{Job, PlanSourceSpec};
use fsr_core::{PipelineConfig, SimStats};
use fsr_interp::{MemRef, TraceEvent, TraceSink};
use fsr_lang::ast::WORD_BYTES;
use fsr_layout::Layout;
use fsr_machine::TimingModel;
use fsr_sim::{CacheConfig, MultiSim, Outcome};
use fsr_transform::LayoutPlan;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Events buffered between two simulator/timing hand-offs.
const CHUNK: usize = 4096;

/// One layer's work on one job, unit or request.
pub struct Span {
    pub layer: &'static str,
    pub unit: String,
    pub secs: f64,
}

/// Spans and work counts, kept in memory until the run ends.
#[derive(Default)]
pub struct Ledger {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn time<R>(&mut self, layer: &'static str, unit: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(layer, unit, start.elapsed().as_secs_f64());
        r
    }

    pub fn add(&mut self, layer: &'static str, unit: &str, secs: f64) {
        self.spans.push(Span {
            layer,
            unit: unit.to_string(),
            secs,
        });
    }

    pub fn count(&mut self, what: &'static str, n: u64) {
        *self.counts.entry(what).or_default() += n;
    }

    pub fn get(&self, what: &str) -> u64 {
        self.counts.get(what).copied().unwrap_or(0)
    }

    /// Total self time of one layer, in seconds.
    pub fn secs(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |t, s| t + s.secs)
    }

    pub fn total_secs(&self) -> f64 {
        self.spans.iter().fold(0.0, |t, s| t + s.secs)
    }

    /// The spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\": {}, \"unit\": {}, \"secs\": {}}}",
                fsr_serve::json::Value::str(s.layer),
                fsr_serve::json::Value::str(&s.unit),
                s.secs
            );
        }
        out
    }
}

/// What the layered replay computed for one job.
#[derive(Clone)]
pub struct Replayed {
    pub exec_cycles: u64,
    pub sim: SimStats,
}

/// A layered batch: per-job results plus the sharing it found.
pub struct Layered {
    pub results: Vec<Replayed>,
    pub interpretations: usize,
    pub trace_groups: usize,
}

struct Front {
    prog: fsr_lang::Program,
    code: fsr_interp::Compiled,
    nproc: u32,
    analysis: Option<fsr_analysis::Analysis>,
}

type FeKey = (Arc<str>, Vec<(String, i64)>);

/// Re-issue `jobs` layer by layer (see the module docs), labelling
/// spans with `label(meta)`.
pub fn run_batch<M>(
    jobs: &[Job<M>],
    label: impl Fn(&M) -> String,
    ledger: &mut Ledger,
) -> Result<Layered, String> {
    // Front ends: one per distinct (source, params).
    let mut fe_ids: BTreeMap<FeKey, usize> = BTreeMap::new();
    let mut fronts: Vec<Front> = Vec::new();
    let mut fe_of: Vec<usize> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let key = (job.src.clone(), job.params.clone());
        let id = match fe_ids.get(&key) {
            Some(&id) => id,
            None => {
                let unit = label(&job.meta);
                let params: Vec<(&str, i64)> =
                    job.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                let prog = ledger
                    .time("lang.compile", &unit, || {
                        fsr_lang::compile_with_params(&job.src, &params)
                    })
                    .map_err(|e| format!("{unit}: {e}"))?;
                ledger.count("lang.bytes", job.src.len() as u64);
                let nproc = fsr_core::resolve_nproc(&prog).map_err(|e| format!("{unit}: {e}"))?;
                let code = ledger
                    .time("interp.bytecode", &unit, || {
                        fsr_interp::compile_program(&prog)
                    })
                    .map_err(|e| format!("{unit}: {e}"))?;
                fronts.push(Front {
                    prog,
                    code,
                    nproc,
                    analysis: None,
                });
                fe_ids.insert(key, fronts.len() - 1);
                fronts.len() - 1
            }
        };
        fe_of.push(id);
    }

    // Per job: plan, layout, trace fingerprint.
    let mut layouts: Vec<(Layout, u64)> = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let unit = label(&job.meta);
        let fe = &mut fronts[fe_of[j]];
        if matches!(job.plan, PlanSourceSpec::Compiler) && fe.analysis.is_none() {
            let prog = &fe.prog;
            let a = ledger
                .time("analysis.analyze", &unit, || fsr_analysis::analyze(prog))
                .map_err(|e| format!("{unit}: {e}"))?;
            fe.analysis = Some(a);
        }
        let fe = &fronts[fe_of[j]];
        let plan = plan_of(job, fe, &unit, ledger);
        let layout = ledger
            .time("layout.build", &unit, || {
                Layout::try_build(&fe.prog, &plan, fe.nproc).map(|l| {
                    let fp = l.trace_fingerprint();
                    (l, fp)
                })
            })
            .map_err(|e| format!("{unit}: {e}"))?;
        layouts.push(layout);
    }

    // Trace groups: same front end, run config and address map.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for j in 0..jobs.len() {
        let same = |g: &Vec<usize>| {
            let r = g[0];
            fe_of[r] == fe_of[j]
                && jobs[r].cfg.run == jobs[j].cfg.run
                && layouts[r].1 == layouts[j].1
                && layouts[r].0.trace_eq(&layouts[j].0)
        };
        match groups.iter_mut().find(|g| same(g)) {
            Some(g) => g.push(j),
            None => groups.push(vec![j]),
        }
    }
    let trace_groups = groups.len();

    // Units: direct-only groups of one (front end, run config) share an
    // interpretation through address translation; the rest run alone.
    let mut units: Vec<Vec<Vec<usize>>> = Vec::new();
    for g in groups {
        let r = g[0];
        let merge = layouts[r].0.direct_only().then(|| {
            units.iter().position(|u| {
                let ur = u[0][0];
                layouts[ur].0.direct_only()
                    && fe_of[ur] == fe_of[r]
                    && jobs[ur].cfg.run == jobs[r].cfg.run
            })
        });
        match merge.flatten() {
            Some(u) => units[u].push(g),
            None => units.push(vec![g]),
        }
    }

    let mut results: Vec<Option<Replayed>> = vec![None; jobs.len()];
    for unit in &units {
        let rep = unit[0][0];
        let fe = &fronts[fe_of[rep]];
        let rep_layout = &layouts[rep].0;
        let unit_label = format!("{} (+{} jobs)", label(&jobs[rep].meta), unit.len() - 1);
        let mut maps = Vec::with_capacity(unit.len());
        for (gi, g) in unit.iter().enumerate() {
            if gi == 0 {
                maps.push(None);
                continue;
            }
            let map = ledger
                .time("layout.build", &unit_label, || {
                    rep_layout.word_map_to(&layouts[g[0]].0)
                })
                .ok_or_else(|| format!("{unit_label}: layouts are not translatable"))?;
            maps.push(Some(map));
        }
        let mut fan = FanOut {
            buf: Vec::with_capacity(CHUNK),
            outs: Vec::with_capacity(CHUNK),
            maps,
            targets: Vec::new(),
            sim_secs: 0.0,
            machine_secs: 0.0,
            flush_secs: 0.0,
            refs: 0,
            events: 0,
        };
        for (gi, g) in unit.iter().enumerate() {
            for &j in g {
                fan.targets
                    .push(Target::new(j, gi, &jobs[j].cfg, fe.nproc, &layouts[j].0));
            }
        }
        let start = Instant::now();
        let fin = fsr_interp::run(&fe.prog, rep_layout, &fe.code, jobs[rep].cfg.run, &mut fan)
            .map_err(|e| format!("{unit_label}: {e}"))?;
        fan.flush();
        let run_secs = start.elapsed().as_secs_f64() - fan.flush_secs;
        ledger.add("interp.run", &unit_label, run_secs);
        ledger.add("sim.access", &unit_label, fan.sim_secs);
        ledger.add("machine.record", &unit_label, fan.machine_secs);
        ledger.count("interp.runs", 1);
        ledger.count("interp.instructions", fin.stats.instructions);
        ledger.count("interp.steals", fin.stats.steals);
        let n = fan.targets.len() as u64;
        ledger.count("sim.refs", fan.refs * n);
        ledger.count("machine.events", fan.events * n);
        for t in fan.targets {
            results[t.job] = Some(Replayed {
                exec_cycles: t.timing.finish_time(),
                sim: t.sim.stats().clone(),
            });
        }
    }

    Ok(Layered {
        results: results
            .into_iter()
            .map(|r| r.expect("every job belongs to one unit"))
            .collect(),
        interpretations: units.len(),
        trace_groups,
    })
}

/// The job's layout plan, as the batch driver builds it (timed as the
/// transform layer when a planner runs).
fn plan_of<M>(job: &Job<M>, fe: &Front, unit: &str, ledger: &mut Ledger) -> LayoutPlan {
    let block = job.cfg.block_bytes;
    match &job.plan {
        PlanSourceSpec::Unoptimized => LayoutPlan::unoptimized(block),
        PlanSourceSpec::Compiler => {
            let analysis = fe.analysis.as_ref().expect("analyzed above");
            let mut plan_cfg = job.cfg.plan_cfg;
            plan_cfg.block_bytes = block;
            ledger.time("transform.plan", unit, || {
                fsr_transform::plan_for(&fe.prog, analysis, &plan_cfg)
            })
        }
        PlanSourceSpec::Programmer(f) => ledger.time("transform.plan", unit, || f(&fe.prog, block)),
        PlanSourceSpec::Explicit(p) => {
            let mut p = p.clone();
            p.block_bytes = block;
            p
        }
    }
}

/// One job's simulator and timing model inside a unit.
struct Target {
    job: usize,
    group: usize,
    sim: MultiSim,
    timing: TimingModel,
}

impl Target {
    fn new(job: usize, group: usize, cfg: &PipelineConfig, nproc: u32, layout: &Layout) -> Target {
        let cache = CacheConfig {
            nproc,
            block_bytes: cfg.block_bytes,
            cache_bytes: cfg.cache_bytes,
            assoc: cfg.assoc,
            protocol: cfg.protocol,
        };
        Target {
            job,
            group,
            sim: MultiSim::new(cache, layout.total_words() * WORD_BYTES),
            timing: TimingModel::new(cfg.machine, nproc),
        }
    }
}

/// The interpreter's sink: buffers events and hands each full chunk to
/// every job's simulator, then to its timing model.
struct FanOut {
    buf: Vec<TraceEvent>,
    outs: Vec<Outcome>,
    /// Per group: driving-layout word → group word (`None` = identity).
    maps: Vec<Option<Vec<u32>>>,
    targets: Vec<Target>,
    sim_secs: f64,
    machine_secs: f64,
    flush_secs: f64,
    refs: u64,
    events: u64,
}

impl FanOut {
    fn push(&mut self, e: TraceEvent) {
        self.buf.push(e);
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let start = Instant::now();
        let FanOut {
            buf,
            outs,
            maps,
            targets,
            ..
        } = self;
        for t in targets.iter_mut() {
            let map = maps[t.group].as_deref();
            let t0 = Instant::now();
            outs.clear();
            for e in buf.iter() {
                if let TraceEvent::Access(r) = e {
                    let addr = match map {
                        None => r.addr,
                        Some(m) => m[(r.addr / WORD_BYTES) as usize] * WORD_BYTES,
                    };
                    outs.push(t.sim.access(r.pid, addr, r.write));
                }
            }
            let t1 = Instant::now();
            let mut k = 0;
            for e in buf.iter() {
                match e {
                    TraceEvent::Access(r) => {
                        t.timing.record(r.pid, r.gap, &outs[k]);
                        k += 1;
                    }
                    TraceEvent::Sync(pids) => t.timing.sync(pids),
                    TraceEvent::Handoff { from, to } => t.timing.handoff(*from, *to),
                    TraceEvent::Steal { thief, victim } => t.timing.steal(*thief, *victim),
                }
            }
            let t2 = Instant::now();
            self.sim_secs += (t1 - t0).as_secs_f64();
            self.machine_secs += (t2 - t1).as_secs_f64();
        }
        self.refs += self.outs.len() as u64;
        self.events += self.buf.len() as u64;
        self.buf.clear();
        self.flush_secs += start.elapsed().as_secs_f64();
    }
}

impl TraceSink for FanOut {
    fn access(&mut self, r: MemRef) {
        self.push(TraceEvent::Access(r));
    }

    fn sync(&mut self, pids: &[u32]) {
        self.push(TraceEvent::Sync(pids.to_vec()));
    }

    fn handoff(&mut self, from: u32, to: u32) {
        self.push(TraceEvent::Handoff { from, to });
    }

    fn steal(&mut self, thief: u32, victim: u32) {
        self.push(TraceEvent::Steal { thief, victim });
    }
}

/// The layers one `serve-edit` change → lint → plan triple reaches, as
/// the daemon calls them: the edited text's front end (parse + check,
/// bytecode), the sharing analysis and race lint, then the compiler
/// plan (which analyzes again). Returns (diagnostics, transformed
/// objects) for the caller to check against the served answers.
pub fn edit_triple(
    src: &str,
    params: &[(&str, i64)],
    plan_cfg: fsr_transform::PlanConfig,
    unit: &str,
    ledger: &mut Ledger,
) -> Result<(usize, usize), String> {
    let prog = ledger
        .time("lang.compile", unit, || {
            fsr_lang::compile_with_params(src, params)
        })
        .map_err(|e| format!("{unit}: {e}"))?;
    ledger.count("lang.bytes", src.len() as u64);
    ledger
        .time("interp.bytecode", unit, || {
            fsr_interp::compile_program(&prog)
        })
        .map_err(|e| format!("{unit}: {e}"))?;
    let analysis = ledger
        .time("analysis.analyze", unit, || fsr_analysis::analyze(&prog))
        .map_err(|e| format!("{unit}: {e}"))?;
    let report = ledger.time("analysis.races", unit, || {
        fsr_analysis::detect_with(&prog, &analysis, None)
    });
    let analysis = ledger
        .time("analysis.analyze", unit, || fsr_analysis::analyze(&prog))
        .map_err(|e| format!("{unit}: {e}"))?;
    let plan = ledger.time("transform.plan", unit, || {
        fsr_transform::plan_for(&prog, &analysis, &plan_cfg)
    });
    Ok((report.diagnostics.len(), plan.directives.len()))
}
