//! What every workload shares — sizes, options, the output checker and
//! the report — plus the two batch workloads, `paper-suite` and
//! `solo-cells`. The serve workloads live in `serve.rs`.

use crate::gen::{self, Cell};
use crate::layers::{self, Ledger};
use crate::stats::{self, Digest};
use fsr_core::driver::{run_batch_with_stats, BatchStats, Job, PlanSourceSpec};
use fsr_core::experiments::{
    self, plan_spec, Backend, Fig3Row, Headline, Table2Row, Table3Row, Vsn,
};
use fsr_core::{ObjPlan, PipelineConfig, RunResult, Schedule};
use fsr_machine::SpeedupCurve;
use fsr_workloads::Version;
use std::collections::HashMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["paper-suite", "serve-sweep", "serve-edit", "solo-cells"];

/// Problem sizes. `FULL` is what the benchmark measures; `TINY` is a
/// seconds-long smoke run of the same code paths for the tests.
pub struct Size {
    pub name: &'static str,
    /// NPROC and SCALE of the paper suite and the served documents.
    pub nproc: i64,
    pub scale: i64,
    /// Worker threads for batches (the load's `nproc`).
    pub threads: usize,
    pub fig3_blocks: &'static [u32],
    pub table2_blocks: &'static [u32],
    pub table3_procs: &'static [u32],
    pub solo_nproc: i64,
    pub solo_scale: i64,
    pub solo_programs: &'static [&'static str],
    /// A run repeats its set-up at least `setups` times and for at
    /// least `setup_secs`; `setup_s` is the median. Some processes run
    /// slower for their first ~0.1 s, which must not set the median of
    /// a set-up that takes milliseconds.
    pub setups: usize,
    pub setup_secs: f64,
    /// Passes of a batch workload in one run.
    pub passes: usize,
    /// Requests each serve client sends in one run.
    pub requests: usize,
}

pub const FULL: Size = Size {
    name: "full",
    nproc: 12,
    scale: 2,
    threads: 2,
    fig3_blocks: &[16, 128],
    table2_blocks: &[8, 16, 32, 64, 128, 256],
    table3_procs: fsr_bench::SWEEP_PROCS,
    solo_nproc: 48,
    solo_scale: 4,
    solo_programs: &["fmm", "raytrace", "water", "maxflow"],
    setups: 3,
    setup_secs: 0.6,
    passes: 4,
    requests: 500,
};

pub const TINY: Size = Size {
    name: "tiny",
    nproc: 4,
    scale: 1,
    threads: 2,
    fig3_blocks: &[16, 128],
    table2_blocks: &[16, 128],
    table3_procs: &[1, 2, 4],
    solo_nproc: 4,
    solo_scale: 1,
    solo_programs: &["fmm", "raytrace", "water", "maxflow"],
    setups: 1,
    setup_secs: 0.0,
    passes: 1,
    requests: 6,
};

/// Pinned output digests of one workload at one size: every distinct
/// cell in first-output order, from a run at `seed`.
pub struct Pinned {
    pub seed: u64,
    pub cells: Vec<(String, String)>,
}

pub struct Opts<'a> {
    pub seed: u64,
    pub size: &'a Size,
    pub trace: bool,
    pub pinned: Option<&'a Pinned>,
}

/// What one run of one workload measured and checked.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Output digests, one per distinct label in first-output order (the
    /// first pass of a batch workload, the served answers of a serve
    /// workload).
    pub cells: Vec<(String, String)>,
    /// The traced run's spans, as JSON lines.
    pub spans: Option<String>,
}

/// Collects output failures and compares outputs with pinned digests.
pub struct Checker<'a> {
    pinned: HashMap<&'a str, &'a str>,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(pinned: Option<&'a Pinned>) -> Checker<'a> {
        Checker {
            pinned: pinned
                .map(|p| {
                    p.cells
                        .iter()
                        .map(|(l, d)| (l.as_str(), d.as_str()))
                        .collect()
                })
                .unwrap_or_default(),
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Compare one output against its pinned digest. Labels name the
    /// inputs an output is a function of, so a pinned label is checked
    /// whatever seed produced it.
    pub fn cell(&mut self, label: &str, digest: &str) -> bool {
        match self.pinned.get(label) {
            Some(&want) if want != digest => {
                self.fail(format!("{label}: digest {digest}, pinned {want}"));
                false
            }
            _ => true,
        }
    }
}

/// The first cell where `got` differs from `want`, if any.
pub fn first_difference(got: &[(String, String)], want: &[(String, String)]) -> Option<String> {
    for (i, w) in want.iter().enumerate() {
        match got.get(i) {
            None => return Some(format!("cell {i} `{}` missing", w.0)),
            Some(g) if g != w => {
                return Some(format!(
                    "cell {i}: got `{}` {}, pinned `{}` {}",
                    g.0, g.1, w.0, w.1
                ))
            }
            _ => {}
        }
    }
    (got.len() > want.len()).then(|| format!("{} unpinned extra cells", got.len() - want.len()))
}

pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    match workload {
        "paper-suite" => paper_suite(opts),
        "solo-cells" => solo_cells(opts),
        "serve-sweep" => crate::serve::sweep(opts),
        "serve-edit" => crate::serve::edit(opts),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Time `f` at least `n` times and for at least `min_secs`, handing
/// every result but the last to `retire`, untimed; the median wall, in
/// seconds, and the last result.
pub fn setups<R>(
    n: usize,
    min_secs: f64,
    mut f: impl FnMut() -> Result<R, String>,
    mut retire: impl FnMut(R) -> Result<(), String>,
) -> Result<(f64, R), String> {
    let mut secs = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let r = f()?;
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= n && start.elapsed().as_secs_f64() >= min_secs {
            return Ok((stats::median(&secs), r));
        }
        retire(r)?;
    }
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end(
    setup_s: f64,
    wall_s: f64,
    op_secs: &[f64],
    rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let ops = stats::sorted(op_secs);
    vec![
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("op_p50_ms", stats::quantile(&ops, 0.5) * 1e3),
        ("op_p90_ms", stats::quantile(&ops, 0.9) * 1e3),
        ("peak_rss_mb", rss_mb),
    ]
}

/// The set-up of a batch workload: the front end (parse, check,
/// bytecode) and sharing analysis of every (source, params) it will
/// run, which also proves every input well formed before timing.
fn prepare_inputs(inputs: &[(&'static str, &'static str, i64, i64)]) -> Result<(), String> {
    for &(name, src, nproc, scale) in inputs {
        let prog = fsr_lang::compile_with_params(src, &[("NPROC", nproc), ("SCALE", scale)])
            .map_err(|e| format!("{name}: {e}"))?;
        fsr_core::resolve_nproc(&prog).map_err(|e| format!("{name}: {e}"))?;
        fsr_interp::compile_program(&prog).map_err(|e| format!("{name}: {e}"))?;
        fsr_analysis::analyze(&prog).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

fn time_in<R>(
    ledger: &mut Option<&mut Ledger>,
    layer: &'static str,
    unit: &str,
    f: impl FnOnce() -> R,
) -> R {
    match ledger {
        Some(l) => l.time(layer, unit, f),
        None => f(),
    }
}

/// What the passes of a batch workload share: their output cells,
/// per-operation seconds and wall time.
struct Pass {
    cells: Vec<(String, String)>,
    ops: Vec<f64>,
    wall: f64,
    errors: Vec<String>,
}

/// When a batch workload reads its peak RSS.
#[derive(Clone, Copy)]
enum RssAt {
    /// After the first pass: later passes redo the same work, so what
    /// they add is allocator retention, which varies from run to run.
    FirstPass,
    /// After the last pass: the peak is a maximum over noisy moments
    /// (buffers in flight between threads) that more passes settle.
    LastPass,
}

/// The untraced run of a batch workload: `size.passes` passes of fixed
/// work after the set-up. Every pass must reproduce the first one's
/// cells (the work does not change between passes) and pass `ck`.
/// Every timing is the fastest of the passes — the pass for `wall_s`,
/// each operation's own fastest for `op_p*` — because host load on a
/// shared machine only ever adds time, in bursts.
fn batch_run(
    opts: &Opts,
    setup_s: f64,
    pass: impl Fn() -> Pass,
    rss_at: RssAt,
    mut ck: Checker,
) -> Report {
    let mut runs = vec![pass()];
    let first_rss_mb = stats::peak_rss_mb();
    runs.extend((1..opts.size.passes).map(|_| pass()));
    let rss_mb = match rss_at {
        RssAt::FirstPass => first_rss_mb,
        RssAt::LastPass => stats::peak_rss_mb(),
    };
    for p in &runs {
        for e in &p.errors {
            ck.fail(e.clone());
        }
        for (label, digest) in &p.cells {
            ck.cell(label, digest);
        }
        if let Some(diff) = first_difference(&p.cells, &runs[0].cells) {
            ck.fail(format!("passes disagree: {diff}"));
        }
    }
    let fastest = |secs: &mut dyn Iterator<Item = f64>| secs.fold(f64::INFINITY, f64::min);
    let op_secs: Vec<f64> = (0..runs[0].ops.len())
        .map(|i| fastest(&mut runs.iter().filter_map(|p| p.ops.get(i).copied())))
        .collect();
    let wall_s = fastest(&mut runs.iter().map(|p| p.wall));
    Report {
        attempted: runs.iter().map(|p| p.ops.len() as u64).sum(),
        failed: ck.failed,
        problems: ck.problems,
        metrics: end_to_end(setup_s, wall_s, &op_secs, rss_mb),
        cells: runs.into_iter().next().map(|p| p.cells).unwrap_or_default(),
        spans: None,
    }
}

// ---------------------------------------------------------------- paper-suite

fn paper_inputs(s: &Size) -> Vec<(&'static str, &'static str, i64, i64)> {
    let mut inputs: Vec<_> = fsr_workloads::figure3_set()
        .into_iter()
        .map(|w| (w.name, w.source, s.nproc, s.scale))
        .collect();
    for w in fsr_workloads::all() {
        for &p in s.table3_procs {
            inputs.push((w.name, w.source, p as i64, s.scale));
        }
    }
    inputs
}

fn fig3_cell(r: &Fig3Row) -> (String, String) {
    let mut d = Digest::default();
    d.str(&r.protocol);
    d.str(&r.interconnect);
    d.u64(r.refs);
    d.f64(r.fs_miss_rate);
    d.f64(r.other_miss_rate);
    (
        format!("fig3/{}/{}/{}", r.program, r.block, r.version),
        d.hex(),
    )
}

fn headline_cell(h: &Headline) -> (String, String) {
    let mut d = Digest::default();
    for x in [
        h.fs_share_of_misses,
        h.fs_eliminated,
        h.other_miss_change,
        h.total_miss_change,
    ] {
        d.f64(x);
    }
    (format!("headline/{}", h.block), d.hex())
}

fn table2_cell(r: &Table2Row) -> (String, String) {
    let mut d = Digest::default();
    d.str(&r.protocol);
    d.str(&r.interconnect);
    for x in [
        r.total_reduction_pct,
        r.transpose_pct,
        r.indirection_pct,
        r.pad_pct,
        r.locks_pct,
    ] {
        d.f64(x);
    }
    d.u64(r.dropped_blocks as u64);
    (format!("table2/{}", r.program), d.hex())
}

fn table3_cell(r: &Table3Row) -> (String, String) {
    let mut d = Digest::default();
    for v in [r.original, Some(r.compiler), r.programmer] {
        match v {
            Some((speedup, procs)) => {
                d.f64(speedup);
                d.u64(procs.into());
            }
            None => d.str("-"),
        }
    }
    (format!("table3/{}", r.program), d.hex())
}

/// One pass of the suite, exactly as the `fig3`, `table2`, `headline`
/// and `table3` bins compute it, each call on fresh transient worlds.
/// Its operations are the three experiment calls.
fn paper_pass(s: &Size) -> Pass {
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut errors = Vec::new();

    let t = Instant::now();
    let fig3 = experiments::figure3(s.nproc, s.scale, s.fig3_blocks, s.threads);
    let heads: Vec<_> = s
        .fig3_blocks
        .iter()
        .map(|&b| experiments::headline_from_rows(&fig3, b))
        .collect();
    ops.push(t.elapsed().as_secs_f64());
    let mut cells: Vec<_> = fig3.iter().map(fig3_cell).collect();
    cells.extend(heads.iter().map(headline_cell));

    let t = Instant::now();
    let table2 = experiments::table2(s.nproc, s.scale, s.table2_blocks, s.threads);
    ops.push(t.elapsed().as_secs_f64());
    match table2 {
        Ok(rows) => cells.extend(rows.iter().map(table2_cell)),
        Err(e) => errors.push(format!("table2: {e}")),
    }

    let t = Instant::now();
    let table3 = experiments::table3(s.table3_procs, s.scale, 128, s.threads);
    ops.push(t.elapsed().as_secs_f64());
    cells.extend(table3.iter().map(table3_cell));

    Pass {
        cells,
        ops,
        wall: start.elapsed().as_secs_f64(),
        errors,
    }
}

fn paper_suite(opts: &Opts) -> Result<Report, String> {
    let s = opts.size;
    let inputs = paper_inputs(s);
    let (setup_s, ()) = setups(s.setups, s.setup_secs, || prepare_inputs(&inputs), Ok)?;
    let mut report = if opts.trace {
        batch_traced(opts, |l| paper_jobs(s, l), |r| paper_cells_from(s, r))?
    } else {
        batch_run(
            opts,
            setup_s,
            || paper_pass(s),
            RssAt::FirstPass,
            Checker::new(opts.pinned),
        )
    };
    // The suite has no seeded input: every seed must reproduce every
    // pinned row, in order, and no other.
    if let Some(diff) = opts
        .pinned
        .and_then(|p| first_difference(&report.cells, &p.cells))
    {
        report.failed += 1;
        report.problems.push(format!("rows: {diff}"));
    }
    Ok(report)
}

const FIG3: &str = "figure3";
const TABLE2: &str = "table2";
const TABLE3: &str = "table3";

/// The suite's jobs, built as `fsr_core::experiments` builds them, in
/// three batches (figure 3, table 2, table 3). Table 2 plans in the
/// caller, so with a ledger its compile, analysis and plans are spans.
/// `paper_cells_from` turns their results back into the suite's rows,
/// which must equal the pinned ones: that ties these jobs to the
/// experiments'.
fn paper_jobs(s: &Size, mut ledger: Option<&mut Ledger>) -> Result<Vec<Vec<Job<String>>>, String> {
    let params = |p: i64| [("NPROC", p), ("SCALE", s.scale)];
    let cfg = |b: u32| Backend::default().config(b);
    let mut fig3 = Vec::new();
    for w in fsr_workloads::figure3_set() {
        for &b in s.fig3_blocks {
            for v in [Vsn::N, Vsn::C] {
                fig3.push(Job::new(
                    format!("{FIG3}/{}/{b}/{}", w.name, v.label()),
                    w.source,
                    &params(s.nproc),
                    plan_spec(&w, v),
                    cfg(b),
                ));
            }
        }
    }
    let mut table2 = Vec::new();
    for w in fsr_workloads::figure3_set() {
        let unit = format!("{TABLE2}/{}", w.name);
        let prog = time_in(&mut ledger, "lang.compile", &unit, || {
            fsr_lang::compile_with_params(w.source, &params(s.nproc))
        })
        .map_err(|e| format!("{unit}: {e}"))?;
        if let Some(l) = ledger.as_deref_mut() {
            l.count("lang.bytes", w.source.len() as u64);
        }
        let analysis = time_in(&mut ledger, "analysis.analyze", &unit, || {
            fsr_analysis::analyze(&prog)
        })
        .map_err(|e| format!("{unit}: {e}"))?;
        for &b in s.table2_blocks {
            let c = cfg(b);
            let full = time_in(&mut ledger, "transform.plan", &unit, || {
                fsr_transform::plan_for(&prog, &analysis, &c.plan_cfg)
            });
            let plans = [
                PlanSourceSpec::Unoptimized,
                PlanSourceSpec::Explicit(full.clone()),
                PlanSourceSpec::Explicit(
                    full.retain_kind(|p| matches!(p, ObjPlan::Transpose { .. })),
                ),
                PlanSourceSpec::Explicit(
                    full.retain_kind(|p| matches!(p, ObjPlan::Indirect { .. })),
                ),
                PlanSourceSpec::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadElems))),
                PlanSourceSpec::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadLock))),
            ];
            for (i, plan) in plans.into_iter().enumerate() {
                table2.push(Job::new(
                    format!("{unit}/{b}/{i}"),
                    w.source,
                    &params(s.nproc),
                    plan,
                    c.clone(),
                ));
            }
        }
    }
    let mut table3 = Vec::new();
    for w in fsr_workloads::all() {
        table3.push(Job::new(
            format!("{TABLE3}/{}/base", w.name),
            w.source,
            &params(1),
            plan_spec(&w, Vsn::N),
            cfg(128),
        ));
        let mut versions = vec![Vsn::C];
        if w.has(Version::Unoptimized) {
            versions.push(Vsn::N);
        }
        if w.has(Version::Programmer) {
            versions.push(Vsn::P);
        }
        for v in versions {
            for &p in s.table3_procs {
                table3.push(Job::new(
                    format!("{TABLE3}/{}/{}/{p}", w.name, v.label()),
                    w.source,
                    &params(p.into()),
                    plan_spec(&w, v),
                    cfg(128),
                ));
            }
        }
    }
    Ok(vec![fig3, table2, table3])
}

/// The suite's rows rebuilt from the results of `paper_jobs`, each
/// derived from its jobs' results as `fsr_core::experiments` derives it,
/// as output cells.
fn paper_cells_from(s: &Size, results: &HashMap<&str, &RunResult>) -> Vec<(String, String)> {
    let get = |label: String| results.get(label.as_str()).copied();
    let backend = Backend::default();

    let mut fig3 = Vec::new();
    for w in fsr_workloads::figure3_set() {
        for &b in s.fig3_blocks {
            for v in [Vsn::N, Vsn::C] {
                let Some(r) = get(format!("{FIG3}/{}/{b}/{}", w.name, v.label())) else {
                    continue;
                };
                let refs = r.sim.refs.max(1) as f64;
                fig3.push(Fig3Row {
                    program: w.name.to_string(),
                    block: b,
                    version: v.label().to_string(),
                    protocol: backend.protocol.name().to_string(),
                    interconnect: backend.interconnect.name().to_string(),
                    refs: r.sim.refs,
                    fs_miss_rate: r.sim.false_sharing() as f64 / refs,
                    other_miss_rate: r.sim.other_misses() as f64 / refs,
                });
            }
        }
    }
    let mut cells: Vec<_> = fig3.iter().map(fig3_cell).collect();
    cells.extend(
        s.fig3_blocks
            .iter()
            .map(|&b| headline_cell(&experiments::headline_from_rows(&fig3, b))),
    );

    for w in fsr_workloads::figure3_set() {
        let fs = |b: u32, i: usize| {
            get(format!("{TABLE2}/{}/{b}/{i}", w.name)).map(|r| r.sim.false_sharing())
        };
        let (mut acc, mut samples, mut dropped) = ([0.0f64; 5], 0usize, 0usize);
        for &b in s.table2_blocks {
            let base = fs(b, 0).unwrap_or(0);
            if base == 0 {
                dropped += 1;
                continue;
            }
            for (k, a) in acc.iter_mut().enumerate() {
                if let Some(v) = fs(b, k + 1) {
                    *a += 100.0 * base.saturating_sub(v) as f64 / base as f64;
                }
            }
            samples += 1;
        }
        let n = samples.max(1) as f64;
        cells.push(table2_cell(&Table2Row {
            program: w.name.to_string(),
            protocol: backend.protocol.name().to_string(),
            interconnect: backend.interconnect.name().to_string(),
            total_reduction_pct: acc[0] / n,
            transpose_pct: acc[1] / n,
            indirection_pct: acc[2] / n,
            pad_pct: acc[3] / n,
            locks_pct: acc[4] / n,
            dropped_blocks: dropped,
        }));
    }

    for w in fsr_workloads::all() {
        let t1 = get(format!("{TABLE3}/{}/base", w.name)).map_or(1, |r| r.exec_cycles);
        let max_speedup = |v: Vsn| {
            let mut curve = SpeedupCurve::default();
            for &p in s.table3_procs {
                if let Some(r) = get(format!("{TABLE3}/{}/{}/{p}", w.name, v.label())) {
                    curve.push(p, r.exec_cycles);
                }
            }
            curve.max_speedup(t1)
        };
        cells.push(table3_cell(&Table3Row {
            program: w.name.to_string(),
            original: w.has(Version::Unoptimized).then(|| max_speedup(Vsn::N)),
            compiler: max_speedup(Vsn::C),
            programmer: w.has(Version::Programmer).then(|| max_speedup(Vsn::P)),
        }));
    }
    cells
}

// ----------------------------------------------------------------- solo-cells

fn solo_job(cell: &Cell, s: &Size) -> Job<String> {
    let w = fsr_workloads::by_name(cell.program).expect("solo-cells programs exist");
    let mut cfg = PipelineConfig::with_block(128);
    if let Some(seed) = cell.work_steal {
        cfg.run.schedule = Schedule::WorkSteal { seed };
    }
    let plan = if cell.compiler {
        PlanSourceSpec::Compiler
    } else {
        PlanSourceSpec::Unoptimized
    };
    Job::new(
        cell.label(),
        w.source,
        &[("NPROC", s.solo_nproc), ("SCALE", s.solo_scale)],
        plan,
        cfg,
    )
}

/// Digest of a job's deterministic result: simulator statistics,
/// per-object misses, execution cycles and interpreter statistics.
pub fn job_digest(r: &RunResult) -> String {
    let mut d = Digest::default();
    let s = &r.sim;
    for x in [s.refs, s.reads, s.writes] {
        d.u64(x);
    }
    for &m in &s.misses {
        d.u64(m);
    }
    for x in [
        s.upgrades,
        s.invalidations,
        s.interventions,
        s.exclusive_hits,
        s.dir_txns,
    ] {
        d.u64(x);
    }
    for (name, m) in &r.per_obj {
        d.str(name);
        for &x in &m.misses {
            d.u64(x);
        }
    }
    d.u64(r.exec_cycles);
    let i = &r.interp;
    for x in [
        i.instructions,
        i.refs,
        i.spin_rereads,
        i.barriers_crossed,
        i.lock_acquires,
        i.steals,
    ] {
        d.u64(x);
    }
    d.hex()
}

/// One pass: every cell as its own one-job batch with the full thread
/// budget, so the driver shards within the unit. Its operations are
/// the cells.
fn solo_pass(s: &Size, cells: &[Cell]) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        cells: Vec::new(),
        ops: Vec::new(),
        wall: 0.0,
        errors: Vec::new(),
    };
    for cell in cells {
        let t = Instant::now();
        let (mut results, _) = run_batch_with_stats(vec![solo_job(cell, s)], s.threads);
        out.ops.push(t.elapsed().as_secs_f64());
        match results.remove(0).1 {
            Ok(r) => {
                if r.interp.steals != r.timing.steal_joins {
                    out.errors.push(format!(
                        "{}: {} steals but {} timing joins",
                        cell.label(),
                        r.interp.steals,
                        r.timing.steal_joins
                    ));
                }
                out.cells.push((cell.label(), job_digest(&r)));
            }
            Err(e) => out.errors.push(format!("{}: {e}", cell.label())),
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

fn solo_cells(opts: &Opts) -> Result<Report, String> {
    let s = opts.size;
    let mut cells = Vec::new();
    let (setup_s, ()) = setups(
        s.setups,
        s.setup_secs,
        || {
            cells = gen::solo_cells(opts.seed, s.solo_programs);
            let inputs: Vec<_> = s
                .solo_programs
                .iter()
                .map(|&p| {
                    let w = fsr_workloads::by_name(p).ok_or(format!("no workload {p}"))?;
                    Ok((w.name, w.source, s.solo_nproc, s.solo_scale))
                })
                .collect::<Result<_, String>>()?;
            prepare_inputs(&inputs)
        },
        Ok,
    )?;
    if opts.trace {
        return batch_traced(
            opts,
            |_| Ok(cells.iter().map(|c| vec![solo_job(c, s)]).collect()),
            |results| {
                cells
                    .iter()
                    .filter_map(|c| {
                        let label = c.label();
                        let digest = job_digest(results.get(label.as_str())?);
                        Some((label, digest))
                    })
                    .collect()
            },
        );
    }
    Ok(batch_run(
        opts,
        setup_s,
        || solo_pass(s, &cells),
        RssAt::LastPass,
        Checker::new(opts.pinned),
    ))
}

// ------------------------------------------------------------- traced batches

/// Sums over a workload's batches, as the driver reports them.
#[derive(Default)]
pub struct CoreCounts {
    pub jobs: u64,
    pub interpretations: u64,
    pub trace_groups: u64,
    pub segments: u64,
}

impl CoreCounts {
    pub fn add(&mut self, s: &BatchStats) {
        self.jobs += s.jobs as u64;
        self.interpretations += s.interpretations as u64;
        self.trace_groups += s.trace_groups as u64;
        self.segments += s.segments;
    }
}

/// The traced run of a batch workload. First `build` makes the batches
/// and they run untraced through the driver (the CPU time of both is
/// the denominator of the span coverage); `cells_of` turns their
/// results, by job label, into the workload's output cells, which are
/// checked against the pinned ones. Then `build` makes the batches
/// again with its planning work as spans and `layers::run_batch`
/// re-issues every batch layer by layer, checking each job's execution
/// cycles and simulator statistics against the driver's.
fn batch_traced(
    opts: &Opts,
    build: impl Fn(Option<&mut Ledger>) -> Result<Vec<Vec<Job<String>>>, String>,
    cells_of: impl FnOnce(&HashMap<&str, &RunResult>) -> Vec<(String, String)>,
) -> Result<Report, String> {
    let s = opts.size;
    let mut ck = Checker::new(opts.pinned);
    let mut core = CoreCounts::default();
    let cpu0 = stats::cpu_seconds();
    let mut reference = Vec::new();
    for batch in build(None)? {
        let (results, st) = run_batch_with_stats(batch, s.threads);
        core.add(&st);
        reference.push((results, st));
    }
    let untraced_cpu = stats::cpu_seconds() - cpu0;
    let mut by_label = HashMap::new();
    for (job, r) in reference.iter().flat_map(|(results, _)| results) {
        match r {
            Ok(r) => {
                by_label.insert(job.meta.as_str(), r);
            }
            Err(e) => ck.fail(format!("{}: {e}", job.meta)),
        }
    }
    let cells = cells_of(&by_label);
    for (label, digest) in &cells {
        ck.cell(label, digest);
    }

    let mut ledger = Ledger::default();
    let start = Instant::now();
    let batches = build(Some(&mut ledger))?;
    for (batch, (results, st)) in batches.iter().zip(&reference) {
        let layered = layers::run_batch(batch, String::clone, &mut ledger)?;
        if (layered.interpretations, layered.trace_groups) != (st.interpretations, st.trace_groups)
        {
            ck.fail(format!(
                "layered re-issue found {} interpretations / {} trace groups, the driver {} / {}",
                layered.interpretations, layered.trace_groups, st.interpretations, st.trace_groups
            ));
        }
        for ((job, r), got) in results.iter().zip(&layered.results) {
            if let Ok(r) = r {
                if (r.exec_cycles, &r.sim) != (got.exec_cycles, &got.sim) {
                    ck.fail(format!(
                        "{}: layered replay gives {} exec cycles, the pipeline {}",
                        job.meta, got.exec_cycles, r.exec_cycles
                    ));
                }
            }
        }
    }
    let traced_wall = start.elapsed().as_secs_f64();
    let metrics = per_layer(
        &ledger,
        &core,
        &crate::serve::ServeLayers::default(),
        Coverage {
            untraced: untraced_cpu,
            attributed: ledger.total_secs(),
            traced_wall,
            traced_spans: ledger.total_secs(),
        },
        crate::client::client_floor_ms(200)?,
    );
    Ok(Report {
        attempted: core.jobs,
        failed: ck.failed,
        problems: ck.problems,
        metrics,
        cells,
        spans: Some(ledger.to_jsonl()),
    })
}

/// The numbers behind `trace.unattributed_frac` and
/// `trace.overhead_frac`.
pub struct Coverage {
    /// Time the untraced run spent on the work: CPU seconds of the
    /// driver's batches (batch workloads), or client seconds in the
    /// timed region (serve workloads).
    pub untraced: f64,
    /// How much of `untraced` measured spans account for.
    pub attributed: f64,
    /// Wall seconds of the traced, single-threaded re-issue ...
    pub traced_wall: f64,
    /// ... and the part of it inside spans; the rest is the tracing's
    /// own bookkeeping.
    pub traced_spans: f64,
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn per(secs: f64, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        secs * scale / n as f64
    }
}

/// Every per-layer metric, from the ledger of the layered re-issue, the
/// driver's counts and (serve workloads) the daemon-side numbers.
pub fn per_layer(
    ledger: &Ledger,
    core: &CoreCounts,
    serve: &crate::serve::ServeLayers,
    cov: Coverage,
    client_floor_ms: f64,
) -> Vec<(&'static str, f64)> {
    let refs = ledger.get("sim.refs");
    let instrs = ledger.get("interp.instructions");
    vec![
        ("lang.compile_ms", ms(ledger.secs("lang.compile"))),
        (
            "lang.us_per_kb",
            per(
                ledger.secs("lang.compile"),
                ledger.get("lang.bytes"),
                1e6 * 1024.0,
            ),
        ),
        ("analysis.analyze_ms", ms(ledger.secs("analysis.analyze"))),
        ("analysis.races_ms", ms(ledger.secs("analysis.races"))),
        ("transform.plan_ms", ms(ledger.secs("transform.plan"))),
        ("layout.build_ms", ms(ledger.secs("layout.build"))),
        ("interp.bytecode_ms", ms(ledger.secs("interp.bytecode"))),
        ("interp.run_ms", ms(ledger.secs("interp.run"))),
        ("interp.instructions", instrs as f64),
        (
            "interp.ns_per_instr",
            per(ledger.secs("interp.run"), instrs, 1e9),
        ),
        ("interp.steals", ledger.get("interp.steals") as f64),
        ("sim.access_ms", ms(ledger.secs("sim.access"))),
        ("sim.ns_per_ref", per(ledger.secs("sim.access"), refs, 1e9)),
        ("machine.record_ms", ms(ledger.secs("machine.record"))),
        (
            "machine.ns_per_ref",
            per(ledger.secs("machine.record"), refs, 1e9),
        ),
        ("core.jobs", core.jobs as f64),
        ("core.interpretations", core.interpretations as f64),
        (
            "core.jobs_per_interpretation",
            if core.interpretations == 0 {
                0.0
            } else {
                core.jobs as f64 / core.interpretations as f64
            },
        ),
        ("core.trace_groups", core.trace_groups as f64),
        ("core.segments", core.segments as f64),
        ("world.fe_hit_ratio", serve.fe_hit_ratio),
        ("world.trace_hit_ratio", serve.trace_hit_ratio),
        ("world.result_hit_ratio", serve.result_hit_ratio),
        ("world.lint_hit_ratio", serve.lint_hit_ratio),
        ("world.entries", serve.entries),
        (
            "serve.simulate.handle_p50_ms",
            serve.handle_p50_ms("simulate"),
        ),
        ("serve.lint.handle_p50_ms", serve.handle_p50_ms("lint")),
        ("serve.change.handle_p50_ms", serve.handle_p50_ms("change")),
        ("serve.plan.handle_p50_ms", serve.handle_p50_ms("plan")),
        ("serve.wire_p50_ms", serve.wire_p50_ms),
        ("serve.response_bytes", serve.response_bytes),
        ("bench.client_floor_ms", client_floor_ms),
        (
            "trace.overhead_frac",
            1.0 - cov.traced_spans / cov.traced_wall.max(1e-9),
        ),
        (
            "trace.unattributed_frac",
            1.0 - cov.attributed / cov.untraced.max(1e-9),
        ),
    ]
}
