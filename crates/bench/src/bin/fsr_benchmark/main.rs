//! `fsr_benchmark`: the repository benchmark, end to end and per layer.
//!
//! ```text
//! fsr_benchmark [--workload W] [--seed S] [--trace [0|1]] [--runs N]
//!               [--check] [--calibrate N] [--size full|tiny] [--out DIR]
//! ```
//!
//! Every run does a fixed amount of work. With `--workload`, one run of
//! that workload in this process: a metric table on stderr and, as the
//! last line of stdout, one JSON object `{"correct", "attempted",
//! "failed", "metrics"}` carrying every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric). Without it (or with `--runs
//! N`), every selected workload runs `N` times, each run in its own child
//! process so memory is measured per workload; medians are printed and
//! written to `DIR/results.json`. `--check` compares every output digest
//! of a run at the pinned seed with the ones pinned in
//! `calibration.json`; `--calibrate N` measures every workload `N` times
//! and rewrites the bounds in `BENCHMARK.json` and the baselines and
//! digests in `calibration.json`. See README.md next to this file.

mod client;
mod gen;
mod layers;
mod run;
mod serve;
mod stats;

use fsr_serve::json::{self, Value};
use run::{Opts, Pinned, Report, Size, FULL, TINY, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Pinned digests, seed-commit baselines and the machine they came from.
const CALIBRATION: &str = include_str!("calibration.json");
const CALIBRATION_PATH: &str = "crates/bench/src/bin/fsr_benchmark/calibration.json";
const BENCHMARK_PATH: &str = "BENCHMARK.json";
/// About how long one run's timed work lasts at the seed commit.
const RUN_SECONDS: u32 = 15;
/// A regression bound is at least this share of the median ...
const BOUND_FLOOR: f64 = 0.03;
/// ... and at most this one. A metric whose calibration spread would
/// need more does not repeat well enough to guard anything: calibration
/// reports it as unresolved and fails.
const BOUND_CAP: f64 = 0.10;

const WHY: [(&str, &str); 4] = [
    (
        "paper-suite",
        "The paper reproduction users run (fig3, table2, headline, table3) on fresh worlds: \
         interpreter-bound, heavy trace sharing, 1-56 processes",
    ),
    (
        "serve-sweep",
        "2 TCP clients sweep cache configs over primed traces: no interpretation, so the \
         simulator, timing replay, World caches, JSON and the wire dominate",
    ),
    (
        "serve-edit",
        "2 TCP clients send change-lint-plan triples: the write path through cache \
         invalidation, front end, analysis, race lint and planning",
    ),
    (
        "solo-cells",
        "One-job batches at NPROC=48 under round-robin and work-stealing: the only \
         within-unit sharded path and the only work-stealing schedule",
    ),
];

/// (name, unit, better) of every end-to-end metric.
const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// (name, unit, better) of every per-layer metric.
const PER_LAYER: [(&str, &str, &str); 34] = [
    ("lang.compile_ms", "ms", "lower"),
    ("lang.us_per_kb", "us/KB", "lower"),
    ("analysis.analyze_ms", "ms", "lower"),
    ("analysis.races_ms", "ms", "lower"),
    ("transform.plan_ms", "ms", "lower"),
    ("layout.build_ms", "ms", "lower"),
    ("interp.bytecode_ms", "ms", "lower"),
    ("interp.run_ms", "ms", "lower"),
    ("interp.instructions", "count", "lower"),
    ("interp.ns_per_instr", "ns", "lower"),
    ("interp.steals", "count", "lower"),
    ("sim.access_ms", "ms", "lower"),
    ("sim.ns_per_ref", "ns", "lower"),
    ("machine.record_ms", "ms", "lower"),
    ("machine.ns_per_ref", "ns", "lower"),
    ("core.jobs", "count", "lower"),
    ("core.interpretations", "count", "lower"),
    ("core.jobs_per_interpretation", "ratio", "higher"),
    ("core.trace_groups", "count", "lower"),
    ("core.segments", "count", "lower"),
    ("world.fe_hit_ratio", "ratio", "higher"),
    ("world.trace_hit_ratio", "ratio", "higher"),
    ("world.result_hit_ratio", "ratio", "higher"),
    ("world.lint_hit_ratio", "ratio", "higher"),
    ("world.entries", "count", "lower"),
    ("serve.simulate.handle_p50_ms", "ms", "lower"),
    ("serve.lint.handle_p50_ms", "ms", "lower"),
    ("serve.change.handle_p50_ms", "ms", "lower"),
    ("serve.plan.handle_p50_ms", "ms", "lower"),
    ("serve.wire_p50_ms", "ms", "lower"),
    ("serve.response_bytes", "bytes", "lower"),
    ("bench.client_floor_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
];

const USAGE: &str = "usage: fsr_benchmark [--workload W] [--seed S] [--trace [0|1]] \
                     [--runs N] [--check] [--calibrate N] [--size full|tiny] \
                     [--out DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    runs: Option<usize>,
    check: bool,
    calibrate: Option<usize>,
    size: &'static Size,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        trace: false,
        runs: None,
        check: false,
        calibrate: None,
        size: &FULL,
        out: PathBuf::from("fsr_benchmark.out"),
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| it.next()) {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` ({})", WORKLOADS.join(", ")));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = number(&value("a number")?)?,
            // Accepted from harnesses that pass a run length, and
            // ignored: a run's work is fixed, so its times compare.
            "--seconds" => {
                let v = value("a number")?;
                v.parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => match it.next() {
                Some(v) if v == "0" || v == "1" => a.trace = v == "1",
                other => {
                    a.trace = true;
                    pending = other;
                }
            },
            "--runs" => a.runs = Some(number(&value("a count")?)?.max(1) as usize),
            "--check" => a.check = true,
            "--calibrate" => a.calibrate = Some(number(&value("a count")?)?.max(1) as usize),
            "--size" => {
                a.size = match value("full or tiny")?.as_str() {
                    "full" => &FULL,
                    "tiny" => &TINY,
                    other => return Err(format!("unknown size `{other}`")),
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn number(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("`{v}` is not a whole number"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fsr_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(n) = args.calibrate {
        calibrate(&args, n)
    } else if args.check {
        check(&args)
    } else if let (Some(w), None) = (&args.workload, args.runs) {
        single(&args, w)
    } else {
        orchestrate(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fsr_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|x| x == *w))
        .collect()
}

fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ------------------------------------------------------------------ pinning

/// The pinned digests of `workload` at `size`, from `calibration.json`.
fn pinned(workload: &str, size: &Size) -> Option<Pinned> {
    let cal = json::parse(CALIBRATION).expect("calibration.json is valid JSON");
    let p = cal
        .get("workloads")?
        .get(workload)?
        .get("pinned")?
        .get(size.name)?;
    Some(Pinned {
        seed: p.get("seed")?.as_i64()? as u64,
        cells: p
            .get("cells")?
            .as_arr()?
            .iter()
            .filter_map(|c| {
                let c = c.as_arr()?;
                Some((
                    c.first()?.as_str()?.to_string(),
                    c.get(1)?.as_str()?.to_string(),
                ))
            })
            .collect(),
    })
}

/// An untraced run at `seed` that checks nothing against pinned
/// digests, for pinning them and for `--check`.
fn unpinned_run(workload: &str, size: &Size, seed: u64) -> Result<Report, String> {
    run::run(
        workload,
        &Opts {
            seed,
            size,
            trace: false,
            pinned: None,
        },
    )
}

fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in selected(args) {
        let Some(pin) = pinned(w, args.size) else {
            return Err(format!(
                "no digests pinned for {w} at size {}",
                args.size.name
            ));
        };
        if args.seed != pin.seed {
            return Err(format!(
                "digests are pinned for --seed {}, not {}",
                pin.seed, args.seed
            ));
        }
        let report = unpinned_run(w, args.size, pin.seed)?;
        let got = stats::digest_cells(&report.cells);
        match run::first_difference(&report.cells, &pin.cells) {
            None if report.failed == 0 => eprintln!("check {w}: ok ({got})"),
            None => {
                ok = false;
                eprintln!("check {w}: digests match but checks failed:");
                report.problems.iter().for_each(|p| eprintln!("  {p}"));
            }
            Some(diff) => {
                ok = false;
                eprintln!(
                    "check {w}: MISMATCH {got} vs pinned {}: {diff}",
                    stats::digest_cells(&pin.cells)
                );
            }
        }
    }
    Ok(ok)
}

// ------------------------------------------------------------- single runs

fn single(args: &Args, workload: &str) -> Result<bool, String> {
    let pin = pinned(workload, args.size);
    let report = run::run(
        workload,
        &Opts {
            seed: args.seed,
            size: args.size,
            trace: args.trace,
            pinned: pin.as_ref(),
        },
    )?;
    if let Some(spans) = &report.spans {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("{workload}.spans.jsonl"));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values: BTreeMap<&str, f64> = report.metrics.iter().copied().collect();
    eprintln!(
        "fsr_benchmark: {workload} seed={} trace={} size={} detected_cores={}",
        args.seed,
        u8::from(args.trace),
        args.size.name,
        detected_cores()
    );
    let mut metrics = Vec::new();
    for &(name, unit, _) in table {
        let v = *values
            .get(name)
            .ok_or(format!("{workload} did not report {name}"))?;
        if !v.is_finite() {
            return Err(format!("{workload}: {name} is {v}"));
        }
        eprintln!("  {name:<30} {v:>14.4} {unit}");
        metrics.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".to_string(), Value::Num(v)),
                ("unit".to_string(), Value::str(unit)),
            ]),
        ));
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    for p in &report.problems {
        eprintln!("  FAILED: {p}");
    }
    eprintln!(
        "  correct={correct} attempted={} failed={}",
        report.attempted, report.failed
    );
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(report.attempted as i64)),
        ("failed".to_string(), Value::Int(report.failed as i64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(true)
}

/// One run of `workload` in a child process; its result line.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--size", args.size.name])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} run failed ({})", out.status));
    }
    json::parse(last).map_err(|e| format!("{workload}: bad result line `{last}`: {e}"))
}

fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| {
            let x = match v.get("value")? {
                Value::Num(x) => *x,
                Value::Int(i) => *i as f64,
                _ => return None,
            };
            Some((k.clone(), x))
        })
        .collect()
}

/// Median, quartiles (as `stats::quartiles` gives them) and sample
/// count of one metric over runs.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let s = stats::sorted(values);
        let (q1, q3) = stats::quartiles(&s);
        Summary {
            median: stats::quantile(&s, 0.5),
            q1,
            q3,
            n: s.len(),
        }
    }

    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn json(&self) -> Value {
        Value::Obj(vec![
            ("median".to_string(), Value::Num(self.median)),
            ("q1".to_string(), Value::Num(self.q1)),
            ("q3".to_string(), Value::Num(self.q3)),
            ("n".to_string(), Value::Int(self.n as i64)),
        ])
    }
}

/// Untraced runs `1..=runs` (seeds `1..=runs`) of `workload` in
/// children: every metric's summary, and whether every run was correct.
fn measure(
    args: &Args,
    workload: &str,
    runs: usize,
) -> Result<(Vec<(String, Summary)>, bool), String> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut correct = true;
    for seed in 1..=runs as u64 {
        let r = child(args, workload, seed, false)?;
        correct &= r.get("correct").and_then(Value::as_bool) == Some(true);
        for (k, v) in metric_values(&r) {
            samples.entry(k).or_default().push(v);
        }
    }
    let summaries = END_TO_END
        .iter()
        .filter_map(|&(name, ..)| Some((name.to_string(), Summary::of(samples.get(name)?))))
        .collect();
    Ok((summaries, correct))
}

fn orchestrate(args: &Args) -> Result<bool, String> {
    let runs = args.runs.unwrap_or(1);
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in selected(args) {
        let (summaries, correct) = measure(args, w, runs)?;
        all_correct &= correct;
        eprintln!("== {w}: {runs} run(s), correct={correct}");
        for (name, s) in &summaries {
            let unit = END_TO_END.iter().find(|m| m.0 == name).map_or("", |m| m.1);
            eprintln!(
                "  {name:<14} median {:>12.4} {unit:<3} [q1 {:.4}, q3 {:.4}] spread {:.3}",
                s.median,
                s.q1,
                s.q3,
                s.spread()
            );
        }
        let mut fields = vec![
            ("correct".to_string(), Value::Bool(correct)),
            (
                "end_to_end".to_string(),
                Value::Obj(
                    summaries
                        .iter()
                        .map(|(n, s)| (n.clone(), s.json()))
                        .collect(),
                ),
            ),
        ];
        if args.trace {
            let t = child(args, w, args.seed, true)?;
            all_correct &= t.get("correct").and_then(Value::as_bool) == Some(true);
            fields.push((
                "per_layer".to_string(),
                t.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        results.push((w.to_string(), Value::Obj(fields)));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("results.json");
    std::fs::write(&path, format!("{}\n", Value::Obj(results)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

// -------------------------------------------------------------- calibration

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    f.push($name);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f");
        f
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The bound of one metric from its calibration spreads: twice the
/// widest quartile spread seen on any workload, and at least
/// [`BOUND_FLOOR`]; `Err` with that bound when it exceeds [`BOUND_CAP`].
/// One bound covers every workload, so the noisiest one sets it.
fn bound_of(spreads: &[f64]) -> Result<f64, f64> {
    let widest = spreads.iter().copied().fold(0.0, f64::max);
    let b = ((2.0 * widest).max(BOUND_FLOOR) * 100.0).ceil() / 100.0;
    if b <= BOUND_CAP {
        Ok(b)
    } else {
        Err(b)
    }
}

fn calibrate(args: &Args, runs: usize) -> Result<bool, String> {
    if !Path::new(CALIBRATION_PATH).exists() {
        return Err("run --calibrate from the repository root".to_string());
    }
    let mut workloads = Vec::new();
    let mut spreads: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for w in WORKLOADS {
        let (summaries, correct) = measure(args, w, runs)?;
        ok &= correct;
        let traced = child(args, w, 1, true)?;
        ok &= traced.get("correct").and_then(Value::as_bool) == Some(true);
        let traced_values = metric_values(&traced);
        let mut pins = Vec::new();
        for size in [&FULL, &TINY] {
            let report = unpinned_run(w, size, 1)?;
            ok &= report.failed == 0;
            let cells = report
                .cells
                .iter()
                .map(|(l, d)| Value::Arr(vec![Value::str(l), Value::str(d)]))
                .collect();
            pins.push((
                size.name.to_string(),
                Value::Obj(vec![
                    ("seed".to_string(), Value::Int(1)),
                    (
                        "digest".to_string(),
                        Value::str(stats::digest_cells(&report.cells)),
                    ),
                    ("cells".to_string(), Value::Arr(cells)),
                ]),
            ));
        }
        let mut baseline = Vec::new();
        for (name, s) in &summaries {
            let &(n, ..) = END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .expect("known metric");
            spreads.entry(n).or_default().push(s.spread());
            baseline.push((name.clone(), s.json()));
        }
        eprintln!("calibrated {w}: correct={correct}");
        workloads.push((
            w.to_string(),
            Value::Obj(vec![
                ("baseline".to_string(), Value::Obj(baseline)),
                (
                    "per_layer".to_string(),
                    Value::Obj(
                        PER_LAYER
                            .iter()
                            .filter_map(|&(n, ..)| {
                                Some((n.to_string(), Value::Num(*traced_values.get(n)?)))
                            })
                            .collect(),
                    ),
                ),
                ("pinned".to_string(), Value::Obj(pins)),
            ]),
        ));
    }
    let mut unresolved = Vec::new();
    let bounds: Vec<(&str, f64)> = END_TO_END
        .iter()
        .map(|&(name, ..)| {
            let seen = spreads.get(name).map_or(&[][..], Vec::as_slice);
            let b = bound_of(seen).unwrap_or_else(|needed| {
                eprintln!(
                    "unresolved: {name} spreads {seen:?} need a bound of {needed}, over {BOUND_CAP}"
                );
                unresolved.push(Value::str(name));
                BOUND_CAP
            });
            (name, b)
        })
        .collect();
    ok &= unresolved.is_empty();
    let cal = Value::Obj(vec![
        (
            "machine".to_string(),
            Value::Obj(vec![
                (
                    "detected_cores".to_string(),
                    Value::Int(detected_cores() as i64),
                ),
                ("rustc".to_string(), Value::str(rustc_version())),
                (
                    "cpu_features".to_string(),
                    Value::Arr(cpu_features().into_iter().map(Value::str).collect()),
                ),
            ]),
        ),
        ("runs".to_string(), Value::Int(runs as i64)),
        ("unresolved".to_string(), Value::Arr(unresolved)),
        ("workloads".to_string(), Value::Obj(workloads)),
    ]);
    std::fs::write(CALIBRATION_PATH, pretty(&cal, 0) + "\n")
        .map_err(|e| format!("{CALIBRATION_PATH}: {e}"))?;
    std::fs::write(BENCHMARK_PATH, benchmark_json(&bounds))
        .map_err(|e| format!("{BENCHMARK_PATH}: {e}"))?;
    eprintln!("wrote {CALIBRATION_PATH} and {BENCHMARK_PATH}");
    for (name, b) in &bounds {
        eprintln!("  bound {name:<14} {b}");
    }
    Ok(ok)
}

/// JSON with one object member per line; arrays of scalars stay on one
/// line, so pinned cells read as `["label", "digest"]`.
fn pretty(v: &Value, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Obj(fields) if !fields.is_empty() => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, x)| format!("{pad}{}: {}", Value::str(k), pretty(x, indent + 1)))
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(indent))
        }
        Value::Arr(items)
            if items
                .iter()
                .any(|x| matches!(x, Value::Arr(_) | Value::Obj(_))) =>
        {
            let body: Vec<String> = items
                .iter()
                .map(|x| format!("{pad}{}", pretty(x, indent + 1)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), "  ".repeat(indent))
        }
        other => other.to_string(),
    }
}

/// `BENCHMARK.json`, from this file's tables and the given bounds.
fn benchmark_json(bounds: &[(&str, f64)]) -> String {
    let s = |x: &str| Value::str(x).to_string();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "-p",
        "fsr-bench",
        "--bin",
        "fsr_benchmark",
        "--",
    ];
    let workloads: Vec<String> = WHY
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", s(n), s(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|&(n, unit, better)| {
            let bound = bounds.iter().find(|b| b.0 == n).map_or(0.1, |b| b.1);
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                s(n),
                s(unit),
                s(better)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|&(n, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                s(n),
                s(unit),
                s(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/bench/src/bin/fsr_benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.map(s).join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str) -> Report {
        let pin = pinned(workload, &TINY);
        run::run(
            workload,
            &Opts {
                seed: 1,
                size: &TINY,
                trace: false,
                pinned: pin.as_ref(),
            },
        )
        .unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        let v = json::parse(committed).expect("BENCHMARK.json parses");
        let bounds: Vec<(&str, f64)> = END_TO_END
            .iter()
            .map(|&(name, ..)| {
                let b = v
                    .get("end_to_end")
                    .and_then(Value::as_arr)
                    .and_then(|a| {
                        a.iter()
                            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
                    })
                    .and_then(|m| m.get("bound"))
                    .and_then(|b| match b {
                        Value::Num(x) => Some(*x),
                        Value::Int(i) => Some(*i as f64),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("BENCHMARK.json lacks a bound for {name}"));
                (name, b)
            })
            .collect();
        assert_eq!(committed, benchmark_json(&bounds));
    }

    #[test]
    fn tiny_runs_of_every_workload_match_their_pinned_digests() {
        for w in WORKLOADS {
            let report = tiny(w);
            assert_eq!(report.failed, 0, "{w}: {:?}", report.problems);
            let pin = pinned(w, &TINY).unwrap_or_else(|| panic!("{w}: no tiny digests pinned"));
            assert_eq!(
                run::first_difference(&report.cells, &pin.cells),
                None,
                "{w}"
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{w}");
        }
    }

    #[test]
    fn serve_sweep_digest_repeats_across_runs() {
        let a = tiny("serve-sweep");
        let b = tiny("serve-sweep");
        assert!(!a.cells.is_empty());
        assert_eq!(stats::digest_cells(&a.cells), stats::digest_cells(&b.cells));
    }

    #[test]
    fn traced_runs_report_every_layer_and_replay_exactly() {
        // paper-suite's traced run rebuilds its rows from its own jobs,
        // which must reproduce the pinned rows of the experiments.
        for w in ["paper-suite", "solo-cells", "serve-edit"] {
            let pin = pinned(w, &TINY);
            let report = run::run(
                w,
                &Opts {
                    seed: 3,
                    size: &TINY,
                    trace: true,
                    pinned: pin.as_ref(),
                },
            )
            .unwrap_or_else(|e| panic!("{w}: {e}"));
            assert_eq!(report.failed, 0, "{w}: {:?}", report.problems);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{w}");
            assert!(report.spans.is_some_and(|s| !s.is_empty()), "{w}");
        }
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-edit --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.trace),
            (Some("serve-edit"), 7, true)
        );
        assert!(parse("--trace --check").unwrap().trace);
        assert!(!parse("--trace 0").unwrap().trace);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--size huge",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
