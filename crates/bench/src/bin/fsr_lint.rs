//! Static race & synchronization lint over the PSL workloads.
//!
//! Every mode reads one `fsr-core` `World`: lint verdicts are its
//! cached race-lint summaries (`Snapshot::lint`, the one `fsr-serve`
//! answers `lint` with), front ends and analyses come from its
//! front-end cache, and the dynamic checks use its recorded reference
//! traces of the unoptimized layout (`Snapshot::record_trace`). No mode
//! compiles, lays out or interprets a program on its own. Modes:
//! - (default) human-readable report over the ten workloads;
//! - `--json` stable machine report (diffed against the checked-in
//!   golden by `scripts/tier1.sh`);
//! - `--refine` same report with dynamic refinement: a recorded
//!   reference trace supplies conflict witnesses that upgrade
//!   statically-unprovable suppressed pairs (`Snapshot::lint_refined` —
//!   the analysis-as-a-service loop);
//! - `--advise` static false-sharing advisor (`FSR-W004`), computed once
//!   per workload from the World's front end, analysis and unoptimized
//!   layout, validated against the simulator's per-object miss taxonomy
//!   of that layout's recorded trace (exit 1 when an object with
//!   false-sharing misses is unflagged, or a flagged object lives in a
//!   block with no false sharing at all);
//! - `--validate` replays every workload's and mutant's recorded trace
//!   under the happens-before trace checker and scores the static lint
//!   against the dynamic ground truth (precision/recall JSON; exit 1 on
//!   a workload false positive, a mutant whose static codes differ from
//!   its expected ones, an unconfirmed seeded race, a dirty control, or
//!   totals below the precision = 1.0 / recall ≥ 0.85 floor).
//!
//! Both dimensions are fixed at `NPROC=4, SCALE=1` so reports are
//! byte-stable.

use fsr_bench::json_str;
use fsr_core::driver::Job;
use fsr_core::{LintSummary, PipelineConfig, PlanSourceSpec, RecordedTrace, Snapshot, World};
use fsr_interp::HbChecker;
use fsr_lang::ast::ObjectKind;
use fsr_workloads as workloads;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

const NPROC: i64 = 4;
const SCALE: i64 = 1;

fn json_list(items: &BTreeSet<String>) -> String {
    let inner: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", inner.join(", "))
}

fn params() -> Vec<(String, i64)> {
    vec![("NPROC".into(), NPROC), ("SCALE".into(), SCALE)]
}

/// The World's race-lint summary for one program (`refine`: with
/// trace-backed refinement).
fn lint(snap: &Snapshot, name: &str, source: &str, refine: bool) -> Arc<LintSummary> {
    let src: Arc<str> = Arc::from(source);
    let summary = if refine {
        snap.lint_refined(&src, &params())
    } else {
        snap.lint(&src, &params())
    };
    summary.unwrap_or_else(|e| panic!("{name}: lint: {e}")).0
}

/// The racy object names of a summary (W001/W002 carriers; W003 is
/// span-only).
fn racy_of(summary: &LintSummary) -> BTreeSet<String> {
    summary.racy.iter().cloned().collect()
}

/// The World's recorded reference trace of one program under the
/// unoptimized layout at the default config.
fn unoptimized_trace(snap: &Snapshot, name: &str, src: &Arc<str>) -> Arc<RecordedTrace> {
    snap.record_trace(
        src,
        &params(),
        &PlanSourceSpec::Unoptimized,
        &PipelineConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{name}: run: {e}"))
}

/// One program's lint summary and its dynamic ground truth: the
/// shared-data objects with at least one happens-before race in its
/// recorded trace. Lock words and private data are filtered out via
/// layout attribution.
fn judge(snap: &Snapshot, name: &str, source: &str) -> (Arc<LintSummary>, BTreeSet<String>) {
    let summary = lint(snap, name, source, false);
    let src: Arc<str> = Arc::from(source);
    let fe = snap
        .front_end(&src, &params())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let rec = unoptimized_trace(snap, name, &src);
    let mut checker = HbChecker::new(NPROC as usize);
    rec.trace.replay(&mut checker);
    let mut racy = BTreeSet::new();
    for &word in checker.racy_words() {
        if let Some(oid) = rec.layout.attribute(word) {
            if fe.prog.object(oid).kind == ObjectKind::SharedData {
                racy.insert(fe.prog.object(oid).name.clone());
            }
        }
    }
    (summary, racy)
}

/// `(object label, reason)` pairs as a JSON list, sorted by label (the
/// summary keeps them in (object, field) id order).
fn suppressed_json(suppressed: &[(String, String)]) -> String {
    let mut sorted = suppressed.to_vec();
    sorted.sort();
    let inner: Vec<String> = sorted
        .iter()
        .map(|(o, r)| {
            format!(
                "{{\"object\": {}, \"reason\": {}}}",
                json_str(o),
                json_str(r)
            )
        })
        .collect();
    format!("[{}]", inner.join(", "))
}

fn static_codes(summary: &LintSummary) -> Vec<&'static str> {
    let mut got: Vec<&'static str> = summary
        .diagnostics
        .iter()
        .filter_map(|d| d.code.map(|c| c.id()))
        .collect();
    got.sort_unstable();
    got.dedup();
    got
}

fn human() {
    let snap = World::new().snapshot();
    for w in workloads::all() {
        let summary = lint(&snap, w.name, w.source, false);
        if summary.diagnostics.is_clean() {
            println!(
                "{:<12} clean ({} unprovable pair group(s) suppressed)",
                w.name, summary.suppressed_pairs
            );
        } else {
            println!(
                "{:<12} {} warning(s), {} unprovable pair group(s) suppressed",
                w.name,
                summary.diagnostics.len(),
                summary.suppressed_pairs
            );
            for line in summary.diagnostics.render_all(w.source).lines() {
                println!("    {line}");
            }
        }
    }
}

fn diagnostics_json(out: &mut String, source: &str, diagnostics: &fsr_lang::diag::Diagnostics) {
    for (j, d) in diagnostics.iter().enumerate() {
        let (line, col) = d.span.line_col(source);
        let _ = write!(
            out,
            "{}\n      {{\"code\": {}, \"line\": {line}, \"col\": {col}, \"msg\": {}}}",
            if j == 0 { "" } else { "," },
            json_str(d.code.map(|c| c.id()).unwrap_or("")),
            json_str(&d.msg)
        );
    }
    if !diagnostics.is_empty() {
        out.push_str("\n    ");
    }
}

/// `--json` (and, with `refined`, `--refine`): the machine report over
/// the ten workloads, suppressed groups sorted by label. `--refine`
/// recomputes every summary with trace-backed refinement and lists each
/// workload's racy objects: suppressed pairs whose conflict is
/// witnessed in the recorded reference trace are upgraded to reported
/// races (locusroute's partition array `grid` is the motivating case:
/// its index ranges come from run-time partition values the static
/// domain cannot bound).
fn report_json(refined: bool) {
    let snap = World::new().snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"nproc\": {NPROC},\n  \"scale\": {SCALE},\n{}  \"workloads\": [\n",
        if refined {
            "  \"refined\": true,\n"
        } else {
            ""
        }
    ));
    let ws = workloads::all();
    for (i, w) in ws.iter().enumerate() {
        let summary = lint(&snap, w.name, w.source, refined);
        let racy = if refined {
            format!("\"racy\": {}, ", json_list(&racy_of(&summary)))
        } else {
            String::new()
        };
        let _ = write!(
            out,
            "    {{\"name\": {}, {racy}\"suppressed_pairs\": {}, \"suppressed\": {}, \"diagnostics\": [",
            json_str(w.name),
            summary.suppressed_pairs,
            suppressed_json(&summary.suppressed)
        );
        diagnostics_json(&mut out, w.source, &summary.diagnostics);
        out.push_str(if i + 1 == ws.len() { "]}\n" } else { "]},\n" });
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

/// `--advise`: run the static false-sharing advisor, then validate it
/// against the simulator's per-object miss taxonomy under the
/// unoptimized layout. The agreement contract (see `fsr-transform`'s
/// `advise` docs): every object with false-sharing misses must be
/// flagged (completeness, per object); every flagged object must share
/// an unoptimized block with measured false sharing (soundness, per
/// block — within a block, miss attribution is interleaving noise).
/// The simulation replays the trace whose layout the advisor read, so
/// each workload is compiled, analyzed and interpreted once.
fn advise() -> i32 {
    use fsr_lang::ast::ObjId;
    let snap = World::new().snapshot();
    let mut fail = false;
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"nproc\": {NPROC},\n  \"scale\": {SCALE},\n  \"workloads\": [\n"
    ));
    let cfg = PipelineConfig::default();
    let plan_cfg = fsr_transform::PlanConfig::with_block(cfg.block_bytes);
    let ws = workloads::all();
    for (i, w) in ws.iter().enumerate() {
        let src: Arc<str> = Arc::from(w.source);
        let fe = snap
            .front_end(&src, &params())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let prog = &fe.prog;
        let analysis = fe
            .analysis()
            .unwrap_or_else(|e| panic!("{}: analysis: {e}", w.name));
        let trace = unoptimized_trace(&snap, w.name, &src);
        let regions: Vec<(ObjId, u32, u32)> = trace
            .layout
            .regions()
            .iter()
            .map(|r| {
                (
                    r.obj,
                    r.start_word * fsr_lang::ast::WORD_BYTES,
                    r.end_word * fsr_lang::ast::WORD_BYTES,
                )
            })
            .collect();
        let advice = fsr_transform::advise(prog, &analysis, &plan_cfg, &regions);
        let diags = fsr_transform::advise_diagnostics(prog, &advice);
        let job = Job {
            meta: (),
            src: src.clone(),
            params: params(),
            plan: PlanSourceSpec::Unoptimized,
            cfg: cfg.clone(),
        };
        let res = snap
            .run_batch_with_stats(vec![job], 1)
            .0
            .remove(0)
            .1
            .unwrap_or_else(|e| panic!("{}: pipeline: {e:?}", w.name));
        let fs_of = |name: &str| {
            res.per_obj
                .get(name)
                .map(|m| m.false_sharing())
                .unwrap_or(0)
        };
        let block = |b: u32| b / cfg.block_bytes;
        let shares_block = |a: ObjId, b: ObjId| {
            regions.iter().filter(|r| r.0 == a).any(|&(_, s1, e1)| {
                regions.iter().filter(|r| r.0 == b).any(|&(_, s2, e2)| {
                    block(e1.saturating_sub(1)) >= block(s2)
                        && block(s1) <= block(e2.saturating_sub(1))
                })
            })
        };
        let mut rows = String::new();
        let mut agree = true;
        for (j, obj) in prog.objects.iter().enumerate() {
            let oid = ObjId(j as u32);
            if !matches!(obj.kind, ObjectKind::SharedData | ObjectKind::Lock) {
                continue;
            }
            let fs = fs_of(&obj.name);
            let rec = advice
                .iter()
                .find(|a| a.obj == oid)
                .map(|a| a.recommendation);
            // Completeness: measured false sharing must be flagged.
            if fs > 0 && rec.is_none() {
                agree = false;
                eprintln!(
                    "FAIL {}: `{}` has {fs} false-sharing misses but no advice",
                    w.name, obj.name
                );
            }
            // Soundness: advice must point at a block that false-shares.
            if let Some(r) = rec {
                let block_fs = prog
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| shares_block(oid, ObjId(*k as u32)))
                    .map(|(_, o)| fs_of(&o.name))
                    .sum::<u64>();
                if block_fs == 0 {
                    agree = false;
                    eprintln!(
                        "FAIL {}: `{}` advised ({r}) but its blocks have no false sharing",
                        w.name, obj.name
                    );
                }
            }
            let _ = write!(
                rows,
                "{}\n      {{\"object\": {}, \"fs_misses\": {fs}, \"flagged\": {}, \"recommendation\": {}}}",
                if rows.is_empty() { "" } else { "," },
                json_str(&obj.name),
                rec.is_some(),
                rec.map(json_str).unwrap_or_else(|| "null".into())
            );
        }
        fail |= !agree;
        let _ = write!(
            out,
            "    {{\"name\": {}, \"agree\": {agree}, \"objects\": [{rows}\n    ], \"diagnostics\": [",
            json_str(w.name)
        );
        diagnostics_json(&mut out, w.source, &diags);
        out.push_str(if i + 1 == ws.len() { "]}\n" } else { "]},\n" });
    }
    out.push_str("  ]\n}");
    println!("{out}");
    i32::from(fail)
}

fn validate() -> i32 {
    let snap = World::new().snapshot();
    let mut out = String::new();
    let mut fail = false;
    let (mut tp, mut fp, mut fne) = (0usize, 0usize, 0usize);
    out.push_str(&format!(
        "{{\n  \"nproc\": {NPROC},\n  \"scale\": {SCALE},\n  \"workloads\": [\n"
    ));
    let ws = workloads::all();
    for (i, w) in ws.iter().enumerate() {
        let (summary, dynr) = judge(&snap, w.name, w.source);
        let stat = racy_of(&summary);
        let wtp = stat.intersection(&dynr).count();
        let wfp = stat.difference(&dynr).count();
        let wfn = dynr.difference(&stat).count();
        tp += wtp;
        fp += wfp;
        fne += wfn;
        if wfp > 0 {
            fail = true;
            eprintln!(
                "FAIL {}: static-only (unconfirmed) races: {:?}",
                w.name,
                stat.difference(&dynr).collect::<Vec<_>>()
            );
        }
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"static\": {}, \"dynamic\": {}, \"tp\": {wtp}, \"fp\": {wfp}, \"fn\": {wfn}}}{}",
            json_str(w.name),
            json_list(&stat),
            json_list(&dynr),
            if i + 1 == ws.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"mutants\": [\n");
    let ms = workloads::mutants::all();
    for (i, m) in ms.iter().enumerate() {
        let (summary, dynr) = judge(&snap, m.name, m.source);
        let stat = racy_of(&summary);
        let got = static_codes(&summary);
        let codes_ok = got == m.expected;
        let confirmed = if m.seeded {
            // Every planted racy object must be flagged statically AND
            // race in the trace.
            m.racy_objects
                .iter()
                .all(|o| stat.contains(*o) && dynr.contains(*o))
        } else {
            // Controls must be clean on both sides.
            stat.is_empty() && dynr.is_empty()
        };
        if !codes_ok || !confirmed {
            fail = true;
            eprintln!(
                "FAIL {}: codes_ok={codes_ok} (expected {:?}, got {:?}) confirmed={confirmed} \
                 static={stat:?} dynamic={dynr:?}",
                m.name, m.expected, got
            );
        }
        let mtp = stat.intersection(&dynr).count();
        let mfp = stat.difference(&dynr).count();
        let mfn = dynr.difference(&stat).count();
        tp += mtp;
        fp += mfp;
        fne += mfn;
        let codes: Vec<String> = got.iter().map(|c| json_str(c)).collect();
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"seeded\": {}, \"codes\": [{}], \"codes_ok\": {codes_ok}, \
             \"static\": {}, \"dynamic\": {}, \"confirmed\": {confirmed}}}{}",
            json_str(m.name),
            m.seeded,
            codes.join(", "),
            json_list(&stat),
            json_list(&dynr),
            if i + 1 == ms.len() { "" } else { "," }
        );
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fne == 0 {
        1.0
    } else {
        tp as f64 / (tp + fne) as f64
    };
    let _ = write!(
        out,
        "  ],\n  \"totals\": {{\"tp\": {tp}, \"fp\": {fp}, \"fn\": {fne}, \
         \"precision\": {precision:.3}, \"recall\": {recall:.3}}}\n}}"
    );
    println!("{out}");
    // The headline floor `scripts/tier1.sh` gates on: no unconfirmed
    // static report anywhere, and at least 85% of the dynamically
    // confirmed races recovered statically.
    if precision < 1.0 {
        eprintln!("FAIL precision {precision:.3} < 1.000");
        fail = true;
    }
    if recall < 0.85 {
        eprintln!("FAIL recall {recall:.3} < 0.850");
        fail = true;
    }
    i32::from(fail)
}

fn main() {
    let mode = std::env::args().nth(1);
    let code = match mode.as_deref() {
        None => {
            human();
            0
        }
        Some("--json") => {
            report_json(false);
            0
        }
        Some("--refine") => {
            report_json(true);
            0
        }
        Some("--advise") => advise(),
        Some("--validate") => validate(),
        Some(other) => {
            eprintln!("unknown mode {other}; use --json, --refine, --advise or --validate");
            2
        }
    };
    std::process::exit(code);
}
