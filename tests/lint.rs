//! Cross-crate tests of the race & synchronization lint: static
//! verdicts over the ten workloads, dynamic trace confirmation of the
//! designed-in races, and the `refuse_racy` wiring into the transform
//! pipeline. Byte-level stability of `fsr-lint --json` against
//! `tests/golden/lint.json` is checked by `scripts/tier1.sh`.

use fsr_core::{PipelineConfig, PlanSourceSpec, World};
use fsr_interp::HbChecker;
use fsr_lang::ast::{ObjectKind, Program};
use std::collections::BTreeSet;

const PARAMS: &[(&str, i64)] = &[("NPROC", 4), ("SCALE", 1)];

fn lint(name: &str, source: &str) -> (Program, fsr_analysis::RaceReport) {
    let prog = fsr_lang::compile_with_params(source, PARAMS)
        .unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
    let analysis = fsr_analysis::analyze(&prog).unwrap();
    let report = fsr_analysis::detect(&prog, &analysis);
    (prog, report)
}

fn racy_names(prog: &Program, report: &fsr_analysis::RaceReport) -> BTreeSet<String> {
    report
        .racy_objects()
        .iter()
        .map(|&o| prog.object(o).name.clone())
        .collect()
}

/// Shared-data objects with a happens-before race in the program's
/// recorded trace under the unoptimized layout.
fn dynamic_racy_names(source: &str, prog: &Program) -> BTreeSet<String> {
    let params: Vec<(String, i64)> = PARAMS.iter().map(|&(k, v)| (k.into(), v)).collect();
    let plan = PlanSourceSpec::Unoptimized;
    let rec = World::transient()
        .snapshot()
        .record_trace(&source.into(), &params, &plan, &PipelineConfig::default())
        .unwrap();
    let mut checker = HbChecker::new(4);
    rec.trace.replay(&mut checker);
    checker
        .racy_words()
        .iter()
        .filter_map(|&w| rec.layout.attribute(w))
        .filter(|&o| prog.object(o).kind == ObjectKind::SharedData)
        .map(|o| prog.object(o).name.clone())
        .collect()
}

/// The golden facts: which workloads warn, on which objects, with which
/// codes. Everything else must lint clean (zero false positives).
#[test]
fn workload_lint_matches_golden_facts() {
    use fsr_lang::diag::Code;
    let expected: &[(&str, &[(&str, Code)])] = &[
        (
            "maxflow",
            &[
                // Data-dependent node arrays: the relational domain
                // proves their prand-laundered index ranges cover the
                // whole dimension, so the pairs are reported, not
                // suppressed.
                ("excess", Code::UnsynchronizedWriteShare),
                ("height", Code::UnsynchronizedWriteShare),
                ("cap", Code::UnsynchronizedWriteShare),
                ("push_ops", Code::UnsynchronizedWriteShare),
                ("relabel_ops", Code::UnsynchronizedWriteShare),
                ("active_count", Code::LockNotHeldOnAllPaths),
                ("excess_total", Code::LockNotHeldOnAllPaths),
            ],
        ),
        // The shared `val` field is written through data-dependent
        // fan-in indices spanning the whole gate array.
        ("pverify", &[("gates", Code::UnsynchronizedWriteShare)]),
        (
            "raytrace",
            &[
                ("shade_calls", Code::UnsynchronizedWriteShare),
                ("bounce_depth", Code::UnsynchronizedWriteShare),
                ("bound_tests", Code::UnsynchronizedWriteShare),
            ],
        ),
        // Cell accumulators are indexed by particle positions (prand
        // residues mod the cell count — provably full-range).
        (
            "mp3d",
            &[
                ("cell_count", Code::UnsynchronizedWriteShare),
                ("cell_energy", Code::UnsynchronizedWriteShare),
            ],
        ),
        (
            "pthor",
            &[
                ("active", Code::UnsynchronizedWriteShare),
                ("sim_clock", Code::LockNotHeldOnAllPaths),
            ],
        ),
    ];
    for w in fsr_workloads::all() {
        let (prog, report) = lint(w.name, w.source);
        let want = expected
            .iter()
            .find(|(n, _)| *n == w.name)
            .map(|(_, v)| *v)
            .unwrap_or(&[]);
        let got = racy_names(&prog, &report);
        let want_names: BTreeSet<String> = want.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(got, want_names, "{}: racy objects", w.name);
        for (name, code) in want {
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == Some(*code) && d.msg.contains(name)),
                "{}: expected {} on `{}`",
                w.name,
                code.id(),
                name
            );
        }
        // Maxflow additionally carries the data-dependent barrier branch.
        let w003 = report
            .diagnostics
            .count_of(fsr_lang::diag::Code::BarrierCountMismatch);
        assert_eq!(w003, usize::from(w.name == "maxflow"), "{}: W003", w.name);
    }
}

/// Every statically reported workload race really happens in the trace:
/// the happens-before checker confirms each racy object dynamically.
#[test]
fn workload_reports_are_dynamically_confirmed() {
    for name in ["maxflow", "pverify", "raytrace", "mp3d", "pthor"] {
        let w = fsr_workloads::by_name(name).unwrap();
        let (prog, report) = lint(w.name, w.source);
        let stat = racy_names(&prog, &report);
        let dynr = dynamic_racy_names(w.source, &prog);
        let unconfirmed: Vec<&String> = stat.difference(&dynr).collect();
        assert!(
            unconfirmed.is_empty(),
            "{name}: statically reported but not in trace: {unconfirmed:?}"
        );
    }
}

/// Seeded mutants are detected statically and confirmed dynamically;
/// repaired controls are clean on both sides.
#[test]
fn mutant_suite_validates_end_to_end() {
    for m in fsr_workloads::mutants::all() {
        let (prog, report) = lint(m.name, m.source);
        let stat = racy_names(&prog, &report);
        let dynr = dynamic_racy_names(m.source, &prog);
        if m.seeded {
            for obj in m.racy_objects {
                assert!(stat.contains(*obj), "{}: `{obj}` not reported", m.name);
                assert!(dynr.contains(*obj), "{}: `{obj}` not in trace", m.name);
            }
        } else {
            assert!(stat.is_empty(), "{}: control flagged {stat:?}", m.name);
            assert!(dynr.is_empty(), "{}: control raced {dynr:?}", m.name);
        }
    }
}

/// `refuse_racy` flows from `PipelineConfig` into plan construction:
/// with it on, maxflow's genuinely racy counters lose their pad
/// directives while the clean transforms survive.
#[test]
fn refuse_racy_flows_through_pipeline_config() {
    let w = fsr_workloads::by_name("maxflow").unwrap();
    let prog = fsr_lang::compile_with_params(w.source, PARAMS).unwrap();
    let analysis = fsr_analysis::analyze(&prog).unwrap();
    let get = |cfg: &fsr_core::PipelineConfig, name: &str| {
        let mut plan_cfg = cfg.plan_cfg;
        plan_cfg.block_bytes = cfg.block_bytes;
        let plan = fsr_transform::plan_for(&prog, &analysis, &plan_cfg);
        prog.object_by_name(name)
            .and_then(|(oid, _)| plan.get(oid).cloned())
    };
    let default_cfg = fsr_core::PipelineConfig::with_block(64);
    let mut strict_cfg = fsr_core::PipelineConfig::with_block(64);
    strict_cfg.plan_cfg.refuse_racy = true;
    // Default keeps the paper's behaviour: racy counters still padded.
    assert_eq!(
        get(&default_cfg, "active_count"),
        Some(fsr_transform::ObjPlan::PadElems)
    );
    // Strict mode refuses to pad objects the lint proved racy.
    assert_eq!(get(&strict_cfg, "active_count"), None);
    assert_eq!(get(&strict_cfg, "excess_total"), None);
    // Non-racy directives are untouched.
    assert_eq!(
        get(&default_cfg, "qlock"),
        get(&strict_cfg, "qlock"),
        "lock padding must not depend on refuse_racy"
    );
}
