//! Seeded-race mutants and clean controls for lint validation.
//!
//! Each mutant plants one specific synchronization defect (dropped lock,
//! split lock, dropped barrier, barrier under a branch, overlapping
//! chunk partition, per-process element lock on a global, missing
//! phase-separating barrier) and records which diagnostic codes the
//! static lint must emit for it. The paired controls repair the defect
//! and must lint clean. `fsr-lint --validate` checks the static
//! verdicts and replays each mutant's recorded trace to confirm the
//! seeded races dynamically with the happens-before checker.

/// One seeded-race program (or its repaired control).
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    pub name: &'static str,
    pub source: &'static str,
    /// Diagnostic codes the static lint must emit — exactly this set.
    pub expected: &'static [&'static str],
    /// Shared objects whose races the dynamic checker must confirm.
    pub racy_objects: &'static [&'static str],
    /// `true` = seeded defect; `false` = clean control.
    pub seeded: bool,
}

const M1_DROP_LOCK: &str = r#"
// M1: global counter incremented by every process with no lock at all.
param NPROC = 4;
param SCALE = 1;
shared int hot;
shared int acc[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 8 * SCALE {
            hot = hot + 1;
            acc[p] = acc[p] + hot;
        }
    }
}
"#;

const C1_KEEP_LOCK: &str = r#"
// C1: the M1 counter, correctly guarded by one global lock.
param NPROC = 4;
param SCALE = 1;
shared int hot;
shared int acc[NPROC];
shared lock lk;
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 8 * SCALE {
            lock(lk);
            hot = hot + 1;
            acc[p] = acc[p] + hot;
            unlock(lk);
        }
    }
}
"#;

const M2_SPLIT_LOCK: &str = r#"
// M2: two code paths guard the same counter with two different locks.
param NPROC = 4;
param SCALE = 1;
shared int hot;
shared lock la;
shared lock lb;
fn bump_a() {
    lock(la);
    hot = hot + 1;
    unlock(la);
}
fn bump_b() {
    lock(lb);
    hot = hot + 1;
    unlock(lb);
}
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 4 * SCALE {
            bump_a();
            bump_b();
        }
    }
}
"#;

const M3_DROP_BARRIER: &str = r#"
// M3: process 0 initializes a table; everyone reads it with no barrier
// separating the write phase from the read phase.
param NPROC = 4;
param SCALE = 1;
shared int buf[16];
shared int out[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        if (p == 0) {
            var i;
            for i in 0 .. 16 {
                buf[i] = i * 3;
            }
        }
        var j;
        for j in 0 .. 16 {
            out[p] = out[p] + buf[j];
        }
    }
}
"#;

const C2_KEEP_BARRIER: &str = r#"
// C2: the M3 init/read pattern with the separating barrier restored.
param NPROC = 4;
param SCALE = 1;
shared int buf[16];
shared int out[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        if (p == 0) {
            var i;
            for i in 0 .. 16 {
                buf[i] = i * 3;
            }
        }
        barrier;
        var j;
        for j in 0 .. 16 {
            out[p] = out[p] + buf[j];
        }
    }
}
"#;

const M4_BARRIER_IN_BRANCH: &str = r#"
// M4: a barrier under a conditional, so the two arms of the branch
// execute different barrier counts (the condition is uniform across
// processes, so the program still runs without deadlocking).
param NPROC = 4;
param SCALE = 1;
shared int total;
shared int turn[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 6 {
            if (i % 3 == 0) {
                total = total + 1;
                barrier;
            }
            turn[p] = turn[p] + i;
            barrier;
        }
    }
}
"#;

const M5_OVERLAPPING_CHUNKS: &str = r#"
// M5: a block partition widened by one element, so adjacent processes'
// chunks overlap at the seam.
param NPROC = 4;
param SCALE = 1;
const N = NPROC * 16 + 1;
shared int d[N];
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in p * 16 .. p * 16 + 17 {
            d[i] = d[i] + 1;
        }
    }
}
"#;

const M6_WRONG_ELEMENT_LOCK: &str = r#"
// M6: each process takes its *own* lock element before touching a
// global counter — mutual exclusion in form, not in fact.
param NPROC = 4;
param SCALE = 1;
shared int hot;
shared lock lk[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 8 * SCALE {
            lock(lk[p]);
            hot = hot + 1;
            unlock(lk[p]);
        }
    }
}
"#;

const C3_COMMON_ELEMENT_LOCK: &str = r#"
// C3: the M6 pattern repaired — every process takes the same element.
param NPROC = 4;
param SCALE = 1;
shared int hot;
shared lock lk[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var i;
        for i in 0 .. 8 * SCALE {
            lock(lk[0]);
            hot = hot + 1;
            unlock(lk[0]);
        }
    }
}
"#;

const M7_MISSING_SECOND_BARRIER: &str = r#"
// M7: producer/consumer timestep loop with only one barrier per
// iteration — the next iteration's produce races the previous
// iteration's consume.
param NPROC = 4;
param SCALE = 1;
shared int val;
shared int ts[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var t;
        for t in 0 .. 4 {
            if (p == 0) {
                val = t;
            }
            barrier;
            ts[p] = ts[p] + val;
        }
    }
}
"#;

const C4_BOTH_BARRIERS: &str = r#"
// C4: the M7 timestep loop with both barriers — produce and consume
// land in alternating phases and never collide.
param NPROC = 4;
param SCALE = 1;
shared int val;
shared int ts[NPROC];
fn main() {
    forall p in 0 .. NPROC {
        var t;
        for t in 0 .. 4 {
            if (p == 0) {
                val = t;
            }
            barrier;
            ts[p] = ts[p] + val;
            barrier;
        }
    }
}
"#;

/// The full suite: seven seeded mutants interleaved with their controls.
pub fn all() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "m1_drop_lock",
            source: M1_DROP_LOCK,
            expected: &["FSR-W001"],
            racy_objects: &["hot"],
            seeded: true,
        },
        Mutant {
            name: "c1_keep_lock",
            source: C1_KEEP_LOCK,
            expected: &[],
            racy_objects: &[],
            seeded: false,
        },
        Mutant {
            name: "m2_split_lock",
            source: M2_SPLIT_LOCK,
            expected: &["FSR-W002"],
            racy_objects: &["hot"],
            seeded: true,
        },
        Mutant {
            name: "m3_drop_barrier",
            source: M3_DROP_BARRIER,
            expected: &["FSR-W001"],
            racy_objects: &["buf"],
            seeded: true,
        },
        Mutant {
            name: "c2_keep_barrier",
            source: C2_KEEP_BARRIER,
            expected: &[],
            racy_objects: &[],
            seeded: false,
        },
        Mutant {
            name: "m4_barrier_in_branch",
            source: M4_BARRIER_IN_BRANCH,
            expected: &["FSR-W001", "FSR-W003"],
            racy_objects: &["total"],
            seeded: true,
        },
        Mutant {
            name: "m5_overlapping_chunks",
            source: M5_OVERLAPPING_CHUNKS,
            expected: &["FSR-W001"],
            racy_objects: &["d"],
            seeded: true,
        },
        Mutant {
            name: "m6_wrong_element_lock",
            source: M6_WRONG_ELEMENT_LOCK,
            expected: &["FSR-W002"],
            racy_objects: &["hot"],
            seeded: true,
        },
        Mutant {
            name: "c3_common_element_lock",
            source: C3_COMMON_ELEMENT_LOCK,
            expected: &[],
            racy_objects: &[],
            seeded: false,
        },
        Mutant {
            name: "m7_missing_second_barrier",
            source: M7_MISSING_SECOND_BARRIER,
            expected: &["FSR-W001"],
            racy_objects: &["val"],
            seeded: true,
        },
        Mutant {
            name: "c4_both_barriers",
            source: C4_BOTH_BARRIERS,
            expected: &[],
            racy_objects: &[],
            seeded: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_verdicts_match_expected_codes() {
        for m in all() {
            let prog = fsr_lang::compile_with_params(m.source, &[("NPROC", 4), ("SCALE", 1)])
                .unwrap_or_else(|e| panic!("{}: {}", m.name, e.render(m.source)));
            let a = fsr_analysis::analyze(&prog).unwrap();
            let report = fsr_analysis::detect(&prog, &a);
            let mut got: Vec<&str> = report
                .diagnostics
                .iter()
                .filter_map(|d| d.code.map(|c| c.id()))
                .collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, m.expected, "{}", m.name);
        }
    }

    #[test]
    fn every_mutant_runs_to_completion() {
        for m in all() {
            let prog =
                fsr_lang::compile_with_params(m.source, &[("NPROC", 4), ("SCALE", 1)]).unwrap();
            let plan = fsr_transform::LayoutPlan::unoptimized(64);
            let layout = fsr_layout::Layout::build(&prog, &plan, 4);
            let code = fsr_interp::compile_program(&prog).unwrap();
            let mut sink = fsr_interp::CountingSink::default();
            fsr_interp::run(
                &prog,
                &layout,
                &code,
                fsr_interp::RunConfig::default(),
                &mut sink,
            )
            .unwrap_or_else(|e| panic!("{}: {}", m.name, e));
        }
    }
}
