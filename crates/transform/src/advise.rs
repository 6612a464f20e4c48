//! Static false-sharing advisor (`FSR-W004`).
//!
//! Predicts, before any simulation, which objects will suffer false
//! sharing under the *unoptimized* layout and names the compile-time
//! transformation that removes it. False sharing is a property of the
//! coherence **block**, not of a single word: a block false-shares when
//! two processes concurrently access different words of it and at least
//! one writes. Which of the block's resident objects the resulting
//! misses are *attributed* to is an accident of interleaving — so the
//! advisor reasons about blocks and flags every meaningfully-accessed
//! object resident in a prone block.
//!
//! Three rules build the flag set:
//!
//! 1. **Planned objects** ([`crate::plan_for`] directives): anything the
//!    §3.3 heuristics would transform is by construction false-sharing
//!    prone; the recommendation is the directive itself. Locks are
//!    always prone (spin words packed with neighbours) — recommend
//!    alignment to a private block.
//! 2. **Write-shared residue**: classes with shared writes and enough
//!    estimated frequency where the §3.3 pad rule backed off only
//!    because of the footprint cap or because unit-stride writes looked
//!    spatially local. Data-dependent write-shared arrays false-share on
//!    whatever block two processes happen to hit (recommend pad &
//!    align); unit-stride write-shared arrays spanning several blocks
//!    false-share at partition boundaries (recommend alignment of the
//!    per-process regions).
//! 3. **Block victims**: objects with no dangerous access pattern of
//!    their own that are packed into the same unoptimized block as a
//!    flagged object. Their reads ping-pong with the neighbour's writes
//!    (the classic "innocent bystander" of false sharing); the cure is
//!    alignment away from the hot neighbour.
//!
//! `fsr-lint --advise` validates the flag set against the simulator's
//! per-object miss taxonomy: every object with false-sharing misses must
//! be flagged (completeness), and every flagged object must live in a
//! block that measurably false-shares (soundness at block granularity).

use crate::heuristics::{plan_for, PlanConfig};
use crate::plan::ObjPlan;
use fsr_analysis::{Analysis, Pattern};
use fsr_lang::ast::{ObjId, ObjectKind, Program, WORD_BYTES};
use fsr_lang::diag::{Code, Diagnostic, Diagnostics};
use std::collections::BTreeMap;

/// One piece of advice: an object predicted to false-share under the
/// unoptimized layout, with the recommended transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    pub obj: ObjId,
    /// One of `"group & transpose"`, `"transpose"`, `"indirection"`,
    /// `"pad & align"`, `"align"`.
    pub recommendation: &'static str,
    /// Why the object is considered prone (for the diagnostic message).
    pub why: String,
}

fn rec_of(plan: &ObjPlan) -> &'static str {
    match plan {
        ObjPlan::Transpose { group: Some(_), .. } => "group & transpose",
        ObjPlan::Transpose { group: None, .. } => "transpose",
        ObjPlan::Indirect { .. } => "indirection",
        ObjPlan::PadElems => "pad & align",
        ObjPlan::PadLock => "align",
    }
}

/// Compute the advice set. `regions` are the object byte ranges of the
/// **unoptimized** layout (`fsr-layout` regions; several per object are
/// fine) — the advisor only uses them for block co-residency, so the
/// caller decides the block size via `cfg.block_bytes`.
pub fn advise(
    prog: &Program,
    analysis: &Analysis,
    cfg: &PlanConfig,
    regions: &[(ObjId, u32, u32)],
) -> Vec<Advice> {
    let plan = plan_for(prog, analysis, cfg);
    let mut out: BTreeMap<ObjId, Advice> = BTreeMap::new();

    // Rule 1: planned objects and locks.
    for (i, obj) in prog.objects.iter().enumerate() {
        let oid = ObjId(i as u32);
        if obj.kind == ObjectKind::Lock {
            out.insert(
                oid,
                Advice {
                    obj: oid,
                    recommendation: "align",
                    why: "lock words packed with neighbours ping-pong on every \
                          acquire; give each lock its own block"
                        .into(),
                },
            );
            continue;
        }
        if obj.kind != ObjectKind::SharedData {
            continue;
        }
        if let Some(p) = plan.get(oid) {
            let why = plan
                .reasons
                .get(&oid)
                .cloned()
                .unwrap_or_else(|| "planned transformation".into());
            out.insert(
                oid,
                Advice {
                    obj: oid,
                    recommendation: rec_of(p),
                    why,
                },
            );
        }
    }

    // Rule 2: write-shared residue the pad rule backed off from.
    for c in &analysis.classes {
        let obj = prog.object(c.obj);
        if obj.kind != ObjectKind::SharedData || out.contains_key(&c.obj) {
            continue;
        }
        if c.write.pattern != Pattern::Shared {
            continue;
        }
        if c.total_weight() < cfg.pad_weight_frac * analysis.total_weight {
            continue;
        }
        let bytes = obj.elem_count() * prog.elem_words(obj.elem) as u64 * WORD_BYTES as u64;
        if !c.write.has_spatial_locality() {
            out.insert(
                c.obj,
                Advice {
                    obj: c.obj,
                    recommendation: "pad & align",
                    why: "frequent shared writes with no spatial locality land two \
                          processes on different words of the same block"
                        .into(),
                },
            );
        } else if bytes > cfg.block_bytes as u64 {
            out.insert(
                c.obj,
                Advice {
                    obj: c.obj,
                    recommendation: "align",
                    why: "unit-stride shared writes over a multi-block array \
                          false-share at region boundaries; align each process's \
                          region to a block"
                        .into(),
                },
            );
        }
    }

    // Rule 3: block victims — one sweep, seeded by rules 1 and 2.
    let seeded: Vec<ObjId> = out.keys().copied().collect();
    let block = |b: u32| b / cfg.block_bytes;
    let shares_block = |a: ObjId, b: ObjId| {
        regions.iter().filter(|r| r.0 == a).any(|(_, s1, e1)| {
            regions.iter().filter(|r| r.0 == b).any(|(_, s2, e2)| {
                block(e1.saturating_sub(1)) >= block(*s2)
                    && block(*s1) <= block(e2.saturating_sub(1))
            })
        })
    };
    for c in &analysis.classes {
        let obj = prog.object(c.obj);
        if obj.kind != ObjectKind::SharedData || out.contains_key(&c.obj) {
            continue;
        }
        if c.total_weight() < cfg.pad_weight_frac * analysis.total_weight {
            continue;
        }
        if seeded.iter().any(|&s| s != c.obj && shares_block(c.obj, s)) {
            out.insert(
                c.obj,
                Advice {
                    obj: c.obj,
                    recommendation: "align",
                    why: "shares an unoptimized block with a false-sharing-prone \
                          neighbour; its accesses absorb the ping-pong"
                        .into(),
                },
            );
        }
    }

    out.into_values().collect()
}

/// Render an advice set (from [`advise`]) as `FSR-W004` diagnostics
/// anchored at the object declarations.
pub fn advise_diagnostics(prog: &Program, advice: &[Advice]) -> Diagnostics {
    let mut ds = Diagnostics::default();
    for a in advice {
        let obj = prog.object(a.obj);
        ds.push(Diagnostic::warning(
            Code::FalseSharingProne,
            format!(
                "`{}` is false-sharing prone: {}; recommend {}",
                obj.name, a.why, a.recommendation
            ),
            obj.span,
        ));
    }
    ds.sort();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsr_analysis::analyze;

    fn advise_names(src: &str) -> Vec<(String, &'static str)> {
        let prog = fsr_lang::compile(src).unwrap();
        let a = analyze(&prog).unwrap();
        let plan = crate::LayoutPlan::unoptimized(128);
        // Sequentially pack objects, mirroring the unoptimized layout.
        let mut regions = Vec::new();
        let mut at = 0u32;
        for (i, o) in prog.objects.iter().enumerate() {
            let bytes =
                (o.elem_count() * prog.elem_words(o.elem) as u64 * WORD_BYTES as u64) as u32;
            regions.push((ObjId(i as u32), at, at + bytes));
            at += bytes;
        }
        let _ = plan;
        advise(&prog, &a, &PlanConfig::default(), &regions)
            .into_iter()
            .map(|ad| (prog.object(ad.obj).name.clone(), ad.recommendation))
            .collect()
    }

    #[test]
    fn planned_objects_carry_plan_recommendation() {
        let advice = advise_names(
            "param NPROC = 4; shared int c[NPROC];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 100 {
                 c[p] = c[p] + 1; } } }",
        );
        assert_eq!(advice, vec![("c".into(), "group & transpose")]);
    }

    #[test]
    fn data_dependent_write_shared_array_padded() {
        // Too big for the §3.3 pad rule's footprint cap, but still prone.
        let advice = advise_names(
            "param NPROC = 4; shared int a[256];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 200 {
                 a[prand(i * NPROC + p) % 256] = a[prand(i + p) % 256] + 1; } } }",
        );
        assert_eq!(advice, vec![("a".into(), "pad & align")]);
    }

    #[test]
    fn locks_always_advised_aligned() {
        let advice = advise_names(
            "param NPROC = 2; shared lock lk[8]; shared int x;
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 50 {
                 lock(lk[p]); x = x + 1; unlock(lk[p]); } } }",
        );
        assert!(advice.contains(&("lk".into(), "align")));
        // The busy scalar next to the locks is prone too.
        assert!(advice.iter().any(|(n, _)| n == "x"));
    }

    #[test]
    fn victim_next_to_hot_counter_advised_aligned() {
        // `status` is read-mostly and harmless on its own, but shares the
        // scalar block with a padded hot counter.
        let advice = advise_names(
            "param NPROC = 4; shared int hot; shared int status;
             fn main() { forall p in 0 .. NPROC { var i; var s = 0;
                 for i in 0 .. 1000 { hot = hot + 1; s = s + status; }
             } }",
        );
        assert!(advice.contains(&("hot".into(), "pad & align")));
        assert!(advice.contains(&("status".into(), "align")));
    }

    #[test]
    fn cold_isolated_objects_not_advised() {
        // Written once by one process in the setup phase, then read
        // shared: never concurrently write-shared, and resident in its
        // own blocks — no advice.
        let advice = advise_names(
            "param NPROC = 4; shared int big[256]; shared int table[64];
             fn main() { forall p in 0 .. NPROC {
                 var i;
                 if (p == 0) { for i in 0 .. 64 { table[i] = i; } }
                 barrier;
                 var s = 0;
                 for i in 0 .. 200 {
                     big[prand(i * NPROC + p) % 256] = s;
                     s = s + table[i % 64];
                 }
             } }",
        );
        assert!(advice.iter().any(|(n, _)| n == "big"));
        assert!(!advice.iter().any(|(n, _)| n == "table"));
    }
}
