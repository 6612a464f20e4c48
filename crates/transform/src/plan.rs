//! Layout plan data model.

use fsr_analysis::OwnerMap;
use fsr_lang::ast::{FieldId, ObjId};
use std::collections::BTreeMap;

/// The transformation chosen for one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjPlan {
    /// Group & transpose: elements regrouped by owning process; each
    /// process's region is padded to a cache-block multiple. Objects
    /// sharing a `group` id have their per-process regions co-located
    /// (the *grouping* of several small per-process vectors).
    Transpose { owner: OwnerMap, group: Option<u32> },
    /// Indirection: listed struct fields (or, for int arrays, the whole
    /// element when `fields` is empty) move into per-process arenas; the
    /// original storage holds a pointer, dereferenced on every access.
    Indirect { fields: Vec<FieldId> },
    /// Pad & align every element to a cache-block boundary.
    PadElems,
    /// One cache block per lock.
    PadLock,
}

/// A complete layout plan for a program at a given coherence-block size.
#[derive(Debug, Clone, Default)]
pub struct LayoutPlan {
    pub block_bytes: u32,
    pub directives: BTreeMap<ObjId, ObjPlan>,
    /// Human-readable reasons, for reports (object id -> reason).
    pub reasons: BTreeMap<ObjId, String>,
}

impl LayoutPlan {
    /// The identity plan: original layout, nothing transformed.
    pub fn unoptimized(block_bytes: u32) -> LayoutPlan {
        LayoutPlan {
            block_bytes,
            directives: BTreeMap::new(),
            reasons: BTreeMap::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    pub fn get(&self, obj: ObjId) -> Option<&ObjPlan> {
        self.directives.get(&obj)
    }

    pub fn insert(&mut self, obj: ObjId, plan: ObjPlan, reason: impl Into<String>) {
        self.directives.insert(obj, plan);
        self.reasons.insert(obj, reason.into());
    }

    /// Remove directives of a given kind — used by the ablation benches to
    /// measure each transformation's isolated contribution.
    pub fn retain_kind(&self, keep: impl Fn(&ObjPlan) -> bool) -> LayoutPlan {
        let mut out = LayoutPlan::unoptimized(self.block_bytes);
        for (obj, p) in &self.directives {
            if keep(p) {
                out.directives.insert(*obj, p.clone());
                if let Some(r) = self.reasons.get(obj) {
                    out.reasons.insert(*obj, r.clone());
                }
            }
        }
        out
    }

    /// Count directives by kind: (transpose, indirect, pad, locks).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for p in self.directives.values() {
            match p {
                ObjPlan::Transpose { .. } => t.0 += 1,
                ObjPlan::Indirect { .. } => t.1 += 1,
                ObjPlan::PadElems => t.2 += 1,
                ObjPlan::PadLock => t.3 += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unoptimized_plan_is_empty() {
        let p = LayoutPlan::unoptimized(128);
        assert!(p.is_empty());
        assert_eq!(p.block_bytes, 128);
        assert_eq!(p.counts(), (0, 0, 0, 0));
    }

    #[test]
    fn insert_and_get() {
        let mut p = LayoutPlan::unoptimized(64);
        p.insert(ObjId(3), ObjPlan::PadElems, "busy shared scalar");
        assert_eq!(p.get(ObjId(3)), Some(&ObjPlan::PadElems));
        assert!(p.reasons[&ObjId(3)].contains("busy"));
    }

    #[test]
    fn retain_kind_filters() {
        let mut p = LayoutPlan::unoptimized(64);
        p.insert(ObjId(0), ObjPlan::PadLock, "lock");
        p.insert(ObjId(1), ObjPlan::PadElems, "scalar");
        p.insert(
            ObjId(2),
            ObjPlan::Transpose {
                owner: OwnerMap::Dim { dim: 0 },
                group: None,
            },
            "per-proc",
        );
        let only_locks = p.retain_kind(|d| matches!(d, ObjPlan::PadLock));
        assert_eq!(only_locks.counts(), (0, 0, 0, 1));
        assert_eq!(p.counts(), (1, 0, 1, 1));
    }
}
