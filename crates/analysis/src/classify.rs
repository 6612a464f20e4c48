//! Sharing-pattern classification: the bridge from raw access summaries
//! to transformation decisions.
//!
//! For every accessed (object, field) pair the classifier decides, for
//! reads and writes separately, whether the access pattern is
//! *per-process* (pairwise disjoint regular sections across distinct
//! pids), *one-process*, or *shared*, and whether it exhibits spatial
//! locality (dominant unit stride). For per-process writes it derives the
//! *owner map* — the function from element index to owning process — that
//! group & transpose needs, and records when disjointness rests on the
//! partition-array assumption (validated against barrier phases).

use crate::section::{ProcCond, Rsd, Section};
use crate::summary::{FinalAccess, ProgramSummary};
use fsr_lang::ast::{FieldId, ObjId, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum regular section descriptors kept per (object, field, kind)
/// before merging — the paper keeps "a small preset limit" and reports
/// that no benchmark array needed more than 10.
pub const MAX_DESCRIPTORS: usize = 10;

/// How element indices map to owning processes, for transposable
/// per-process data. All variants are derived from the write descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerMap {
    /// A (possibly minor) array dimension equals the pid: `a[i][p]` or
    /// `a[p]`.
    Dim { dim: usize },
    /// Blocked 1-D decomposition `a[p*chunk .. (p+1)*chunk]`.
    Chunk { chunk: i64 },
    /// Cyclic 1-D decomposition `a[i*stride + p + base]`.
    Interleave { stride: i64, base: i64 },
}

impl OwnerMap {
    /// Owning process of a flattened element index (row-major), for an
    /// object with the given dims.
    pub fn owner(&self, flat: u64, dims: &[u32], nproc: i64) -> i64 {
        match *self {
            OwnerMap::Dim { dim } => {
                let (d0, d1) = match dims.len() {
                    0 => (1u64, 1u64),
                    1 => (dims[0] as u64, 1),
                    _ => (dims[0] as u64, dims[1] as u64),
                };
                let _ = d0;
                let idx = if dims.len() <= 1 {
                    flat
                } else if dim == 0 {
                    flat / d1
                } else {
                    flat % d1
                };
                (idx as i64).min(nproc - 1)
            }
            OwnerMap::Chunk { chunk } => ((flat as i64) / chunk.max(1)).min(nproc - 1),
            OwnerMap::Interleave { stride, base } => {
                (((flat as i64) - base).rem_euclid(stride.max(1))).min(nproc - 1)
            }
        }
    }
}

/// Access pattern of one side (reads or writes) of an (object, field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// No accesses of this kind.
    None,
    /// All accesses from a single process.
    OneProc,
    /// Pairwise disjoint across distinct processes.
    PerProcess,
    /// Overlapping across processes.
    Shared,
}

/// Summary of one access kind for a data structure.
#[derive(Debug, Clone)]
pub struct SideSummary {
    pub pattern: Pattern,
    pub weight: f64,
    /// Weight-dominant unit-stride fraction: 1.0 = all accesses are
    /// sequential unit-stride (spatial locality present).
    pub unit_stride_frac: f64,
    pub rsds: Vec<Rsd>,
    /// The descriptors that defined `pattern` (initialization-epoch
    /// descriptors excluded); owner maps are derived from these.
    pub pattern_rsds: Vec<Rsd>,
}

impl SideSummary {
    fn empty() -> SideSummary {
        SideSummary {
            pattern: Pattern::None,
            weight: 0.0,
            unit_stride_frac: 0.0,
            rsds: Vec::new(),
            pattern_rsds: Vec::new(),
        }
    }

    /// Spatial locality = most of the access weight is unit stride.
    pub fn has_spatial_locality(&self) -> bool {
        self.unit_stride_frac >= 0.5
    }
}

/// Classification of one (object, field) data structure.
#[derive(Debug, Clone)]
pub struct AccessClass {
    pub obj: ObjId,
    pub field: Option<FieldId>,
    pub read: SideSummary,
    pub write: SideSummary,
    /// Owner map when writes are per-process and statically transposable.
    pub owner_map: Option<OwnerMap>,
    /// Disjointness relies on the (validated) partition-array assumption.
    pub partition_assumed: bool,
}

impl AccessClass {
    pub fn total_weight(&self) -> f64 {
        self.read.weight + self.write.weight
    }
}

/// The complete analysis result handed to the transformation heuristics.
#[derive(Debug)]
pub struct Analysis {
    pub nproc: i64,
    pub classes: Vec<AccessClass>,
    pub total_weight: f64,
    pub summary: ProgramSummary,
    /// Partition arrays whose setup-before-use assumption was validated.
    pub validated_partitions: BTreeSet<ObjId>,
}

impl Analysis {
    pub fn class_for(&self, obj: ObjId, field: Option<FieldId>) -> Option<&AccessClass> {
        self.classes
            .iter()
            .find(|c| c.obj == obj && c.field == field)
    }
}

/// Classify a program summary.
pub fn classify(prog: &Program, summary: ProgramSummary, nproc: i64) -> Analysis {
    // 1. Validate partition arrays: every object used as a symbolic bound
    //    must have all its writes strictly before the phases of the
    //    accesses that rely on it.
    let mut partition_candidates: BTreeMap<ObjId, crate::phase::PhaseSpan> = BTreeMap::new();
    for acc in &summary.accesses {
        for sec in &acc.rsd.sections {
            for arr in sec.partition_arrays() {
                partition_candidates
                    .entry(arr)
                    .and_modify(|p| *p = p.join(acc.rsd.phase))
                    .or_insert(acc.rsd.phase);
            }
        }
    }
    let mut validated_partitions = BTreeSet::new();
    for (&arr, &use_phase) in &partition_candidates {
        match summary.write_phases.get(&arr) {
            None => {
                // Never written: trivially stable (all zeros — degenerate
                // but stable).
                validated_partitions.insert(arr);
            }
            Some(wp) => {
                if wp.strictly_before(use_phase) {
                    validated_partitions.insert(arr);
                }
            }
        }
    }

    // 2. Group accesses by (obj, field, is_write).
    let mut by_key: BTreeMap<(ObjId, Option<FieldId>, bool), Vec<Rsd>> = BTreeMap::new();
    let mut total_weight = 0.0;
    for FinalAccess {
        obj,
        field,
        is_write,
        rsd,
        ..
    } in &summary.accesses
    {
        total_weight += rsd.weight;
        by_key
            .entry((*obj, *field, *is_write))
            .or_default()
            .push(rsd.clone());
    }

    // 3. Build classes.
    let mut keys: BTreeSet<(ObjId, Option<FieldId>)> = BTreeSet::new();
    for (obj, field, _) in by_key.keys() {
        keys.insert((*obj, *field));
    }
    let mut classes = Vec::new();
    for (obj, field) in keys {
        let dims = &prog.object(obj).dims;
        let writes = by_key.get(&(obj, field, true)).cloned().unwrap_or_default();
        let reads = by_key
            .get(&(obj, field, false))
            .cloned()
            .unwrap_or_default();
        let writes = limit_descriptors(writes);
        let reads = limit_descriptors(reads);
        let (wsum, w_assumed) = side_summary(&writes, dims, nproc, &validated_partitions);
        let (rsum, r_assumed) = side_summary(&reads, dims, nproc, &validated_partitions);
        let owner_map = if wsum.pattern == Pattern::PerProcess {
            derive_owner_map(&wsum.pattern_rsds, dims, nproc)
        } else {
            None
        };
        classes.push(AccessClass {
            obj,
            field,
            read: rsum,
            write: wsum,
            owner_map,
            partition_assumed: w_assumed || r_assumed,
        });
    }
    Analysis {
        nproc,
        classes,
        total_weight,
        summary,
        validated_partitions,
    }
}

/// Enforce the descriptor limit by merging the lightest descriptors.
fn limit_descriptors(mut rsds: Vec<Rsd>) -> Vec<Rsd> {
    // First coalesce *identical-section* descriptors (common: the same
    // statement read and reread).
    let mut merged: Vec<Rsd> = Vec::new();
    for r in rsds.drain(..) {
        if let Some(m) = merged
            .iter_mut()
            .find(|m| m.sections == r.sections && m.procs == r.procs)
        {
            m.weight += r.weight;
            m.phase = m.phase.join(r.phase);
            if m.inner_stride != r.inner_stride {
                m.inner_stride = None;
            }
            continue;
        }
        merged.push(r);
    }
    while merged.len() > MAX_DESCRIPTORS {
        // Merge the two lightest descriptors.
        merged.sort_by(|a, b| b.weight.total_cmp(&a.weight));
        let b = merged.pop().unwrap();
        let a = merged.pop().unwrap();
        merged.push(merge_rsds(a, b));
    }
    merged
}

fn merge_rsds(a: Rsd, b: Rsd) -> Rsd {
    let sections = a
        .sections
        .iter()
        .zip(&b.sections)
        .map(|(x, y)| crate::section::merge_sections(x, y))
        .collect();
    Rsd {
        sections,
        weight: a.weight + b.weight,
        phase: a.phase.join(b.phase),
        procs: if a.procs == b.procs {
            a.procs
        } else {
            ProcCond::All
        },
        inner_stride: if a.inner_stride == b.inner_stride {
            a.inner_stride
        } else {
            None
        },
    }
}

/// Classify one side; returns the summary and whether per-process-ness
/// relied on the partition assumption.
fn side_summary(
    rsds: &[Rsd],
    dims: &[u32],
    nproc: i64,
    validated: &BTreeSet<ObjId>,
) -> (SideSummary, bool) {
    if rsds.is_empty() {
        return (SideSummary::empty(), false);
    }
    let weight: f64 = rsds.iter().map(|r| r.weight).sum();
    let unit_w: f64 = rsds
        .iter()
        .filter(|r| r.inner_stride == Some(1))
        .map(|r| r.weight)
        .sum();
    let unit_stride_frac = if weight > 0.0 { unit_w / weight } else { 0.0 };

    // Single-process?
    let single = rsds.iter().all(|r| matches!(r.procs, ProcCond::One(_)))
        && rsds.windows(2).all(|w| w[0].procs == w[1].procs);
    if single {
        return (
            SideSummary {
                pattern: Pattern::OneProc,
                weight,
                unit_stride_frac,
                rsds: rsds.to_vec(),
                pattern_rsds: rsds.to_vec(),
            },
            false,
        );
    }

    // Dominant-pattern rule (stage-2 non-concurrency analysis): a
    // single-process *initialization epoch* — descriptors performed by
    // one process in phases strictly before every other descriptor —
    // does not define the sharing pattern the data should be restructured
    // for: it can cause at most one round of cold/true-sharing misses,
    // never recurring false sharing. Exclude such descriptors from the
    // disjointness test (they still count toward weights).
    let is_init = |r: &Rsd| -> bool {
        matches!(r.procs, ProcCond::One(_))
            && rsds
                .iter()
                .filter(|o| !matches!(o.procs, ProcCond::One(_)))
                .all(|o| r.phase.strictly_before(o.phase))
    };
    let dominant: Vec<&Rsd> = if rsds.iter().any(|r| !is_init(r)) {
        rsds.iter().filter(|r| !is_init(r)).collect()
    } else {
        rsds.iter().collect()
    };

    // Are the symbolic partition arrays involved all validated? If not,
    // the assumption may not be used.
    let all_partitions_valid = dominant.iter().all(|r| {
        r.sections
            .iter()
            .flat_map(|s| s.partition_arrays())
            .all(|a| validated.contains(&a))
    });

    let disjoint_with = |assume: bool| -> bool {
        for a in &dominant {
            for b in &dominant {
                for p in 0..nproc {
                    for q in 0..nproc {
                        if p != q && a.overlaps_for(p, b, q, dims, assume) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    };

    let (pattern, assumed) = if disjoint_with(false) {
        (Pattern::PerProcess, false)
    } else if all_partitions_valid && disjoint_with(true) {
        (Pattern::PerProcess, true)
    } else {
        (Pattern::Shared, false)
    };
    let pattern_rsds: Vec<Rsd> = dominant.iter().map(|r| (*r).clone()).collect();
    (
        SideSummary {
            pattern,
            weight,
            unit_stride_frac,
            rsds: rsds.to_vec(),
            pattern_rsds,
        },
        assumed,
    )
}

/// Derive the owner map from per-process write descriptors.
fn derive_owner_map(writes: &[Rsd], dims: &[u32], nproc: i64) -> Option<OwnerMap> {
    use crate::section::Bound;

    // Dim case: some dimension is Elem(pid) in every descriptor.
    'dims: for (d, &dim) in dims.iter().enumerate() {
        for r in writes {
            match &r.sections[d] {
                Section::Elem(Bound::Lin(l)) if l.is_exactly_pdv() => {}
                _ => continue 'dims,
            }
        }
        if dim as i64 >= nproc {
            return Some(OwnerMap::Dim { dim: d });
        }
    }

    if dims.len() != 1 {
        return None;
    }

    // Chunk case: Range{lo = a·pid, hi = a·pid + k, stride 1} with k < a.
    let mut chunk: Option<i64> = None;
    let mut all_chunk = true;
    for r in writes {
        match &r.sections[0] {
            Section::Range {
                lo: Bound::Lin(lo),
                hi: Bound::Lin(hi),
                stride: 1,
            } if lo.is_pdv_affine() && hi.is_pdv_affine() => {
                let a = lo.pdv_coef();
                if a <= 0 || lo.c0 != 0 || hi.pdv_coef() != a || hi.c0 >= a || hi.c0 < 0 {
                    all_chunk = false;
                    break;
                }
                match chunk {
                    None => chunk = Some(a),
                    Some(c) if c == a => {}
                    _ => {
                        all_chunk = false;
                        break;
                    }
                }
            }
            Section::Elem(Bound::Lin(l)) if l.is_pdv_affine() && l.pdv_coef() > 0 => {
                // A point inside a chunk: compatible when coef matches and
                // offset is within the chunk.
                let a = l.pdv_coef();
                if l.c0 < 0 || l.c0 >= a {
                    all_chunk = false;
                    break;
                }
                match chunk {
                    None => chunk = Some(a),
                    Some(c) if c == a => {}
                    _ => {
                        all_chunk = false;
                        break;
                    }
                }
            }
            _ => {
                all_chunk = false;
                break;
            }
        }
    }
    if all_chunk {
        if let Some(c) = chunk {
            return Some(OwnerMap::Chunk { chunk: c });
        }
    }

    // Interleave case: Range{lo = pid + base, stride = s} for all.
    let mut inter: Option<(i64, i64)> = None;
    for r in writes {
        match &r.sections[0] {
            Section::Range {
                lo: Bound::Lin(lo),
                stride,
                ..
            } if lo.pdv_coef() == 1 && *stride >= nproc => {
                let key = (*stride, lo.c0);
                match inter {
                    None => inter = Some(key),
                    Some(k) if k == key => {}
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    inter.map(|(stride, base)| OwnerMap::Interleave { stride, base })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, summary};

    fn analyze(src: &str) -> (fsr_lang::Program, Analysis) {
        let prog = fsr_lang::compile(src).unwrap();
        let g = callgraph::build(&prog).unwrap();
        let s = summary::summarize(&prog, &g).unwrap();
        let nproc = prog.param_value("NPROC").unwrap_or(4);
        let a = classify(&prog, s, nproc);
        (prog, a)
    }

    fn class<'a>(prog: &fsr_lang::Program, a: &'a Analysis, name: &str) -> &'a AccessClass {
        let (oid, _) = prog.object_by_name(name).unwrap();
        a.class_for(oid, None).expect("class exists")
    }

    #[test]
    fn per_proc_vector_is_dim_owned() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int c[NPROC];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 100 { c[p] = c[p] + 1; } } }",
        );
        let c = class(&p, &a, "c");
        assert_eq!(c.write.pattern, Pattern::PerProcess);
        assert_eq!(c.read.pattern, Pattern::PerProcess);
        assert_eq!(c.owner_map, Some(OwnerMap::Dim { dim: 0 }));
        assert!(!c.partition_assumed);
    }

    #[test]
    fn transposed_2d_is_minor_dim_owned() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int hist[64][NPROC];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 64 {
                 hist[i][p] = hist[i][p] + 1; } } }",
        );
        let c = class(&p, &a, "hist");
        assert_eq!(c.write.pattern, Pattern::PerProcess);
        assert_eq!(c.owner_map, Some(OwnerMap::Dim { dim: 1 }));
    }

    #[test]
    fn chunked_owner_map() {
        let (p, a) = analyze(
            "param NPROC = 4; const CH = 16; shared int d[64];
             fn main() { forall p in 0 .. NPROC { var i;
                 for i in p * CH .. p * CH + CH { d[i] = 1; } } }",
        );
        let c = class(&p, &a, "d");
        assert_eq!(c.write.pattern, Pattern::PerProcess);
        assert_eq!(c.owner_map, Some(OwnerMap::Chunk { chunk: 16 }));
    }

    #[test]
    fn interleaved_owner_map() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int d[64];
             fn main() { forall p in 0 .. NPROC { var i;
                 for i in 0 .. 16 { d[i * NPROC + p] = 1; } } }",
        );
        let c = class(&p, &a, "d");
        assert_eq!(c.write.pattern, Pattern::PerProcess);
        assert_eq!(
            c.owner_map,
            Some(OwnerMap::Interleave { stride: 4, base: 0 })
        );
    }

    #[test]
    fn shared_scalar_is_shared() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int total; shared lock lk;
             fn main() { forall p in 0 .. NPROC {
                 lock(lk); total = total + 1; unlock(lk); } }",
        );
        let c = class(&p, &a, "total");
        assert_eq!(c.write.pattern, Pattern::Shared);
        assert_eq!(c.read.pattern, Pattern::Shared);
        assert!(c.owner_map.is_none());
    }

    #[test]
    fn partition_assumption_validated_by_phases() {
        // Partition arrays written in the serial prologue (phase 0),
        // used in the parallel phase — valid.
        let (p, a) = analyze(
            "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
             fn main() {
                 var q;
                 for q in 0 .. NPROC + 1 { first[q] = q * 64; }
                 forall p in 0 .. NPROC {
                     var i;
                     for i in first[p] .. first[p + 1] { d[i] = 1; }
                 }
             }",
        );
        let c = class(&p, &a, "d");
        assert_eq!(c.write.pattern, Pattern::PerProcess);
        assert!(c.partition_assumed);
        let (fid, _) = p.object_by_name("first").unwrap();
        assert!(a.validated_partitions.contains(&fid));
    }

    #[test]
    fn revolving_partition_fails_validation() {
        // The partition is rewritten every outer iteration *in the same
        // phases* it is used — the Topopt pattern the static analysis
        // cannot prove disjoint.
        let (p, a) = analyze(
            "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
             fn main() {
                 forall p in 0 .. NPROC {
                     var t; var i;
                     for t in 0 .. 10 {
                         if (p == 0) {
                             var q;
                             for q in 0 .. NPROC + 1 { first[q] = (q * 64 + t) % 256; }
                         }
                         barrier;
                         for i in first[p] .. first[p + 1] { d[i] = 1; }
                         barrier;
                     }
                 }
             }",
        );
        let c = class(&p, &a, "d");
        // Cannot prove disjoint: remains Shared.
        assert_eq!(c.write.pattern, Pattern::Shared);
        let (fid, _) = p.object_by_name("first").unwrap();
        assert!(!a.validated_partitions.contains(&fid));
    }

    #[test]
    fn one_proc_writer_detected() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int flag;
             fn main() { forall p in 0 .. NPROC {
                 if (p == 0) { flag = 1; }
                 var v = flag;
             } }",
        );
        let c = class(&p, &a, "flag");
        assert_eq!(c.write.pattern, Pattern::OneProc);
        assert_eq!(c.read.pattern, Pattern::Shared);
    }

    #[test]
    fn unit_stride_fraction_reflects_loops() {
        let (p, a) = analyze(
            "param NPROC = 4; shared int d[256];
             fn main() { forall p in 0 .. NPROC {
                 var i;
                 for i in 0 .. 256 { d[i] = d[i] + 1; }
             } }",
        );
        let c = class(&p, &a, "d");
        assert!(c.write.has_spatial_locality());
        assert!(c.read.has_spatial_locality());
        assert_eq!(c.write.pattern, Pattern::Shared);
    }

    #[test]
    fn descriptor_limit_merges() {
        // 12 distinct point accesses to one array exceed the limit.
        let mut src = String::from(
            "param NPROC = 2; shared int d[64];
             fn main() { forall p in 0 .. NPROC {\n",
        );
        for k in 0..12 {
            src.push_str(&format!("d[{}] = 1;\n", k * 3));
        }
        src.push_str("} }");
        let (p, a) = analyze(&src);
        let c = class(&p, &a, "d");
        assert!(c.write.rsds.len() <= MAX_DESCRIPTORS);
        assert_eq!(c.write.pattern, Pattern::Shared);
    }

    #[test]
    fn owner_map_owner_function() {
        let m = OwnerMap::Dim { dim: 1 };
        // dims [8][4]: flat = i*4 + p
        assert_eq!(m.owner(0, &[8, 4], 4), 0);
        assert_eq!(m.owner(5, &[8, 4], 4), 1);
        assert_eq!(m.owner(7, &[8, 4], 4), 3);
        let c = OwnerMap::Chunk { chunk: 16 };
        assert_eq!(c.owner(0, &[64], 4), 0);
        assert_eq!(c.owner(31, &[64], 4), 1);
        assert_eq!(c.owner(63, &[64], 4), 3);
        let i = OwnerMap::Interleave { stride: 4, base: 0 };
        assert_eq!(i.owner(0, &[64], 4), 0);
        assert_eq!(i.owner(5, &[64], 4), 1);
        assert_eq!(i.owner(7, &[64], 4), 3);
    }

    #[test]
    fn field_level_classes_for_structs() {
        let (p, a) = analyze(
            "param NPROC = 4; struct N { int v; int w; } shared N nodes[16];
             fn main() { forall p in 0 .. NPROC {
                 nodes[p].v = 1;
                 nodes[prand(p) % 16].w = 2;
             } }",
        );
        let (oid, _) = p.object_by_name("nodes").unwrap();
        let v = a.class_for(oid, Some(FieldId(0))).unwrap();
        let w = a.class_for(oid, Some(FieldId(1))).unwrap();
        assert_eq!(v.write.pattern, Pattern::PerProcess);
        assert_eq!(w.write.pattern, Pattern::Shared);
    }
}
