//! Memory layout engine: maps every PSL data object to concrete word
//! addresses under a transformation plan.
//!
//! The unoptimized layout packs shared objects end-to-end at word
//! granularity in declaration order — exactly the behaviour that makes
//! adjacent scalars, locks and array elements share cache blocks.
//! Transformation directives change *only* the address mapping:
//!
//! - **Transpose**: elements are regrouped by owning process; each
//!   process's region (optionally a *group* of several objects' slices)
//!   is padded to a block multiple.
//! - **PadElems / PadLock**: one element per block.
//! - **Indirect**: the element (or field) storage holds a pointer into a
//!   per-process arena; arena chunks are handed out on first touch.
//!
//! Because transformations live entirely in the address mapping, program
//! semantics are unchanged by construction — a property the integration
//! suite checks by comparing final logical memory contents across plans.

use fsr_lang::ast::{ElemTy, FieldId, ObjId, ObjectKind, Program, WORD_BYTES};
use fsr_transform::{LayoutPlan, ObjPlan};
use std::collections::BTreeMap;
use std::fmt;

/// First word address handed out; low addresses stay unmapped so that a
/// zero pointer word means "unallocated" for indirection.
const BASE_WORD: u32 = 64;

/// What an access resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// A plain word address.
    Direct(u32),
    /// Indirected storage: read the pointer at `ptr`; if null, allocate
    /// `slot_words` from arena `arena` (first touch, in the per-field
    /// `lane` so different fields never share arena chunks) and store the
    /// pointer; the datum lives at `*ptr + off`.
    Indirect {
        ptr: u32,
        off: u32,
        slot_words: u32,
        arena: u32,
        lane: u32,
    },
}

/// Per-object layout record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ObjLayout {
    /// Row-major contiguous at `base` with `stride_words` per element
    /// (equal to element size when unpadded, block words when padded).
    Contiguous { base: u32, stride_words: u32 },
    /// Per-process regrouping: explicit per-element base addresses.
    Transposed { elem_base: Vec<u32> },
    /// Pointer word per (element, indirected field); `base` is laid
    /// out like the original object; non-indirected fields stay in place.
    Indirect {
        base: u32,
        stride_words: u32,
        /// Field -> slot size in words; `None` key = whole element.
        slots: BTreeMap<Option<FieldId>, u32>,
        arena: u32,
    },
    /// Private per-process copies.
    Private { base: u32, per_proc_words: u32 },
}

/// Specification of one indirection arena (instantiated as mutable state
/// by the interpreter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaSpec {
    pub obj: ObjId,
    pub base_word: u32,
    pub total_words: u32,
    pub chunk_words: u32,
    pub nproc: u32,
    /// Number of allocation lanes (one per indirected field): chunks are
    /// never shared across lanes, so owner-private fields do not share
    /// blocks with fields other processes read.
    pub lanes: u32,
}

/// Address range attribution for miss accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub start_word: u32,
    pub end_word: u32,
    pub obj: ObjId,
    pub kind: &'static str,
}

/// The complete address map for one (program, plan, nproc) configuration.
#[derive(Debug, Clone)]
pub struct Layout {
    pub nproc: u32,
    pub block_bytes: u32,
    total_words: u32,
    objs: Vec<ObjLayout>,
    elem_words: Vec<u32>,
    elem_counts: Vec<u64>,
    /// (offset, len) in words for each field of each struct, indexed by
    /// object (empty for int objects).
    field_offsets: Vec<Vec<(u32, u32)>>,
    pub arenas: Vec<ArenaSpec>,
    regions: Vec<Region>,
}

fn block_words(block_bytes: u32) -> u32 {
    (block_bytes / WORD_BYTES).max(1)
}

fn align_up(x: u32, a: u32) -> u32 {
    x.div_ceil(a) * a
}

/// Largest address space (in words) the engine hands out: byte addresses
/// must fit `u32` downstream (simulator, interpreter).
pub const MAX_WORDS: u64 = (u32::MAX / WORD_BYTES) as u64;

/// Why a layout could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The plan's footprint (conservatively bounded) cannot be addressed
    /// in the 32-bit word space — padding/replication under this plan and
    /// process count would overflow address arithmetic.
    AddressSpaceOverflow { words_bound: u64, words_max: u64 },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::AddressSpaceOverflow {
                words_bound,
                words_max,
            } => write!(
                f,
                "layout footprint (≤ {words_bound} words) exceeds the \
                 addressable space ({words_max} words)"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

impl Layout {
    /// Fallible [`Layout::build`]: rejects (program, plan, nproc)
    /// combinations whose footprint cannot fit the 32-bit address space
    /// instead of overflowing address arithmetic. This is the entry
    /// point for user-supplied input (`fsr-core` uses it); `build` stays
    /// available for callers with known-small programs.
    pub fn try_build(prog: &Program, plan: &LayoutPlan, nproc: u32) -> Result<Layout, LayoutError> {
        let words_bound = Self::footprint_bound(prog, plan, nproc);
        if words_bound > MAX_WORDS {
            return Err(LayoutError::AddressSpaceOverflow {
                words_bound,
                words_max: MAX_WORDS,
            });
        }
        Ok(Self::build(prog, plan, nproc))
    }

    /// Conservative upper bound (in words) on the address space `build`
    /// would consume, computed in saturating `u64` so it cannot itself
    /// overflow. Over-approximates every pass: per-object alignment slop
    /// is charged per object, transposition charges `nproc` full copies,
    /// padding charges a block per element.
    fn footprint_bound(prog: &Program, plan: &LayoutPlan, nproc: u32) -> u64 {
        let bw = block_words(plan.block_bytes) as u64;
        let np = nproc.max(1) as u64;
        let mut need: u64 = BASE_WORD as u64;
        let mut private_total: u64 = 0;
        for (i, obj) in prog.objects.iter().enumerate() {
            let oid = ObjId(i as u32);
            let ew = match obj.kind {
                ObjectKind::Lock => 1,
                _ => prog.elem_words(obj.elem),
            } as u64;
            let count = obj.elem_count();
            let total = count.saturating_mul(ew);
            if obj.kind == ObjectKind::PrivateData {
                private_total = private_total.saturating_add(total);
                continue;
            }
            let obj_need = match plan.get(oid) {
                // nproc per-process slices, each at most the whole object
                // plus one block of padding (grouped or not).
                Some(ObjPlan::Transpose { .. }) => np.saturating_mul(total.saturating_add(bw)),
                // One block-aligned stride per element.
                Some(ObjPlan::PadElems) | Some(ObjPlan::PadLock) => {
                    count.saturating_mul(ew.max(bw).saturating_add(bw))
                }
                // Pointer table plus arena: slots (≤ the object itself)
                // plus per-process, per-lane chunk slack.
                Some(ObjPlan::Indirect { fields }) => {
                    let lanes = fields.len().max(1) as u64;
                    let chunk = bw.max(4);
                    total
                        .saturating_add(total)
                        .saturating_add(np.saturating_mul(lanes.saturating_mul(chunk)))
                }
                None => total,
            };
            need = need.saturating_add(obj_need).saturating_add(bw);
        }
        // Private span: nproc block-aligned copies; plus inter-pass
        // alignment slop.
        need = need
            .saturating_add(np.saturating_mul(private_total.saturating_add(bw)))
            .saturating_add(4 * bw);
        need
    }

    /// Build the address map. `nproc` is the number of processes the
    /// program will run with (must match the analysis when the plan came
    /// from one).
    ///
    /// Address arithmetic is unchecked `u32`: callers handing in
    /// unvalidated programs or plans should use [`Layout::try_build`],
    /// which bounds the footprint first.
    pub fn build(prog: &Program, plan: &LayoutPlan, nproc: u32) -> Layout {
        let bw = block_words(plan.block_bytes);
        let nobj = prog.objects.len();
        let mut objs: Vec<Option<ObjLayout>> = vec![None; nobj];
        let mut regions = Vec::new();
        let mut arenas = Vec::new();
        let mut cursor = BASE_WORD;

        let elem_words: Vec<u32> = prog
            .objects
            .iter()
            .map(|o| match o.kind {
                ObjectKind::Lock => 1,
                _ => prog.elem_words(o.elem),
            })
            .collect();
        let elem_counts: Vec<u64> = prog.objects.iter().map(|o| o.elem_count()).collect();
        let field_offsets: Vec<Vec<(u32, u32)>> = prog
            .objects
            .iter()
            .map(|o| match o.elem {
                ElemTy::Struct(sid) => prog
                    .struct_(sid)
                    .fields
                    .iter()
                    .map(|f| (f.offset_words, f.len))
                    .collect(),
                ElemTy::Int => Vec::new(),
            })
            .collect();

        // Pass 1: untransformed shared objects and indirection pointer
        // tables pack end-to-end in declaration order (word granularity).
        for (i, obj) in prog.objects.iter().enumerate() {
            let oid = ObjId(i as u32);
            if obj.kind == ObjectKind::PrivateData {
                continue;
            }
            let total = (elem_counts[i] * elem_words[i] as u64) as u32;
            match plan.get(oid) {
                None => {
                    objs[i] = Some(ObjLayout::Contiguous {
                        base: cursor,
                        stride_words: elem_words[i],
                    });
                    regions.push(Region {
                        start_word: cursor,
                        end_word: cursor + total,
                        obj: oid,
                        kind: "data",
                    });
                    cursor += total;
                }
                Some(ObjPlan::Indirect { fields }) => {
                    // Pointer table in place of the original object.
                    let slots: BTreeMap<Option<FieldId>, u32> = if fields.is_empty() {
                        std::iter::once((None, elem_words[i])).collect()
                    } else {
                        fields
                            .iter()
                            .map(|f| (Some(*f), field_offsets[i][f.index()].1))
                            .collect()
                    };
                    let slot_total: u64 =
                        slots.values().map(|&w| w as u64).sum::<u64>() * elem_counts[i];
                    let lanes = slots.len().max(1) as u32;
                    objs[i] = Some(ObjLayout::Indirect {
                        base: cursor,
                        stride_words: elem_words[i],
                        slots,
                        arena: arenas.len() as u32,
                    });
                    regions.push(Region {
                        start_word: cursor,
                        end_word: cursor + total,
                        obj: oid,
                        kind: "ptrs",
                    });
                    cursor += total;
                    // Arena sized for every slot plus per-process chunk
                    // slack; placed after all fixed regions (pass 3).
                    let chunk = bw.max(4);
                    let total_arena = align_up(slot_total as u32 + nproc * lanes * chunk, bw);
                    arenas.push(ArenaSpec {
                        obj: oid,
                        base_word: 0, // fixed up in pass 3
                        total_words: total_arena,
                        chunk_words: chunk,
                        nproc,
                        lanes,
                    });
                }
                Some(_) => {} // placed in pass 2
            }
        }

        // Pass 2: transformed objects in a block-aligned region.
        cursor = align_up(cursor, bw);
        // 2a. Grouped transposes: per process, concatenate every group
        // member's slice, then pad the group slice to a block multiple.
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, _) in prog.objects.iter().enumerate() {
            if let Some(ObjPlan::Transpose { group: Some(g), .. }) = plan.get(ObjId(i as u32)) {
                groups.entry(*g).or_default().push(i);
            }
        }
        for members in groups.values() {
            let mut member_elem_addrs: Vec<Vec<u32>> = members
                .iter()
                .map(|&i| vec![0u32; elem_counts[i] as usize])
                .collect();
            // Per-process slice width = sum over members of their max
            // per-proc element count * elem size.
            let mut per_proc_counts: Vec<Vec<u32>> = Vec::new();
            for &i in members {
                let oid = ObjId(i as u32);
                let Some(ObjPlan::Transpose { owner, .. }) = plan.get(oid) else {
                    unreachable!()
                };
                let dims = &prog.object(oid).dims;
                let mut counts = vec![0u32; nproc as usize];
                for e in 0..elem_counts[i] {
                    let p = owner
                        .owner(e, dims, nproc as i64)
                        .clamp(0, nproc as i64 - 1);
                    counts[p as usize] += 1;
                }
                per_proc_counts.push(counts);
            }
            let slice_words: u32 = members
                .iter()
                .zip(&per_proc_counts)
                .map(|(&i, counts)| counts.iter().copied().max().unwrap_or(0) * elem_words[i])
                .sum();
            let slice_words = align_up(slice_words.max(1), bw);
            let group_base = cursor;
            for p in 0..nproc {
                let mut off = group_base + p * slice_words;
                for (mi, &i) in members.iter().enumerate() {
                    let oid = ObjId(i as u32);
                    let Some(ObjPlan::Transpose { owner, .. }) = plan.get(oid) else {
                        unreachable!()
                    };
                    let dims = &prog.object(oid).dims;
                    for e in 0..elem_counts[i] {
                        let po = owner
                            .owner(e, dims, nproc as i64)
                            .clamp(0, nproc as i64 - 1);
                        if po as u32 == p {
                            member_elem_addrs[mi][e as usize] = off;
                            off += elem_words[i];
                        }
                    }
                }
            }
            cursor = group_base + nproc * slice_words;
            for (mi, &i) in members.iter().enumerate() {
                let oid = ObjId(i as u32);
                objs[i] = Some(ObjLayout::Transposed {
                    elem_base: std::mem::take(&mut member_elem_addrs[mi]),
                });
                regions.push(Region {
                    start_word: group_base,
                    end_word: cursor,
                    obj: oid,
                    kind: "transposed-group",
                });
            }
        }

        // 2b. Ungrouped transposes and padded objects.
        for (i, obj) in prog.objects.iter().enumerate() {
            let oid = ObjId(i as u32);
            if obj.kind == ObjectKind::PrivateData {
                continue;
            }
            match plan.get(oid) {
                Some(ObjPlan::Transpose { owner, group: None }) => {
                    let dims = &obj.dims;
                    let mut counts = vec![0u32; nproc as usize];
                    for e in 0..elem_counts[i] {
                        let p = owner
                            .owner(e, dims, nproc as i64)
                            .clamp(0, nproc as i64 - 1);
                        counts[p as usize] += 1;
                    }
                    let per_proc_words = align_up(
                        counts.iter().copied().max().unwrap_or(0) * elem_words[i],
                        bw,
                    )
                    .max(bw);
                    let base = cursor;
                    let mut next: Vec<u32> =
                        (0..nproc).map(|p| base + p * per_proc_words).collect();
                    let mut elem_base = vec![0u32; elem_counts[i] as usize];
                    for e in 0..elem_counts[i] {
                        let p = owner
                            .owner(e, dims, nproc as i64)
                            .clamp(0, nproc as i64 - 1) as usize;
                        elem_base[e as usize] = next[p];
                        next[p] += elem_words[i];
                    }
                    cursor = base + nproc * per_proc_words;
                    objs[i] = Some(ObjLayout::Transposed { elem_base });
                    regions.push(Region {
                        start_word: base,
                        end_word: cursor,
                        obj: oid,
                        kind: "transposed",
                    });
                }
                Some(ObjPlan::PadElems) | Some(ObjPlan::PadLock) => {
                    let stride = align_up(elem_words[i], bw);
                    let base = align_up(cursor, bw);
                    let total = (elem_counts[i] as u32) * stride;
                    objs[i] = Some(ObjLayout::Contiguous {
                        base,
                        stride_words: stride,
                    });
                    regions.push(Region {
                        start_word: base,
                        end_word: base + total,
                        obj: oid,
                        kind: "padded",
                    });
                    cursor = base + total;
                }
                _ => {}
            }
        }

        // Pass 3: arenas.
        cursor = align_up(cursor, bw);
        for a in &mut arenas {
            a.base_word = cursor;
            regions.push(Region {
                start_word: cursor,
                end_word: cursor + a.total_words,
                obj: a.obj,
                kind: "arena",
            });
            cursor += a.total_words;
        }

        // Pass 4: private objects — per-process block-aligned spans.
        cursor = align_up(cursor, bw);
        let mut private_off = 0u32;
        let mut private_members: Vec<(usize, u32)> = Vec::new();
        for (i, obj) in prog.objects.iter().enumerate() {
            if obj.kind != ObjectKind::PrivateData {
                continue;
            }
            private_members.push((i, private_off));
            private_off += (elem_counts[i] * elem_words[i] as u64) as u32;
        }
        let per_proc_words = align_up(private_off.max(1), bw);
        let private_base = cursor;
        for (i, off) in private_members {
            objs[i] = Some(ObjLayout::Private {
                base: private_base + off,
                per_proc_words,
            });
            let oid = ObjId(i as u32);
            regions.push(Region {
                start_word: private_base,
                end_word: private_base + per_proc_words * nproc,
                obj: oid,
                kind: "private",
            });
        }
        cursor = private_base + per_proc_words * nproc;

        let objs: Vec<ObjLayout> = objs
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or(ObjLayout::Contiguous {
                    base: 0,
                    stride_words: elem_words[i],
                })
            })
            .collect();
        regions.sort_by_key(|r| r.start_word);

        Layout {
            nproc,
            block_bytes: plan.block_bytes,
            total_words: cursor,
            objs,
            elem_words,
            elem_counts,
            field_offsets,
            arenas,
            regions,
        }
    }

    /// Total words of the address space (memory image size).
    pub fn total_words(&self) -> u32 {
        self.total_words
    }

    /// Number of elements of an object (for bounds checks).
    pub fn elem_count(&self, obj: ObjId) -> u64 {
        self.elem_counts[obj.index()]
    }

    /// (offset, len) in words of a field within its element.
    pub fn field_layout(&self, obj: ObjId, field: FieldId) -> (u32, u32) {
        self.field_offsets[obj.index()][field.index()]
    }

    /// Resolve an access to an object element.
    ///
    /// `field_sel` selects a field and index within it (structs); `pid`
    /// matters only for private objects.
    pub fn resolve(
        &self,
        obj: ObjId,
        flat: u64,
        field_sel: Option<(FieldId, u32)>,
        pid: u32,
    ) -> Resolved {
        let i = obj.index();
        let in_elem_off: u32 = match field_sel {
            None => 0,
            Some((f, fi)) => {
                let (off, _len) = self.field_offsets[i][f.index()];
                off + fi
            }
        };
        match &self.objs[i] {
            ObjLayout::Contiguous { base, stride_words } => {
                Resolved::Direct(base + (flat as u32) * stride_words + in_elem_off)
            }
            ObjLayout::Transposed { elem_base } => {
                Resolved::Direct(elem_base[flat as usize] + in_elem_off)
            }
            ObjLayout::Private {
                base,
                per_proc_words,
            } => Resolved::Direct(
                base + pid * per_proc_words + (flat as u32) * self.elem_words[i] + in_elem_off,
            ),
            ObjLayout::Indirect {
                base,
                stride_words,
                slots,
                arena,
            } => {
                let elem_addr = base + (flat as u32) * stride_words;
                match field_sel {
                    None => match slots.get(&None) {
                        Some(&slot_words) => Resolved::Indirect {
                            ptr: elem_addr,
                            off: 0,
                            slot_words,
                            arena: *arena,
                            lane: 0,
                        },
                        None => Resolved::Direct(elem_addr),
                    },
                    Some((f, fi)) => {
                        let (off, _len) = self.field_offsets[i][f.index()];
                        match slots.get(&Some(f)) {
                            Some(&slot_words) => Resolved::Indirect {
                                // Pointer lives in the field's first word.
                                ptr: elem_addr + off,
                                off: fi,
                                slot_words,
                                arena: *arena,
                                lane: slots.keys().position(|k| *k == Some(f)).unwrap_or(0) as u32,
                            },
                            None => Resolved::Direct(elem_addr + off + fi),
                        }
                    }
                }
            }
        }
    }

    /// Attribute a byte address to its object (for miss accounting).
    pub fn attribute(&self, byte_addr: u32) -> Option<ObjId> {
        let w = byte_addr / WORD_BYTES;
        let idx = self.regions.partition_point(|r| r.start_word <= w);
        self.regions[..idx]
            .iter()
            .rev()
            .find(|r| w < r.end_word)
            .map(|r| r.obj)
    }

    /// All regions, for reports.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Fingerprint of everything that determines the reference trace a
    /// program produces under this layout: the per-object address maps,
    /// element geometry, arena allocation behaviour, attribution regions
    /// and the process count.
    ///
    /// Deliberately **excluded**: `block_bytes` (pure metadata — address
    /// resolution never consults it) and `total_words` (trailing
    /// alignment slack that only sizes memory images; no resolvable
    /// address lands there). Two layouts with equal fingerprints — e.g.
    /// the unoptimized layout built at different block sizes — drive the
    /// interpreter through identical address streams, so a batched
    /// driver can interpret once and fan the trace out to every
    /// simulator configuration. Confirm candidate groups with
    /// [`Layout::trace_eq`]; the hash alone admits collisions.
    pub fn trace_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.nproc.hash(&mut h);
        self.elem_words.hash(&mut h);
        self.elem_counts.hash(&mut h);
        self.field_offsets.hash(&mut h);
        for o in &self.objs {
            match o {
                ObjLayout::Contiguous { base, stride_words } => {
                    (0u8, base, stride_words).hash(&mut h);
                }
                ObjLayout::Transposed { elem_base } => {
                    1u8.hash(&mut h);
                    elem_base.hash(&mut h);
                }
                ObjLayout::Indirect {
                    base,
                    stride_words,
                    slots,
                    arena,
                } => {
                    (2u8, base, stride_words, arena).hash(&mut h);
                    for (f, w) in slots {
                        (f.map(|f| f.index()), w).hash(&mut h);
                    }
                }
                ObjLayout::Private {
                    base,
                    per_proc_words,
                } => {
                    (3u8, base, per_proc_words).hash(&mut h);
                }
            }
        }
        for a in &self.arenas {
            (
                a.obj.index(),
                a.base_word,
                a.total_words,
                a.chunk_words,
                a.nproc,
                a.lanes,
            )
                .hash(&mut h);
        }
        for r in &self.regions {
            (r.start_word, r.end_word, r.obj.index(), r.kind).hash(&mut h);
        }
        h.finish()
    }

    /// Exact equality on the trace-determining fields hashed by
    /// [`Layout::trace_fingerprint`] — the collision-proof check used
    /// before two jobs are allowed to share one interpretation.
    pub fn trace_eq(&self, other: &Layout) -> bool {
        self.nproc == other.nproc
            && self.objs == other.objs
            && self.elem_words == other.elem_words
            && self.elem_counts == other.elem_counts
            && self.field_offsets == other.field_offsets
            && self.arenas == other.arenas
            && self.regions == other.regions
    }

    /// True when no object uses indirection. For such layouts `resolve`
    /// is a pure function of (object, element, field, pid): there is no
    /// first-touch arena allocation and no pointer words, so the whole
    /// layout is a static bijection from logical coordinates to word
    /// addresses.
    pub fn direct_only(&self) -> bool {
        self.arenas.is_empty()
            && self
                .objs
                .iter()
                .all(|o| !matches!(o, ObjLayout::Indirect { .. }))
    }

    /// Word-address translation `self -> other` for two direct-only
    /// layouts of the same program geometry: `map[w]` is the word in
    /// `other` that holds the same logical datum as word `w` of `self`
    /// (`u32::MAX` for padding/slack words no resolvable access can
    /// touch).
    ///
    /// Because interpreter control flow consults the layout only through
    /// `resolve` — and indirection, the one case with interpreter-side
    /// state, is excluded — a reference trace produced under `self`
    /// becomes the trace `other` would produce by rewriting each address
    /// through this map. The batched driver exploits that to interpret a
    /// program once per (source, run config) and replay the stream into
    /// every direct-only layout variant's simulators.
    ///
    /// Returns `None` when the two layouts are not translation
    /// compatible: different element geometry (they were built from
    /// different programs), different process counts, or indirection on
    /// either side.
    pub fn word_map_to(&self, other: &Layout) -> Option<Vec<u32>> {
        if !(self.direct_only()
            && other.direct_only()
            && self.nproc == other.nproc
            && self.objs.len() == other.objs.len()
            && self.elem_words == other.elem_words
            && self.elem_counts == other.elem_counts
            && self.field_offsets == other.field_offsets)
        {
            return None;
        }
        // Base word of element `flat` (copy `pid` for private objects).
        fn elem_base_word(o: &ObjLayout, ew: u32, flat: u64, pid: u32) -> Option<u32> {
            Some(match o {
                ObjLayout::Contiguous { base, stride_words } => base + (flat as u32) * stride_words,
                ObjLayout::Transposed { elem_base } => elem_base[flat as usize],
                ObjLayout::Private {
                    base,
                    per_proc_words,
                } => base + pid * per_proc_words + (flat as u32) * ew,
                ObjLayout::Indirect { .. } => return None,
            })
        }
        let mut map = vec![u32::MAX; self.total_words as usize];
        for i in 0..self.objs.len() {
            let ew = self.elem_words[i];
            // Private objects exist once per process; everything else
            // once. Object kinds come from the program, so both layouts
            // agree on which objects are private.
            let copies = match (&self.objs[i], &other.objs[i]) {
                (ObjLayout::Private { .. }, ObjLayout::Private { .. }) => self.nproc,
                (ObjLayout::Private { .. }, _) | (_, ObjLayout::Private { .. }) => return None,
                _ => 1,
            };
            for pid in 0..copies {
                for flat in 0..self.elem_counts[i] {
                    let a = elem_base_word(&self.objs[i], ew, flat, pid)?;
                    let b = elem_base_word(&other.objs[i], ew, flat, pid)?;
                    for off in 0..ew {
                        map[(a + off) as usize] = b + off;
                    }
                }
            }
        }
        Some(map)
    }
}

/// Mutable first-touch arena state (owned by the interpreter).
#[derive(Debug, Clone)]
pub struct Arena {
    spec: ArenaSpec,
    /// Per-(process, lane) bump pointer and chunk limit.
    next: Vec<u32>,
    limit: Vec<u32>,
    pool_next: u32,
    pool_end: u32,
}

impl Arena {
    pub fn new(spec: &ArenaSpec) -> Arena {
        let n = (spec.nproc * spec.lanes.max(1)) as usize;
        Arena {
            next: vec![0; n],
            limit: vec![0; n],
            pool_next: spec.base_word,
            pool_end: spec.base_word + spec.total_words,
            spec: spec.clone(),
        }
    }

    /// Allocate `slot_words` from `pid`'s chunk in `lane`, grabbing a
    /// fresh chunk from the pool when needed. Returns the word address,
    /// or `None` when the pool is exhausted (arenas are sized for every
    /// slot plus slack, so exhaustion indicates duplicate allocation).
    pub fn alloc(&mut self, pid: u32, lane: u32, slot_words: u32) -> Option<u32> {
        let p =
            (pid * self.spec.lanes.max(1) + lane.min(self.spec.lanes.saturating_sub(1))) as usize;
        if self.next[p] + slot_words > self.limit[p] {
            let chunk = self.spec.chunk_words.max(slot_words);
            if self.pool_next + chunk > self.pool_end {
                return None;
            }
            self.next[p] = self.pool_next;
            self.limit[p] = self.pool_next + chunk;
            self.pool_next += chunk;
        }
        let addr = self.next[p];
        self.next[p] += slot_words;
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsr_transform::PlanConfig;

    fn setup(src: &str, nproc: u32) -> (fsr_lang::Program, LayoutPlan, Layout) {
        let prog = fsr_lang::compile(src).unwrap();
        let a = fsr_analysis::analyze(&prog).unwrap();
        let plan = fsr_transform::plan_for(&prog, &a, &PlanConfig::default());
        let layout = Layout::build(&prog, &plan, nproc);
        (prog, plan, layout)
    }

    fn direct(r: Resolved) -> u32 {
        match r {
            Resolved::Direct(a) => a,
            other => panic!("expected direct, got {other:?}"),
        }
    }

    #[test]
    fn unoptimized_layout_packs_objects() {
        let prog = fsr_lang::compile(
            "param NPROC = 2; shared int a; shared int b; shared int c[4];
             fn main() { forall p in 0 .. NPROC { a = 1; } }",
        )
        .unwrap();
        let plan = LayoutPlan::unoptimized(128);
        let l = Layout::build(&prog, &plan, 2);
        let (a, _) = prog.object_by_name("a").unwrap();
        let (b, _) = prog.object_by_name("b").unwrap();
        let (c, _) = prog.object_by_name("c").unwrap();
        let aa = direct(l.resolve(a, 0, None, 0));
        let ba = direct(l.resolve(b, 0, None, 0));
        let ca = direct(l.resolve(c, 0, None, 0));
        // Packed end-to-end: adjacent words (the false-sharing layout).
        assert_eq!(ba, aa + 1);
        assert_eq!(ca, ba + 1);
        assert_eq!(direct(l.resolve(c, 3, None, 0)), ca + 3);
    }

    #[test]
    fn transposed_counters_land_in_distinct_blocks() {
        let (prog, plan, l) = setup(
            "param NPROC = 4; shared int c[NPROC];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 100 {
                 c[p] = c[p] + 1; } } }",
            4,
        );
        let (c, _) = prog.object_by_name("c").unwrap();
        assert!(plan.get(c).is_some());
        let bw = l.block_bytes / WORD_BYTES;
        let addrs: Vec<u32> = (0..4).map(|e| direct(l.resolve(c, e, None, 0))).collect();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_ne!(
                        addrs[i] / bw,
                        addrs[j] / bw,
                        "elements {i},{j} share a block"
                    );
                }
            }
        }
    }

    #[test]
    fn two_d_transpose_groups_by_owner() {
        let (prog, _plan, l) = setup(
            "param NPROC = 4; shared int m[8][NPROC];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 8 {
                 m[i][p] = m[i][p] + 1; } } }",
            4,
        );
        let (m, _) = prog.object_by_name("m").unwrap();
        // Proc 1's elements (flat = i*4+1) must be contiguous.
        let mut addrs: Vec<u32> = (0..8)
            .map(|i| direct(l.resolve(m, i * 4 + 1, None, 0)))
            .collect();
        addrs.sort();
        for w in addrs.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        // And in a different block from proc 2's elements.
        let bw = l.block_bytes / WORD_BYTES;
        let a2 = direct(l.resolve(m, 2, None, 0));
        assert_ne!(addrs[0] / bw, a2 / bw);
    }

    #[test]
    fn padded_lock_blocks_are_distinct() {
        let (prog, _plan, l) = setup(
            "param NPROC = 2; shared lock lk[4]; shared int x;
             fn main() { forall p in 0 .. NPROC { lock(lk[p]); x = x + 1; unlock(lk[p]); } }",
            2,
        );
        let (lk, _) = prog.object_by_name("lk").unwrap();
        let bw = l.block_bytes / WORD_BYTES;
        let a0 = direct(l.resolve(lk, 0, None, 0));
        let a1 = direct(l.resolve(lk, 1, None, 0));
        assert_eq!(a0 % bw, 0, "locks block-aligned");
        assert_ne!(a0 / bw, a1 / bw);
    }

    #[test]
    fn private_objects_have_per_proc_copies() {
        let prog = fsr_lang::compile(
            "param NPROC = 4; private int t[8];
             fn main() { forall p in 0 .. NPROC { t[0] = p; } }",
        )
        .unwrap();
        let plan = LayoutPlan::unoptimized(64);
        let l = Layout::build(&prog, &plan, 4);
        let (t, _) = prog.object_by_name("t").unwrap();
        let a0 = direct(l.resolve(t, 0, None, 0));
        let a1 = direct(l.resolve(t, 0, None, 1));
        assert_ne!(a0, a1);
        let bw = 64 / WORD_BYTES;
        assert_ne!(a0 / bw, a1 / bw, "per-proc spans are block-aligned");
    }

    #[test]
    fn indirection_resolves_through_pointer() {
        let (prog, plan, l) = setup(
            "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
             fn main() {
                 var q;
                 for q in 0 .. NPROC + 1 { first[q] = q * 64; }
                 forall p in 0 .. NPROC { var i; var t;
                     for t in 0 .. 50 {
                     for i in first[p] .. first[p + 1] { d[i] = d[i] + 1; } }
                 }
             }",
            4,
        );
        let (d, _) = prog.object_by_name("d").unwrap();
        assert!(matches!(plan.get(d), Some(ObjPlan::Indirect { .. })));
        let r = l.resolve(d, 7, None, 0);
        let Resolved::Indirect {
            ptr,
            off,
            slot_words,
            arena,
            lane: _,
        } = r
        else {
            panic!("expected indirect, got {r:?}")
        };
        assert_eq!(off, 0);
        assert_eq!(slot_words, 1);
        // Arena allocation: first touch by different procs gives
        // block-separated chunks.
        let mut ar = Arena::new(&l.arenas[arena as usize]);
        let s0 = ar.alloc(0, 0, slot_words).unwrap();
        let s1 = ar.alloc(1, 0, slot_words).unwrap();
        let s0b = ar.alloc(0, 0, slot_words).unwrap();
        let bw = l.block_bytes / WORD_BYTES;
        assert_ne!(s0 / bw, s1 / bw);
        assert_eq!(s0b, s0 + 1);
        // Pointer table lives inside the d region.
        assert_eq!(l.attribute(ptr * WORD_BYTES), Some(d));
    }

    #[test]
    fn attribution_covers_all_objects() {
        let (prog, _plan, l) = setup(
            "param NPROC = 2; shared int a[16]; shared lock lk; shared int b;
             fn main() { forall p in 0 .. NPROC {
                 lock(lk); b = b + a[p]; unlock(lk); } }",
            2,
        );
        for name in ["a", "lk", "b"] {
            let (oid, _) = prog.object_by_name(name).unwrap();
            let addr = match l.resolve(oid, 0, None, 0) {
                Resolved::Direct(a) => a,
                Resolved::Indirect { ptr, .. } => ptr,
            };
            assert_eq!(l.attribute(addr * WORD_BYTES), Some(oid), "object {name}");
        }
    }

    #[test]
    fn struct_fields_resolve_with_offsets() {
        let prog = fsr_lang::compile(
            "param NPROC = 2; struct N { int a; int b[3]; } shared N nodes[4];
             fn main() { forall p in 0 .. NPROC { nodes[p].a = 1; } }",
        )
        .unwrap();
        let plan = LayoutPlan::unoptimized(64);
        let l = Layout::build(&prog, &plan, 2);
        let (n, _) = prog.object_by_name("nodes").unwrap();
        let base = direct(l.resolve(n, 0, Some((FieldId(0), 0)), 0));
        assert_eq!(direct(l.resolve(n, 0, Some((FieldId(1), 0)), 0)), base + 1);
        assert_eq!(direct(l.resolve(n, 0, Some((FieldId(1), 2)), 0)), base + 3);
        // Next element starts after 4 words.
        assert_eq!(direct(l.resolve(n, 1, Some((FieldId(0), 0)), 0)), base + 4);
    }

    #[test]
    fn field_indirection_leaves_other_fields_in_place() {
        let (prog, plan, l) = setup(
            "param NPROC = 4; struct Node { int key; int acc; }
             shared Node nodes[64];
             fn main() { forall p in 0 .. NPROC { var i;
                 for i in 0 .. 16 {
                     nodes[i * NPROC + p].acc = nodes[i * NPROC + p].acc + 1;
                 }
             } }",
            4,
        );
        let (n, _) = prog.object_by_name("nodes").unwrap();
        let Some(ObjPlan::Indirect { fields }) = plan.get(n) else {
            panic!("expected indirection")
        };
        let acc_field = fields[0];
        // `key` stays direct; `acc` goes through the pointer.
        let key_field = if acc_field == FieldId(0) {
            FieldId(1)
        } else {
            FieldId(0)
        };
        assert!(matches!(
            l.resolve(n, 5, Some((key_field, 0)), 0),
            Resolved::Direct(_)
        ));
        assert!(matches!(
            l.resolve(n, 5, Some((acc_field, 0)), 0),
            Resolved::Indirect { .. }
        ));
    }

    #[test]
    fn arena_exhaustion_returns_none() {
        let spec = ArenaSpec {
            obj: ObjId(0),
            base_word: 100,
            total_words: 8,
            chunk_words: 4,
            nproc: 2,
            lanes: 1,
        };
        let mut a = Arena::new(&spec);
        assert!(a.alloc(0, 0, 4).is_some());
        assert!(a.alloc(1, 0, 4).is_some());
        assert!(a.alloc(0, 0, 4).is_none());
    }

    #[test]
    fn unoptimized_fingerprints_are_block_size_independent() {
        // The unoptimized packed layout never consults the block size, so
        // the same program traced at different simulated block sizes
        // yields one shared address stream — the table2 baseline is
        // interpreted once for all six block sizes.
        let prog = fsr_lang::compile(
            "param NPROC = 4; shared int c[NPROC]; shared int x;
             fn main() { forall p in 0 .. NPROC { c[p] = c[p] + 1; } }",
        )
        .unwrap();
        let a = Layout::build(&prog, &LayoutPlan::unoptimized(8), 4);
        let b = Layout::build(&prog, &LayoutPlan::unoptimized(256), 4);
        assert_eq!(a.trace_fingerprint(), b.trace_fingerprint());
        assert!(a.trace_eq(&b));
        // Different process counts genuinely change the trace.
        let c = Layout::build(&prog, &LayoutPlan::unoptimized(8), 2);
        assert!(!a.trace_eq(&c));
    }

    #[test]
    fn padded_fingerprints_differ_per_block_size() {
        let prog = fsr_lang::compile(
            "param NPROC = 2; shared int c[8];
             fn main() { forall p in 0 .. NPROC { c[p] = 1; } }",
        )
        .unwrap();
        let (c, _) = prog.object_by_name("c").unwrap();
        let mk = |block: u32| {
            let mut plan = LayoutPlan::unoptimized(block);
            plan.insert(c, ObjPlan::PadElems, "test");
            Layout::build(&prog, &plan, 2)
        };
        let a = mk(16);
        let b = mk(128);
        // Element padding spreads addresses by block size: distinct traces.
        assert!(!a.trace_eq(&b));
        assert_ne!(a.trace_fingerprint(), b.trace_fingerprint());
    }

    #[test]
    fn total_words_covers_all_regions() {
        let (_, _, l) = setup(
            "param NPROC = 4; shared int c[NPROC]; private int t[4];
             fn main() { forall p in 0 .. NPROC { var i; for i in 0 .. 10 {
                 c[p] = c[p] + t[0]; } } }",
            4,
        );
        for r in l.regions() {
            assert!(r.end_word <= l.total_words());
        }
    }

    #[test]
    fn word_map_translates_every_resolvable_address() {
        // Struct array + lock + private scratch: exercises field offsets,
        // per-proc copies and element padding in one program.
        let prog = fsr_lang::compile(
            "param NPROC = 4; struct N { int a; int b[3]; }
             shared N nodes[8]; shared lock lk; private int t[2];
             fn main() { forall p in 0 .. NPROC {
                 lock(lk); nodes[p].a = t[0]; unlock(lk); } }",
        )
        .unwrap();
        let (nodes, _) = prog.object_by_name("nodes").unwrap();
        let (lk, _) = prog.object_by_name("lk").unwrap();
        let unopt = Layout::build(&prog, &LayoutPlan::unoptimized(64), 4);
        let mut plan = LayoutPlan::unoptimized(64);
        plan.insert(nodes, ObjPlan::PadElems, "test");
        plan.insert(lk, ObjPlan::PadLock, "test");
        let padded = Layout::build(&prog, &plan, 4);
        assert!(unopt.direct_only() && padded.direct_only());
        let map = unopt.word_map_to(&padded).expect("translation compatible");
        assert_eq!(map.len(), unopt.total_words() as usize);
        // Every resolvable coordinate maps to the padded layout's own
        // resolution of the same coordinate.
        let mut checked = 0u32;
        for (oid, flat, sel, pid) in [
            (nodes, 0u64, None, 0u32),
            (nodes, 3, Some((FieldId(0), 0)), 0),
            (nodes, 3, Some((FieldId(1), 2)), 0),
            (nodes, 7, Some((FieldId(1), 0)), 0),
            (lk, 0, None, 0),
        ]
        .into_iter()
        .chain((0..4).map(|pid| (prog.object_by_name("t").unwrap().0, 1u64, None, pid)))
        {
            let a = direct(unopt.resolve(oid, flat, sel, pid));
            let b = direct(padded.resolve(oid, flat, sel, pid));
            assert_eq!(map[a as usize], b, "obj {oid:?} flat {flat} pid {pid}");
            checked += 1;
        }
        assert_eq!(checked, 9);
        // The reverse map round-trips.
        let back = padded.word_map_to(&unopt).expect("reverse map");
        for (w, &m) in map.iter().enumerate() {
            if m != u32::MAX {
                assert_eq!(back[m as usize], w as u32);
            }
        }
    }

    #[test]
    fn word_map_refuses_indirection_and_mismatched_geometry() {
        let (prog, plan, ind) = setup(
            "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
             fn main() {
                 var q;
                 for q in 0 .. NPROC + 1 { first[q] = q * 64; }
                 forall p in 0 .. NPROC { var i; var t;
                     for t in 0 .. 50 {
                     for i in first[p] .. first[p + 1] { d[i] = d[i] + 1; } }
                 }
             }",
            4,
        );
        let (d, _) = prog.object_by_name("d").unwrap();
        assert!(matches!(plan.get(d), Some(ObjPlan::Indirect { .. })));
        assert!(!ind.direct_only());
        let unopt = Layout::build(&prog, &LayoutPlan::unoptimized(64), 4);
        assert!(
            unopt.word_map_to(&ind).is_none(),
            "indirection is interpreter state"
        );
        assert!(ind.word_map_to(&unopt).is_none());
        // Different program geometry: refused.
        let other = fsr_lang::compile(
            "param NPROC = 4; shared int c[8];
             fn main() { forall p in 0 .. NPROC { c[p] = 1; } }",
        )
        .unwrap();
        let ol = Layout::build(&other, &LayoutPlan::unoptimized(64), 4);
        assert!(unopt.word_map_to(&ol).is_none());
        // Different process counts: refused.
        let n2 = Layout::build(&prog, &LayoutPlan::unoptimized(64), 2);
        assert!(unopt.word_map_to(&n2).is_none());
    }

    #[test]
    fn try_build_accepts_ordinary_programs() {
        let prog = fsr_lang::compile(
            "param NPROC = 4; shared int c[NPROC];
             fn main() { forall p in 0 .. NPROC { c[p] = 1; } }",
        )
        .unwrap();
        for plan in [LayoutPlan::unoptimized(128), LayoutPlan::unoptimized(4)] {
            let l = Layout::try_build(&prog, &plan, 4).unwrap();
            assert_eq!(
                l.total_words(),
                Layout::build(&prog, &plan, 4).total_words()
            );
        }
    }

    #[test]
    fn try_build_rejects_address_space_overflow() {
        // 2^31 elements cannot be addressed in the 32-bit word space
        // even unpadded; `build` would silently truncate the footprint.
        let prog = fsr_lang::compile(
            "param NPROC = 2; shared int huge[2147483648];
             fn main() { forall p in 0 .. NPROC { huge[p] = 1; } }",
        )
        .unwrap();
        let e = Layout::try_build(&prog, &LayoutPlan::unoptimized(128), 2).unwrap_err();
        let LayoutError::AddressSpaceOverflow {
            words_bound,
            words_max,
        } = e;
        assert!(words_bound > words_max);
        assert_eq!(words_max, MAX_WORDS);
    }

    #[test]
    fn try_build_rejects_padding_blowup() {
        // 80M elements fit unpadded (~80M words) but one-block-per-element
        // padding at 128 B inflates them past the 2^30-word space.
        let src = "param NPROC = 2; shared int big[80000000];
             fn main() { forall p in 0 .. NPROC { big[p] = 1; } }";
        let prog = fsr_lang::compile(src).unwrap();
        assert!(Layout::try_build(&prog, &LayoutPlan::unoptimized(128), 2).is_ok());
        let (big, _) = prog.object_by_name("big").unwrap();
        let mut plan = LayoutPlan::unoptimized(128);
        plan.insert(big, ObjPlan::PadElems, "test");
        assert!(matches!(
            Layout::try_build(&prog, &plan, 2),
            Err(LayoutError::AddressSpaceOverflow { .. })
        ));
    }
}
