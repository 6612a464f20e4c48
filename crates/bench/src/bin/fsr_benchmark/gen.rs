//! Seeded input generators. Every workload's inputs are a pure function
//! of `--seed` (and the client index): the same seed gives the same
//! request and cell sequences, another seed gives other ones.

use fsr_core::{InterconnectKind, ProtocolKind};

/// splitmix64: tiny, well-mixed, and fixed forever, so a seed names the
/// same inputs on every toolchain.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per (seed, purpose).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Documents each serve client owns: client `c` opens every workload
/// whose index in `fsr_workloads::all()` is `c` modulo the client count,
/// so no two clients ever touch the same document or source content.
pub fn client_docs(client: usize, clients: usize) -> Vec<&'static str> {
    fsr_workloads::all()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % clients == client)
        .map(|(_, w)| w.name)
        .collect()
}

pub const CACHE_BYTES: [u32; 4] = [8 << 10, 16 << 10, 32 << 10, 64 << 10];
pub const ASSOCS: [u32; 4] = [1, 2, 4, 8];

/// One `simulate` request of `serve-sweep`, against a client's document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimReq {
    /// Index into the client's documents.
    pub doc: usize,
    pub compiler: bool,
    pub protocol: ProtocolKind,
    pub interconnect: InterconnectKind,
    pub cache_bytes: u32,
    pub assoc: u32,
}

impl SimReq {
    /// The configuration every document is primed with: the pipeline
    /// defaults (MSI, KSR2 ring, 32 KB, 4-way).
    pub fn prime(doc: usize, compiler: bool) -> SimReq {
        SimReq {
            doc,
            compiler,
            protocol: ProtocolKind::Msi,
            interconnect: InterconnectKind::Ksr2Ring,
            cache_bytes: 32 << 10,
            assoc: 4,
        }
    }
}

/// A `serve-sweep` request and whether it repeats an earlier one (and
/// so must be answered from the result cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReq {
    pub sim: SimReq,
    pub repeat: bool,
}

/// `n` sweep requests for one client: in every run of four, three are
/// configurations this client never sent (answered by replaying the
/// primed trace) and one, at a seeded position, repeats a seeded earlier
/// one, primes included (answered from the result cache).
pub fn sweep_requests(seed: u64, client: usize, docs: usize, n: usize) -> Vec<SweepReq> {
    let mut rng = Rng::new(seed, 0x5eed_0000 + client as u64);
    let mut fresh = Vec::new();
    for doc in 0..docs {
        for compiler in [false, true] {
            for protocol in ProtocolKind::ALL {
                for interconnect in InterconnectKind::ALL {
                    for cache_bytes in CACHE_BYTES {
                        for assoc in ASSOCS {
                            let sim = SimReq {
                                doc,
                                compiler,
                                protocol,
                                interconnect,
                                cache_bytes,
                                assoc,
                            };
                            if sim != SimReq::prime(doc, compiler) {
                                fresh.push(sim);
                            }
                        }
                    }
                }
            }
        }
    }
    rng.shuffle(&mut fresh);
    assert!(
        n.div_ceil(4) * 3 <= fresh.len(),
        "{n} requests exhaust the configuration space"
    );
    let mut issued: Vec<SimReq> = (0..docs)
        .flat_map(|d| [SimReq::prime(d, false), SimReq::prime(d, true)])
        .collect();
    let mut fresh = fresh.into_iter();
    let mut out = Vec::with_capacity(n);
    let mut repeat_at = 0;
    for i in 0..n {
        if i % 4 == 0 {
            repeat_at = i + rng.below(4);
        }
        if i == repeat_at {
            let sim = issued[rng.below(issued.len())];
            out.push(SweepReq { sim, repeat: true });
        } else {
            let sim = fresh.next().expect("space checked above");
            issued.push(sim);
            out.push(SweepReq { sim, repeat: false });
        }
    }
    out
}

/// One `serve-edit` triple: change document `doc` to its original text
/// plus a comment line carrying `salt`, then lint it, then plan it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    pub doc: usize,
    pub salt: u64,
}

/// `n` edit triples for one client, over its `docs` documents.
pub fn edits(seed: u64, client: usize, docs: usize, n: usize) -> Vec<Edit> {
    let mut rng = Rng::new(seed, 0xed17_0000 + client as u64);
    (0..n)
        .map(|_| Edit {
            doc: rng.below(docs),
            salt: rng.next_u64(),
        })
        .collect()
}

/// The edited text: the comment changes the content fingerprint (every
/// cache key) but not the program, so lint and plan answers must not
/// change.
pub fn edited(original: &str, salt: u64) -> String {
    format!("{original}\n// edit {salt:016x}\n")
}

/// One `solo-cells` cell: a single large job run as its own batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub program: &'static str,
    pub compiler: bool,
    /// `None` is the paper's round-robin schedule.
    pub work_steal: Option<u64>,
}

impl Cell {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.program,
            if self.compiler { "C" } else { "N" },
            match self.work_steal {
                None => "round_robin".to_string(),
                Some(s) => format!("work_steal{{{s}}}"),
            }
        )
    }
}

/// Every program × {N, C} × {round-robin, work-steal} cell, in a seeded
/// order; the work-steal seed is derived from `seed` too.
pub fn solo_cells(seed: u64, programs: &[&'static str]) -> Vec<Cell> {
    let mut rng = Rng::new(seed, 0xce11_0000);
    let ws_seed = rng.next_u64() >> 1;
    let mut cells = Vec::new();
    for &program in programs {
        for compiler in [false, true] {
            for work_steal in [None, Some(ws_seed)] {
                cells.push(Cell {
                    program,
                    compiler,
                    work_steal,
                });
            }
        }
    }
    rng.shuffle(&mut cells);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequences_other_seed_other_sequences() {
        assert_eq!(sweep_requests(1, 0, 5, 200), sweep_requests(1, 0, 5, 200));
        assert_ne!(sweep_requests(1, 0, 5, 200), sweep_requests(2, 0, 5, 200));
        assert_ne!(sweep_requests(1, 0, 5, 200), sweep_requests(1, 1, 5, 200));
        assert_eq!(edits(1, 0, 5, 50), edits(1, 0, 5, 50));
        assert_ne!(edits(1, 0, 5, 50), edits(2, 0, 5, 50));
        let progs = ["fmm", "raytrace", "water", "maxflow"];
        assert_eq!(solo_cells(1, &progs), solo_cells(1, &progs));
        assert_ne!(solo_cells(1, &progs), solo_cells(2, &progs));
    }

    #[test]
    fn sweep_mix_is_three_new_to_one_repeat() {
        let reqs = sweep_requests(9, 1, 5, 400);
        assert_eq!(reqs.iter().filter(|r| r.repeat).count(), 100);
        let mut seen: Vec<SimReq> = (0..5)
            .flat_map(|d| [SimReq::prime(d, false), SimReq::prime(d, true)])
            .collect();
        for r in &reqs {
            assert_eq!(r.repeat, seen.contains(&r.sim), "{r:?}");
            if !r.repeat {
                seen.push(r.sim);
            }
        }
    }

    #[test]
    fn clients_split_the_ten_workloads() {
        let (a, b) = (client_docs(0, 2), client_docs(1, 2));
        assert_eq!((a.len(), b.len()), (5, 5));
        assert!(a.iter().all(|d| !b.contains(d)));
    }

    #[test]
    fn edited_text_still_compiles_to_the_same_program() {
        let w = fsr_workloads::by_name("water").unwrap();
        let params = [("NPROC", 4), ("SCALE", 1)];
        let a = fsr_lang::compile_with_params(w.source, &params).unwrap();
        let b = fsr_lang::compile_with_params(&edited(w.source, 7), &params).unwrap();
        assert_eq!(a.objects.len(), b.objects.len());
    }
}
