//! Phase spans for non-concurrency analysis (stage 2).
//!
//! Barrier synchronization splits an SPMD program into *phases* that
//! cannot execute concurrently: everything before barrier k happens
//! before everything after it, on every process. Statically, each
//! statement is assigned a span of phases it may execute in. Straight-line
//! code gets a point span; code inside barrier-containing loops gets a
//! widened span (the loop body repeats across phases).
//!
//! Phase 0 is the serial prologue (code before the `forall`, executed by
//! the spawning process); the forall entry acts as an implicit barrier
//! starting phase 1.

use std::fmt;

/// Saturating upper bound used for "repeats indefinitely" (loops whose
/// barrier count per iteration is non-zero but whose trip count is
/// unknown).
pub const PHASE_MAX: u32 = u32::MAX;

/// An inclusive range of phase indices a statement may execute in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub lo: u32,
    pub hi: u32,
}

impl PhaseSpan {
    pub fn point(p: u32) -> PhaseSpan {
        PhaseSpan { lo: p, hi: p }
    }

    pub fn new(lo: u32, hi: u32) -> PhaseSpan {
        debug_assert!(lo <= hi);
        PhaseSpan { lo, hi }
    }

    /// Union (convex hull).
    pub fn join(self, other: PhaseSpan) -> PhaseSpan {
        PhaseSpan {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// True when every phase in `self` is strictly before every phase in
    /// `other` — the non-concurrency guarantee used to validate partition
    /// assumptions ("written in a setup phase that completes before any
    /// use").
    pub fn strictly_before(self, other: PhaseSpan) -> bool {
        self.hi < other.lo
    }

    /// Can the two spans ever be the same phase?
    pub fn may_overlap(self, other: PhaseSpan) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    pub fn is_unbounded(self) -> bool {
        self.hi == PHASE_MAX
    }
}

impl fmt::Display for PhaseSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else if self.hi == PHASE_MAX {
            write!(f, "{}..∞", self.lo)
        } else {
            write!(f, "{}..{}", self.lo, self.hi)
        }
    }
}

/// Tracks the phase counter during the summary walk. Barriers advance the
/// counter; loops with interior barriers widen it to an unbounded span.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCounter {
    /// Lowest phase the walker may currently be in.
    pub lo: u32,
    /// Highest phase the walker may currently be in.
    pub hi: u32,
}

impl PhaseCounter {
    pub fn start() -> PhaseCounter {
        PhaseCounter { lo: 0, hi: 0 }
    }

    pub fn current(&self) -> PhaseSpan {
        PhaseSpan {
            lo: self.lo,
            hi: self.hi,
        }
    }

    /// Cross a barrier.
    pub fn barrier(&mut self) {
        self.lo = self.lo.saturating_add(1);
        self.hi = self.hi.saturating_add(1);
    }

    /// Enter/exit a loop whose body contains barriers: once the loop may
    /// repeat, the phase is only bounded below.
    pub fn widen(&mut self) {
        self.hi = PHASE_MAX;
    }

    /// Merge two control-flow arms (if/else).
    pub fn join(&mut self, other: PhaseCounter) {
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_join() {
        let a = PhaseSpan::point(1);
        let b = PhaseSpan::point(3);
        assert_eq!(a.join(b), PhaseSpan::new(1, 3));
    }

    #[test]
    fn strictly_before_semantics() {
        assert!(PhaseSpan::point(1).strictly_before(PhaseSpan::point(2)));
        assert!(!PhaseSpan::point(2).strictly_before(PhaseSpan::point(2)));
        assert!(!PhaseSpan::new(1, 3).strictly_before(PhaseSpan::new(3, 4)));
        assert!(PhaseSpan::new(1, 2).strictly_before(PhaseSpan::new(3, PHASE_MAX)));
    }

    #[test]
    fn overlap_checks() {
        assert!(PhaseSpan::new(1, 3).may_overlap(PhaseSpan::new(3, 5)));
        assert!(!PhaseSpan::new(1, 2).may_overlap(PhaseSpan::new(3, 5)));
    }

    #[test]
    fn counter_barrier_advances() {
        let mut c = PhaseCounter::start();
        c.barrier();
        c.barrier();
        assert_eq!(c.current(), PhaseSpan::point(2));
    }

    #[test]
    fn counter_widen_saturates() {
        let mut c = PhaseCounter::start();
        c.barrier();
        c.widen();
        assert!(c.current().is_unbounded());
        c.barrier(); // saturates, no overflow
        assert!(c.current().is_unbounded());
        assert_eq!(c.current().lo, 2);
    }

    #[test]
    fn counter_join_merges_arms() {
        let mut a = PhaseCounter { lo: 2, hi: 2 };
        let b = PhaseCounter { lo: 4, hi: 5 };
        a.join(b);
        assert_eq!(a.lo, 2);
        assert_eq!(a.hi, 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PhaseSpan::point(3).to_string(), "3");
        assert_eq!(PhaseSpan::new(1, 4).to_string(), "1..4");
        assert_eq!(PhaseSpan::new(1, PHASE_MAX).to_string(), "1..∞");
    }
}
