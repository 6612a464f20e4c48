//! Numeric and process helpers: quantiles, the output digest, and the
//! `/proc` readings behind `peak_rss_mb` and the CPU-time denominators.

/// Quantile of ascending `sorted` by linear interpolation between
/// closest ranks (Python's `statistics.quantiles(..., method="inclusive")`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// First and third quartile of ascending `sorted`, as Python's
/// `statistics.quantiles(values, n=4)` (its default, exclusive method)
/// gives them; run-to-run spreads are judged that way.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let x = sorted.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // Past either end (few samples), this extrapolates from the two
        // end points, as Python does.
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// FNV-1a over 64 bits: a fixed, dependency-free digest, so pinned
/// values never move with the toolchain's hasher.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Length-prefixed, so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sequence of already-digested cells, in order.
pub fn digest_cells(cells: &[(String, String)]) -> String {
    let mut d = Digest::default();
    for (label, hex) in cells {
        d.str(label);
        d.str(hex);
    }
    d.hex()
}

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// High-water resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = proc_file("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// User + system CPU seconds consumed by every thread of this process
/// so far (`/proc/self/stat`, in USER_HZ = 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = proc_file("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric stat field") };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_inclusive_method() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn digest_is_the_fnv1a_reference() {
        // FNV-1a 64 of "a" is the published test vector.
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
