//! Shared configuration and rendering for the experiment binaries.
//!
//! Every binary reads the same environment knobs:
//! - `FSR_NPROC`   — process count for miss-rate experiments (default 12)
//! - `FSR_SCALE`   — problem-size multiplier (default 2)
//! - `FSR_THREADS` — worker threads (default: available parallelism)
//!
//! An unset knob keeps its default; a set one that does not parse is a
//! usage error (exit 2, naming the knob and its value), never a silent
//! fallback. Run the binaries with
//! `cargo run -p fsr-bench --release --bin <name>`.

use fsr_workloads::Workload;
use std::fmt::Write as _;

/// Environment-configurable experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub nproc: i64,
    pub scale: i64,
    pub threads: usize,
}

impl Knobs {
    /// The knobs from this process's environment; exits 2 on a bad one.
    pub fn from_env() -> Knobs {
        or_exit(Knobs::parse(env_var))
    }

    /// The knobs from a variable lookup (`None` = unset: the default). A
    /// set value that does not parse is an error naming the variable and
    /// the value.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let num = |name: &str, default: u32| match var(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
        };
        Ok(Knobs {
            nproc: num("FSR_NPROC", 12)?.into(),
            scale: num("FSR_SCALE", 2)?.into(),
            threads: num("FSR_THREADS", 0)? as usize,
        })
    }
}

/// An environment variable's value (`None` = unset). A value that is not
/// Unicode comes back lossily, so it fails to parse instead of vanishing.
fn env_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// `r`'s value, or exit 2 with its error: a mistyped knob or flag.
fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Workloads named in the comma-separated `value` of variable `var`
/// (unset or empty: `default`), matched case-insensitively. An unknown
/// name is an error naming the variable, the value and the valid names.
fn parse_workloads(
    var: &str,
    value: Option<&str>,
    default: &[&str],
) -> Result<Vec<Workload>, String> {
    let names = match value {
        Some(v) if !v.is_empty() => v.split(',').map(str::trim).collect(),
        _ => default.to_vec(),
    };
    names
        .into_iter()
        .map(|n| {
            fsr_workloads::by_name(n).ok_or_else(|| {
                let valid: Vec<&str> = fsr_workloads::all().iter().map(|w| w.name).collect();
                let value = value.unwrap_or_default();
                format!(
                    "{var}={value:?}: unknown workload {n:?} (valid: {})",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// The workloads listed in environment variable `var` (unset or empty:
/// `default`); exits 2, naming the valid names, on an unknown one.
pub fn workloads_from_env(var: &str, default: &[&str]) -> Vec<Workload> {
    or_exit(parse_workloads(var, env_var(var).as_deref(), default))
}

/// Whether `flag` was given, when it is the one argument accepted: any
/// other argument is an error naming it.
fn parse_flag(args: &[String], flag: &str) -> Result<bool, String> {
    match args.iter().find(|a| *a != flag) {
        Some(a) => Err(format!("unknown argument {a:?} (accepted: {flag})")),
        None => Ok(!args.is_empty()),
    }
}

/// Whether this process was given `flag`, its one accepted argument;
/// exits 2 on any other argument.
pub fn flag(flag: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_exit(parse_flag(&args, flag))
}

/// `s` as a quoted JSON string.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", fsr_lang::diag::json_escape(s))
}

/// The processor counts used for the scalability sweeps (KSR2-like: up
/// to 56 processors, two rings).
pub const SWEEP_PROCS: &[u32] = &[1, 2, 4, 8, 12, 16, 20, 28, 40, 48, 56];

/// Fixed-width table renderer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c == 0 {
                    let _ = write!(out, "{:<w$}", cell, w = widths[c]);
                } else {
                    let _ = write!(out, "  {:>w$}", cell, w = widths[c]);
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

/// Format a speedup pair "s (p)" like the paper's Table 3.
pub fn fmt_speedup(s: Option<(f64, u32)>) -> String {
    match s {
        Some((v, p)) => format!("{v:.1} ({p})"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2345".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    /// A variable lookup over fixed (name, value) pairs.
    fn env_of<'a>(pairs: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| Some(pairs.iter().find(|p| p.0 == k)?.1.to_string())
    }

    #[test]
    fn knobs_have_defaults() {
        let k = Knobs::parse(|_| None).unwrap();
        assert_eq!((k.nproc, k.scale, k.threads), (12, 2, 0));
    }

    #[test]
    fn set_knobs_parse_and_mistyped_ones_are_errors() {
        let set = [("FSR_NPROC", "4"), ("FSR_SCALE", "1"), ("FSR_THREADS", "3")];
        let k = Knobs::parse(env_of(&set)).unwrap();
        assert_eq!((k.nproc, k.scale, k.threads), (4, 1, 3));
        for (name, bad) in [
            ("FSR_NPROC", "twelve"),
            ("FSR_SCALE", "2x"),
            ("FSR_THREADS", "-1"),
            ("FSR_NPROC", ""),
        ] {
            let e = Knobs::parse(env_of(&[(name, bad)])).unwrap_err();
            assert!(e.contains(name) && e.contains(&format!("{bad:?}")), "{e}");
        }
    }

    #[test]
    fn workload_lists_resolve_or_name_the_bad_entry() {
        let names = |v, default| -> Vec<&str> {
            let ws = parse_workloads("FSR_W", v, default).unwrap();
            ws.iter().map(|w| w.name).collect()
        };
        assert_eq!(names(Some("FMM, water"), &["mp3d"]), ["fmm", "water"]);
        assert_eq!(names(Some(""), &["mp3d"]), ["mp3d"]);
        assert_eq!(names(None, &["mp3d"]), ["mp3d"]);
        let e = parse_workloads("FSR_W", Some("wter,fmm"), &[]).unwrap_err();
        assert!(
            e.contains("FSR_W=\"wter,fmm\"") && e.contains("\"wter\""),
            "{e}"
        );
        assert!(
            fsr_workloads::all().iter().all(|w| e.contains(w.name)),
            "{e}"
        );
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_flag(&args(&[]), "--smoke"), Ok(false));
        assert_eq!(parse_flag(&args(&["--smoke"]), "--smoke"), Ok(true));
        let e = parse_flag(&args(&["--smoek"]), "--smoke").unwrap_err();
        assert!(e.contains("--smoek") && e.contains("--smoke"), "{e}");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some((4.25, 16))), "4.2 (16)");
        assert_eq!(fmt_speedup(None), "-");
    }
}
