//! Figure 3: total miss rates for unoptimized vs compiler-transformed
//! versions at 16- and 128-byte blocks, split into false-sharing and
//! other misses.

use fsr_bench::{Knobs, Table};
use fsr_core::experiments::figure3;

fn main() {
    let k = Knobs::from_env();
    if fsr_bench::flag("--smoke") {
        // Quick end-to-end sanity pass for CI: small config, shape checks
        // only. Used by scripts/tier1.sh.
        let rows = figure3(4, 1, &[16, 128], k.threads);
        assert_eq!(rows.len(), 24, "6 programs x 2 blocks x 2 versions");
        assert!(rows
            .iter()
            .all(|r| r.fs_miss_rate.is_finite() && r.other_miss_rate.is_finite()));
        assert!(
            rows.iter().any(|r| r.fs_miss_rate > 0.0),
            "some unoptimized version must false-share"
        );
        println!("fig3 --smoke OK ({} rows)", rows.len());
        return;
    }
    eprintln!("fig3: nproc={} scale={}", k.nproc, k.scale);
    let rows = figure3(k.nproc, k.scale, &[16, 128], k.threads);
    for block in [16u32, 128] {
        let mut t = Table::new(&[
            "program",
            "version",
            "refs",
            "fs miss%",
            "other miss%",
            "total miss%",
        ]);
        for r in rows.iter().filter(|r| r.block == block) {
            t.row(vec![
                r.program.clone(),
                r.version.clone(),
                r.refs.to_string(),
                format!("{:.3}", 100.0 * r.fs_miss_rate),
                format!("{:.3}", 100.0 * r.other_miss_rate),
                format!("{:.3}", 100.0 * (r.fs_miss_rate + r.other_miss_rate)),
            ]);
        }
        println!(
            "Figure 3 ({}B blocks, {} processors)\n{}",
            block,
            k.nproc,
            t.render()
        );
    }
}
