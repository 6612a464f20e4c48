//! Shape tests for the experiment harness: small-scale versions of the
//! paper's tables and figures must show the qualitative results the
//! paper reports.

use fsr_core::experiments::{
    figure3, headline, speedup_sweep, t1_unoptimized, table2_jobs, table2_rows, Vsn,
};
use fsr_core::World;

#[test]
fn figure3_shape_fs_dominates_and_is_removed() {
    let rows = figure3(8, 1, &[128], 0);
    assert_eq!(rows.len(), 12); // 6 programs x 2 versions
    for w in fsr_workloads::figure3_set() {
        let base = rows
            .iter()
            .find(|r| r.program == w.name && r.version == "unopt")
            .unwrap();
        let opt = rows
            .iter()
            .find(|r| r.program == w.name && r.version == "compiler")
            .unwrap();
        assert!(
            opt.fs_miss_rate < base.fs_miss_rate,
            "{}: fs rate {} -> {}",
            w.name,
            base.fs_miss_rate,
            opt.fs_miss_rate
        );
    }
}

#[test]
fn table2_attribution_matches_paper_dominance() {
    // Built and run on one snapshot, as `table2` does: the ablation
    // plans come from the snapshot's front ends, so the batch finds all
    // six Figure 3 programs compiled and compiles none.
    let snap = World::transient().snapshot();
    let jobs = table2_jobs(&snap, 8, 1, &[64, 128]).unwrap();
    let (results, stats) = snap.run_batch_with_stats(jobs, 0);
    assert_eq!(stats.front_ends, 0, "{stats:?}");
    assert_eq!(stats.fe_hits, 6, "{stats:?}");
    let rows = table2_rows(&[64, 128], results);
    let get = |name: &str| rows.iter().find(|r| r.program == name).unwrap();

    // Maxflow: pad & align dominates; no G&T or indirection (Table 2).
    let m = get("maxflow");
    assert!(m.pad_pct > m.transpose_pct && m.pad_pct > m.indirection_pct);
    assert_eq!(m.transpose_pct, 0.0);
    assert_eq!(m.indirection_pct, 0.0);

    // Pverify: indirection dominates.
    let p = get("pverify");
    assert!(
        p.indirection_pct > p.transpose_pct,
        "pverify: ind {} vs g&t {}",
        p.indirection_pct,
        p.transpose_pct
    );

    // Fmm / Radiosity / Raytrace: G&T dominates.
    for name in ["fmm", "radiosity", "raytrace"] {
        let r = get(name);
        assert!(
            r.transpose_pct > r.pad_pct && r.transpose_pct > r.indirection_pct,
            "{name}: g&t {} pad {} ind {}",
            r.transpose_pct,
            r.pad_pct,
            r.indirection_pct
        );
    }

    // Topopt: G&T leads, indirection contributes, residual remains.
    let t = get("topopt");
    assert!(t.transpose_pct > t.indirection_pct);
    assert!(t.indirection_pct > 0.0);
    assert!(
        t.total_reduction_pct < 99.9,
        "topopt must keep its residual"
    );
}

#[test]
fn headline_matches_paper_bands() {
    let h = headline(12, 1, 128, 0);
    // Paper: ~70% of misses are false sharing at 128B.
    assert!(
        h.fs_share_of_misses > 0.4 && h.fs_share_of_misses < 0.95,
        "fs share {}",
        h.fs_share_of_misses
    );
    // Paper: ~80% of false-sharing misses eliminated.
    assert!(h.fs_eliminated > 0.6, "eliminated {}", h.fs_eliminated);
    // Paper: total misses roughly halved.
    assert!(
        h.total_miss_change < -0.3,
        "total change {}",
        h.total_miss_change
    );
}

#[test]
fn speedup_curves_order_versions() {
    // Coarse sweep: the compiler version's best point beats the
    // unoptimized version's best point for the N-version programs.
    let procs = [1, 4, 8, 16];
    for name in ["pverify", "radiosity", "topopt"] {
        let w = fsr_workloads::by_name(name).unwrap();
        let t1 = t1_unoptimized(&w, 1, 128).unwrap();
        let n = speedup_sweep(&w, Vsn::N, &procs, 1, 128, 0).max_speedup(t1);
        let c = speedup_sweep(&w, Vsn::C, &procs, 1, 128, 0).max_speedup(t1);
        assert!(
            c.0 > n.0,
            "{name}: compiler {:.2} not above unoptimized {:.2}",
            c.0,
            n.0
        );
    }
}

#[test]
fn unoptimized_versions_stop_scaling_earlier() {
    // The paper's central scalability claim, on the starkest example.
    let w = fsr_workloads::by_name("fmm").unwrap();
    let t1 = t1_unoptimized(&w, 1, 128).unwrap();
    let procs = [1, 4, 8, 16, 28, 40];
    let n = speedup_sweep(&w, Vsn::N, &procs, 1, 128, 0);
    let c = speedup_sweep(&w, Vsn::C, &procs, 1, 128, 0);
    let (ns, _) = n.max_speedup(t1);
    let (cs, _) = c.max_speedup(t1);
    assert!(cs > ns * 1.3, "fmm: compiler {cs:.2} vs unopt {ns:.2}");
}
