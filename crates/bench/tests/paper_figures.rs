//! Pins the deterministic figures of the paper harness.
//!
//! Node accesses, charged milliseconds, authentication bytes, result
//! cardinalities and storage sizes are all exact functions of the seeded
//! datasets and workloads, so Figures 5, 6 and 8 and ablations E5/E6 must not
//! move by a single count under a refactor of the deployments behind them.
//! The constants below were recorded from `ExperimentConfig::smoke()`; only
//! the wall-clock `client_verify_ms` (Fig. 7) is left unpinned.

use sae_bench::experiments::{
    run_ablation_scan, run_ablation_updates, run_comparison, ExperimentConfig,
};
use sae_core::{QueryMetrics, StorageBreakdown};

/// The update count the `experiments ablation-updates` command runs.
const UPDATES: usize = 200;

/// `QueryMetrics` with the wall-clock field taken from `actual`, so the
/// comparison covers every deterministic field and nothing else.
fn pinned(actual: &QueryMetrics, expected: [u64; 4], charged_ms: [f64; 2]) -> QueryMetrics {
    let [result_cardinality, sp_node_accesses, te_node_accesses, auth_bytes] = expected;
    QueryMetrics {
        result_cardinality,
        sp_node_accesses,
        sp_charged_ms: charged_ms[0],
        te_node_accesses,
        te_charged_ms: charged_ms[1],
        auth_bytes,
        client_verify_ms: actual.client_verify_ms,
        verified: true,
    }
}

fn storage(sp_dataset_bytes: u64, sp_index_bytes: u64, te_bytes: u64) -> StorageBreakdown {
    StorageBreakdown {
        sp_dataset_bytes,
        sp_index_bytes,
        te_bytes,
    }
}

#[test]
fn smoke_comparison_figures_match_the_recorded_counts() {
    let rows = run_comparison(&ExperimentConfig::smoke());
    // (n, SAE [card, sp acc, te acc, auth], SAE charged [sp, te],
    //  TOM [card, sp acc, te acc, auth], TOM charged [sp, te],
    //  SAE storage, TOM storage)
    let expected = [
        (
            5_000,
            [24, 5, 2, 20],
            [59.5, 21.0],
            [24, 14, 0, 4_236],
            [141.0, 0.0],
            storage(2_560_000, 65_536, 167_936),
            storage(2_560_000, 167_936, 0),
        ),
        (
            10_000,
            [50, 9, 2, 20],
            [95.0, 25.0],
            [50, 18, 0, 5_667],
            [184.0, 0.0],
            storage(5_120_000, 126_976, 327_680),
            storage(5_120_000, 327_680, 0),
        ),
    ];
    assert_eq!(rows.len(), expected.len());
    for (row, (n, sae, sae_ms, tom, tom_ms, sae_storage, tom_storage)) in rows.iter().zip(expected)
    {
        assert_eq!(row.distribution, "UNF");
        assert_eq!(row.n, n);
        assert_eq!(row.sae, pinned(&row.sae, sae, sae_ms), "SAE at n = {n}");
        assert_eq!(row.tom, pinned(&row.tom, tom, tom_ms), "TOM at n = {n}");
        assert_eq!(row.sae_storage, sae_storage, "SAE storage at n = {n}");
        assert_eq!(row.tom_storage, tom_storage, "TOM storage at n = {n}");
    }
}

#[test]
fn smoke_te_scan_ablation_matches_the_recorded_counts() {
    let rows = run_ablation_scan(&ExperimentConfig::smoke());
    // (n, XB-Tree accesses, scan accesses, XB-Tree ms, scan ms)
    let expected = [(5_000, 2, 40, 20.0, 400.0), (10_000, 2, 79, 20.0, 790.0)];
    assert_eq!(rows.len(), expected.len());
    for (row, (n, xbtree, scan, xbtree_ms, scan_ms)) in rows.iter().zip(expected) {
        assert_eq!(row.n, n);
        assert_eq!(row.xbtree_node_accesses, xbtree, "n = {n}");
        assert_eq!(row.scan_node_accesses, scan, "n = {n}");
        assert_eq!(row.xbtree_charged_ms, xbtree_ms, "n = {n}");
        assert_eq!(row.scan_charged_ms, scan_ms, "n = {n}");
    }
}

#[test]
fn smoke_update_ablation_matches_the_recorded_counts() {
    let rows = run_ablation_updates(&ExperimentConfig::smoke(), UPDATES);
    // (n, SAE SP, TE, TOM SP) node accesses per insert+delete pair
    let expected = [(5_000, 9.025, 10.05, 15.03), (10_000, 9.01, 10.055, 15.035)];
    assert_eq!(rows.len(), expected.len());
    for (row, (n, sae_sp, te, tom_sp)) in rows.iter().zip(expected) {
        assert_eq!(row.n, n);
        assert_eq!(row.sae_sp_accesses_per_update, sae_sp, "n = {n}");
        assert_eq!(row.te_accesses_per_update, te, "n = {n}");
        assert_eq!(row.tom_sp_accesses_per_update, tom_sp, "n = {n}");
    }
}
