//! Pretty-printers that lay the measured rows out like the paper's figures.

use crate::experiments::{
    AblationRow, ComparisonRow, DurabilityRow, FanoutRow, GroupCommitRow, MemoryAblationRow,
    NetRow, ReplicaRow, ShardedThroughputRow, ThroughputRow, UpdateRow, WalRow,
};
use serde::Serialize;

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

fn by_distribution<'a>(rows: &'a [ComparisonRow], dist: &str) -> Vec<&'a ComparisonRow> {
    rows.iter().filter(|r| r.distribution == dist).collect()
}

/// Figure 5: communication overhead (authentication bytes) vs n.
pub fn print_fig5(rows: &[ComparisonRow]) {
    header("Figure 5 — Communication overhead vs n (bytes of authentication information)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>18} {:>18} {:>10}",
            "n", "SAE TE-client [B]", "TOM SP-client [B]", "ratio"
        );
        for r in subset {
            println!(
                "  {:>10} {:>18} {:>18} {:>9.0}x",
                r.n,
                r.sae.auth_bytes,
                r.tom.auth_bytes,
                r.tom.auth_bytes as f64 / r.sae.auth_bytes.max(1) as f64
            );
        }
    }
}

/// Figure 6: query processing time (charged ms at 10 ms per node access) vs n.
pub fn print_fig6(rows: &[ComparisonRow]) {
    header("Figure 6 — Query processing time vs n (ms, 10 ms per node access)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>12} {:>12} {:>12} {:>14}",
            "n", "SP_TOM [ms]", "SP_SAE [ms]", "TE_SAE [ms]", "SP saving [%]"
        );
        for r in subset {
            let saving = 100.0 * (r.tom.sp_charged_ms - r.sae.sp_charged_ms) / r.tom.sp_charged_ms;
            println!(
                "  {:>10} {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
                r.n, r.tom.sp_charged_ms, r.sae.sp_charged_ms, r.sae.te_charged_ms, saving
            );
        }
    }
}

/// Figure 7: client verification time vs n (wall-clock ms).
pub fn print_fig7(rows: &[ComparisonRow]) {
    header("Figure 7 — Verification time at the client vs n (wall-clock ms)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>16} {:>16} {:>14}",
            "n", "Client_SAE [ms]", "Client_TOM [ms]", "avg |RS|"
        );
        for r in subset {
            println!(
                "  {:>10} {:>16.3} {:>16.3} {:>14}",
                r.n, r.sae.client_verify_ms, r.tom.client_verify_ms, r.sae.result_cardinality
            );
        }
    }
}

/// Figure 8: storage cost vs n (MB per party).
pub fn print_fig8(rows: &[ComparisonRow]) {
    header("Figure 8 — Storage cost vs n (MB)");
    for dist in ["UNF", "SKW"] {
        let subset = by_distribution(rows, dist);
        if subset.is_empty() {
            continue;
        }
        println!("  ({dist})");
        println!(
            "  {:>10} {:>14} {:>14} {:>14}",
            "n", "SP_TOM [MB]", "SP_SAE [MB]", "TE_SAE [MB]"
        );
        for r in subset {
            println!(
                "  {:>10} {:>14.1} {:>14.1} {:>14.1}",
                r.n,
                r.tom_storage.sp_total_mb(),
                r.sae_storage.sp_total_mb(),
                r.sae_storage.te_mb()
            );
        }
    }
}

/// Ablation E5: XB-Tree vs sequential scan at the TE.
pub fn print_ablation_scan(rows: &[AblationRow]) {
    header("Ablation E5 — VT generation: XB-Tree vs sequential scan of T");
    println!(
        "  {:>10} {:>16} {:>16} {:>14} {:>14}",
        "n", "XB accesses", "scan accesses", "XB [ms]", "scan [ms]"
    );
    for r in rows {
        println!(
            "  {:>10} {:>16} {:>16} {:>14.1} {:>14.1}",
            r.n,
            r.xbtree_node_accesses,
            r.scan_node_accesses,
            r.xbtree_charged_ms,
            r.scan_charged_ms
        );
    }
}

/// Ablation E6: update maintenance cost per index.
pub fn print_ablation_updates(rows: &[UpdateRow]) {
    header("Ablation E6 — node accesses per insert+delete pair");
    println!(
        "  {:>10} {:>18} {:>18} {:>18}",
        "n", "SAE SP (B+-Tree)", "SAE TE (XB-Tree)", "TOM SP (MB-Tree)"
    );
    for r in rows {
        println!(
            "  {:>10} {:>18.1} {:>18.1} {:>18.1}",
            r.n,
            r.sae_sp_accesses_per_update,
            r.te_accesses_per_update,
            r.tom_sp_accesses_per_update
        );
    }
}

/// Ablation E7: file-backed vs in-memory TE index (wall-clock).
pub fn print_ablation_memory(rows: &[MemoryAblationRow]) {
    header("Ablation E7 — VT generation wall-clock: disk-based vs main-memory XB-Tree");
    println!("  {:>10} {:>14} {:>14}", "n", "disk [ms]", "memory [ms]");
    for r in rows {
        println!("  {:>10} {:>14.2} {:>14.2}", r.n, r.disk_ms, r.memory_ms);
    }
}

/// Experiment E8: concurrent-engine throughput as serving threads grow.
pub fn print_throughput(rows: &[ThroughputRow]) {
    header("Experiment E8 — SAE engine throughput vs serving threads (fixed workload)");
    println!(
        "  {:>8} {:>9} {:>12} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "threads", "queries", "qps", "p50 [ms]", "p99 [ms]", "speedup", "SP hit %", "verified"
    );
    for r in rows {
        println!(
            "  {:>8} {:>9} {:>12.0} {:>10.2} {:>10.2} {:>8.2}x {:>10.1} {:>9}",
            r.threads,
            r.queries,
            r.queries_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.speedup,
            100.0 * r.sp_cache_hit_rate,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Experiment E9: sharded-engine throughput as the shard count grows, on
/// read-heavy and write-heavy mixes of spanning queries and routed updates.
pub fn print_sharded_throughput(rows: &[ShardedThroughputRow]) {
    header("Experiment E9 — sharded SAE engine throughput vs shards (spanning read/write mixes)");
    println!(
        "  {:>12} {:>8} {:>7} {:>7} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "mix", "threads", "shards", "ops", "ops/s", "p50 [ms]", "p99 [ms]", "speedup", "verified"
    );
    for r in rows {
        println!(
            "  {:>12} {:>8} {:>7} {:>7} {:>12.0} {:>10.2} {:>10.2} {:>8.2}x {:>9}",
            r.mix,
            r.threads,
            r.shards,
            r.ops,
            r.queries_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.speedup,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Experiment E10: durability cost — cold-start open time and post-reopen
/// verified throughput of the file-backed sharded deployment.
pub fn print_durability(rows: &[DurabilityRow]) {
    header("Experiment E10 — durable deployment: cold-start open + post-reopen throughput");
    println!(
        "  {:>7} {:>11} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>9}",
        "shards",
        "build [ms]",
        "commit [ms]",
        "close [ms]",
        "open [ms]",
        "reopen qps",
        "p50 [ms]",
        "disk [MiB]",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>7} {:>11.1} {:>12.2} {:>10.2} {:>10.2} {:>12.0} {:>10.2} {:>10.2} {:>9}",
            r.shards,
            r.build_ms,
            r.update_commit_ms,
            r.close_ms,
            r.open_ms,
            r.post_reopen_qps,
            r.p50_ms,
            r.disk_bytes as f64 / (1024.0 * 1024.0),
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Experiment E11: durable write throughput and fsyncs-per-op under each
/// durability policy, with the post-reopen crash-consistency verdict.
pub fn print_group_commit(rows: &[GroupCommitRow]) {
    header("Experiment E11 — group commit: durable write qps + fsyncs/op vs policy");
    println!(
        "  {:>15} {:>7} {:>8} {:>6} {:>11} {:>10} {:>10} {:>8} {:>10} {:>9} {:>9}",
        "policy",
        "shards",
        "writers",
        "ops",
        "writes/s",
        "p50 [ms]",
        "p99 [ms]",
        "fsyncs",
        "fsyncs/op",
        "speedup",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>15} {:>7} {:>8} {:>6} {:>11.0} {:>10.2} {:>10.2} {:>8} {:>10.2} {:>8.2}x {:>9}",
            r.policy,
            r.shards,
            r.threads,
            r.ops,
            r.writes_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.fsyncs,
            r.fsyncs_per_op,
            r.speedup_vs_immediate,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Experiment E12: the write-ahead-log pipeline — one log fsync per
/// acknowledged durable write, and kill-replay recovery with zero refusals.
pub fn print_wal(rows: &[WalRow]) {
    header("Experiment E12 — write-ahead log: fsyncs/ack'd write + kill-replay recovery");
    println!(
        "  {:>10} {:>6} {:>11} {:>8} {:>10} {:>9} {:>11} {:>9} {:>8} {:>9}",
        "policy",
        "ops",
        "writes/s",
        "fsyncs",
        "fsyncs/op",
        "appends",
        "log bytes",
        "log sync",
        "replay",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>10} {:>6} {:>11.0} {:>8} {:>10.2} {:>9} {:>11} {:>9} {:>8} {:>9}",
            r.policy,
            r.ops,
            r.writes_per_sec,
            r.fsyncs,
            r.fsyncs_per_op,
            r.wal_appends,
            r.wal_bytes,
            r.wal_syncs,
            if r.replay_recovered { "ok" } else { "LOST" },
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Experiment E13: networked scatter-gather serving — verified qps and tail
/// latency over loopback vs shard-server count, with byzantine and
/// dropped-endpoint legs.
pub fn print_net(rows: &[NetRow]) {
    header("Experiment E13 — networked serving: verified qps + p95 vs shard servers");
    println!(
        "  {:>7} {:>8} {:>10} {:>9} {:>9} {:>11} {:>9} {:>9} {:>7} {:>5}",
        "servers",
        "queries",
        "qps",
        "p50 ms",
        "p95 ms",
        "bytes/query",
        "records",
        "verified",
        "tamper",
        "drop"
    );
    for r in rows {
        println!(
            "  {:>7} {:>8} {:>10.0} {:>9.3} {:>9.3} {:>11.0} {:>9} {:>9} {:>7} {:>5}",
            r.shards,
            r.queries,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.bytes_per_query,
            r.records_returned,
            if r.all_verified { "all" } else { "NO" },
            if r.tamper_detected {
                "caught"
            } else {
                "MISSED"
            },
            if r.drop_detected { "caught" } else { "MISSED" }
        );
    }
}

/// Prints the E14 replica table.
pub fn print_replicas(rows: &[ReplicaRow]) {
    header("Experiment E14 — trustless read replicas: verified qps vs replica count");
    println!(
        "  {:>8} {:>9} {:>7} {:>7} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>9} {:>5} {:>9}",
        "replicas",
        "endpoints",
        "threads",
        "queries",
        "qps",
        "p50 ms",
        "p95 ms",
        "speedup",
        "verified",
        "byzantine",
        "failovers",
        "stale",
        "min share"
    );
    for r in rows {
        println!(
            "  {:>8} {:>9} {:>7} {:>7} {:>10.0} {:>9.3} {:>9.3} {:>7.2}x {:>9} {:>9} {:>9} {:>5} {:>9.2}",
            r.replicas,
            r.endpoints,
            r.threads,
            r.queries,
            r.qps,
            r.p50_ms,
            r.p95_ms,
            r.speedup,
            if r.all_verified { "all" } else { "NO" },
            if r.byzantine_routed_around {
                "routed"
            } else {
                "MISSED"
            },
            r.failovers,
            if r.stale_routed_around {
                "routed"
            } else {
                "MISSED"
            },
            r.min_replica_share
        );
    }
}

/// Prints the E16 fan-out and hedge table.
pub fn print_fanout(rows: &[FanoutRow]) {
    header("Experiment E16 — concurrent fan-out and hedged reads: latency by dispatch mode");
    println!(
        "  {:>10} {:>6} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>9} {:>8}",
        "leg",
        "shards",
        "endpoints",
        "queries",
        "mean ms",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "ratio",
        "hedges",
        "failovers",
        "verified"
    );
    for r in rows {
        println!(
            "  {:>10} {:>6} {:>9} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6.2}x {:>6} {:>9} {:>8}",
            r.leg,
            r.shards,
            r.endpoints,
            r.queries,
            r.mean_ms,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.ratio_vs_baseline,
            r.hedges,
            r.failovers,
            if r.all_verified { "all" } else { "NO" }
        );
    }
}

/// Serializes comparison rows to pretty JSON (for plotting outside Rust).
pub fn rows_to_json(rows: &[ComparisonRow]) -> String {
    report_to_json(rows)
}

/// Serializes any experiment row slice to pretty JSON (for the CI bench
/// artifacts and plotting outside Rust).
pub fn report_to_json<T: Serialize>(rows: &[T]) -> String {
    serde_json::to_string_pretty(rows).expect("rows serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_comparison, ExperimentConfig};
    use sae_workload::KeyDistribution;

    #[test]
    fn printers_do_not_panic_and_json_round_trips() {
        let config = ExperimentConfig {
            cardinalities: vec![1_000],
            distributions: vec![KeyDistribution::unf()],
            queries_per_config: 5,
            ..ExperimentConfig::scaled()
        };
        let rows = run_comparison(&config);
        print_fig5(&rows);
        print_fig6(&rows);
        print_fig7(&rows);
        print_fig8(&rows);
        let json = rows_to_json(&rows);
        assert!(json.contains("\"UNF\""));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().len() == 1);
    }
}
