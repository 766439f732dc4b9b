//! Concurrent scatter-gather behavior over real TCP: the parallel fan-out
//! beating the sequential baseline under server-side service delay, the
//! true hedged read racing a slow replica against a fast sibling, and
//! byzantine failover under concurrent dispatch — all verified with the
//! same [`sae_core::verify_slices`] as everything else.

use sae_core::ShardedSaeEngine;
use sae_crypto::HashAlgorithm;
use sae_net::{NetClient, NetClientConfig, ServerTamper, ShardServer, ShardServerConfig, Topology};
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery};
use std::sync::Arc;
use std::time::Duration;

const DOMAIN: u32 = 100_000;
const CARDINALITY: usize = 400;

fn engine(shards: usize) -> Arc<ShardedSaeEngine> {
    let dataset = DatasetSpec {
        cardinality: CARDINALITY,
        distribution: KeyDistribution::Uniform { domain: DOMAIN },
        record_size: 64,
        seed: 42,
    }
    .generate();
    Arc::new(ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, shards).unwrap())
}

/// One server per shard, each sleeping `delay` per query before answering.
fn deploy_delayed(
    engine: &Arc<ShardedSaeEngine>,
    delay: Duration,
) -> (Vec<ShardServer>, Vec<String>) {
    let servers: Vec<ShardServer> = (0..engine.shard_count())
        .map(|shard| {
            ShardServer::spawn(
                Arc::clone(engine),
                vec![shard],
                "127.0.0.1:0",
                ShardServerConfig {
                    service_delay: delay,
                    ..ShardServerConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let endpoints = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, endpoints)
}

fn client_with(engine: &ShardedSaeEngine, topology: Topology, cfg: NetClientConfig) -> NetClient {
    NetClient::for_engine_topology(engine, topology, cfg).unwrap()
}

#[test]
fn concurrent_fanout_beats_the_sequential_baseline_under_service_delay() {
    let delay = Duration::from_millis(30);
    let engine = engine(4);
    let (servers, endpoints) = deploy_delayed(&engine, delay);
    let full = RangeQuery::new(0, DOMAIN);

    let mut sequential = client_with(
        &engine,
        Topology::single(endpoints.clone()),
        NetClientConfig {
            sequential_fanout: true,
            ..NetClientConfig::default()
        },
    );
    let mut concurrent = client_with(
        &engine,
        Topology::single(endpoints),
        NetClientConfig::default(),
    );

    // Warm both pools so the measured queries compare service time, not
    // connection establishment.
    assert!(sequential.query(&full).verdict.is_ok());
    assert!(concurrent.query(&full).verdict.is_ok());

    let seq = sequential.query(&full);
    let conc = concurrent.query(&full);
    assert!(seq.verdict.is_ok(), "{:?}", seq.verdict);
    assert!(conc.verdict.is_ok(), "{:?}", conc.verdict);
    assert_eq!(seq.record_count(), conc.record_count());
    // Sequential pays ~4 service delays, concurrent pays ~1. The 0.75
    // factor leaves headroom for debug-build and scheduler noise while
    // still proving the fan-out actually overlapped the waits.
    assert!(
        conc.elapsed_ms < seq.elapsed_ms * 0.75,
        "concurrent {:.1} ms vs sequential {:.1} ms",
        conc.elapsed_ms,
        seq.elapsed_ms
    );
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn a_hedged_read_races_a_slow_replica_and_the_loser_connection_survives() {
    let engine = engine(1);
    let fast = ShardServer::spawn(
        Arc::clone(&engine),
        vec![0],
        "127.0.0.1:0",
        ShardServerConfig {
            service_delay: Duration::from_millis(5),
            ..ShardServerConfig::default()
        },
    )
    .unwrap();
    let slow = ShardServer::spawn(
        Arc::clone(&engine),
        vec![0],
        "127.0.0.1:0",
        ShardServerConfig {
            service_delay: Duration::from_millis(150),
            ..ShardServerConfig::default()
        },
    )
    .unwrap();
    let topology = Topology::replicated(vec![vec![
        fast.local_addr().to_string(),
        slow.local_addr().to_string(),
    ]])
    .unwrap();
    let mut client = client_with(
        &engine,
        topology,
        NetClientConfig {
            hedge_timeout: Some(Duration::from_millis(20)),
            ..NetClientConfig::default()
        },
    );
    let full = RangeQuery::new(0, DOMAIN);

    // The round-robin cursor alternates between the two replicas, so of
    // two consecutive queries one prefers the fast replica and one the
    // slow one; which comes first depends on where this client's cursor
    // starts. The fast-first query answers within the hedge window and
    // fires no hedge. The slow-first one sees the window expire, races the
    // fast sibling, and the sibling's verified slice wins long before the
    // slow leg completes.
    let outcomes = [client.query(&full), client.query(&full)];
    for outcome in &outcomes {
        assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
        assert_eq!(outcome.record_count(), CARDINALITY);
        assert_eq!(outcome.failovers, 0, "{outcome:?}");
    }
    let (hedged, unhedged): (Vec<_>, Vec<_>) = outcomes.iter().partition(|o| o.hedges > 0);
    assert_eq!(hedged.len(), 1, "{outcomes:?}");
    assert_eq!(unhedged.len(), 1, "{outcomes:?}");
    assert!(
        hedged[0].elapsed_ms < 140.0,
        "the hedge should win well before the slow leg: {:.1} ms",
        hedged[0].elapsed_ms
    );
    // Slow is not byzantine: losing the race must not demote it.
    assert!(client.demoted().is_empty());

    // Let the abandoned loser drain; its connection must return to the
    // pool unpoisoned — a probe then finds both pooled connections alive,
    // and both replicas keep serving verifying slices.
    std::thread::sleep(Duration::from_millis(300));
    let report = client.probe_health();
    assert_eq!(report.pooled_alive, 2, "{report:?}");
    assert_eq!(report.pooled_dropped, 0, "{report:?}");
    for _ in 0..2 {
        assert!(client.query(&full).verdict.is_ok());
    }
    fast.shutdown();
    slow.shutdown();
}

#[test]
fn byzantine_failover_holds_under_concurrent_dispatch() {
    let engine = engine(2);
    let spawn_pair = |tamper: Option<ServerTamper>| {
        let server = ShardServer::spawn(
            Arc::clone(&engine),
            vec![0, 1],
            "127.0.0.1:0",
            ShardServerConfig::default(),
        )
        .unwrap();
        server.set_tamper(tamper);
        server
    };
    let honest = spawn_pair(None);
    let byzantine = spawn_pair(Some(ServerTamper::FlipRecordByte));
    let groups: Vec<Vec<String>> = (0..2)
        .map(|_| {
            vec![
                honest.local_addr().to_string(),
                byzantine.local_addr().to_string(),
            ]
        })
        .collect();
    let mut client = client_with(
        &engine,
        Topology::replicated(groups).unwrap(),
        NetClientConfig::default(),
    );
    let full = RangeQuery::new(0, DOMAIN);

    // Both shards fetch concurrently; whenever the doctored endpoint is
    // consulted its slice fails verification, the source is demoted, and
    // the refetch wave re-issues to the honest sibling — the verdict stays
    // `Ok` on every query.
    let mut failovers = 0;
    for _ in 0..4 {
        let outcome = client.query(&full);
        assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
        assert_eq!(outcome.record_count(), CARDINALITY);
        failovers += outcome.failovers;
    }
    assert!(failovers > 0, "the byzantine endpoint was never consulted");
    assert_eq!(client.demoted(), vec![byzantine.local_addr().to_string()]);
    honest.shutdown();
    byzantine.shutdown();
}
