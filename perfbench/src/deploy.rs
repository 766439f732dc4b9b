//! Workload definitions and the served deployment they run against: a
//! `ShardedSaeEngine` behind one loopback `ShardServer` per shard, queried
//! by one `NetClient`.

use sae_core::{DurabilityPolicy, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_net::{NetClient, ShardServer, ShardServerConfig};
use sae_workload::{
    paper, Dataset, DatasetSpec, KeyDistribution, QueryMix, QueryStream, RangeQuery,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Records in every deployment.
pub const RECORDS: usize = 100_000;
/// Shards, each behind its own server.
pub const SHARDS: usize = 4;
/// Buffer-pool pages per party per shard on the durable engine, so the
/// ≈ 50 MB of data is far larger than the program's own cache.
pub const CACHE_PAGES: usize = 256;
/// The data owner's open-loop write rate on `mixed`.
pub const WRITE_RATE: f64 = 300.0;
/// Inserts (and as many deletes) in each closed-loop write batch between
/// the read sub-windows on `scan`/`point`.
pub const BATCH_INSERTS: usize = 5_000;
/// Hash algorithm of every deployment (the paper's SHA-1).
pub const ALG: HashAlgorithm = HashAlgorithm::Sha1;

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-memory engine, uniform queries over 1 % of the domain.
    Scan,
    /// In-memory engine, Zipf queries over 0.001 % of the domain.
    Point,
    /// Durable engine, Zipf queries over 0.1 % beside an open-loop writer.
    Mixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan" => Some(Workload::Scan),
            "point" => Some(Workload::Point),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Point => "point",
            Workload::Mixed => "mixed",
        }
    }

    /// Whether the engine is durable.
    pub fn durable(self) -> bool {
        self == Workload::Mixed
    }

    /// Set-ups per untraced run; `setup_s` is their median. Each durable
    /// set-up writes and later discards ≈ 50 MB, so `mixed` takes fewer.
    pub fn setup_repeats(self) -> usize {
        if self.durable() {
            3
        } else {
            5
        }
    }

    /// The reader's query mix.
    pub fn mix(self) -> QueryMix {
        let domain = paper::KEY_DOMAIN;
        match self {
            Workload::Scan => QueryMix::uniform(domain, 0.01),
            Workload::Point => QueryMix::zipf(domain, 0.000_01, paper::ZIPF_THETA),
            Workload::Mixed => QueryMix::zipf(domain, 0.001, paper::ZIPF_THETA),
        }
    }
}

/// Independent, reproducible sub-seeds of the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    QueryMix::client_seed(seed, stream + 1)
}

/// The dataset for `seed`: 100 K UNF records of 500 bytes.
pub fn dataset_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        cardinality: RECORDS,
        distribution: KeyDistribution::Uniform {
            domain: paper::KEY_DOMAIN,
        },
        record_size: paper::RECORD_SIZE,
        seed,
    }
}

/// The reader's query stream for `seed`.
pub fn queries(workload: Workload, seed: u64) -> QueryStream {
    workload.mix().stream(sub_seed(seed, 0))
}

/// A live deployment: engine, one server per shard, one client.
pub struct Deployment {
    /// The dataset the engine was built from.
    pub dataset: Dataset,
    /// The engine, shared with the servers.
    pub engine: Arc<ShardedSaeEngine>,
    /// One server per shard, server `i` serving shard `i`.
    pub servers: Vec<ShardServer>,
    /// The verifying client.
    pub client: NetClient,
    /// The deployment directory of a durable engine.
    pub dir: Option<PathBuf>,
}

impl Deployment {
    /// Sets up `workload` from dataset generation to the first verified
    /// query, returning the deployment and the seconds that took. A durable
    /// engine is created in `dir`, which must not exist yet.
    pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<(Deployment, f64), String> {
        let started = Instant::now();
        let dataset = dataset_spec(seed).generate();
        let engine = if workload.durable() {
            ShardedSaeEngine::create_dir_with(
                dir,
                &dataset,
                ALG,
                SHARDS,
                Some(CACHE_PAGES),
                DurabilityPolicy::group(),
            )
        } else {
            ShardedSaeEngine::build_in_memory(&dataset, ALG, SHARDS)
        }
        .map_err(|e| format!("building the engine failed: {e}"))?;
        let engine = Arc::new(engine);
        let mut servers = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let server = ShardServer::spawn(
                Arc::clone(&engine),
                vec![shard],
                "127.0.0.1:0",
                ShardServerConfig::default(),
            )
            .map_err(|e| format!("spawning server {shard} failed: {e}"))?;
            servers.push(server);
        }
        let endpoints = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let mut client = NetClient::for_engine(&engine, endpoints)
            .map_err(|e| format!("connecting the client failed: {e}"))?;
        let first = queries(workload, seed)
            .next()
            .unwrap_or(RangeQuery::new(0, 0));
        let outcome = client.query(&first);
        let deployment = Deployment {
            dataset,
            engine,
            servers,
            client,
            dir: workload.durable().then(|| dir.to_path_buf()),
        };
        if let Err(e) = outcome.verdict {
            deployment.teardown()?;
            return Err(format!("the first query did not verify: {e}"));
        }
        Ok((deployment, started.elapsed().as_secs_f64()))
    }

    /// Stops the servers and the client, leaving the engine with no other
    /// owner, and returns it with its directory.
    pub fn stop_serving(self) -> Result<(ShardedSaeEngine, Option<PathBuf>), String> {
        drop(self.client);
        for server in self.servers {
            server.shutdown();
        }
        let engine = Arc::try_unwrap(self.engine)
            .map_err(|_| "the engine is still shared after the servers stopped".to_string())?;
        Ok((engine, self.dir))
    }

    /// Stops serving, closes a durable engine and deletes its directory.
    pub fn teardown(self) -> Result<(), String> {
        let (engine, dir) = self.stop_serving()?;
        engine
            .close()
            .map_err(|e| format!("closing the engine failed: {e}"))?;
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {} failed: {e}", dir.display()))?;
        }
        Ok(())
    }
}
