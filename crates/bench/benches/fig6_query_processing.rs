//! Figure 6 — query processing at the SP (SAE vs TOM) and at the TE.
//!
//! Criterion measures the wall-clock time of the three operations whose
//! *charged* node-access costs Figure 6 plots: the SP answering a query under
//! SAE (B⁺-Tree + dataset file), the SP answering the same query under TOM
//! (MB-Tree + dataset file) and the TE generating the VT. The charged-cost
//! tables come from `experiments -- fig6`.

use criterion::{criterion_group, criterion_main, Criterion};
use sae_core::{ShardedSaeEngine, TomSystem};
use sae_crypto::{HashAlgorithm, MacSigner};
use sae_workload::{DatasetSpec, KeyDistribution, QueryWorkload};

const N: usize = 20_000;

fn bench_fig6(c: &mut Criterion) {
    let dataset = DatasetSpec::paper(N, KeyDistribution::unf(), 6).generate();
    let sae = ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1).unwrap();
    let signer = MacSigner::new(b"do-key".to_vec());
    let tom =
        TomSystem::build_in_memory(&dataset, HashAlgorithm::Sha1, signer.clone(), signer).unwrap();
    let q = QueryWorkload::paper(13).queries[0];

    let outcome = sae.query(&q).unwrap();
    eprintln!(
        "[fig6] n={N}: SP_SAE={} accesses, SP_TOM={} accesses, TE_SAE={} accesses",
        outcome.metrics.sp_node_accesses,
        tom.query(&q).unwrap().metrics.sp_node_accesses,
        outcome.metrics.te_node_accesses
    );

    let mut group = c.benchmark_group("fig6_query_processing");
    group.sample_size(20);
    group.bench_function("sp_sae_query", |b| {
        b.iter(|| sae.with_sp_mut(0, |sp| sp.query(&q).unwrap()))
    });
    group.bench_function("sp_tom_query_with_vo", |b| {
        b.iter(|| tom.query(&q).unwrap())
    });
    group.bench_function("te_sae_generate_vt", |b| {
        b.iter(|| sae.with_te_mut(0, |te| te.generate_vt(&q).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
