//! Figure 5 — authentication-information generation and its size.
//!
//! Criterion measures the time to produce the authentication payload for one
//! query under each model (the TE's 20-byte VT for SAE, the SP's VO for TOM);
//! the measured byte sizes — the actual subject of Figure 5 — are printed once
//! at startup. Run `cargo run -p sae-bench --bin experiments -- fig5` for the
//! full sweep over n.

use criterion::{criterion_group, criterion_main, Criterion};
use sae_core::{ShardedSaeEngine, TomSystem};
use sae_crypto::{HashAlgorithm, MacSigner};
use sae_workload::{DatasetSpec, KeyDistribution, QueryWorkload};

const N: usize = 20_000;

fn bench_fig5(c: &mut Criterion) {
    let dataset = DatasetSpec::paper(N, KeyDistribution::unf(), 5).generate();
    let sae = ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1).unwrap();
    let signer = MacSigner::new(b"do-key".to_vec());
    let tom =
        TomSystem::build_in_memory(&dataset, HashAlgorithm::Sha1, signer.clone(), signer).unwrap();
    let workload = QueryWorkload::paper(11);
    let q = workload.queries[0];

    let sae_bytes = sae.query(&q).unwrap().metrics.auth_bytes;
    let tom_bytes = tom.query(&q).unwrap().metrics.auth_bytes;
    eprintln!(
        "[fig5] n={N}: SAE VT = {sae_bytes} bytes, TOM VO = {tom_bytes} bytes ({}x larger)",
        tom_bytes / sae_bytes
    );

    let mut group = c.benchmark_group("fig5_communication");
    group.sample_size(20);
    group.bench_function("sae_vt_generation", |b| {
        b.iter(|| sae.with_te_mut(0, |te| te.generate_vt(&q).unwrap()))
    });
    group.bench_function("tom_vo_generation", |b| {
        b.iter(|| {
            tom.tree()
                .generate_vo(&q, |_| vec![0u8; 500], tom.signature().clone())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
