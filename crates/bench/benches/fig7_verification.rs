//! Figure 7 — client-side verification time.
//!
//! Measures what the client does after receiving a result: under SAE, hash
//! every received record and XOR the digests; under TOM, re-construct the
//! MB-Tree root digest from the result and the VO and check the signature.

use criterion::{criterion_group, criterion_main, Criterion};
use sae_core::{SaeClient, ShardedSaeEngine, TomSystem};
use sae_crypto::{HashAlgorithm, MacSigner};
use sae_workload::{DatasetSpec, KeyDistribution, QueryWorkload};

const N: usize = 20_000;

fn bench_fig7(c: &mut Criterion) {
    let alg = HashAlgorithm::Sha1;
    let dataset = DatasetSpec::paper(N, KeyDistribution::unf(), 7).generate();
    let sae = ShardedSaeEngine::build_in_memory(&dataset, alg, 1).unwrap();
    let signer = MacSigner::new(b"do-key".to_vec());
    let tom = TomSystem::build_in_memory(&dataset, alg, signer.clone(), signer).unwrap();
    let q = QueryWorkload::paper(17).queries[0];

    let sae_outcome = sae.query(&q).unwrap();
    let sae_slice = &sae_outcome.slices[0];
    let tom_outcome = tom.query(&q).unwrap();
    eprintln!(
        "[fig7] n={N}: verifying a result of {} records",
        sae_slice.records.len()
    );
    let client = SaeClient::new(alg);

    let mut group = c.benchmark_group("fig7_verification");
    group.sample_size(20);
    group.bench_function("client_sae_verify", |b| {
        b.iter(|| {
            let (verdict, _) = client.verify_detailed(&q, &sae_slice.records, &sae_slice.vt);
            assert!(verdict.is_ok());
        })
    });
    group.bench_function("client_tom_verify", |b| {
        b.iter(|| {
            tom_outcome
                .vo
                .verify(
                    &q,
                    &tom_outcome.records,
                    &MacSigner::new(b"do-key".to_vec()),
                    alg,
                )
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
