//! Figure 8 — storage cost per party.
//!
//! Storage is not a timing quantity, so this bench measures the cost of
//! *building* each deployment (bulk-loading the indexes from the outsourced
//! dataset) and prints the resulting per-party byte counts, which are the
//! numbers Figure 8 plots. The sweep over n is produced by
//! `experiments -- fig8`.

use criterion::{criterion_group, criterion_main, Criterion};
use sae_core::{ShardedSaeEngine, TomSystem};
use sae_crypto::{HashAlgorithm, MacSigner};
use sae_workload::{DatasetSpec, KeyDistribution};

const N: usize = 20_000;

fn bench_fig8(c: &mut Criterion) {
    let alg = HashAlgorithm::Sha1;
    let dataset = DatasetSpec::paper(N, KeyDistribution::unf(), 8).generate();

    let sae = ShardedSaeEngine::build_in_memory(&dataset, alg, 1).unwrap();
    let signer = MacSigner::new(b"do-key".to_vec());
    let tom = TomSystem::build_in_memory(&dataset, alg, signer.clone(), signer.clone()).unwrap();
    let s = sae.storage_breakdown();
    let t = tom.storage_breakdown();
    eprintln!(
        "[fig8] n={N}: SP_SAE={:.1} MB (index {:.1} MB), SP_TOM={:.1} MB (index {:.1} MB), TE_SAE={:.1} MB",
        s.sp_total_mb(),
        s.sp_index_bytes as f64 / (1024.0 * 1024.0),
        t.sp_total_mb(),
        t.sp_index_bytes as f64 / (1024.0 * 1024.0),
        s.te_mb()
    );
    drop((sae, tom));

    let mut group = c.benchmark_group("fig8_storage");
    group.sample_size(10);
    group.bench_function("build_sae_deployment", |b| {
        b.iter(|| ShardedSaeEngine::build_in_memory(&dataset, alg, 1).unwrap())
    });
    group.bench_function("build_tom_deployment", |b| {
        b.iter(|| {
            let signer = MacSigner::new(b"do-key".to_vec());
            TomSystem::build_in_memory(&dataset, alg, signer.clone(), signer).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
