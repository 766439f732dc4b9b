//! Updates: the data owner keeps modifying the outsourced relation.
//!
//! ```text
//! cargo run --release --example update_stream
//! ```
//!
//! Under SAE the data owner's only job after the initial outsourcing is to
//! forward updates to the SP and the TE (§II); both apply them in
//! `O(log n)` node accesses (B⁺-Tree insert at the SP, XOR patching along one
//! path of the XB-Tree at the TE). Under TOM the data owner must additionally
//! re-sign the MB-Tree root after every update. This example streams inserts
//! and deletes into both deployments, keeps querying in between, and reports
//! the per-update node-access cost of every party.

use sae::prelude::*;

fn main() {
    let dataset = DatasetSpec::paper(20_000, KeyDistribution::unf(), 3).generate();

    // One SP/TE pair; keep handles to each party's I/O counters so
    // per-phase node accesses can be measured.
    let sae =
        ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1).expect("build SAE");
    let sae_sp_stats = sae.with_sp_mut(0, |sp| sp.store().stats());
    let sae_te_stats = sae.with_te_mut(0, |te| te.store().stats());

    let tom_store: SharedPageStore = MemPager::new_shared();
    let signer = MacSigner::new(b"data-owner-signing-key".to_vec());
    let mut tom = TomSystem::build(
        tom_store.clone(),
        &dataset,
        HashAlgorithm::Sha1,
        CostModel::paper(),
        signer.clone(),
        signer,
    )
    .expect("build TOM");

    let query = RangeQuery::new(2_000_000, 2_050_000);
    let baseline = sae.query(&query).expect("query").metrics.result_cardinality as usize;
    println!("before updates: {baseline} records match {query}");

    // ------------------------------------------------------- update stream
    let inserts: Vec<Record> = (0..500u64)
        .map(|i| Record::with_size(1_000_000 + i, 2_000_000 + (i as u32 * 97) % 50_000, 500))
        .collect();
    let deletions: Vec<Record> = dataset
        .iter()
        .filter(|r| query.contains(r.key))
        .take(200)
        .cloned()
        .collect();

    let sp_before = sae_sp_stats.snapshot();
    let te_before = sae_te_stats.snapshot();
    let tom_before = tom_store.stats().snapshot();

    for r in &inserts {
        sae.insert(r).expect("SAE insert");
        tom.insert_record(r).expect("TOM insert");
    }
    for r in &deletions {
        assert!(sae.delete(r.id, r.key).expect("SAE delete"));
        assert!(tom.delete_record(r.id, r.key).expect("TOM delete"));
    }

    let updates = (inserts.len() + deletions.len()) as f64;
    let sp_cost = sae_sp_stats
        .snapshot()
        .delta_since(&sp_before)
        .node_accesses() as f64;
    let te_cost = sae_te_stats
        .snapshot()
        .delta_since(&te_before)
        .node_accesses() as f64;
    let tom_cost = tom_store
        .stats()
        .snapshot()
        .delta_since(&tom_before)
        .node_accesses() as f64;

    println!();
    println!(
        "applied {} inserts and {} deletes:",
        inserts.len(),
        deletions.len()
    );
    println!(
        "  SAE SP  (B+-Tree) : {:>6.1} node accesses per update",
        sp_cost / updates
    );
    println!(
        "  SAE TE  (XB-Tree) : {:>6.1} node accesses per update",
        te_cost / updates
    );
    println!(
        "  TOM SP  (MB-Tree) : {:>6.1} node accesses per update",
        tom_cost / updates
    );

    // ------------------------------------------------------- query again
    let sae_after = sae.query(&query).expect("query");
    let tom_after = tom.query(&query).expect("query");
    let expected =
        baseline + inserts.iter().filter(|r| query.contains(r.key)).count() - deletions.len();

    println!();
    let sae_matches = sae_after.metrics.result_cardinality as usize;
    println!("after updates: {sae_matches} records match {query}");
    assert_eq!(sae_matches, expected);
    assert_eq!(tom_after.records.len(), expected);
    assert!(
        sae_after.metrics.verified,
        "SAE result verifies after updates"
    );
    assert!(
        tom_after.metrics.verified,
        "TOM result verifies after updates"
    );
    println!("both models still verify their results ✓");
}
