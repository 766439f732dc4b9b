//! Quickstart: outsource a dataset, query it, verify the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the full SAE workflow of the paper's §II: the data owner
//! ships its relation to the service provider and the reduced tuples to the
//! trusted entity; a client sends the query to both, receives the result from
//! the SP and the 20-byte verification token from the TE, and verifies.

use sae::prelude::*;

fn main() {
    // ------------------------------------------------------------------ DO
    // The data owner's relation: 50k records, uniform 4-byte keys in
    // [0, 10^7], 500 bytes per record — the paper's experimental setup.
    let dataset = DatasetSpec::paper(50_000, KeyDistribution::unf(), 7).generate();
    println!(
        "data owner: generated {} records ({:.1} MB)",
        dataset.len(),
        dataset.encoded_bytes() as f64 / (1024.0 * 1024.0)
    );

    // ------------------------------------------------------ outsourcing step
    // Building the engine ships the records to the SP (heap file + B+-Tree)
    // and the (id, key, digest) tuples to the TE (XB-Tree). One shard: the
    // paper's single SP/TE pair.
    let system = ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1)
        .expect("outsourcing the dataset");
    let storage = system.storage_breakdown();
    println!(
        "service provider: {:.1} MB (dataset) + {:.1} MB (B+-Tree index)",
        storage.sp_dataset_bytes as f64 / (1024.0 * 1024.0),
        storage.sp_index_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("trusted entity:   {:.1} MB (XB-Tree)", storage.te_mb());

    // --------------------------------------------------------------- client
    // A range query covering 0.5% of the key domain, as in the evaluation.
    let query = RangeQuery::new(4_000_000, 4_050_000);
    let outcome = system.query(&query).expect("query");
    let slice = &outcome.slices[0];

    println!();
    println!("query {query}:");
    println!("  result cardinality      : {}", slice.records.len());
    println!("  verification token      : {}", slice.vt);
    println!("  authentication bytes    : {}", outcome.metrics.auth_bytes);
    println!(
        "  SP processing (charged) : {:.0} ms ({} node accesses x 10 ms)",
        outcome.metrics.sp_charged_ms, outcome.metrics.sp_node_accesses
    );
    println!(
        "  TE processing (charged) : {:.0} ms ({} node accesses x 10 ms)",
        outcome.metrics.te_charged_ms, outcome.metrics.te_node_accesses
    );
    println!(
        "  client verification     : {:.2} ms",
        outcome.metrics.client_verify_ms
    );
    println!(
        "  verified                : {}",
        if outcome.metrics.verified {
            "YES"
        } else {
            "NO"
        }
    );

    assert!(outcome.metrics.verified, "an honest result must verify");
}
