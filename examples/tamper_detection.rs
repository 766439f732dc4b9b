//! Adversarial evaluation: every malicious-SP strategy against both models.
//!
//! ```text
//! cargo run --release --example tamper_detection
//! ```
//!
//! The paper's security argument (§II) reduces an undetected attack to finding
//! record sets `DS`, `IS` with `DS⊕ = IS⊕`, which is computationally
//! infeasible for a collision-resistant digest. This example exercises the
//! practical side of that claim: it runs drop / inject / modify / substitute
//! attacks of increasing size against both the SAE client (XOR token check)
//! and the TOM client (VO verification) and prints the detection matrix.

use sae::prelude::*;

fn main() {
    let dataset = DatasetSpec::paper(20_000, KeyDistribution::skw(), 13).generate();

    let sae =
        ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1).expect("build SAE");
    let signer = MacSigner::new(b"data-owner-signing-key".to_vec());
    let tom = TomSystem::build_in_memory(&dataset, HashAlgorithm::Sha1, signer.clone(), signer)
        .expect("build TOM");

    let query = RangeQuery::new(500_000, 550_000);
    let honest = sae.query(&query).expect("query");
    println!(
        "query {query}: {} qualifying records\n",
        honest.metrics.result_cardinality
    );

    let strategies = [
        ("honest", TamperStrategy::Honest),
        ("drop 1 record", TamperStrategy::DropRecords { count: 1 }),
        ("drop 10 records", TamperStrategy::DropRecords { count: 10 }),
        (
            "inject 1 bogus record",
            TamperStrategy::InjectRecords { count: 1 },
        ),
        (
            "inject 5 bogus records",
            TamperStrategy::InjectRecords { count: 5 },
        ),
        (
            "modify 1 record",
            TamperStrategy::ModifyRecords { count: 1 },
        ),
        (
            "modify 3 records",
            TamperStrategy::ModifyRecords { count: 3 },
        ),
        (
            "substitute entire result",
            TamperStrategy::SubstituteResult { count: 40 },
        ),
        // The XOR-cancellation attacks: an even number of copies of the same
        // record vanishes from a bare digest fold (h(r) ⊕ h(r) = 0), so only
        // the client's structural checks catch these.
        (
            "inject same bogus pair",
            TamperStrategy::DuplicatePair { count: 1 },
        ),
        (
            "triple a genuine record",
            TamperStrategy::DuplicateExisting { count: 1 },
        ),
    ];

    println!(
        "{:<28} {:>14} {:>14}",
        "SP behaviour", "SAE client", "TOM client"
    );
    let mut all_attacks_detected = true;
    for (label, strategy) in strategies {
        let sae_outcome = sae
            .query_with_tamper(&query, strategy, 42)
            .expect("SAE query");
        let tom_outcome = tom
            .query_with_tamper(&query, strategy, 42)
            .expect("TOM query");
        let verdict = |ok: bool| if ok { "accepted" } else { "REJECTED" };
        println!(
            "{:<28} {:>14} {:>14}",
            label,
            verdict(sae_outcome.metrics.verified),
            verdict(tom_outcome.metrics.verified)
        );
        if strategy.is_attack() {
            all_attacks_detected &= !sae_outcome.metrics.verified && !tom_outcome.metrics.verified;
        } else {
            assert!(sae_outcome.metrics.verified && tom_outcome.metrics.verified);
        }
    }

    println!();
    if all_attacks_detected {
        println!("every attack was detected by both models ✓");
    } else {
        println!("WARNING: some attack went undetected");
        std::process::exit(1);
    }

    // The two models pay very different prices for that guarantee.
    let sae_metrics = sae.query(&query).expect("query").metrics;
    let tom_metrics = tom.query(&query).expect("query").metrics;
    println!();
    println!("cost of the authentication guarantee for this query:");
    println!(
        "  SAE: {:>6} auth bytes, SP {:>6.0} ms charged, TE {:>4.0} ms charged",
        sae_metrics.auth_bytes, sae_metrics.sp_charged_ms, sae_metrics.te_charged_ms
    );
    println!(
        "  TOM: {:>6} auth bytes, SP {:>6.0} ms charged, (no TE)",
        tom_metrics.auth_bytes, tom_metrics.sp_charged_ms
    );
}
