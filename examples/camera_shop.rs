//! The paper's running example: a consumer-electronics shop outsources its
//! digital-camera catalogue and clients query it by price.
//!
//! ```text
//! cargo run --release --example camera_shop
//! ```
//!
//! §II of the paper introduces a relation `R(id, manufacturer, model, price)`
//! with `price` as the query attribute and the record
//! `r_m = (15, "Canon", "SD850 IS", 250)`. The SP stores whole records; the TE
//! keeps only `(15, 250, h_m)` where `h_m` is the digest of `r_m`'s binary
//! representation. This example builds exactly that schema (manufacturer and
//! model packed into the record payload), runs the paper's query — "select
//! all cameras whose price is between 200 and 300 euros" — and shows both a
//! successful verification and the detection of a price-manipulation attack.

use sae::prelude::*;

/// Packs the textual attributes into the opaque payload of a [`Record`].
fn camera_record(id: u64, manufacturer: &str, model: &str, price_euro: u32) -> Record {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(manufacturer.len() as u16).to_le_bytes());
    payload.extend_from_slice(manufacturer.as_bytes());
    payload.extend_from_slice(&(model.len() as u16).to_le_bytes());
    payload.extend_from_slice(model.as_bytes());
    Record::new(id, price_euro, payload)
}

/// Unpacks the textual attributes back out of a returned record.
fn describe(bytes: &[u8]) -> String {
    let record = Record::decode(bytes).expect("camera record");
    let payload = &record.payload;
    let m_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let manufacturer = String::from_utf8_lossy(&payload[2..2 + m_len]).into_owned();
    let rest = &payload[2 + m_len..];
    let model_len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
    let model = String::from_utf8_lossy(&rest[2..2 + model_len]).into_owned();
    format!(
        "#{:<3} {manufacturer} {model} — {} EUR",
        record.id, record.key
    )
}

fn main() {
    // The shop's catalogue. Record 15 is the paper's example camera.
    let catalogue = vec![
        camera_record(11, "Nikon", "Coolpix P50", 180),
        camera_record(12, "Canon", "PowerShot A570", 195),
        camera_record(13, "Sony", "DSC-W80", 215),
        camera_record(14, "Olympus", "FE-280", 230),
        camera_record(15, "Canon", "SD850 IS", 250),
        camera_record(16, "Panasonic", "Lumix DMC-FX33", 270),
        camera_record(17, "Nikon", "Coolpix S510", 295),
        camera_record(18, "Canon", "EOS 400D", 520),
        camera_record(19, "Nikon", "D40x", 560),
        camera_record(20, "Sony", "Alpha A100", 610),
    ];

    // Hand-build a Dataset so the generic SAE machinery can outsource it.
    // (Variable-length payloads are padded to a common record size.)
    let record_size = catalogue
        .iter()
        .map(Record::encoded_len)
        .max()
        .expect("non-empty catalogue");
    let records: Vec<Record> = catalogue
        .iter()
        .map(|r| {
            let mut padded = r.clone();
            padded.payload.resize(record_size - 12, 0);
            padded
        })
        .collect();
    let dataset = Dataset {
        spec: DatasetSpec {
            cardinality: records.len(),
            distribution: KeyDistribution::Uniform { domain: 1_000 },
            record_size,
            seed: 0,
        },
        records,
    };

    let system = ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1)
        .expect("outsource catalogue");

    // "Select all cameras from R whose price is between 200 and 300 euros."
    let query = RangeQuery::new(200, 300);
    let outcome = system.query(&query).expect("query");
    let slice = &outcome.slices[0];

    println!("cameras priced between 200 and 300 euros:");
    for bytes in &slice.records {
        println!("  {}", describe(bytes));
    }
    println!(
        "verification token from the TE: {} ({} bytes)",
        slice.vt, outcome.metrics.auth_bytes
    );
    println!(
        "client verification: {}",
        if outcome.metrics.verified {
            "ACCEPTED"
        } else {
            "REJECTED"
        }
    );
    assert!(outcome.metrics.verified);
    assert_eq!(slice.records.len(), 5);

    // A malicious SP tries to hide the Canon SD850 IS from the result
    // (e.g. to push clients toward a sponsored model).
    println!();
    println!("malicious SP drops one qualifying camera from the result:");
    let tampered = system
        .query_with_tamper(&query, TamperStrategy::DropRecords { count: 1 }, 2009)
        .expect("query");
    println!(
        "  returned {} records instead of 5",
        tampered.metrics.result_cardinality
    );
    println!(
        "  client verification: {}",
        if tampered.metrics.verified {
            "ACCEPTED (!)"
        } else {
            "REJECTED"
        }
    );
    assert!(!tampered.metrics.verified, "the attack must be detected");
}
