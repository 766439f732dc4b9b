//! Property-based tests over the whole stack: for arbitrary datasets, queries
//! and update sequences, the protocols stay correct and every non-trivial
//! tampering is detected.

use proptest::prelude::*;
use sae::prelude::*;

const ALG: HashAlgorithm = HashAlgorithm::Sha1;

/// A small arbitrary dataset: up to a few hundred records over a small key
/// domain so duplicates and boundary conditions are frequent.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0u32..500, any::<u8>()), 1..300).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (key, tag))| {
                let mut r = Record::with_size(i as u64, key, 64);
                r.payload[0] = tag;
                r
            })
            .collect()
    })
}

fn dataset_from(records: Vec<Record>) -> Dataset {
    Dataset {
        spec: DatasetSpec {
            cardinality: records.len(),
            distribution: KeyDistribution::Uniform { domain: 500 },
            record_size: 64,
            seed: 0,
        },
        records,
    }
}

fn arb_query() -> impl Strategy<Value = RangeQuery> {
    (0u32..500, 0u32..500).prop_map(|(a, b)| RangeQuery::new(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Honest SAE executions verify and return exactly the oracle's records,
    /// and the token is the XOR of the oracle's digests.
    #[test]
    fn sae_honest_execution_is_correct(records in arb_records(), q in arb_query()) {
        let ds = dataset_from(records);
        let system = ShardedSaeEngine::build_in_memory(&ds, ALG, 1).unwrap();
        let outcome = system.query(&q).unwrap();
        prop_assert!(outcome.metrics.verified);
        prop_assert_eq!(outcome.slices.len(), 1);
        let slice = &outcome.slices[0];
        let expected: Vec<Vec<u8>> = ds.query_oracle(&q).into_iter().map(Record::encode).collect();
        prop_assert_eq!(&slice.records, &expected);
        let expected_vt = XorDigest::of(
            ds.query_oracle(&q).iter().map(|r| r.digest(ALG)).collect::<Vec<_>>().iter(),
        );
        prop_assert_eq!(slice.vt, expected_vt);
    }

    /// Honest TOM executions verify and return exactly the oracle's records.
    #[test]
    fn tom_honest_execution_is_correct(records in arb_records(), q in arb_query()) {
        let ds = dataset_from(records);
        let signer = MacSigner::new(b"pk".to_vec());
        let system = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();
        let outcome = system.query(&q).unwrap();
        prop_assert!(outcome.metrics.verified);
        prop_assert_eq!(outcome.records.len(), ds.query_cardinality(&q));
    }

    /// Any drop / inject / modify attack on a non-empty result is rejected by
    /// both clients.
    #[test]
    fn both_models_reject_arbitrary_tampering(
        records in arb_records(),
        q in arb_query(),
        strategy_pick in 0usize..3,
        amount in 1usize..4,
        seed in any::<u64>(),
    ) {
        let ds = dataset_from(records);
        prop_assume!(ds.query_cardinality(&q) > 0);

        let strategy = match strategy_pick {
            0 => TamperStrategy::DropRecords { count: amount },
            1 => TamperStrategy::InjectRecords { count: amount },
            _ => TamperStrategy::ModifyRecords { count: amount },
        };

        let sae = ShardedSaeEngine::build_in_memory(&ds, ALG, 1).unwrap();
        let outcome = sae.query_with_tamper(&q, strategy, seed).unwrap();
        // Dropping every record of a result and injecting nothing could in
        // principle collide only if DS⊕ == 0, which requires a digest
        // collision; assert rejection unconditionally.
        prop_assert!(!outcome.metrics.verified, "SAE accepted {:?}", strategy);

        let signer = MacSigner::new(b"pk".to_vec());
        let tom = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();
        let outcome = tom.query_with_tamper(&q, strategy, seed).unwrap();
        prop_assert!(!outcome.metrics.verified, "TOM accepted {:?}", strategy);
    }

    /// The XB-Tree's token generation agrees with a brute-force XOR for any
    /// interleaving of inserts and deletes.
    #[test]
    fn xbtree_tokens_survive_arbitrary_updates(
        initial in prop::collection::vec((0u32..300, 1u8..255), 0..150),
        updates in prop::collection::vec((any::<bool>(), 0u32..300, 1u8..255), 0..80),
        q in (0u32..300, 0u32..300),
    ) {
        let q = RangeQuery::new(q.0, q.1);
        let mut tree = XbTree::new(MemPager::new_shared()).unwrap();
        let mut live: Vec<TeTuple> = Vec::new();
        let mut next_id = 0u64;

        let mut sorted: Vec<TeTuple> = initial
            .iter()
            .map(|&(key, tag)| {
                let mut r = Record::with_size(next_id, key, 64);
                r.payload[0] = tag;
                next_id += 1;
                r.te_tuple(ALG)
            })
            .collect();
        sorted.sort_by_key(|t| (t.key, t.id));
        for t in &sorted {
            tree.insert(*t).unwrap();
            live.push(*t);
        }

        for (is_insert, key, tag) in updates {
            if is_insert || live.is_empty() {
                let mut r = Record::with_size(next_id, key, 64);
                r.payload[0] = tag;
                next_id += 1;
                let t = r.te_tuple(ALG);
                tree.insert(t).unwrap();
                live.push(t);
            } else {
                let victim = live.swap_remove((key as usize) % live.len());
                prop_assert!(tree.delete(victim.key, victim.id).unwrap());
            }
        }

        let expected = XorDigest::of(
            live.iter().filter(|t| q.contains(t.key)).map(|t| t.digest).collect::<Vec<_>>().iter(),
        );
        prop_assert_eq!(tree.generate_vt(&q).unwrap(), expected);
        tree.check_invariants().unwrap();
    }

    /// MB-Tree VOs generated from arbitrary datasets verify for honest
    /// results and fail when any single result record is withheld.
    #[test]
    fn mbtree_vo_round_trip_and_drop_detection(records in arb_records(), q in arb_query()) {
        let ds = dataset_from(records);
        let signer = MacSigner::new(b"pk".to_vec());
        let system = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();
        let outcome = system.query(&q).unwrap();
        prop_assert!(outcome.metrics.verified);

        if !outcome.records.is_empty() {
            let dropped = system
                .query_with_tamper(&q, TamperStrategy::DropRecords { count: 1 }, 3)
                .unwrap();
            prop_assert!(!dropped.metrics.verified);
        }
    }
}
