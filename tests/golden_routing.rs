//! Golden routing values: every table's assignments and every server's
//! codebook slot, pinned to numbers recorded from an earlier build.
//!
//! `determinism.rs` compares two builds of the same code, and the serving
//! oracle derives its expected answers from the same `slot_of_request` /
//! `slot_of_server` the engine uses, so neither can see a change to a
//! table's hash function, seed or input bytes. These values can: any such
//! change moves some of the 2,000 lookups or one of the slots below.

use hdhash::hashfn::mix64;
use hdhash::prelude::*;

/// Member ids: small, sparse, and the two largest `u64` values.
const MEMBERS: [u64; 17] =
    [0, 1, 2, 3, 5, 8, 13, 21, 34, 50, 55, 89, 106, 144, 233, u64::MAX - 1, u64::MAX];

/// Folds the owners of keys `0..2000` into one word.
fn fingerprint(kind: AlgorithmKind) -> u64 {
    let mut table = kind.build(64);
    for id in MEMBERS {
        table.join(ServerId::new(id)).expect("fresh server");
    }
    (0..2_000u64).fold(0, |fp, key| {
        let server = table.lookup(RequestKey::new(key)).expect("non-empty").get();
        mix64(fp ^ server.wrapping_add(key))
    })
}

#[test]
fn every_table_routes_as_recorded() {
    let recorded = [
        (AlgorithmKind::Modular, 0x2dcc_6719_d8e9_2224),
        (AlgorithmKind::Consistent, 0x4f6d_042a_07fc_8839),
        (AlgorithmKind::Rendezvous, 0x6ef1_c454_8b2d_e352),
        (AlgorithmKind::Hd, 0xf421_7d6b_53ea_5fcb),
        (AlgorithmKind::HdParallel, 0xf421_7d6b_53ea_5fcb),
        (AlgorithmKind::Maglev, 0x08ad_d1de_2a5c_22b5),
        (AlgorithmKind::Jump, 0xe7d4_759e_9749_4dcc),
    ];
    assert_eq!(recorded.len(), AlgorithmKind::ALL.len(), "every algorithm is pinned");
    for (kind, expected) in recorded {
        assert_eq!(fingerprint(kind), expected, "{kind} routes differently");
    }
}

#[test]
fn server_slots_as_recorded() {
    let ids = [0, 1, 50, 106, u64::MAX - 1, u64::MAX];
    let recorded: [(usize, usize, [usize; 6]); 3] = [
        (2048, 64, [59, 21, 33, 33, 63, 9]),
        (2048, 128, [59, 21, 33, 33, 127, 73]),
        (10_240, 512, [443, 405, 161, 289, 383, 201]),
    ];
    for (dimension, codebook, expected) in recorded {
        let mut table = HdHashTable::builder()
            .dimension(dimension)
            .codebook_size(codebook)
            .build()
            .expect("valid geometry");
        for id in ids {
            table.join(ServerId::new(id)).expect("fresh server");
        }
        let slots = ids.map(|id| table.slot_of_server(ServerId::new(id)).expect("joined"));
        assert_eq!(slots, expected, "slots at d = {dimension}, n = {codebook}");
    }
}
