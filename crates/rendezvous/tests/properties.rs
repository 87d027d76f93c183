//! Property-based tests for rendezvous hashing.

use hdhash_rendezvous::RendezvousTable;
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId};
use proptest::prelude::*;

proptest! {
    /// Lookups are total over non-empty pools and always land on members.
    #[test]
    fn lookup_total(
        ids in proptest::collection::hash_set(any::<u64>(), 1..32),
        keys in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut table = RendezvousTable::new();
        for &id in &ids {
            table.join(ServerId::new(id)).expect("distinct ids");
        }
        for &k in &keys {
            let owner = table.lookup(RequestKey::new(k)).expect("non-empty");
            prop_assert!(table.contains(owner));
        }
    }

    /// The defining HRW property: removing any server moves *only* the
    /// requests that server was winning, to their runner-up — for
    /// arbitrary pools.
    #[test]
    fn minimal_disruption_for_any_victim(
        ids in proptest::collection::hash_set(any::<u64>(), 2..24),
        victim_index in any::<prop::sample::Index>(),
    ) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let victim = ids[victim_index.index(ids.len())];
        let mut table = RendezvousTable::new();
        for &id in &ids {
            table.join(ServerId::new(id)).expect("distinct ids");
        }
        let keys: Vec<RequestKey> = (0..300).map(RequestKey::new).collect();
        let before: Vec<ServerId> =
            keys.iter().map(|&k| table.lookup(k).expect("non-empty")).collect();
        table.leave(ServerId::new(victim)).expect("present");
        for (&k, &owner) in keys.iter().zip(&before) {
            if owner != ServerId::new(victim) {
                prop_assert_eq!(table.lookup(k).expect("non-empty"), owner);
            }
        }
    }

    /// Membership order does not matter: HRW assignment is a pure function
    /// of the member *set*.
    #[test]
    fn order_independence(ids in proptest::collection::hash_set(any::<u64>(), 1..16)) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let mut forward = RendezvousTable::new();
        for &id in &ids {
            forward.join(ServerId::new(id)).expect("distinct");
        }
        let mut backward = RendezvousTable::new();
        for &id in ids.iter().rev() {
            backward.join(ServerId::new(id)).expect("distinct");
        }
        for k in 0..100u64 {
            prop_assert_eq!(
                forward.lookup(RequestKey::new(k)).expect("non-empty"),
                backward.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    /// Noise + clear round-trips for any flip pattern.
    #[test]
    fn noise_roundtrip(flips in 0usize..64, seed in any::<u64>()) {
        let mut table = RendezvousTable::new();
        for i in 0..24u64 {
            table.join(ServerId::new(i)).expect("fresh");
        }
        let keys: Vec<RequestKey> = (0..150).map(RequestKey::new).collect();
        let before: Vec<ServerId> =
            keys.iter().map(|&k| table.lookup(k).expect("non-empty")).collect();
        table.inject_bit_flips(flips, seed);
        table.clear_noise();
        let after: Vec<ServerId> =
            keys.iter().map(|&k| table.lookup(k).expect("non-empty")).collect();
        prop_assert_eq!(before, after);
    }
}
