//! Membership-churn equivalence for the HD tables: after any interleaving
//! of joins and leaves, lookups must agree with a freshly built table's
//! for the same final membership, and the plain table's membership
//! signature must be **byte-identical** to the one the fresh build
//! computes.

use hdhash_core::{HdConfig, HdHashTable, HierarchicalHdTable, WeightedHdTable};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
use proptest::prelude::*;

fn config() -> HdConfig {
    HdConfig::builder()
        .dimension(2048)
        .codebook_size(64)
        .seed(33)
        .build_config()
        .expect("valid config")
}

/// Applies a join/leave script over a small server-id space; returns the
/// surviving membership in join order.
fn apply_script<T: DynamicHashTable>(table: &mut T, script: &[(u8, bool)]) -> Vec<ServerId> {
    let mut live: Vec<ServerId> = Vec::new();
    for &(id, remove) in script {
        let server = ServerId::new(u64::from(id));
        if remove {
            if table.leave(server).is_ok() {
                live.retain(|&s| s != server);
            }
        } else if table.join(server).is_ok() {
            live.push(server);
        }
    }
    live
}

fn scripts() -> impl Strategy<Value = Vec<(u8, bool)>> {
    prop::collection::vec((0u8..12, any::<bool>()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plain HD table: churned signature == fresh-build signature, and
    /// every lookup agrees with the fresh table.
    #[test]
    fn hd_table_churn_equals_fresh_build(script in scripts()) {
        let mut churned = HdHashTable::with_config(config());
        let live = apply_script(&mut churned, &script);
        let mut fresh = HdHashTable::with_config(config());
        for &s in &live {
            fresh.join(s).expect("fresh join");
        }
        prop_assert_eq!(
            churned.membership_signature().to_bytes(),
            fresh.membership_signature().to_bytes()
        );
        for k in 0..50u64 {
            prop_assert_eq!(
                churned.lookup(RequestKey::new(k)),
                fresh.lookup(RequestKey::new(k))
            );
        }
    }

    /// Weighted table: replica-weighted churn, same replica count and
    /// lookups. Weights derive deterministically from the id so fresh and
    /// churned agree.
    #[test]
    fn weighted_table_churn_equals_fresh_build(script in scripts()) {
        let weight_of = |s: ServerId| (s.get() % 3 + 1) as u32;
        let mut churned = WeightedHdTable::with_config(config());
        let mut live: Vec<ServerId> = Vec::new();
        for &(id, remove) in &script {
            let server = ServerId::new(u64::from(id));
            if remove {
                if churned.leave(server).is_ok() {
                    live.retain(|&s| s != server);
                }
            } else if churned.join_weighted(server, weight_of(server)).is_ok() {
                live.push(server);
            }
        }
        let mut fresh = WeightedHdTable::with_config(config());
        for &s in &live {
            fresh.join_weighted(s, weight_of(s)).expect("fresh join");
        }
        prop_assert_eq!(churned.replica_count(), fresh.replica_count());
        for k in 0..50u64 {
            prop_assert_eq!(
                churned.lookup(RequestKey::new(k)),
                fresh.lookup(RequestKey::new(k))
            );
        }
    }

    /// Hierarchical table: churn across groups, same server count and
    /// lookups.
    #[test]
    fn hierarchical_table_churn_equals_fresh_build(script in scripts()) {
        let mut churned = HierarchicalHdTable::new(config(), 4);
        let live = apply_script(&mut churned, &script);
        let mut fresh = HierarchicalHdTable::new(config(), 4);
        for &s in &live {
            fresh.join(s).expect("fresh join");
        }
        prop_assert_eq!(churned.server_count(), fresh.server_count());
        for k in 0..50u64 {
            prop_assert_eq!(
                churned.lookup(RequestKey::new(k)),
                fresh.lookup(RequestKey::new(k))
            );
        }
    }
}

/// Signatures track churn: equal membership ⇒ identical bits, and this
/// extra member moves them. Not every difference does: slot collisions
/// and the majority can hide one, so a signature is no membership
/// identity.
#[test]
fn signatures_fingerprint_membership() {
    let mut a = HdHashTable::with_config(config());
    let mut b = HdHashTable::with_config(config());
    for id in 0..10u64 {
        a.join(ServerId::new(id)).expect("fresh");
        b.join(ServerId::new(id)).expect("fresh");
    }
    assert_eq!(a.membership_signature(), b.membership_signature());
    // Divergence (one extra member) moves the signature measurably.
    b.join(ServerId::new(99)).expect("fresh");
    let d = a.membership_signature().hamming_distance(&b.membership_signature());
    assert!(d > 0, "extra member must perturb the signature");
    // Healing the divergence restores bit-exact agreement.
    b.leave(ServerId::new(99)).expect("present");
    assert_eq!(a.membership_signature(), b.membership_signature());
}
