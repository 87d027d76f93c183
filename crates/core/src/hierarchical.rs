//! Hierarchical HD hashing.
//!
//! The paper notes (Section 5.1) that HD hashing "can scale to much larger
//! clusters, and even be used hierarchically (standard way to scale such
//! hashing systems) to handle extremely high numbers of servers". This
//! module provides that extension: a two-level table where the first level
//! routes a request to a *group* and the second level routes it within the
//! group. Lookup cost drops from one arg-max over `k` servers to two
//! arg-maxes over `≈ √k` entries each, and groups can be scaled
//! independently (e.g. one group per rack or availability zone).

use hdhash_table::{DynamicHashTable, RequestKey, ServerId, TableError};

use crate::config::HdConfig;
use crate::table::HdHashTable;

/// Identifier of a server group (first hierarchy level).
type GroupId = u64;

/// A two-level hierarchical HD hash table.
///
/// # Examples
///
/// ```
/// use hdhash_core::{HdConfig, HierarchicalHdTable};
/// use hdhash_table::{DynamicHashTable, RequestKey, ServerId};
///
/// let config = HdConfig::builder().dimension(2048).codebook_size(64).build_config()?;
/// let mut table = HierarchicalHdTable::new(config, 4);
/// for id in 0..32 {
///     table.join(ServerId::new(id))?;
/// }
/// let owner = table.lookup(RequestKey::new(5))?;
/// assert!(table.contains(owner));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HierarchicalHdTable {
    config: HdConfig,
    group_count: u64,
    /// First level: routes requests to groups. Group `g` joins as the
    /// pseudo-server with identifier `g`.
    router: HdHashTable,
    /// Second level: one HD table per group, created lazily.
    groups: Vec<Option<HdHashTable>>,
}

impl HierarchicalHdTable {
    /// Creates a hierarchy with `group_count` groups, each level using
    /// (derived copies of) `config`.
    ///
    /// # Panics
    ///
    /// Panics if `group_count == 0` or exceeds the codebook capacity of the
    /// router level.
    #[must_use]
    pub fn new(config: HdConfig, group_count: u64) -> Self {
        assert!(group_count > 0, "at least one group is required");
        assert!(
            (group_count as usize) < config.codebook_size(),
            "group count must stay below the codebook size (n > k)"
        );
        let mut router = HdHashTable::with_config(config);
        for g in 0..group_count {
            router.join(ServerId::new(g)).expect("router capacity checked above");
        }
        Self {
            config,
            group_count,
            router,
            groups: (0..group_count).map(|_| None).collect(),
        }
    }

    /// Number of groups at the first level.
    #[must_use]
    pub fn group_count(&self) -> u64 {
        self.group_count
    }

    /// The group a server belongs to (by identity hash, so membership is
    /// stable across joins and leaves).
    #[must_use]
    pub fn group_of_server(&self, server: ServerId) -> GroupId {
        hdhash_hashfn::mix64(server.get()) % self.group_count
    }

    /// The group a request routes to through the first-level HD table.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::EmptyPool`] only if the router is empty,
    /// which cannot happen after construction.
    pub fn group_of_request(&self, request: RequestKey) -> Result<GroupId, TableError> {
        Ok(self.router.lookup(request)?.get())
    }

    fn group_table(&mut self, group: GroupId) -> &mut HdHashTable {
        let slot = &mut self.groups[group as usize];
        slot.get_or_insert_with(|| {
            // Derive a distinct seed per group so codebooks differ.
            let seed = self.config.seed() ^ hdhash_hashfn::mix64(group + 1);
            let config = HdConfig::builder()
                .dimension(self.config.dimension())
                .codebook_size(self.config.codebook_size())
                .search(self.config.search())
                .seed(seed)
                .build_config()
                .expect("copied config remains valid");
            HdHashTable::with_config(config)
        })
    }
}

impl DynamicHashTable for HierarchicalHdTable {
    fn join(&mut self, server: ServerId) -> Result<(), TableError> {
        let group = self.group_of_server(server);
        self.group_table(group).join(server)
    }

    fn leave(&mut self, server: ServerId) -> Result<(), TableError> {
        let group = self.group_of_server(server);
        match &mut self.groups[group as usize] {
            Some(table) => table.leave(server),
            None => Err(TableError::ServerNotFound(server)),
        }
    }

    fn lookup(&self, request: RequestKey) -> Result<ServerId, TableError> {
        // Level 1: route to a group; if that group has no servers, fall
        // through the groups clockwise (deterministic failover).
        let primary = self.router.lookup(request)?.get();
        for offset in 0..self.group_count {
            let group = (primary + offset) % self.group_count;
            if let Some(table) = &self.groups[group as usize] {
                if table.server_count() > 0 {
                    return table.lookup(request);
                }
            }
        }
        Err(TableError::EmptyPool)
    }

    fn server_count(&self) -> usize {
        self.groups.iter().flatten().map(HdHashTable::server_count).sum()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.groups.iter().flatten().flat_map(HdHashTable::servers).collect()
    }

    fn algorithm_name(&self) -> &'static str {
        "hd-hierarchical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HdConfig {
        HdConfig::builder()
            .dimension(2048)
            .codebook_size(64)
            .seed(21)
            .build_config()
            .expect("valid config")
    }

    fn filled(servers: u64, groups: u64) -> HierarchicalHdTable {
        let mut t = HierarchicalHdTable::new(config(), groups);
        for i in 0..servers {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        t
    }

    #[test]
    fn joins_distribute_over_groups() {
        let t = filled(64, 4);
        assert_eq!(t.server_count(), 64);
        assert_eq!(t.group_count(), 4);
        // Every group should have received some servers.
        let mut per_group = [0usize; 4];
        for s in t.servers() {
            per_group[t.group_of_server(s) as usize] += 1;
        }
        assert!(per_group.iter().all(|&c| c > 0), "empty group: {per_group:?}");
    }

    #[test]
    fn lookup_lands_in_routed_group() {
        let t = filled(64, 4);
        for k in 0..500u64 {
            let request = RequestKey::new(k);
            let owner = t.lookup(request).expect("non-empty");
            let routed = t.group_of_request(request).expect("router non-empty");
            assert_eq!(
                t.group_of_server(owner),
                routed,
                "request {k} answered by a foreign group"
            );
        }
    }

    #[test]
    fn failover_when_group_is_empty() {
        let mut t = HierarchicalHdTable::new(config(), 4);
        // Put servers in only one group by joining until that group has
        // members and removing the rest.
        for i in 0..16u64 {
            t.join(ServerId::new(i)).expect("fresh");
        }
        let keep_group = t.group_of_server(ServerId::new(0));
        let victims: Vec<ServerId> =
            t.servers().into_iter().filter(|&s| t.group_of_server(s) != keep_group).collect();
        for s in victims {
            t.leave(s).expect("present");
        }
        // All requests must still resolve (failover through empty groups).
        for k in 0..200u64 {
            let owner = t.lookup(RequestKey::new(k)).expect("non-empty pool");
            assert_eq!(t.group_of_server(owner), keep_group);
        }
    }

    #[test]
    fn empty_hierarchy_errors() {
        let t = HierarchicalHdTable::new(config(), 2);
        assert_eq!(t.lookup(RequestKey::new(1)), Err(TableError::EmptyPool));
        assert_eq!(t.server_count(), 0);
    }

    #[test]
    fn leave_unknown_server_errors() {
        let mut t = filled(8, 2);
        assert_eq!(
            t.leave(ServerId::new(10_000)),
            Err(TableError::ServerNotFound(ServerId::new(10_000)))
        );
    }

    #[test]
    fn deterministic_lookups() {
        let a = filled(32, 4);
        let b = filled(32, 4);
        for k in 0..200u64 {
            assert_eq!(
                a.lookup(RequestKey::new(k)).expect("non-empty"),
                b.lookup(RequestKey::new(k)).expect("non-empty")
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        let _ = HierarchicalHdTable::new(config(), 0);
    }
}
