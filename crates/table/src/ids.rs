//! Strongly typed identifiers for servers and requests.
//!
//! In practice these stand for IP addresses or unique identifiers (as the
//! paper notes for its `h(·)` inputs); the emulator generates them as
//! opaque 64-bit values. Newtypes keep the two spaces from being mixed up.

/// Identifier of a server (a hash table slot owner).
///
/// # Examples
///
/// ```
/// use hdhash_table::ServerId;
///
/// let s = ServerId::new(3);
/// assert_eq!(s.get(), 3);
/// assert_eq!(s.to_string(), "s3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(u64);

impl ServerId {
    /// Wraps a raw identifier.
    #[must_use]
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The raw identifier.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Canonical byte encoding fed to hash functions.
    #[must_use]
    pub const fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

impl From<u64> for ServerId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

impl core::fmt::Display for ServerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier (key) of a request.
///
/// # Examples
///
/// ```
/// use hdhash_table::RequestKey;
///
/// let r = RequestKey::new(42);
/// assert_eq!(r.get(), 42);
/// assert_eq!(r.to_string(), "r42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey(u64);

impl RequestKey {
    /// Wraps a raw key.
    #[must_use]
    pub const fn new(key: u64) -> Self {
        Self(key)
    }

    /// The raw key.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Canonical byte encoding fed to hash functions.
    #[must_use]
    pub const fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

impl From<u64> for RequestKey {
    fn from(key: u64) -> Self {
        Self(key)
    }
}

impl core::fmt::Display for RequestKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let s = ServerId::new(17);
        assert_eq!(s.get(), 17);
        assert_eq!(ServerId::from(17u64), s);
        assert_eq!(s.to_string(), "s17");
        assert_eq!(s.to_bytes(), 17u64.to_le_bytes());

        let r = RequestKey::new(99);
        assert_eq!(r.get(), 99);
        assert_eq!(RequestKey::from(99u64), r);
        assert_eq!(r.to_string(), "r99");
        assert_eq!(r.to_bytes(), 99u64.to_le_bytes());
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(ServerId::new(1) < ServerId::new(2));
        assert!(RequestKey::new(5) > RequestKey::new(4));
    }

    #[test]
    fn usable_as_map_keys() {
        let mut map = std::collections::HashMap::new();
        map.insert(ServerId::new(1), "a");
        map.insert(ServerId::new(2), "b");
        assert_eq!(map[&ServerId::new(1)], "a");
    }
}
