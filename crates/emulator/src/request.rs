//! The emulator's request vocabulary.
//!
//! The paper's emulator drives its hash table module exclusively through
//! requests: ordinary lookups plus two "special case requests, a join and
//! leave request, respectively, with a unique identifier of the server".

use hdhash_table::{RequestKey, ServerId};

/// A single message sent from the generator to the hash table module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// A server announces itself to the pool.
    Join(ServerId),
    /// A server departs from the pool.
    Leave(ServerId),
    /// An ordinary request that must be mapped to a live server.
    Lookup(RequestKey),
}

impl Request {
    /// Whether this is a control (join/leave) request.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Request::Join(_) | Request::Leave(_))
    }

    /// The lookup key, if this is a lookup request.
    #[must_use]
    pub fn lookup_key(&self) -> Option<RequestKey> {
        match self {
            Request::Lookup(k) => Some(*k),
            _ => None,
        }
    }
}

impl core::fmt::Display for Request {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Request::Join(s) => write!(f, "join({s})"),
            Request::Leave(s) => write!(f, "leave({s})"),
            Request::Lookup(r) => write!(f, "lookup({r})"),
        }
    }
}

/// The module's reply to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// A join or leave was applied.
    ControlApplied,
    /// A lookup resolved to this server.
    Mapped(ServerId),
    /// The request failed (e.g. lookup on an empty pool).
    Failed(hdhash_table::TableError),
}

impl Response {
    /// The mapped server for successful lookups.
    #[must_use]
    pub fn server(&self) -> Option<ServerId> {
        match self {
            Response::Mapped(s) => Some(*s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Request::Join(ServerId::new(1)).is_control());
        assert!(Request::Leave(ServerId::new(1)).is_control());
        assert!(!Request::Lookup(RequestKey::new(1)).is_control());
        assert_eq!(
            Request::Lookup(RequestKey::new(9)).lookup_key(),
            Some(RequestKey::new(9))
        );
        assert_eq!(Request::Join(ServerId::new(9)).lookup_key(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Request::Join(ServerId::new(1)).to_string(), "join(s1)");
        assert_eq!(Request::Leave(ServerId::new(2)).to_string(), "leave(s2)");
        assert_eq!(Request::Lookup(RequestKey::new(3)).to_string(), "lookup(r3)");
    }

    #[test]
    fn response_accessors() {
        assert_eq!(Response::Mapped(ServerId::new(4)).server(), Some(ServerId::new(4)));
        assert_eq!(Response::ControlApplied.server(), None);
        assert_eq!(Response::Failed(hdhash_table::TableError::EmptyPool).server(), None);
    }
}
