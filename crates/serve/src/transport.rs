//! Pluggable message carriage between replicas.
//!
//! The gossip layer ([`gossip`](crate::gossip)) is transport-agnostic: it
//! speaks [`GossipMessage`]s through the
//! [`Transport`] trait and never assumes how the bytes move. This module
//! provides the trait plus the in-process implementation —
//! [`InProcessNetwork`] hands out per-replica [`InProcessEndpoint`]s wired
//! together with `crossbeam::channel` mailboxes — which is what most
//! tests, the bench and the CLI demo run on. The socket implementation
//! lives in [`tcp`](crate::tcp): a [`TcpNetwork`](crate::tcp::TcpNetwork)
//! moves the same messages over framed loopback TCP
//! ([`wire`](crate::wire) defines the frame format), and nothing above
//! this module can tell the difference. All three transports — in-process,
//! chaos ([`crate::chaos`]) and TCP — fail through the one
//! [`TransportError`] vocabulary.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::gossip::GossipMessage;
use crate::wire::FrameError;

/// Identifies one replica (one [`ServeEngine`](crate::ServeEngine) plus
/// its gossip node) inside a replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(u64);

impl ReplicaId {
    /// Wraps a raw id.
    #[must_use]
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The raw id.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "replica{}", self.0)
    }
}

/// A received message plus its sender.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Which replica sent the message.
    pub from: ReplicaId,
    /// The message itself.
    pub message: GossipMessage,
}

/// The one failure vocabulary every transport speaks — in-process
/// mailboxes, the chaos harness and the TCP endpoints all surface these
/// same variants, so gossip-layer error handling is transport-blind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination replica is not registered on this network.
    UnknownPeer(ReplicaId),
    /// The path to the destination is gone: its mailbox was dropped
    /// (in-process), or the local network was shut down (TCP).
    Disconnected(ReplicaId),
    /// A deadline expired talking to the peer (TCP read/write timeout;
    /// the chaos harness injects this to model stalls).
    Timeout(ReplicaId),
    /// Bytes from the peer failed frame validation — bad magic, version,
    /// length, checksum or payload encoding ([`FrameError`] says which).
    Corrupt(FrameError),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::UnknownPeer(id) => write!(f, "unknown peer {id}"),
            TransportError::Disconnected(id) => write!(f, "peer {id} disconnected"),
            TransportError::Timeout(id) => write!(f, "timed out talking to {id}"),
            TransportError::Corrupt(err) => write!(f, "corrupt frame: {err}"),
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(err: FrameError) -> Self {
        TransportError::Corrupt(err)
    }
}

impl std::error::Error for TransportError {}

/// One replica's view of the wire: send to any peer, receive what peers
/// sent here.
///
/// Implementations must be usable from the gossip scheduler thread
/// (`Send`). Message delivery may be delayed or reordered across peers;
/// the gossip protocol tolerates both (every round re-adverts current
/// state — anti-entropy is memoryless across rounds).
pub trait Transport: Send {
    /// The replica this endpoint belongs to.
    fn local(&self) -> ReplicaId;

    /// Queues `message` for delivery to `to`.
    ///
    /// # Errors
    ///
    /// [`TransportError`] when the peer is unknown or gone.
    fn send(&self, to: ReplicaId, message: GossipMessage) -> Result<(), TransportError>;

    /// Returns the next incoming message without blocking, or `None` when
    /// the mailbox is empty.
    fn try_recv(&self) -> Option<Envelope>;

    /// Blocks up to `timeout` for an incoming message.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope>;
}

/// The switchboard of an in-process replica set: a registry of per-replica
/// mailboxes, from which [`endpoint`](Self::endpoint) carves one
/// [`InProcessEndpoint`] per replica.
///
/// # Examples
///
/// ```
/// use hdhash_serve::transport::{InProcessNetwork, ReplicaId, Transport};
/// use hdhash_serve::gossip::GossipMessage;
///
/// let network = InProcessNetwork::new();
/// let a = network.endpoint(ReplicaId::new(0));
/// let b = network.endpoint(ReplicaId::new(1));
/// a.send(ReplicaId::new(1), GossipMessage::Advert { round: 1, digests: vec![], ack: None })?;
/// let envelope = b.try_recv().expect("delivered");
/// assert_eq!(envelope.from, ReplicaId::new(0));
/// # Ok::<(), hdhash_serve::transport::TransportError>(())
/// ```
#[derive(Debug, Default)]
pub struct InProcessNetwork {
    mailboxes: Mutex<HashMap<ReplicaId, Sender<Envelope>>>,
}

impl InProcessNetwork {
    /// Creates an empty network; register replicas with
    /// [`endpoint`](Self::endpoint).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers `id` and returns its endpoint. Re-registering an id
    /// replaces its mailbox (the old endpoint keeps draining already
    /// delivered messages but receives no new ones).
    #[must_use]
    pub fn endpoint(self: &Arc<Self>, id: ReplicaId) -> InProcessEndpoint {
        let (sender, receiver) = unbounded();
        self.mailboxes.lock().insert(id, sender);
        InProcessEndpoint { id, network: Arc::clone(self), inbox: receiver }
    }

    /// The registered replica ids, sorted.
    #[must_use]
    pub fn peers(&self) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = self.mailboxes.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Delivers `message` into `to`'s mailbox as if sent by `from`.
    /// Shared with the chaos layer ([`crate::chaos`]), which injects
    /// faults *before* routing and needs direct delivery for messages it
    /// releases from its held queue.
    pub(crate) fn route(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        message: GossipMessage,
    ) -> Result<(), TransportError> {
        let sender = self
            .mailboxes
            .lock()
            .get(&to)
            .cloned()
            .ok_or(TransportError::UnknownPeer(to))?;
        sender
            .send(Envelope { from, message })
            .map_err(|_| TransportError::Disconnected(to))
    }
}

/// One replica's connection to an [`InProcessNetwork`].
#[derive(Debug)]
pub struct InProcessEndpoint {
    id: ReplicaId,
    network: Arc<InProcessNetwork>,
    inbox: Receiver<Envelope>,
}

impl Transport for InProcessEndpoint {
    fn local(&self) -> ReplicaId {
        self.id
    }

    fn send(&self, to: ReplicaId, message: GossipMessage) -> Result<(), TransportError> {
        self.network.route(self.id, to, message)
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inbox.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::GossipMessage;

    fn advert(round: u64) -> GossipMessage {
        GossipMessage::Advert { round, digests: Vec::new(), ack: None }
    }

    #[test]
    fn routes_between_endpoints() {
        let network = InProcessNetwork::new();
        let a = network.endpoint(ReplicaId::new(1));
        let b = network.endpoint(ReplicaId::new(2));
        assert_eq!(network.peers(), vec![ReplicaId::new(1), ReplicaId::new(2)]);
        a.send(ReplicaId::new(2), advert(7)).expect("registered");
        b.send(ReplicaId::new(1), advert(8)).expect("registered");
        let at_b = b.try_recv().expect("delivered");
        assert_eq!(at_b.from, ReplicaId::new(1));
        assert!(matches!(at_b.message, GossipMessage::Advert { round: 7, .. }));
        let at_a = a.recv_timeout(Duration::from_millis(100)).expect("delivered");
        assert_eq!(at_a.from, ReplicaId::new(2));
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let network = InProcessNetwork::new();
        let a = network.endpoint(ReplicaId::new(1));
        assert_eq!(
            a.send(ReplicaId::new(9), advert(1)),
            Err(TransportError::UnknownPeer(ReplicaId::new(9)))
        );
    }

    #[test]
    fn dropped_endpoint_disconnects() {
        let network = InProcessNetwork::new();
        let a = network.endpoint(ReplicaId::new(1));
        let b = network.endpoint(ReplicaId::new(2));
        drop(b);
        assert_eq!(
            a.send(ReplicaId::new(2), advert(1)),
            Err(TransportError::Disconnected(ReplicaId::new(2)))
        );
    }

    #[test]
    fn recv_timeout_expires_when_idle() {
        let network = InProcessNetwork::new();
        let a = network.endpoint(ReplicaId::new(1));
        assert!(a.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn transport_error_display_covers_all_variants() {
        use crate::wire::FrameError;
        assert_eq!(
            TransportError::UnknownPeer(ReplicaId::new(9)).to_string(),
            "unknown peer replica9"
        );
        assert_eq!(
            TransportError::Disconnected(ReplicaId::new(2)).to_string(),
            "peer replica2 disconnected"
        );
        assert_eq!(
            TransportError::Timeout(ReplicaId::new(3)).to_string(),
            "timed out talking to replica3"
        );
        let corrupt: TransportError = FrameError::BadChecksum.into();
        assert!(corrupt.to_string().starts_with("corrupt frame:"));
    }

    #[test]
    fn replica_id_display_and_order() {
        assert_eq!(ReplicaId::new(3).to_string(), "replica3");
        assert_eq!(ReplicaId::new(3).get(), 3);
        assert!(ReplicaId::new(1) < ReplicaId::new(2));
    }
}
