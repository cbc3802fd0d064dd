//! The byte-level transport boundary.
//!
//! Tracing algorithms are written against [`PacketTransport`]: write a
//! complete IPv4 probe datagram, receive the complete IPv4 reply datagram
//! or `None` (loss, rate limiting, unresponsive target — the synchronous
//! analogue of a raw-socket timeout). The Fakeroute simulator implements
//! this trait in-process; a raw-socket implementation would carry the same
//! algorithms onto a real network, which is the sans-IO design goal.
//!
//! [`PacketTransport`] offers two dispatch shapes:
//!
//! * the one-probe verb [`PacketTransport::send_packet`], plus its
//!   allocation-free variant [`PacketTransport::send_packet_into`] that
//!   writes the reply into a caller-owned buffer;
//! * the vectorized verb [`PacketTransport::send_batch`], which moves a
//!   whole round of probes across the boundary in one call using packed
//!   [`PacketBatch`]/[`ReplyBatch`] buffers whose allocations amortize to
//!   zero across rounds.
//!
//! `send_batch` has a default implementation over `send_packet_into`, so
//! a single-probe transport is batch-capable as it stands. Transports
//! with a real vectorized path (io_uring, sendmmsg, a simulator that
//! pipelines parsing) override it. [`SplitTransport`] adds the
//! asynchronous-shaped send/receive split with per-probe deadlines.

/// A packed sequence of probe datagrams awaiting dispatch.
///
/// Packets are stored back to back in one buffer with an offset table, so
/// building a round of probes costs no per-packet allocations once the
/// buffers have warmed up.
#[derive(Debug, Clone, Default)]
pub struct PacketBatch {
    bytes: Vec<u8>,
    /// End offset of each packet in `bytes`.
    bounds: Vec<usize>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the batch, retaining capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bounds.clear();
    }

    /// Number of packets queued.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Appends one packet by letting `build` write its bytes into the
    /// backing buffer (e.g. [`crate::probe::build_udp_probe_into`]).
    pub fn push_with<F: FnOnce(&mut Vec<u8>)>(&mut self, build: F) {
        build(&mut self.bytes);
        self.bounds.push(self.bytes.len());
    }

    /// Appends one packet by copying existing bytes.
    pub fn push(&mut self, packet: &[u8]) {
        self.push_with(|buf| buf.extend_from_slice(packet));
    }

    /// The bytes of packet `index`.
    pub fn get(&self, index: usize) -> &[u8] {
        let start = if index == 0 {
            0
        } else {
            self.bounds[index - 1]
        };
        &self.bytes[start..self.bounds[index]]
    }

    /// Iterates packets in queue order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The packed replies of one dispatched batch: per probe, either the
/// reply datagram bytes or nothing (loss / rate limit / no responder),
/// plus the transport timestamp observed right after each send.
#[derive(Debug, Clone, Default)]
pub struct ReplyBatch {
    bytes: Vec<u8>,
    /// End offset per slot; `answered[i]` distinguishes an empty slot.
    bounds: Vec<usize>,
    answered: Vec<bool>,
    timestamps: Vec<u64>,
}

impl ReplyBatch {
    /// An empty reply set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all slots, retaining capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bounds.clear();
        self.answered.clear();
        self.timestamps.clear();
    }

    /// Number of slots (equals the dispatched batch's packet count).
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True if no slots are recorded.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Appends one slot. `fill` writes the reply bytes into the backing
    /// buffer and returns whether a reply arrived; `timestamp` is the
    /// transport clock right after the send.
    pub fn push_with<F: FnOnce(&mut Vec<u8>) -> bool>(&mut self, timestamp: u64, fill: F) {
        let start = self.bytes.len();
        let ok = fill(&mut self.bytes);
        if !ok {
            self.bytes.truncate(start);
        }
        self.bounds.push(self.bytes.len());
        self.answered.push(ok);
        self.timestamps.push(timestamp);
    }

    /// The reply bytes of slot `index`, if that probe was answered.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        if !self.answered[index] {
            return None;
        }
        let start = if index == 0 {
            0
        } else {
            self.bounds[index - 1]
        };
        Some(&self.bytes[start..self.bounds[index]])
    }

    /// Transport timestamp recorded for slot `index`.
    pub fn timestamp(&self, index: usize) -> u64 {
        self.timestamps[index]
    }

    /// Iterates slots in order as `(reply, timestamp)`.
    pub fn iter(&self) -> impl Iterator<Item = (Option<&[u8]>, u64)> {
        (0..self.len()).map(|i| (self.get(i), self.timestamp(i)))
    }
}

/// A synchronous request/reply packet channel.
pub trait PacketTransport {
    /// Sends one probe datagram; returns the reply datagram, if any.
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>>;

    /// Allocation-free variant: appends the reply to `reply` and returns
    /// true, or returns false leaving `reply` untouched. Transports with
    /// an internally allocation-free reply path override this; the
    /// default adapts [`PacketTransport::send_packet`].
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        match self.send_packet(packet) {
            Some(bytes) => {
                reply.extend_from_slice(&bytes);
                true
            }
            None => false,
        }
    }

    /// Current transport time in ticks. Reply timestamps feed the
    /// Monotonic Bounds Test's time series.
    fn now(&self) -> u64;

    /// Sends every packet of `probes` in order, recording each reply (or
    /// its absence) and the post-send transport timestamp into `replies`.
    /// `replies` is cleared first.
    ///
    /// The default shim dispatches sequentially through
    /// [`PacketTransport::send_packet_into`], which preserves single-probe
    /// semantics exactly (same packet order, same clock progression).
    fn send_batch(&mut self, probes: &PacketBatch, replies: &mut ReplyBatch) {
        replies.clear();
        for packet in probes.iter() {
            // Split-borrow dance: `self` is needed both to send and for
            // the timestamp, so send first into a detached closure.
            let mut sent = false;
            let this = &mut *self;
            replies.push_with(0, |buf| {
                sent = this.send_packet_into(packet, buf);
                sent
            });
            let t = self.now();
            replies.set_last_timestamp(t);
        }
    }
}

impl ReplyBatch {
    /// Overwrites the most recent slot's timestamp (used by the default
    /// `send_batch` shim, which learns the time only after sending).
    pub fn set_last_timestamp(&mut self, timestamp: u64) {
        if let Some(last) = self.timestamps.last_mut() {
            *last = timestamp;
        }
    }
}

/// The split (asynchronous-shaped) transport contract: **send** and
/// **receive** are separate verbs, with a per-probe timeout deadline
/// carried across the boundary.
///
/// [`PacketTransport::send_batch`] bakes in the synchronous fiction that
/// every probe resolves before the call returns — which leaves a caller
/// no way to express "give up on this probe after N ticks". The split
/// contract fixes that: [`send_probes`](Self::send_probes) dispatches a
/// batch where probe *i* carries a timeout of `timeouts[i]` transport
/// ticks measured from its own send instant (its **deadline** is
/// `send_tick + timeouts[i]` on the transport's virtual clock), and
/// [`recv_replies`](Self::recv_replies) later resolves every probe of
/// that batch exactly once: either the reply that arrived by the
/// deadline, or an unanswered slot — the reply never came, or came too
/// late (the caller's pending table turns that into a typed timeout).
///
/// Contract invariants:
///
/// * Every `send_probes` must be followed by exactly one `recv_replies`
///   before the next `send_probes`; the reply batch has one slot per
///   probe, in probe order.
/// * A slot is answered **iff** its reply arrived at or before its
///   deadline. Answered slots carry the reply's arrival tick as their
///   timestamp; unanswered slots resolve at their deadline.
/// * Waiting out a deadline costs no transport ticks of its own: the
///   virtual clock is driven by packets (and by explicit clock advances
///   a simulator applies), so deadlines are bookkeeping on the same
///   tick axis the replies are stamped with. A real-socket backend
///   instead blocks in `recv_replies` until the last deadline expires.
///
/// The simulator implements this natively (impairment schedules can
/// delay replies past their deadlines).
pub trait SplitTransport: PacketTransport {
    /// Send half: dispatches every probe of `probes`, recording for each
    /// the deadline `send_tick + timeouts[i]`. `timeouts.len()` must
    /// equal `probes.len()`.
    fn send_probes(&mut self, probes: &PacketBatch, timeouts: &[u64]);

    /// Recv half: resolves the batch most recently sent (see the trait
    /// docs for the slot semantics). `replies` is cleared first.
    fn recv_replies(&mut self, replies: &mut ReplyBatch);
}

/// Blanket implementation so `&mut T` can be passed where a transport is
/// consumed by value.
impl<T: PacketTransport + ?Sized> PacketTransport for &mut T {
    fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        (**self).send_packet(packet)
    }
    fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
        (**self).send_packet_into(packet, reply)
    }
    fn now(&self) -> u64 {
        (**self).now()
    }
    // Forwarded so a `&mut` to a transport with a real vectorized path
    // keeps it instead of falling back to the default shim.
    fn send_batch(&mut self, probes: &PacketBatch, replies: &mut ReplyBatch) {
        (**self).send_batch(probes, replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every packet back with a byte appended; drops every third.
    struct Echo {
        clock: u64,
    }

    impl PacketTransport for Echo {
        fn send_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
            let mut reply = Vec::new();
            if self.send_packet_into(packet, &mut reply) {
                Some(reply)
            } else {
                None
            }
        }
        fn send_packet_into(&mut self, packet: &[u8], reply: &mut Vec<u8>) -> bool {
            self.clock += 1;
            if self.clock.is_multiple_of(3) {
                return false;
            }
            reply.extend_from_slice(packet);
            reply.push(0xEE);
            true
        }
        fn now(&self) -> u64 {
            self.clock
        }
    }

    #[test]
    fn packet_batch_packs_and_iterates() {
        let mut batch = PacketBatch::new();
        batch.push(&[1, 2, 3]);
        batch.push_with(|buf| buf.extend_from_slice(&[4, 5]));
        batch.push(&[]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), &[1, 2, 3]);
        assert_eq!(batch.get(1), &[4, 5]);
        assert_eq!(batch.get(2), &[] as &[u8]);
        let collected: Vec<&[u8]> = batch.iter().collect();
        assert_eq!(collected.len(), 3);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn default_send_batch_matches_sequential() {
        let mut batch = PacketBatch::new();
        for i in 0..6u8 {
            batch.push(&[i; 4]);
        }
        let mut replies = ReplyBatch::new();
        let mut a = Echo { clock: 0 };
        a.send_batch(&batch, &mut replies);

        let mut b = Echo { clock: 0 };
        for (i, packet) in batch.iter().enumerate() {
            let expected = b.send_packet(packet);
            assert_eq!(replies.get(i).map(<[u8]>::to_vec), expected, "slot {i}");
            assert_eq!(replies.timestamp(i), b.now());
        }
    }

    #[test]
    fn mut_ref_forwards_send_batch_override() {
        /// Answers nothing one probe at a time; its vectorized path
        /// stamps every slot with a marker tick instead.
        struct Vectorized;
        impl PacketTransport for Vectorized {
            fn send_packet(&mut self, _packet: &[u8]) -> Option<Vec<u8>> {
                None
            }
            fn now(&self) -> u64 {
                0
            }
            fn send_batch(&mut self, probes: &PacketBatch, replies: &mut ReplyBatch) {
                replies.clear();
                for _ in probes.iter() {
                    replies.push_with(42, |_| false);
                }
            }
        }

        // Generic, so the call resolves to the `&mut T` impl.
        fn dispatch<T: PacketTransport>(mut transport: T, batch: &PacketBatch) -> ReplyBatch {
            let mut replies = ReplyBatch::new();
            transport.send_batch(batch, &mut replies);
            replies
        }

        let mut batch = PacketBatch::new();
        batch.push(&[1]);
        let replies = dispatch(&mut Vectorized, &batch);
        assert_eq!(replies.timestamp(0), 42, "the default shim would stamp 0");
    }

    #[test]
    fn reply_batch_roll_back_on_loss() {
        let mut replies = ReplyBatch::new();
        replies.push_with(1, |buf| {
            buf.extend_from_slice(&[9, 9]);
            true
        });
        replies.push_with(2, |buf| {
            buf.extend_from_slice(&[7]); // written, then rolled back
            false
        });
        replies.push_with(3, |buf| {
            buf.extend_from_slice(&[5]);
            true
        });
        assert_eq!(replies.get(0), Some(&[9u8, 9][..]));
        assert_eq!(replies.get(1), None);
        assert_eq!(replies.get(2), Some(&[5u8][..]));
        assert_eq!(replies.timestamp(2), 3);
    }
}
