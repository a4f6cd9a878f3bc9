//! A PGM-style reliable multicast (RFC 3208, as implemented by OpenPGM,
//! which the StopWatch prototype embeds in its Dom0 network device model).
//!
//! Reliability is *receiver-driven*: receivers detect sequence gaps and send
//! NAKs; the sender retransmits from its history window. StopWatch uses
//! this channel for (a) replicating inbound guest packets to the three
//! replica hosts and (b) exchanging proposed virtual delivery times among
//! the three VMMs.
//!
//! The machines here are sans-I/O: they consume events and return packets
//! to send / payloads to deliver, so any event loop can drive them.

use std::collections::{BTreeMap, VecDeque};

/// A PGM protocol message carrying payload `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgmPacket<T> {
    /// Original or retransmitted data.
    Data {
        /// Sequence number within the sender's stream.
        seq: u64,
        /// The payload.
        payload: T,
        /// `true` when this is a NAK-triggered retransmission.
        retransmit: bool,
    },
    /// Negative acknowledgment listing missing sequence numbers.
    Nak {
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
}

/// Sender half: assigns sequence numbers, keeps a bounded retransmission
/// history, answers NAKs.
///
/// # Examples
///
/// ```
/// use netsim::pgm::{PgmReceiver, PgmSender, RxOutput};
/// let mut tx = PgmSender::new(64);
/// let mut rx = PgmReceiver::new();
/// let mut out = RxOutput::default();
/// let p0 = tx.send("a");
/// let p1 = tx.send("b");
/// // p0 is lost; rx sees p1 first and NAKs seq 0.
/// rx.on_packet(p1, &mut out);
/// assert!(out.delivered.is_empty());
/// assert_eq!(out.nak_missing, vec![0]);
/// let retx = tx.on_nak(&out.nak_missing).next().unwrap();
/// rx.on_packet(retx, &mut out);
/// assert_eq!(out.delivered, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct PgmSender<T> {
    next_seq: u64,
    /// The last `window` payloads, oldest first: `history[i]` carries
    /// sequence `next_seq - history.len() + i`. A ring buffer, so a
    /// steady-state send allocates nothing; it starts with room for
    /// `window.min(64)` payloads, so short streams never regrow it.
    history: VecDeque<T>,
    window: usize,
}

impl<T: Clone> PgmSender<T> {
    /// Creates a sender with a retransmission history of `window` packets.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "history window must be positive");
        PgmSender {
            next_seq: 0,
            history: VecDeque::with_capacity(window.min(64)),
            window,
        }
    }

    /// Wraps `payload` in the next data packet.
    pub fn send(&mut self, payload: T) -> PgmPacket<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(payload.clone());
        PgmPacket::Data {
            seq,
            payload,
            retransmit: false,
        }
    }

    /// Produces retransmissions for the requested sequence numbers, in
    /// request order. Sequences that have aged out of the history are
    /// silently skipped (matching PGM's bounded-window semantics).
    pub fn on_nak<'a>(&'a self, missing: &'a [u64]) -> impl Iterator<Item = PgmPacket<T>> + 'a {
        let oldest = self.next_seq - self.history.len() as u64;
        missing.iter().filter_map(move |&seq| {
            let idx = usize::try_from(seq.checked_sub(oldest)?).ok()?;
            self.history.get(idx).map(|payload| PgmPacket::Data {
                seq,
                payload: payload.clone(),
                retransmit: true,
            })
        })
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// What a receiver wants done after consuming a packet. Callers keep one
/// and pass it to every [`PgmReceiver::on_packet`], which clears and
/// refills it, so its buffers are reused rather than rebuilt per packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxOutput<T> {
    /// Payloads now deliverable in order.
    pub delivered: Vec<T>,
    /// Gap sequences to NAK (empty if none detected by this packet).
    pub nak_missing: Vec<u64>,
}

impl<T> Default for RxOutput<T> {
    fn default() -> Self {
        RxOutput {
            delivered: Vec::new(),
            nak_missing: Vec::new(),
        }
    }
}

/// Receiver half: reorders, detects gaps, requests retransmission.
#[derive(Debug, Clone, Default)]
pub struct PgmReceiver<T> {
    expected: u64,
    buffer: BTreeMap<u64, T>,
    nakked: Vec<u64>,
}

impl<T> PgmReceiver<T> {
    /// Creates a receiver expecting sequence 0 first.
    pub fn new() -> Self {
        PgmReceiver {
            expected: 0,
            buffer: BTreeMap::new(),
            nakked: Vec::new(),
        }
    }

    /// Consumes one packet; replaces `out`'s contents with the in-order
    /// deliveries and fresh NAKs. `Nak` packets addressed to senders are
    /// ignored by receivers.
    pub fn on_packet(&mut self, pkt: PgmPacket<T>, out: &mut RxOutput<T>) {
        out.delivered.clear();
        out.nak_missing.clear();
        let PgmPacket::Data { seq, payload, .. } = pkt else {
            return;
        };
        if seq < self.expected || self.buffer.contains_key(&seq) {
            return; // duplicate
        }
        self.buffer.insert(seq, payload);
        // Deliver the in-order prefix.
        while let Some(payload) = self.buffer.remove(&self.expected) {
            out.delivered.push(payload);
            self.expected += 1;
        }
        // NAK any gaps below the highest buffered seq, once each.
        if let Some(&hi) = self.buffer.keys().next_back() {
            for missing in self.expected..hi {
                if !self.buffer.contains_key(&missing) && !self.nakked.contains(&missing) {
                    self.nakked.push(missing);
                    out.nak_missing.push(missing);
                }
            }
        }
        self.nakked.retain(|s| *s >= self.expected);
    }

    /// Re-raises NAKs for still-missing gaps (call on a timer; PGM NAKs are
    /// retried until satisfied).
    pub fn pending_naks(&self) -> Vec<u64> {
        match self.buffer.keys().next_back() {
            Some(&hi) => (self.expected..hi)
                .filter(|s| !self.buffer.contains_key(s))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Next sequence the application will see.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one packet to `rx` and returns what it produced.
    fn feed<T: Clone>(rx: &mut PgmReceiver<T>, pkt: PgmPacket<T>) -> RxOutput<T> {
        let mut out = RxOutput::default();
        rx.on_packet(pkt, &mut out);
        out
    }

    #[test]
    fn in_order_delivery() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let mut out = RxOutput::default();
        for i in 0..5 {
            rx.on_packet(tx.send(i), &mut out);
            assert_eq!(out.delivered, vec![i], "the output buffer is refilled");
            assert!(out.nak_missing.is_empty());
        }
        assert_eq!(rx.expected(), 5);
    }

    #[test]
    fn reorder_without_loss_delivers_in_order() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let p0 = tx.send("a");
        let p1 = tx.send("b");
        let out1 = feed(&mut rx, p1);
        assert!(out1.delivered.is_empty());
        assert_eq!(out1.nak_missing, vec![0]); // it can't tell reorder from loss
        let out0 = feed(&mut rx, p0);
        assert_eq!(out0.delivered, vec!["a", "b"]);
    }

    #[test]
    fn loss_recovery_via_nak() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let _lost = tx.send(10);
        let p1 = tx.send(11);
        let p2 = tx.send(12);
        let o1 = feed(&mut rx, p1);
        assert_eq!(o1.nak_missing, vec![0]);
        let o2 = feed(&mut rx, p2);
        assert!(o2.nak_missing.is_empty(), "NAK only raised once per gap");
        let retx: Vec<_> = tx.on_nak(&[0]).collect();
        assert_eq!(retx.len(), 1);
        let o3 = feed(&mut rx, retx.into_iter().next().unwrap());
        assert_eq!(o3.delivered, vec![10, 11, 12]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let p0 = tx.send(1);
        assert_eq!(feed(&mut rx, p0.clone()).delivered, vec![1]);
        assert!(feed(&mut rx, p0).delivered.is_empty());
    }

    #[test]
    fn history_window_ages_out() {
        let mut tx = PgmSender::new(2);
        tx.send(0);
        tx.send(1);
        tx.send(2); // seq 0 aged out
        assert_eq!(tx.on_nak(&[0]).count(), 0);
        assert_eq!(tx.on_nak(&[1, 2]).count(), 2);
        assert_eq!(tx.on_nak(&[3]).count(), 0, "never sent");
        let seqs: Vec<u64> = tx
            .on_nak(&[2, 1])
            .map(|p| match p {
                PgmPacket::Data {
                    seq, retransmit, ..
                } => {
                    assert!(retransmit);
                    seq
                }
                PgmPacket::Nak { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 1], "retransmissions follow request order");
    }

    #[test]
    fn pending_naks_report_all_open_gaps() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let mut pkts: Vec<_> = (0..6).map(|i| tx.send(i)).collect();
        // Deliver only seqs 2 and 5.
        let p5 = pkts.remove(5);
        let p2 = pkts.remove(2);
        feed(&mut rx, p2);
        feed(&mut rx, p5);
        assert_eq!(rx.pending_naks(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn nak_packet_to_receiver_is_noop() {
        let mut rx: PgmReceiver<u32> = PgmReceiver::new();
        let out = feed(&mut rx, PgmPacket::Nak { missing: vec![1] });
        assert!(out.delivered.is_empty() && out.nak_missing.is_empty());
    }
}
