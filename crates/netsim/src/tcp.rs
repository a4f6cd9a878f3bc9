//! A TCP-lite transport: three-way handshake, cumulative ACKs (one per
//! data segment, as the paper's traffic analysis assumes), a fixed
//! congestion window, go-back-N retransmission on timeout, and FIN
//! teardown.
//!
//! The model is sans-I/O: [`TcpEndpoint::on_segment`] consumes a segment
//! and appends the segments to transmit plus application events to a
//! caller-owned [`TcpOutput`]. Every entry point writes into a buffer the
//! caller keeps and reuses (it appends and never clears), so driving a
//! connection allocates nothing per segment. Payloads are lengths, not
//! bytes — enough to drive the packet-count and latency behaviour that
//! Figs. 5 and 6 measure.

use crate::packet::{AppData, Body, EndpointId, Packet, TcpFlags, TcpSegment};
use simkit::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Transport parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per data segment).
    pub mss: u32,
    /// Fixed window, in segments in flight.
    pub window: u32,
    /// Retransmission timeout (go-back-N from the last cumulative ACK).
    pub rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            window: 8,
            rto: SimDuration::from_millis(200),
        }
    }
}

/// Connection role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpRole {
    /// Active opener (sends SYN).
    Client,
    /// Passive opener (answers SYN).
    Server,
}

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Server waiting for SYN / client before connect.
    Listen,
    /// Client sent SYN.
    SynSent,
    /// Server sent SYN-ACK.
    SynReceived,
    /// Handshake complete.
    Established,
    /// FIN sent or received; draining.
    Closing,
    /// Fully closed.
    Closed,
}

/// Application-visible events produced by the endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum TcpEvent {
    /// Handshake finished.
    Connected,
    /// A request (segment carrying [`AppData`]) was delivered in order.
    Request(AppData),
    /// In-order payload bytes were delivered; `total` is cumulative.
    Delivered {
        /// Newly delivered bytes.
        new_bytes: u64,
        /// Cumulative in-order bytes delivered.
        total: u64,
    },
    /// The peer finished sending (`total` = its full stream length) and all
    /// of it has been delivered.
    PeerFinished {
        /// Total stream bytes received.
        total: u64,
    },
    /// All queued outbound data has been acknowledged.
    SendComplete,
}

/// What consuming segments produces. Callers keep one, pass it to
/// [`TcpEndpoint::on_segment`] (which appends to it), drain it, and reuse
/// it, so its buffers are not rebuilt per segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcpOutput {
    /// Segments to transmit, in order.
    pub packets: Vec<Packet>,
    /// Application events.
    pub events: Vec<TcpEvent>,
}

/// One half of a TCP-lite connection.
#[derive(Debug, Clone)]
pub struct TcpEndpoint {
    cfg: TcpConfig,
    conn: u64,
    local: EndpointId,
    remote: EndpointId,
    role: TcpRole,
    state: TcpState,
    // Send side.
    snd_una: u64,
    snd_next: u64,
    snd_total: u64,
    snd_fin: bool,
    fin_sent: bool,
    complete_raised_at: u64,        // snd_total when SendComplete last fired
    app_at: BTreeMap<u64, AppData>, // request data keyed by stream offset
    last_progress: SimTime,
    // Receive side.
    rcv_next: u64,
    ooo: BTreeMap<u64, (u32, Option<AppData>)>,
    peer_fin_at: Option<u64>,
    peer_fin_raised: bool,
    // Telemetry.
    sent_segments: u64,
    received_segments: u64,
    retransmits: u64,
}

impl TcpEndpoint {
    /// Creates a client endpoint and its opening SYN.
    pub fn client(
        cfg: TcpConfig,
        conn: u64,
        local: EndpointId,
        remote: EndpointId,
        now: SimTime,
    ) -> (Self, Packet) {
        let mut ep = Self::new(cfg, conn, local, remote, TcpRole::Client, now);
        ep.state = TcpState::SynSent;
        let syn = ep.make_segment(
            TcpFlags {
                syn: true,
                ack: false,
                fin: false,
            },
            0,
            0,
            None,
        );
        ep.sent_segments += 1;
        (ep, syn)
    }

    /// Creates a listening server endpoint.
    pub fn server(
        cfg: TcpConfig,
        conn: u64,
        local: EndpointId,
        remote: EndpointId,
        now: SimTime,
    ) -> Self {
        Self::new(cfg, conn, local, remote, TcpRole::Server, now)
    }

    fn new(
        cfg: TcpConfig,
        conn: u64,
        local: EndpointId,
        remote: EndpointId,
        role: TcpRole,
        now: SimTime,
    ) -> Self {
        TcpEndpoint {
            cfg,
            conn,
            local,
            remote,
            role,
            state: TcpState::Listen,
            snd_una: 0,
            snd_next: 0,
            snd_total: 0,
            snd_fin: false,
            fin_sent: false,
            complete_raised_at: 0,
            app_at: BTreeMap::new(),
            last_progress: now,
            rcv_next: 0,
            ooo: BTreeMap::new(),
            peer_fin_at: None,
            peer_fin_raised: false,
            sent_segments: 0,
            received_segments: 0,
            retransmits: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Segments sent (including retransmissions).
    pub fn sent_segments(&self) -> u64 {
        self.sent_segments
    }

    /// Segments received.
    pub fn received_segments(&self) -> u64 {
        self.received_segments
    }

    /// Retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Queues `bytes` for sending (with optional request data on the first
    /// segment) and optionally a FIN once everything is acknowledged;
    /// appends the segments the window allows right now to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the connection is not established.
    pub fn send_stream(
        &mut self,
        bytes: u64,
        app: Option<AppData>,
        fin: bool,
        out: &mut Vec<Packet>,
    ) {
        assert!(
            self.state == TcpState::Established,
            "send_stream on non-established connection"
        );
        if let Some(a) = app {
            self.app_at.insert(self.snd_total, a);
        }
        self.snd_total += bytes;
        self.snd_fin |= fin;
        self.pump_send(out);
    }

    /// Consumes one inbound segment, appending what it produces to `out`.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: SimTime, out: &mut TcpOutput) {
        if seg.conn != self.conn || self.state == TcpState::Closed {
            return;
        }
        self.received_segments += 1;

        // Handshake.
        match (self.state, seg.flags.syn, seg.flags.ack) {
            // A duplicate SYN means our SYN-ACK was likely lost: resend it.
            (TcpState::SynReceived, true, false) if self.role == TcpRole::Server => {
                out.packets.push(self.emit(
                    TcpFlags {
                        syn: true,
                        ack: true,
                        fin: false,
                    },
                    0,
                    0,
                    None,
                ));
                return;
            }
            // A duplicate SYN-ACK means our handshake ACK was lost.
            (TcpState::Established, true, true) if self.role == TcpRole::Client => {
                out.packets.push(self.emit(
                    TcpFlags {
                        syn: false,
                        ack: true,
                        fin: false,
                    },
                    0,
                    self.rcv_next,
                    None,
                ));
                return;
            }
            (TcpState::Listen, true, false) if self.role == TcpRole::Server => {
                self.state = TcpState::SynReceived;
                out.packets.push(self.emit(
                    TcpFlags {
                        syn: true,
                        ack: true,
                        fin: false,
                    },
                    0,
                    0,
                    None,
                ));
                return;
            }
            (TcpState::SynSent, true, true) if self.role == TcpRole::Client => {
                self.state = TcpState::Established;
                self.last_progress = now;
                out.packets.push(self.emit(
                    TcpFlags {
                        syn: false,
                        ack: true,
                        fin: false,
                    },
                    0,
                    self.rcv_next,
                    None,
                ));
                out.events.push(TcpEvent::Connected);
                return;
            }
            (TcpState::SynReceived, false, true) if self.role == TcpRole::Server => {
                self.state = TcpState::Established;
                self.last_progress = now;
                out.events.push(TcpEvent::Connected);
                // The handshake ACK may carry data; fall through.
            }
            _ => {}
        }

        // ACK processing (sender side).
        if seg.flags.ack && seg.ack > self.snd_una {
            self.snd_una = seg.ack.min(self.snd_next);
            self.last_progress = now;
            self.pump_send(&mut out.packets);
            if self.all_sent_acked() && self.complete_raised_at < self.snd_total {
                self.complete_raised_at = self.snd_total;
                out.events.push(TcpEvent::SendComplete);
            }
        }

        // Data processing (receiver side).
        if seg.len > 0 || seg.app.is_some() {
            if seg.seq >= self.rcv_next {
                self.ooo.insert(seg.seq, (seg.len, seg.app));
            }
            let before = self.rcv_next;
            // The requests go out after the `Delivered` event that covers
            // them, which is only known once the reassembly below is done:
            // push them now and slot the event in ahead of them.
            let first_request = out.events.len();
            while let Some(&(len, app)) = self.ooo.get(&self.rcv_next) {
                self.ooo.remove(&self.rcv_next);
                self.rcv_next += u64::from(len);
                if let Some(a) = app {
                    out.events.push(TcpEvent::Request(a));
                }
                if len == 0 {
                    break; // pure-app segment; avoid spinning at same seq
                }
            }
            let new_bytes = self.rcv_next - before;
            if new_bytes > 0 {
                out.events.insert(
                    first_request,
                    TcpEvent::Delivered {
                        new_bytes,
                        total: self.rcv_next,
                    },
                );
            }
            // One cumulative ACK per data segment (the inbound packets that
            // dominate StopWatch's HTTP overhead, Sec. VII-C).
            out.packets.push(self.emit(
                TcpFlags {
                    syn: false,
                    ack: true,
                    fin: false,
                },
                0,
                self.rcv_next,
                None,
            ));
        }

        // FIN processing.
        if seg.flags.fin {
            self.peer_fin_at = Some(seg.seq);
            // ACK the FIN if it carried no data (data case ACKed above).
            if seg.len == 0 {
                out.packets.push(self.emit(
                    TcpFlags {
                        syn: false,
                        ack: true,
                        fin: false,
                    },
                    0,
                    self.rcv_next,
                    None,
                ));
            }
        }
        if let Some(fin_at) = self.peer_fin_at {
            if self.rcv_next >= fin_at && !self.peer_fin_raised {
                self.peer_fin_raised = true;
                self.state = if self.fin_sent {
                    TcpState::Closed
                } else {
                    TcpState::Closing
                };
                out.events.push(TcpEvent::PeerFinished {
                    total: self.rcv_next,
                });
            }
        }
    }

    /// Timer tick: retransmission when no progress for an RTO — go-back-N
    /// for data, and SYN / SYN-ACK re-sends during the handshake (without
    /// which a single lost handshake packet would deadlock the connection).
    /// Appends the retransmitted segments to `out`.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if now.saturating_duration_since(self.last_progress) < self.cfg.rto {
            return;
        }
        match self.state {
            TcpState::SynSent => {
                self.last_progress = now;
                self.retransmits += 1;
                self.sent_segments += 1;
                out.push(self.make_segment(
                    TcpFlags {
                        syn: true,
                        ack: false,
                        fin: false,
                    },
                    0,
                    0,
                    None,
                ));
            }
            TcpState::SynReceived => {
                self.last_progress = now;
                self.retransmits += 1;
                out.push(self.emit(
                    TcpFlags {
                        syn: true,
                        ack: true,
                        fin: false,
                    },
                    0,
                    0,
                    None,
                ));
            }
            TcpState::Established | TcpState::Closing => {
                if self.snd_una >= self.snd_next {
                    return;
                }
                self.last_progress = now;
                self.snd_next = self.snd_una;
                let before = out.len();
                self.pump_send(out);
                self.retransmits += (out.len() - before) as u64;
            }
            _ => {}
        }
    }

    fn all_sent_acked(&self) -> bool {
        self.snd_una >= self.snd_total && self.snd_next >= self.snd_total
    }

    /// Appends as many data segments as the window allows to `out`, then a
    /// FIN when everything has been sent.
    fn pump_send(&mut self, out: &mut Vec<Packet>) {
        if self.state != TcpState::Established && self.state != TcpState::Closing {
            return;
        }
        let window_bytes = u64::from(self.cfg.window) * u64::from(self.cfg.mss);
        while self.snd_next < self.snd_total && self.snd_next - self.snd_una < window_bytes {
            // A segment never spans a request boundary, so each request's
            // AppData rides on the segment starting at its offset.
            let mut len = (self.snd_total - self.snd_next).min(u64::from(self.cfg.mss)) as u32;
            if let Some((&next_app, _)) = self.app_at.range(self.snd_next + 1..).next() {
                len = len.min((next_app - self.snd_next) as u32);
            }
            let app = self.app_at.get(&self.snd_next).copied();
            let is_last = self.snd_next + u64::from(len) >= self.snd_total;
            let fin = self.snd_fin && is_last;
            let seg = self.emit(
                TcpFlags {
                    syn: false,
                    ack: false,
                    fin,
                },
                len,
                0,
                app,
            );
            if fin {
                self.fin_sent = true;
            }
            self.snd_next += u64::from(len);
            out.push(seg);
        }
        // Data-less FIN (e.g. empty stream or FIN queued after data drained).
        if self.snd_fin && !self.fin_sent && self.snd_next >= self.snd_total {
            self.fin_sent = true;
            out.push(self.emit(
                TcpFlags {
                    syn: false,
                    ack: false,
                    fin: true,
                },
                0,
                0,
                None,
            ));
        }
    }

    fn emit(&mut self, flags: TcpFlags, len: u32, ack: u64, app: Option<AppData>) -> Packet {
        self.sent_segments += 1;
        self.make_segment(flags, len, ack, app)
    }

    fn make_segment(&self, flags: TcpFlags, len: u32, ack: u64, app: Option<AppData>) -> Packet {
        Packet::new(
            self.local,
            self.remote,
            Body::Tcp(TcpSegment {
                conn: self.conn,
                flags,
                seq: if flags.syn { 0 } else { self.snd_next },
                ack,
                len,
                app,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(p: &Packet) -> &TcpSegment {
        match p.body() {
            Body::Tcp(s) => s,
            other => panic!("not tcp: {other:?}"),
        }
    }

    /// `on_segment` into a fresh buffer.
    fn segment(ep: &mut TcpEndpoint, p: &Packet, now: SimTime) -> TcpOutput {
        let mut out = TcpOutput::default();
        ep.on_segment(seg(p), now, &mut out);
        out
    }

    /// `send_stream` into a fresh buffer.
    fn send(ep: &mut TcpEndpoint, bytes: u64, app: Option<AppData>, fin: bool) -> Vec<Packet> {
        let mut out = Vec::new();
        ep.send_stream(bytes, app, fin, &mut out);
        out
    }

    /// `on_tick` into a fresh buffer.
    fn tick(ep: &mut TcpEndpoint, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        ep.on_tick(now, &mut out);
        out
    }

    /// Runs both endpoints to quiescence with zero network delay, returning
    /// all events seen by each. Deterministic FIFO exchange.
    fn drain(
        a: &mut TcpEndpoint,
        b: &mut TcpEndpoint,
        first: Vec<Packet>,
    ) -> (Vec<TcpEvent>, Vec<TcpEvent>) {
        let mut a_events = Vec::new();
        let mut b_events = Vec::new();
        let mut to_b: Vec<Packet> = first;
        let mut to_a: Vec<Packet> = Vec::new();
        let now = SimTime::ZERO;
        let mut out = TcpOutput::default();
        for _ in 0..10_000 {
            if to_b.is_empty() && to_a.is_empty() {
                break;
            }
            for p in std::mem::take(&mut to_b) {
                b.on_segment(seg(&p), now, &mut out);
                to_a.append(&mut out.packets);
                b_events.append(&mut out.events);
            }
            for p in std::mem::take(&mut to_a) {
                a.on_segment(seg(&p), now, &mut out);
                to_b.append(&mut out.packets);
                a_events.append(&mut out.events);
            }
        }
        (a_events, b_events)
    }

    fn connected_pair() -> (TcpEndpoint, TcpEndpoint) {
        let cfg = TcpConfig::default();
        let (mut c, syn) =
            TcpEndpoint::client(cfg, 1, EndpointId(10), EndpointId(20), SimTime::ZERO);
        let mut s = TcpEndpoint::server(cfg, 1, EndpointId(20), EndpointId(10), SimTime::ZERO);
        let (ce, se) = drain(&mut c, &mut s, vec![syn]);
        assert!(ce.contains(&TcpEvent::Connected));
        assert!(se.contains(&TcpEvent::Connected));
        (c, s)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = connected_pair();
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
        // SYN + SYN-ACK + ACK = client sent 2, server sent 1.
        assert_eq!(c.sent_segments(), 2);
        assert_eq!(s.sent_segments(), 1);
    }

    #[test]
    fn request_and_response_stream() {
        let (mut c, mut s) = connected_pair();
        let req = AppData {
            kind: 1,
            a: 7,
            b: 100_000,
        };
        let pkts = send(&mut c, 200, Some(req), false);
        assert_eq!(pkts.len(), 1);
        let (ce, se) = drain(&mut c, &mut s, pkts);
        assert!(se.contains(&TcpEvent::Request(req)), "{se:?}");
        assert!(ce.iter().any(|e| matches!(e, TcpEvent::SendComplete)));

        // Server responds with 10 KB + FIN.
        let pkts = send(&mut s, 10_000, None, true);
        assert!(!pkts.is_empty());
        let (se2, ce2) = drain(&mut s, &mut c, pkts);
        assert!(
            ce2.contains(&TcpEvent::PeerFinished { total: 10_000 }),
            "{ce2:?}"
        );
        assert!(se2.iter().any(|e| matches!(e, TcpEvent::SendComplete)));
    }

    #[test]
    fn ack_per_data_segment() {
        let (mut c, mut s) = connected_pair();
        let total: u64 = 20 * 1448;
        let before = c.sent_segments();
        let pkts = send(&mut s, total, None, false);
        drain(&mut s, &mut c, pkts);
        // Client sent one ACK per data segment (20 data segments).
        assert_eq!(c.sent_segments() - before, 20);
    }

    #[test]
    fn outputs_append_to_the_callers_buffers() {
        let (mut c, mut s) = connected_pair();
        let req = AppData {
            kind: 1,
            a: 7,
            b: 9,
        };
        // Whatever the caller already holds stays in front, untouched.
        let mut sent = send(&mut s, 1448, None, false);
        s.send_stream(1448, None, false, &mut sent);
        assert_eq!(sent.len(), 2);
        assert_eq!(seg(&sent[1]).seq, 1448);
        let mut out = TcpOutput {
            packets: vec![sent[0].clone()],
            events: vec![TcpEvent::Request(req)],
        };
        c.on_segment(seg(&sent[0]), SimTime::ZERO, &mut out);
        assert_eq!(out.packets.len(), 2, "the ACK follows the held packet");
        assert_eq!(out.packets[0], sent[0]);
        assert_eq!(
            out.events,
            vec![
                TcpEvent::Request(req),
                TcpEvent::Delivered {
                    new_bytes: 1448,
                    total: 1448
                }
            ]
        );
    }

    #[test]
    fn request_follows_its_delivery_event() {
        // The reassembled bytes are reported before the requests they
        // carried, also when the buffer already holds events.
        let (mut c, mut s) = connected_pair();
        let req = AppData {
            kind: 1,
            a: 3,
            b: 5,
        };
        let pkts = send(&mut c, 200, Some(req), false);
        let mut out = TcpOutput::default();
        out.events.push(TcpEvent::SendComplete);
        s.on_segment(seg(&pkts[0]), SimTime::ZERO, &mut out);
        assert_eq!(
            out.events,
            vec![
                TcpEvent::SendComplete,
                TcpEvent::Delivered {
                    new_bytes: 200,
                    total: 200
                },
                TcpEvent::Request(req),
            ]
        );
    }

    #[test]
    fn window_limits_in_flight() {
        let (_c, mut s) = connected_pair();
        let pkts = send(&mut s, 100 * 1448, None, false);
        assert_eq!(pkts.len(), 8, "initial burst = window");
    }

    #[test]
    fn large_transfer_completes() {
        let (mut c, mut s) = connected_pair();
        let total: u64 = 1_000_000;
        let pkts = send(&mut s, total, None, true);
        let (_, ce) = drain(&mut s, &mut c, pkts);
        assert!(ce.contains(&TcpEvent::PeerFinished { total }));
        let delivered: u64 = ce
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Delivered { new_bytes, .. } => Some(*new_bytes),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, total);
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        let (mut c, mut s) = connected_pair();
        let pkts = send(&mut s, 3 * 1448, None, false);
        assert_eq!(pkts.len(), 3);
        // Deliver 2, 0, 1.
        let now = SimTime::ZERO;
        let o2 = segment(&mut c, &pkts[2], now);
        assert!(o2
            .events
            .iter()
            .all(|e| !matches!(e, TcpEvent::Delivered { .. })));
        let o0 = segment(&mut c, &pkts[0], now);
        assert!(o0.events.contains(&TcpEvent::Delivered {
            new_bytes: 1448,
            total: 1448
        }));
        let o1 = segment(&mut c, &pkts[1], now);
        assert!(o1.events.contains(&TcpEvent::Delivered {
            new_bytes: 2 * 1448,
            total: 3 * 1448
        }));
    }

    #[test]
    fn rto_retransmits_from_una() {
        let (mut c, mut s) = connected_pair();
        let pkts = send(&mut s, 2 * 1448, None, false);
        assert_eq!(pkts.len(), 2);
        // Both segments lost. Tick before RTO: nothing.
        assert!(tick(&mut s, SimTime::from_millis(100)).is_empty());
        // After RTO: go-back-N resends both.
        let re = tick(&mut s, SimTime::from_millis(300));
        assert_eq!(re.len(), 2);
        assert_eq!(s.retransmits(), 2);
        // Delivery then proceeds normally.
        let (_, ce) = drain(&mut s, &mut c, re);
        assert!(ce
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { total, .. } if *total == 2 * 1448)));
    }

    #[test]
    fn wrong_conn_ignored() {
        let (mut c, _s) = connected_pair();
        let bogus = TcpSegment {
            conn: 999,
            flags: TcpFlags {
                syn: false,
                ack: true,
                fin: false,
            },
            seq: 0,
            ack: 50,
            len: 0,
            app: None,
        };
        let mut out = TcpOutput::default();
        c.on_segment(&bogus, SimTime::ZERO, &mut out);
        assert_eq!(out, TcpOutput::default());
    }

    #[test]
    fn fin_without_data() {
        let (mut c, mut s) = connected_pair();
        let pkts = send(&mut s, 0, None, true);
        assert_eq!(pkts.len(), 1);
        assert!(seg(&pkts[0]).flags.fin);
        let (_, ce) = drain(&mut s, &mut c, pkts);
        assert!(ce.contains(&TcpEvent::PeerFinished { total: 0 }));
    }

    #[test]
    #[should_panic(expected = "non-established")]
    fn send_before_connect_panics() {
        let cfg = TcpConfig::default();
        let mut s = TcpEndpoint::server(cfg, 1, EndpointId(1), EndpointId(2), SimTime::ZERO);
        send(&mut s, 10, None, false);
    }

    #[test]
    fn lost_syn_retransmitted_on_rto() {
        let cfg = TcpConfig::default();
        let (mut c, _lost_syn) =
            TcpEndpoint::client(cfg, 1, EndpointId(1), EndpointId(2), SimTime::ZERO);
        assert!(
            tick(&mut c, SimTime::from_millis(100)).is_empty(),
            "before RTO"
        );
        let re = tick(&mut c, SimTime::from_millis(250));
        assert_eq!(re.len(), 1);
        assert!(seg(&re[0]).flags.syn && !seg(&re[0]).flags.ack);
        assert_eq!(c.retransmits(), 1);
        // The handshake then completes normally.
        let mut s = TcpEndpoint::server(cfg, 1, EndpointId(2), EndpointId(1), SimTime::ZERO);
        let (ce, se) = drain(&mut c, &mut s, re);
        assert!(ce.contains(&TcpEvent::Connected));
        assert!(se.contains(&TcpEvent::Connected));
    }

    #[test]
    fn lost_synack_recovered_by_duplicate_syn() {
        let cfg = TcpConfig::default();
        let (mut c, syn) = TcpEndpoint::client(cfg, 1, EndpointId(1), EndpointId(2), SimTime::ZERO);
        let mut s = TcpEndpoint::server(cfg, 1, EndpointId(2), EndpointId(1), SimTime::ZERO);
        // SYN arrives; the SYN-ACK is lost.
        let out = segment(&mut s, &syn, SimTime::ZERO);
        assert_eq!(out.packets.len(), 1, "SYN-ACK emitted (and dropped)");
        assert_eq!(s.state(), TcpState::SynReceived);
        // Client RTO re-sends its SYN; server answers with a fresh SYN-ACK.
        let re_syn = tick(&mut c, SimTime::from_millis(250));
        assert_eq!(re_syn.len(), 1);
        let out2 = segment(&mut s, &re_syn[0], SimTime::from_millis(250));
        assert_eq!(out2.packets.len(), 1);
        assert!(seg(&out2.packets[0]).flags.syn && seg(&out2.packets[0]).flags.ack);
        let out3 = segment(&mut c, &out2.packets[0], SimTime::from_millis(251));
        assert!(out3.events.contains(&TcpEvent::Connected));
    }

    #[test]
    fn server_rto_resends_synack_when_handshake_ack_lost() {
        let cfg = TcpConfig::default();
        let (mut c, syn) = TcpEndpoint::client(cfg, 1, EndpointId(1), EndpointId(2), SimTime::ZERO);
        let mut s = TcpEndpoint::server(cfg, 1, EndpointId(2), EndpointId(1), SimTime::ZERO);
        let synack = segment(&mut s, &syn, SimTime::ZERO).packets;
        // Client becomes Established; its handshake ACK is lost.
        let _lost_ack = segment(&mut c, &synack[0], SimTime::ZERO);
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::SynReceived);
        // Server RTO re-sends the SYN-ACK; the client answers with a fresh
        // ACK, completing the server side.
        let re = tick(&mut s, SimTime::from_millis(250));
        assert_eq!(re.len(), 1);
        let ack = segment(&mut c, &re[0], SimTime::from_millis(251)).packets;
        assert_eq!(ack.len(), 1);
        let out = segment(&mut s, &ack[0], SimTime::from_millis(252));
        assert!(out.events.contains(&TcpEvent::Connected));
    }
}
