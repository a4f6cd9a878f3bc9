//! UDP-lite file transfer with NAK-based reliability — the transport the
//! paper uses to show how StopWatch-friendly protocols recover download
//! performance (Fig. 5, "UDP StopWatch"): almost no packets flow *into* the
//! replicated server, so almost nothing crosses the median machinery.
//!
//! The server streams all chunks plus a FIN carrying the total count; the
//! client NAKs missing chunks (and re-sends its request if it hears
//! nothing). Reliability is enforced "at a layer above UDP using negative
//! acknowledgments", exactly as Sec. VII-C proposes.

use crate::packet::{AppData, Body, EndpointId, Packet, UdpKind, UdpSegment};
use simkit::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Chunk payload size (bytes) used by both sides.
pub const UDP_CHUNK: u32 = 1448;

/// Server half: answers a request by streaming chunks, answers NAKs with
/// retransmissions.
#[derive(Debug, Clone)]
pub struct UdpFileServer {
    local: EndpointId,
    sent_chunks: u64,
    retransmits: u64,
}

impl UdpFileServer {
    /// Creates a server.
    pub fn new(local: EndpointId) -> Self {
        UdpFileServer {
            local,
            sent_chunks: 0,
            retransmits: 0,
        }
    }

    /// Handles one inbound datagram; appends the packets to send to the
    /// caller-owned `out`.
    ///
    /// A `Request(app)` with `app.b` = file size in bytes triggers a full
    /// stream; a `Nak` triggers retransmission of the named chunks.
    pub fn on_datagram(&mut self, from: EndpointId, seg: &UdpSegment, out: &mut Vec<Packet>) {
        match &seg.kind {
            UdpKind::Request(app) => {
                let total_bytes = app.b;
                let chunks = total_bytes.div_ceil(u64::from(UDP_CHUNK)).max(1);
                out.reserve(chunks as usize + 1);
                for i in 0..chunks {
                    let len = if i == chunks - 1 {
                        (total_bytes - i * u64::from(UDP_CHUNK)) as u32
                    } else {
                        UDP_CHUNK
                    };
                    out.push(self.data(from, seg.stream, i, len.max(1)));
                }
                out.push(Packet::new(
                    self.local,
                    from,
                    Body::Udp(UdpSegment {
                        stream: seg.stream,
                        seq: chunks,
                        len: 8,
                        kind: UdpKind::Fin {
                            total_chunks: chunks,
                        },
                    }),
                ));
                self.sent_chunks += chunks;
            }
            UdpKind::Nak(missing) => {
                self.retransmits += missing.len() as u64;
                out.extend(
                    missing
                        .iter()
                        .map(|&i| self.data(from, seg.stream, i, UDP_CHUNK)),
                );
            }
            _ => {}
        }
    }

    fn data(&mut self, to: EndpointId, stream: u64, seq: u64, len: u32) -> Packet {
        Packet::new(
            self.local,
            to,
            Body::Udp(UdpSegment {
                stream,
                seq,
                len,
                kind: UdpKind::Data,
            }),
        )
    }

    /// Data chunks sent (excluding retransmissions).
    pub fn sent_chunks(&self) -> u64 {
        self.sent_chunks
    }

    /// Chunks retransmitted in response to NAKs.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }
}

/// Client progress events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpClientEvent {
    /// All chunks received.
    Complete {
        /// Total chunks in the file.
        total_chunks: u64,
    },
}

/// Client half: requests a file, collects chunks, NAKs gaps.
#[derive(Debug, Clone)]
pub struct UdpFileClient {
    local: EndpointId,
    server: EndpointId,
    stream: u64,
    request: AppData,
    received: BTreeSet<u64>,
    total: Option<u64>,
    complete: bool,
    last_activity: SimTime,
    nak_interval: SimDuration,
    naks_sent: u64,
}

impl UdpFileClient {
    /// Creates a client for one transfer and returns the initial request
    /// packet. `request.b` must carry the file size in bytes.
    pub fn start(
        local: EndpointId,
        server: EndpointId,
        stream: u64,
        request: AppData,
        now: SimTime,
        nak_interval: SimDuration,
    ) -> (Self, Packet) {
        let client = UdpFileClient {
            local,
            server,
            stream,
            request,
            received: BTreeSet::new(),
            total: None,
            complete: false,
            last_activity: now,
            nak_interval,
            naks_sent: 0,
        };
        let pkt = client.request_packet();
        (client, pkt)
    }

    fn request_packet(&self) -> Packet {
        Packet::new(
            self.local,
            self.server,
            Body::Udp(UdpSegment {
                stream: self.stream,
                seq: 0,
                len: 100,
                kind: UdpKind::Request(self.request),
            }),
        )
    }

    /// Consumes one datagram; appends the packets to send to the
    /// caller-owned `out` and returns the event it completes, if any.
    pub fn on_datagram(
        &mut self,
        seg: &UdpSegment,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) -> Option<UdpClientEvent> {
        if seg.stream != self.stream || self.complete {
            return None;
        }
        self.last_activity = now;
        match &seg.kind {
            UdpKind::Data => {
                self.received.insert(seg.seq);
            }
            UdpKind::Fin { total_chunks } => {
                self.total = Some(*total_chunks);
            }
            _ => {}
        }
        if let Some(total) = self.total {
            if self.received.len() as u64 >= total {
                self.complete = true;
                return Some(UdpClientEvent::Complete {
                    total_chunks: total,
                });
            }
            // Fin seen but gaps remain: NAK immediately (fast recovery).
            if matches!(seg.kind, UdpKind::Fin { .. }) {
                self.nak_packets(total, out);
            }
        }
        None
    }

    /// Timer tick: re-request on silence, re-NAK open gaps. Appends the
    /// packets to send to `out`.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.complete || now.saturating_duration_since(self.last_activity) < self.nak_interval {
            return;
        }
        self.last_activity = now;
        match self.total {
            // No FIN yet: whether nothing or only part of the stream
            // arrived, silence means loss — re-issue the (idempotent)
            // request; duplicates are deduplicated by chunk seq.
            None => out.push(self.request_packet()),
            Some(total) => self.nak_packets(total, out),
        }
    }

    /// Appends a NAK listing every missing chunk, if any is missing.
    fn nak_packets(&mut self, total: u64, out: &mut Vec<Packet>) {
        let missing: Vec<u64> = (0..total).filter(|i| !self.received.contains(i)).collect();
        if missing.is_empty() {
            return;
        }
        self.naks_sent += 1;
        out.push(Packet::new(
            self.local,
            self.server,
            Body::Udp(UdpSegment {
                stream: self.stream,
                seq: 0,
                len: 8 * missing.len() as u32 + 16,
                kind: UdpKind::Nak(missing),
            }),
        ));
    }

    /// `true` once every chunk has arrived.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// NAK packets sent so far.
    pub fn naks_sent(&self) -> u64 {
        self.naks_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn useg(p: &Packet) -> &UdpSegment {
        match p.body() {
            Body::Udp(s) => s,
            other => panic!("not udp: {other:?}"),
        }
    }

    /// The server's answer to `p`, in a fresh buffer.
    fn serve(server: &mut UdpFileServer, p: &Packet) -> Vec<Packet> {
        let mut out = Vec::new();
        server.on_datagram(EndpointId(2), useg(p), &mut out);
        out
    }

    #[test]
    fn lossless_transfer_completes_with_one_inbound_packet() {
        let now = SimTime::ZERO;
        let mut server = UdpFileServer::new(EndpointId(1));
        let req = AppData {
            kind: 0,
            a: 7,
            b: 10_000,
        };
        let (mut client, reqp) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            5,
            req,
            now,
            SimDuration::from_millis(50),
        );
        let stream = serve(&mut server, &reqp);
        // ceil(10000/1448) = 7 chunks + FIN.
        assert_eq!(stream.len(), 8);
        let mut events = Vec::new();
        let mut outgoing = Vec::new();
        for p in &stream {
            events.extend(client.on_datagram(useg(p), now, &mut outgoing));
        }
        assert!(client.is_complete());
        assert_eq!(events, vec![UdpClientEvent::Complete { total_chunks: 7 }]);
        assert!(outgoing.is_empty(), "no inbound packets beyond the request");
        assert_eq!(client.naks_sent(), 0);
    }

    #[test]
    fn lost_chunks_recovered_by_nak() {
        let now = SimTime::ZERO;
        let mut server = UdpFileServer::new(EndpointId(1));
        let req = AppData {
            kind: 0,
            a: 7,
            b: 5 * 1448,
        };
        let (mut client, reqp) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            5,
            req,
            now,
            SimDuration::from_millis(50),
        );
        let mut stream = serve(&mut server, &reqp);
        // Drop chunks 1 and 3.
        stream.retain(|p| !matches!(useg(p).kind, UdpKind::Data) || ![1, 3].contains(&useg(p).seq));
        let mut naks = Vec::new();
        for p in &stream {
            client.on_datagram(useg(p), now, &mut naks);
        }
        assert_eq!(naks.len(), 1, "one NAK listing both gaps");
        assert!(matches!(
            &useg(&naks[0]).kind,
            UdpKind::Nak(missing) if missing == &vec![1, 3]
        ));
        let retx = serve(&mut server, &naks[0]);
        assert_eq!(retx.len(), 2);
        assert_eq!(server.retransmits(), 2);
        let mut done = Vec::new();
        for p in &retx {
            done.extend(client.on_datagram(useg(p), now, &mut Vec::new()));
        }
        assert_eq!(done.len(), 1);
        assert!(client.is_complete());
    }

    #[test]
    fn lost_request_retried_on_tick() {
        let now = SimTime::ZERO;
        let req = AppData {
            kind: 0,
            a: 1,
            b: 1000,
        };
        let (mut client, _lost) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            5,
            req,
            now,
            SimDuration::from_millis(50),
        );
        let mut retry = Vec::new();
        client.on_tick(SimTime::from_millis(10), &mut retry);
        assert!(retry.is_empty());
        client.on_tick(SimTime::from_millis(60), &mut retry);
        assert_eq!(retry.len(), 1);
        assert!(matches!(useg(&retry[0]).kind, UdpKind::Request(_)));
    }

    #[test]
    fn lost_fin_recovered_by_tick_nak() {
        // FIN lost: client has all data but no total; tick does nothing
        // until... in this design the FIN carries the total, so the client
        // keeps waiting; when the FIN finally arrives late it completes.
        let now = SimTime::ZERO;
        let mut server = UdpFileServer::new(EndpointId(1));
        let req = AppData {
            kind: 0,
            a: 1,
            b: 2 * 1448,
        };
        let (mut client, reqp) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            9,
            req,
            now,
            SimDuration::from_millis(50),
        );
        let stream = serve(&mut server, &reqp);
        for p in stream
            .iter()
            .filter(|p| matches!(useg(p).kind, UdpKind::Data))
        {
            client.on_datagram(useg(p), now, &mut Vec::new());
        }
        assert!(!client.is_complete());
        // Late FIN arrives.
        let fin = stream.last().unwrap();
        let ev = client.on_datagram(useg(fin), SimTime::from_millis(80), &mut Vec::new());
        assert!(ev.is_some());
    }

    #[test]
    fn tiny_file_single_chunk() {
        let mut server = UdpFileServer::new(EndpointId(1));
        let req = AppData {
            kind: 0,
            a: 1,
            b: 10,
        };
        let (mut client, reqp) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            1,
            req,
            SimTime::ZERO,
            SimDuration::from_millis(50),
        );
        let stream = serve(&mut server, &reqp);
        assert_eq!(stream.len(), 2); // 1 chunk + FIN
        for p in &stream {
            client.on_datagram(useg(p), SimTime::ZERO, &mut Vec::new());
        }
        assert!(client.is_complete());
    }
}
