//! The cloud's ingress and egress nodes (paper Secs. V and VI).
//!
//! * The **ingress node** replicates every packet destined for a guest VM
//!   to all machines hosting that VM's replicas, so each VMM can propose a
//!   delivery time.
//! * The **egress node** receives each guest output packet from every
//!   replica (tunneled over TCP by the replica's network device model) and
//!   forwards it to its real destination when the *second* copy arrives —
//!   the median output timing of three replicas. Because deterministic
//!   replicas emit identical packet streams, the egress can also *vote*:
//!   a copy whose content hash disagrees flags a divergent replica.

use crate::link::NetNode;
use crate::packet::{EndpointId, Packet};
use simkit::fxhash::FxHashMap;

/// Replicates inbound packets to the hosts running a guest's replicas.
#[derive(Debug, Clone, Default)]
pub struct IngressNode {
    routes: FxHashMap<EndpointId, Vec<NetNode>>,
}

impl IngressNode {
    /// Creates an ingress with no routes.
    pub fn new() -> Self {
        IngressNode::default()
    }

    /// Registers the replica hosts for a guest endpoint.
    pub fn register(&mut self, guest: EndpointId, hosts: Vec<NetNode>) {
        self.routes.insert(guest, hosts);
    }

    /// The hosts a packet for `guest` must be replicated to (empty when the
    /// guest is unknown).
    pub fn route(&self, guest: EndpointId) -> &[NetNode] {
        self.routes.get(&guest).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of registered guests.
    pub fn guests(&self) -> usize {
        self.routes.len()
    }
}

/// Decision the egress node takes for one arriving copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EgressDecision {
    /// This is the second copy: forward the packet now (median timing).
    Forward(Packet),
    /// First copy, or a copy after forwarding: hold.
    Hold,
    /// The copy's content hash disagrees with earlier copies of the same
    /// output index — a replica has diverged.
    Divergence {
        /// The replica host whose copy disagreed.
        from: NetNode,
    },
}

/// The vote on one output packet, kept until every replica's copy is in.
#[derive(Debug, Clone)]
struct CopyState {
    /// The first content hash seen and its copy count: the agreeing group
    /// whenever the replicas agree, held inline so a vote allocates
    /// nothing.
    first: (u64, u8),
    /// Every other content hash seen and its copy count; non-empty only
    /// on divergence.
    others: Vec<(u64, u8)>,
    /// Copies received so far, over all groups.
    copies: u8,
    forwarded: bool,
}

/// Forwards each replicated output packet at its median (second-copy)
/// timing and votes on content.
#[derive(Debug, Clone, Default)]
pub struct EgressNode {
    /// Votes still waiting for copies, by `(guest, output index)`; an
    /// entry is retired when the last replica's copy arrives.
    seen: FxHashMap<(EndpointId, u64), CopyState>,
    forwarded: u64,
    divergences: u64,
}

impl EgressNode {
    /// Creates an empty egress node.
    pub fn new() -> Self {
        EgressNode::default()
    }

    /// Consumes one tunneled copy of output packet number `out_seq` from
    /// guest `guest`, received from replica host `from`; `replicas` is the
    /// guest's replica count, so the vote is retired with the last copy.
    ///
    /// Copies are grouped by content hash (majority voting): the packet is
    /// forwarded the moment any hash group reaches two copies — the median
    /// output timing of the agreeing replicas — so a single divergent
    /// replica can neither corrupt nor block the output, regardless of
    /// arrival order.
    pub fn on_copy(
        &mut self,
        guest: EndpointId,
        out_seq: u64,
        from: NetNode,
        packet: Packet,
        replicas: usize,
    ) -> EgressDecision {
        let hash = packet.content_hash();
        let key = (guest, out_seq);
        let entry = self.seen.entry(key).or_insert(CopyState {
            first: (hash, 0),
            others: Vec::new(),
            copies: 0,
            forwarded: false,
        });
        let this_group = if entry.first.0 == hash {
            entry.first.1 += 1;
            entry.first.1
        } else {
            match entry.others.iter_mut().find(|(h, _)| *h == hash) {
                Some((_, count)) => {
                    *count += 1;
                    *count
                }
                None => {
                    entry.others.push((hash, 1));
                    1
                }
            }
        };
        entry.copies += 1;
        let diverged = !entry.others.is_empty();
        if diverged {
            self.divergences += 1;
        }
        let decision = if this_group == 2 && !entry.forwarded {
            entry.forwarded = true;
            self.forwarded += 1;
            EgressDecision::Forward(packet)
        } else if diverged && this_group == 1 {
            EgressDecision::Divergence { from }
        } else {
            EgressDecision::Hold
        };
        if usize::from(entry.copies) >= replicas {
            self.seen.remove(&key);
        }
        decision
    }

    /// Output packets whose vote still waits for a replica's copy.
    pub fn in_flight(&self) -> usize {
        self.seen.len()
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Divergent copies observed so far.
    pub fn divergences(&self) -> u64 {
        self.divergences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Body;

    fn pkt(tag: u64) -> Packet {
        Packet::new(EndpointId(1), EndpointId(99), Body::Raw { tag, len: 100 })
    }

    #[test]
    fn ingress_routes() {
        let mut ing = IngressNode::new();
        ing.register(EndpointId(1), vec![NetNode(0), NetNode(1), NetNode(2)]);
        assert_eq!(ing.route(EndpointId(1)).len(), 3);
        assert!(ing.route(EndpointId(9)).is_empty());
        assert_eq!(ing.guests(), 1);
    }

    #[test]
    fn egress_forwards_second_copy() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Hold
        );
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(1), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
        // Third copy is held (already forwarded).
        assert_eq!(
            eg.on_copy(g, 0, NetNode(2), pkt(7), 3),
            EgressDecision::Hold
        );
        assert_eq!(eg.forwarded(), 1);
    }

    #[test]
    fn egress_keeps_streams_separate() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        eg.on_copy(g, 0, NetNode(0), pkt(7), 3);
        // A different out_seq does not complete seq 0.
        assert_eq!(
            eg.on_copy(g, 1, NetNode(1), pkt(8), 3),
            EgressDecision::Hold
        );
        assert_eq!(eg.forwarded(), 0);
    }

    #[test]
    fn egress_detects_divergence() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        eg.on_copy(g, 0, NetNode(0), pkt(7), 3);
        let d = eg.on_copy(g, 0, NetNode(1), pkt(8), 3);
        assert_eq!(d, EgressDecision::Divergence { from: NetNode(1) });
        assert_eq!(eg.divergences(), 1);
        // The two matching replicas still get the packet out.
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(2), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
    }

    #[test]
    fn egress_survives_divergent_first_copy() {
        // The faulty replica's copy lands first; the two honest copies
        // still form a majority and the packet goes out.
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(2), pkt(666), 3),
            EgressDecision::Hold
        );
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Divergence { .. }
        ));
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(1), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
        assert_eq!(eg.forwarded(), 1);
        assert!(eg.divergences() >= 1);
    }

    #[test]
    fn egress_retires_a_vote_with_the_last_copy() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        for s in 0..10 {
            eg.on_copy(g, s, NetNode(0), pkt(s), 3);
            eg.on_copy(g, s, NetNode(1), pkt(s), 3);
        }
        // Every vote still waits for its third copy.
        assert_eq!(eg.in_flight(), 10);
        for s in 0..10 {
            assert_eq!(
                eg.on_copy(g, s, NetNode(2), pkt(s), 3),
                EgressDecision::Hold
            );
        }
        assert_eq!(eg.in_flight(), 0);
        assert_eq!(eg.forwarded(), 10);
        // Five replicas: the entry lives until the fifth copy.
        for host in 0..4 {
            eg.on_copy(g, 20, NetNode(host), pkt(20), 5);
        }
        assert_eq!(eg.in_flight(), 1);
        eg.on_copy(g, 20, NetNode(4), pkt(20), 5);
        assert_eq!(eg.in_flight(), 0);
    }

    #[test]
    fn egress_divergence_count_is_per_copy_after_the_split() {
        // Every copy that lands once two hash groups exist counts, the
        // agreeing ones included: [7, 8, 7] counts the 8 and the last 7.
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        eg.on_copy(g, 0, NetNode(0), pkt(7), 3);
        eg.on_copy(g, 0, NetNode(1), pkt(8), 3);
        eg.on_copy(g, 0, NetNode(2), pkt(7), 3);
        assert_eq!(eg.divergences(), 2);
        assert_eq!(eg.forwarded(), 1);
        // A divergent first copy: [666, 7, 7] counts both 7s.
        eg.on_copy(g, 1, NetNode(2), pkt(666), 3);
        eg.on_copy(g, 1, NetNode(0), pkt(7), 3);
        eg.on_copy(g, 1, NetNode(1), pkt(7), 3);
        assert_eq!(eg.divergences(), 4);
        assert_eq!(eg.forwarded(), 2);
        assert_eq!(eg.in_flight(), 0);
    }
}
