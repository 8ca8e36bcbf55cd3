//! The deterministic discrete-event network simulator.
//!
//! Event-driven in the smoltcp spirit: no threads, no wall-clock — a
//! binary-heap event queue ordered by `(time, sequence)` so identical
//! inputs replay identically. Nodes exchange datagrams over configured
//! links with latency, bandwidth-derived serialisation delay, and optional
//! fault injection.
//!
//! Links live in one `Vec`; each node keeps its outgoing links as
//! `(destination, link index)` sorted by destination, so a send finds its
//! link by binary search and a delivery carries the index it was sent on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use teenet_crypto::SecureRng;

use crate::fault::{FaultConfig, FaultDecision, FaultInjector};
use crate::packet::{NodeId, Packet};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceRecord};

/// Properties of a unidirectional link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Fault injection on this link.
    pub faults: FaultConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: None,
            faults: FaultConfig::default(),
        }
    }
}

/// Per-link delivery and fault-outcome counters, readable while a
/// simulation runs (drive a workload, then assert on what the links did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to the link by [`Network::send`] or
    /// [`Network::send_padded`].
    pub sent: u64,
    /// Datagrams placed in the destination inbox (includes corrupted and
    /// duplicated copies).
    pub delivered: u64,
    /// Datagrams lost to drop faults or rate limiting.
    pub dropped: u64,
    /// Datagrams delivered with corrupted payloads.
    pub corrupted: u64,
    /// Extra copies delivered by duplication faults.
    pub duplicated: u64,
    /// Datagrams held back by delay faults (beyond latency + serialisation).
    pub delayed: u64,
}

impl LinkStats {
    /// Folds another link's counters into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
    }
}

struct Link {
    src: NodeId,
    dst: NodeId,
    config: LinkConfig,
    injector: Option<FaultInjector>,
    /// When the link is next free to begin serialising (FIFO queueing).
    next_free: SimTime,
    stats: LinkStats,
}

#[derive(Default)]
struct Node {
    /// Delivered packets with their delivery timestamps.
    inbox: VecDeque<(SimTime, Packet)>,
    /// Deepest the inbox has ever been (queue-depth high-watermark).
    max_depth: usize,
    /// On the network's ready list (see [`Network::take_ready`]).
    ready: bool,
    /// Outgoing links as `(destination, index into Network::links)`,
    /// sorted by destination.
    links: Vec<(NodeId, u32)>,
}

#[derive(PartialEq, Eq)]
struct Delivery {
    at: SimTime,
    seq: u64,
    /// Index of the link the packet was sent on.
    link: u32,
    packet: Packet,
    corrupted: bool,
    duplicated: bool,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network.
pub struct Network {
    now: SimTime,
    nodes: Vec<Node>,
    links: Vec<Link>,
    queue: BinaryHeap<Reverse<Delivery>>,
    next_packet_id: u64,
    next_seq: u64,
    /// Nodes a delivery has landed at since the last
    /// [`Network::take_ready`], each at most once.
    ready: Vec<NodeId>,
    seed: u64,
    /// The fault RNG parent, derived from `seed` on the first link that
    /// needs a fork: a network of clean links never hashes a key.
    rng: Option<SecureRng>,
    /// Packet trace (on by default; disable via [`Network::set_tracing`],
    /// payload capture opt-in via [`Network::enable_pcap`]).
    pub trace: Trace,
}

impl Network {
    /// Creates an empty network; `seed` drives all fault randomness.
    pub fn new(seed: u64) -> Self {
        Network {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            links: Vec::new(),
            queue: BinaryHeap::new(),
            next_packet_id: 0,
            next_seq: 0,
            ready: Vec::new(),
            seed,
            rng: None,
            trace: Trace::new(),
        }
    }

    /// Switches the trace to payload-capturing mode (for pcap export).
    /// Discards any existing trace records.
    pub fn enable_pcap(&mut self) {
        self.trace = Trace::with_payloads();
    }

    /// Turns packet tracing on or off. The trace accumulates one record
    /// per packet event, so a driver that never reads it (a long load
    /// run) should switch it off to keep the network's memory independent
    /// of how many packets flow through it.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Rewinds the network to the state `Network::new(seed)` plus the
    /// same nodes and links would produce, without reallocating the
    /// topology: the clock returns to zero, inboxes, the ready list, the
    /// event queue, link stats/backlogs and the trace are cleared, and
    /// every fault injector is re-derived from the new seed. A shard
    /// engine replaying many sessions reuses one network this way instead
    /// of rebuilding it per session.
    ///
    /// Determinism: injector RNGs are forked per-link from a label of the
    /// link's endpoints, and [`SecureRng::fork`] never perturbs the
    /// parent, so re-forking here (in any link order) reproduces exactly
    /// what [`Network::add_link`] derived at construction. The parent is
    /// derived only if some link has faults to fork.
    pub fn reset(&mut self, seed: u64) {
        self.now = SimTime::ZERO;
        self.queue.clear();
        self.next_packet_id = 0;
        self.next_seq = 0;
        self.seed = seed;
        self.rng = None;
        self.trace.clear();
        self.ready.clear();
        for node in &mut self.nodes {
            node.inbox.clear();
            node.max_depth = 0;
            node.ready = false;
        }
        for link in &mut self.links {
            link.next_free = SimTime::ZERO;
            link.stats = LinkStats::default();
            link.injector = injector_for(&link.config, link.src, link.dst, &mut self.rng, seed);
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::default());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Configures the unidirectional link `src → dst`, replacing (with
    /// fresh state) any link already configured between them. Panics if
    /// either endpoint is not a node of this network.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, config: LinkConfig) {
        let nodes = self.nodes.len();
        assert!(
            (src.0 as usize) < nodes && (dst.0 as usize) < nodes,
            "link {src} -> {dst} names a node outside 0..{nodes}"
        );
        let link = Link {
            src,
            dst,
            injector: injector_for(&config, src, dst, &mut self.rng, self.seed),
            config,
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        };
        let out = &mut self.nodes[src.0 as usize].links;
        match out.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => self.links[out[i].1 as usize] = link,
            Err(i) => {
                out.insert(i, (dst, self.links.len() as u32));
                self.links.push(link);
            }
        }
    }

    /// Index of the link `src → dst` in `self.links`, if configured.
    fn link_index(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let out = &self.nodes.get(src.0 as usize)?.links;
        let i = out.binary_search_by_key(&dst, |&(d, _)| d).ok()?;
        Some(out[i].1 as usize)
    }

    /// Configures a symmetric (bidirectional) link.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link(a, b, config.clone());
        self.add_link(b, a, config);
    }

    /// Fully connects all current nodes with `config` links.
    pub fn connect_all(&mut self, config: LinkConfig) {
        let n = self.nodes.len() as u32;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.add_link(NodeId(i), NodeId(j), config.clone());
                }
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a datagram; returns the packet id, or `None` if no link exists
    /// (the datagram is dropped, mirroring a missing route).
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: impl Into<Bytes>) -> Option<u64> {
        self.send_padded(src, dst, payload, 0)
    }

    /// Sends `payload` followed by `padding` zero bytes, without ever
    /// materialising the zeros. The packet is indistinguishable from
    /// [`Network::send`] of the full frame: its [`Packet::len`] counts the
    /// padding, so serialisation delay, trace lengths and fault outcomes
    /// are the same, and a corrupting fault first builds the full frame
    /// (one allocation of the wire length), so the flipped byte may land
    /// in the padding exactly as it would in real zeros.
    pub fn send_padded(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: impl Into<Bytes>,
        padding: usize,
    ) -> Option<u64> {
        let mut packet = Packet {
            id: self.next_packet_id,
            src,
            dst,
            payload: payload.into(),
            padding,
        };
        self.next_packet_id += 1;
        let (id, len, now) = (packet.id, packet.len(), self.now);
        let record = |event| TraceRecord {
            time: now,
            event,
            packet_id: id,
            src,
            dst,
            len,
        };

        let Some(index) = self.link_index(src, dst) else {
            self.trace.record(record(TraceEvent::Dropped), None);
            return None;
        };
        self.trace.record(record(TraceEvent::Sent), None);
        let link = &mut self.links[index];
        link.stats.sent += 1;

        // FIFO serialisation: transmission begins when the link is free.
        let start = link.next_free.max(now);
        let serialisation = match link.config.bandwidth_bps {
            Some(bps) if bps > 0 => SimDuration((len as u64).saturating_mul(1_000_000_000) / bps),
            _ => SimDuration::ZERO,
        };
        link.next_free = start + serialisation;
        let mut arrival = start + serialisation + link.config.latency;

        let mut corrupted = false;
        let mut duplicated = false;
        if let Some(injector) = &mut link.injector {
            match injector.decide(now) {
                FaultDecision::Drop => {
                    link.stats.dropped += 1;
                    self.trace.record(record(TraceEvent::Dropped), None);
                    return Some(id);
                }
                FaultDecision::Corrupt => {
                    corrupted = true;
                    link.stats.corrupted += 1;
                    // Only a corrupting fault pays for a mutable copy;
                    // every other packet keeps the caller's buffer.
                    let mut frame = packet.wire_bytes();
                    injector.corrupt(&mut frame);
                    packet.payload = Bytes::from(frame);
                    packet.padding = 0;
                }
                FaultDecision::Duplicate => {
                    duplicated = true;
                    link.stats.duplicated += 1;
                }
                FaultDecision::Delay(extra) => {
                    arrival += extra;
                    link.stats.delayed += 1;
                }
                FaultDecision::Deliver => {}
            }
        }

        let link = index as u32;
        let copy = duplicated.then(|| packet.clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Delivery {
            at: arrival,
            seq,
            link,
            packet,
            corrupted,
            duplicated: false,
        }));
        if let Some(packet) = copy {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(Reverse(Delivery {
                at: arrival + SimDuration::from_micros(1),
                seq,
                link,
                packet,
                corrupted: false,
                duplicated: true,
            }));
        }
        Some(id)
    }

    /// Processes events up to and including `until`, advancing the clock.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse(next)) = self.queue.peek() {
            if next.at > until {
                break;
            }
            let Reverse(delivery) = self.queue.pop().expect("peeked");
            self.now = delivery.at;
            let event = if delivery.corrupted {
                TraceEvent::Corrupted
            } else if delivery.duplicated {
                TraceEvent::Duplicated
            } else {
                TraceEvent::Delivered
            };
            self.trace.record(
                TraceRecord {
                    time: delivery.at,
                    event,
                    packet_id: delivery.packet.id,
                    src: delivery.packet.src,
                    dst: delivery.packet.dst,
                    len: delivery.packet.len(),
                },
                Some(&delivery.packet),
            );
            self.links[delivery.link as usize].stats.delivered += 1;
            let dst = delivery.packet.dst;
            let node = &mut self.nodes[dst.0 as usize];
            node.inbox.push_back((delivery.at, delivery.packet));
            node.max_depth = node.max_depth.max(node.inbox.len());
            if !node.ready {
                node.ready = true;
                self.ready.push(dst);
            }
        }
        self.now = self.now.max(until);
    }

    /// Processes all queued events (runs the network to quiescence).
    pub fn run_to_idle(&mut self) {
        while let Some(Reverse(next)) = self.queue.peek() {
            let at = next.at;
            self.run_until(at);
        }
    }

    /// Hands out, in ascending [`NodeId`] order, every node a delivery has
    /// landed at since the previous call, and un-lists them. `into` is
    /// cleared first; its buffer and the network's are swapped, so a
    /// caller that passes the same `Vec` each time allocates nothing in
    /// steady state. A node is listed at most once between calls, so the
    /// list never holds more than [`Network::node_count`] entries, even
    /// for a caller that never takes it. A caller that drains each handed
    /// node's inbox completely polls exactly the nodes with packets
    /// waiting, instead of every node.
    pub fn take_ready(&mut self, into: &mut Vec<NodeId>) {
        into.clear();
        std::mem::swap(into, &mut self.ready);
        into.sort_unstable();
        for id in into.iter() {
            self.nodes[id.0 as usize].ready = false;
        }
    }

    /// Pops the next delivered packet at `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<Packet> {
        self.recv_timed(node).map(|(_, p)| p)
    }

    /// Pops the next delivered packet at `node` with its delivery time.
    pub fn recv_timed(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
        self.nodes.get_mut(node.0 as usize)?.inbox.pop_front()
    }

    /// Drains all delivered packets at `node`.
    pub fn recv_all(&mut self, node: NodeId) -> Vec<Packet> {
        match self.nodes.get_mut(node.0 as usize) {
            Some(n) => n.inbox.drain(..).map(|(_, p)| p).collect(),
            None => Vec::new(),
        }
    }

    /// Number of packets waiting at `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.inbox.len())
    }

    /// Current inbox depth at `node` (alias of [`Network::pending`], named
    /// for observability dashboards).
    pub fn queue_depth(&self, node: NodeId) -> usize {
        self.pending(node)
    }

    /// The deepest `node`'s inbox has ever been.
    pub fn max_queue_depth(&self, node: NodeId) -> usize {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.max_depth)
    }

    /// Delivery/fault counters of the link `src → dst`, if configured.
    pub fn link_stats(&self, src: NodeId, dst: NodeId) -> Option<LinkStats> {
        self.link_index(src, dst).map(|i| self.links[i].stats)
    }

    /// Fault outcomes summed over every link in the network.
    pub fn fault_totals(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for link in &self.links {
            total.merge(&link.stats);
        }
        total
    }

    /// Time of the earliest in-flight delivery, or `None` when the network
    /// is quiescent. Lets an external event loop interleave its own timers
    /// with network deliveries without overshooting either.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(d)| d.at)
    }
}

/// The fault injector of link `src → dst`, or `None` for a clean link.
/// Forks it from the network's parent RNG, deriving that parent from
/// `seed` first if no earlier link needed it.
fn injector_for(
    config: &LinkConfig,
    src: NodeId,
    dst: NodeId,
    rng: &mut Option<SecureRng>,
    seed: u64,
) -> Option<FaultInjector> {
    if config.faults.is_clean() {
        return None;
    }
    let parent = rng.get_or_insert_with(|| SecureRng::seed_from_u64(seed));
    let label = [
        b"link".as_slice(),
        &src.0.to_le_bytes(),
        &dst.0.to_le_bytes(),
    ]
    .concat();
    Some(FaultInjector::new(
        config.faults.clone(),
        parent.fork(&label),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RateLimit;

    fn two_node_net(config: LinkConfig) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_node();
        let b = net.add_node();
        net.add_duplex_link(a, b, config);
        (net, a, b)
    }

    /// `reset(seed)` on a used network must reproduce exactly what a
    /// fresh `Network::new(seed)` with the same topology produces: same
    /// deliveries, same fault outcomes, same clock, same trace volume.
    #[test]
    fn reset_reproduces_a_fresh_network() {
        let config = LinkConfig {
            faults: FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.2,
                duplicate_chance: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let drive = |net: &mut Network, a: NodeId, b: NodeId| {
            for i in 0..50u8 {
                net.send(a, b, vec![i; 16]);
                net.run_to_idle();
            }
            (
                net.recv_all(b).len(),
                net.fault_totals(),
                net.max_queue_depth(b),
                net.now(),
                net.trace.records().len(),
            )
        };
        let (mut fresh, a, b) = two_node_net(config.clone());
        let baseline = drive(&mut fresh, a, b);

        // Dirty a second identical network under another seed, then
        // rewind it to seed 1 — it must match the fresh run exactly.
        let (mut reused, a2, b2) = two_node_net(config);
        reused.reset(999);
        drive(&mut reused, a2, b2);
        reused.reset(1);
        assert_eq!(drive(&mut reused, a2, b2), baseline);
    }

    /// `send_padded(p, n)` is indistinguishable from `send(p ‖ 0ⁿ)` on a
    /// faulty, bandwidth-limited link under one seed: the same delivery
    /// times and order, link stats, materialised frames, trace records and
    /// pcap bytes, including corruptions that flip a padding byte.
    #[test]
    fn padded_send_matches_the_materialised_frame() {
        let config = LinkConfig {
            latency: SimDuration::from_micros(200),
            bandwidth_bps: Some(10_000_000),
            faults: FaultConfig {
                drop_chance: 0.1,
                corrupt_chance: 0.3,
                duplicate_chance: 0.1,
                reorder_chance: 0.1,
                ..Default::default()
            },
        };
        let header = |i: u32| vec![i as u8 | 1; 1 + (i % 7) as usize];
        let padding = |i: u32| (i % 5) as usize * 40;
        let drive = |padded: bool| {
            let (mut net, a, b) = two_node_net(config.clone());
            net.enable_pcap();
            let mut delivered = Vec::new();
            for i in 0..300u32 {
                if padded {
                    net.send_padded(a, b, header(i), padding(i));
                } else {
                    let mut frame = header(i);
                    frame.resize(frame.len() + padding(i), 0);
                    net.send(a, b, frame);
                }
                net.run_until(net.now() + SimDuration::from_micros(50));
                if i % 3 == 0 {
                    net.run_to_idle();
                }
                while let Some((at, p)) = net.recv_timed(b) {
                    delivered.push((at, p.id, p.len(), p.wire_bytes()));
                }
            }
            net.run_to_idle();
            while let Some((at, p)) = net.recv_timed(b) {
                delivered.push((at, p.id, p.len(), p.wire_bytes()));
            }
            (
                delivered,
                net.link_stats(a, b).expect("configured"),
                net.trace.records().to_vec(),
                net.trace.to_pcap(),
            )
        };
        let padded = drive(true);
        let plain = drive(false);
        let stats = padded.1;
        assert!(
            stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0,
            "{stats:?}"
        );
        let padding_flips = padded
            .0
            .iter()
            .filter(|(_, id, _, frame)| {
                let i = *id as u32;
                let h = header(i);
                frame[..h.len()] == h[..] && frame[h.len()..].iter().any(|&z| z != 0)
            })
            .count();
        assert!(
            padding_flips > 0,
            "some corruption must land in the padding"
        );
        assert!(padded == plain, "padded and materialised sends diverged");
    }

    #[test]
    fn add_link_replaces_an_existing_link() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(5),
            ..Default::default()
        });
        net.send(a, b, &b"old"[..]);
        net.add_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                ..Default::default()
            },
        );
        assert_eq!(
            net.link_stats(a, b),
            Some(LinkStats::default()),
            "fresh state"
        );
        net.send(a, b, &b"new"[..]);
        assert_eq!(net.next_event_at(), Some(SimTime(1_000_000)));
        net.run_to_idle();
        assert_eq!(net.recv(b).unwrap().payload, Bytes::from_static(b"new"));
        assert_eq!(net.recv(b).unwrap().payload, Bytes::from_static(b"old"));
        // The in-flight packet lands on the replacement link's counters.
        assert_eq!(net.link_stats(a, b).unwrap().delivered, 2);
        assert_eq!(net.link_stats(a, b).unwrap().sent, 1);
        assert_eq!(net.link_stats(b, a).unwrap(), LinkStats::default());
    }

    #[test]
    #[should_panic(expected = "names a node outside")]
    fn add_link_rejects_an_unknown_node() {
        let mut net = Network::new(1);
        let a = net.add_node();
        net.add_link(a, NodeId(7), LinkConfig::default());
    }

    /// The ready list hands out ascending, duplicate-free node ids — the
    /// nodes with packets waiting — and, never taken, stays bounded by
    /// the node count however many packets land.
    #[test]
    fn ready_list_is_ascending_unique_and_bounded() {
        let mut net = Network::new(3);
        let nodes: Vec<NodeId> = (0..6).map(|_| net.add_node()).collect();
        net.connect_all(LinkConfig {
            faults: FaultConfig {
                duplicate_chance: 0.3,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut rng = SecureRng::seed_from_u64(8);
        let mut ready = Vec::new();
        for _ in 0..40 {
            for _ in 0..5 {
                let src = nodes[rng.gen_range(6) as usize];
                let dst = nodes[rng.gen_range(6) as usize];
                if src != dst {
                    net.send(src, dst, vec![0u8; 8]);
                }
            }
            net.run_to_idle();
            net.take_ready(&mut ready);
            assert!(ready.windows(2).all(|w| w[0] < w[1]), "{ready:?}");
            let waiting: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| net.pending(n) > 0)
                .collect();
            assert_eq!(ready, waiting, "exactly the nodes with packets waiting");
            for &n in &ready {
                net.recv_all(n);
            }
        }
        net.take_ready(&mut ready);
        assert!(ready.is_empty(), "everything was drained");

        // A caller that never takes the list: hundreds of deliveries to
        // every node list each node once.
        for round in 0..200u32 {
            let src = nodes[(round % 6) as usize];
            let dst = nodes[((round + 1 + round / 6 % 5) % 6) as usize];
            net.send(src, dst, vec![1u8; 8]);
        }
        net.run_to_idle();
        assert!(net.ready.len() <= net.node_count());
        net.take_ready(&mut ready);
        assert_eq!(ready, nodes, "every node, once, in order");
    }

    /// Compile-time regression: a whole simulated network — virtual
    /// clock, event heap, per-link fault RNGs — must stay `Send`, so each
    /// load-generation shard can own an independent network with its own
    /// virtual clock on its own OS thread.
    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
        assert_send::<LinkStats>();
    }

    #[test]
    fn basic_delivery_with_latency() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(5),
            ..Default::default()
        });
        net.send(a, b, &b"hello"[..]);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(4));
        assert_eq!(net.pending(b), 0, "not yet arrived");
        net.run_until(SimTime::ZERO + SimDuration::from_millis(5));
        let p = net.recv(b).expect("delivered");
        assert_eq!(&p.payload[..], b"hello");
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn no_link_means_drop() {
        let mut net = Network::new(1);
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(net.send(a, b, &b"x"[..]), None);
        net.run_to_idle();
        assert_eq!(net.pending(b), 0);
        assert_eq!(net.trace.count(TraceEvent::Dropped), 1);
    }

    #[test]
    fn bandwidth_adds_serialisation_delay() {
        // 1000 bytes at 1 MB/s = 1 ms serialisation + 1 ms latency.
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        });
        net.send(a, b, vec![0u8; 1000]);
        net.run_until(SimTime::ZERO + SimDuration::from_micros(1_999));
        assert_eq!(net.pending(b), 0);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(net.pending(b), 1);
    }

    #[test]
    fn fifo_queueing_on_shared_link() {
        // Two back-to-back 1000-byte packets: the second waits for the
        // first to serialise.
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        });
        net.send(a, b, vec![1u8; 1000]);
        net.send(a, b, vec![2u8; 1000]);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(net.pending(b), 1);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(net.pending(b), 2);
        // Order preserved.
        assert_eq!(net.recv(b).unwrap().payload[0], 1);
        assert_eq!(net.recv(b).unwrap().payload[0], 2);
    }

    #[test]
    fn run_to_idle_delivers_everything() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..10u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        assert_eq!(net.recv_all(b).len(), 10);
    }

    #[test]
    fn drop_faults_lose_packets() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"doomed"[..]);
        net.run_to_idle();
        assert_eq!(net.pending(b), 0);
        assert_eq!(net.trace.count(TraceEvent::Dropped), 1);
    }

    #[test]
    fn corruption_faults_flip_a_byte() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                corrupt_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"pristine"[..]);
        net.run_to_idle();
        let p = net.recv(b).unwrap();
        assert_ne!(&p.payload[..], b"pristine");
        assert_eq!(p.len(), 8);
        assert_eq!(net.trace.count(TraceEvent::Corrupted), 1);
    }

    #[test]
    fn duplication_faults_deliver_twice() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                duplicate_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"twice"[..]);
        net.run_to_idle();
        assert_eq!(net.pending(b), 2);
    }

    #[test]
    fn rate_limited_link_drops_excess() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                rate_limit: Some(RateLimit {
                    tokens_per_interval: 3,
                    interval: SimDuration::from_secs(1),
                }),
                ..Default::default()
            },
            ..Default::default()
        });
        for _ in 0..10 {
            net.send(a, b, &b"p"[..]);
        }
        net.run_to_idle();
        assert_eq!(net.pending(b), 3);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let build = || {
            let (mut net, a, b) = two_node_net(LinkConfig {
                faults: FaultConfig::lossy(),
                ..Default::default()
            });
            for i in 0..50u8 {
                net.send(a, b, vec![i]);
            }
            net.run_to_idle();
            net.recv_all(b)
                .iter()
                .map(|p| p.payload.to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        net.send(a, b, &b"ping"[..]);
        net.run_to_idle();
        assert_eq!(&net.recv(b).unwrap().payload[..], b"ping");
        net.send(b, a, &b"pong"[..]);
        net.run_to_idle();
        assert_eq!(&net.recv(a).unwrap().payload[..], b"pong");
    }

    #[test]
    fn connect_all_creates_full_mesh() {
        let mut net = Network::new(1);
        let nodes: Vec<NodeId> = (0..4).map(|_| net.add_node()).collect();
        net.connect_all(LinkConfig::default());
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    assert!(net.send(x, y, &b"m"[..]).is_some());
                }
            }
        }
        net.run_to_idle();
        for &n in &nodes {
            assert_eq!(net.pending(n), 3);
        }
    }

    #[test]
    fn link_stats_track_clean_traffic() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..5u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        let stats = net.link_stats(a, b).unwrap();
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.corrupted, 0);
        // Reverse direction untouched.
        assert_eq!(net.link_stats(b, a).unwrap(), LinkStats::default());
        assert!(net.link_stats(b, NodeId(99)).is_none());
    }

    #[test]
    fn link_stats_track_fault_outcomes() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.2,
                duplicate_chance: 0.2,
                ..Default::default()
            },
            ..Default::default()
        });
        for i in 0..200u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        let stats = net.link_stats(a, b).unwrap();
        assert_eq!(stats.sent, 200);
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.corrupted > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
        // Every sent packet either dropped or delivered; duplicates add
        // extra deliveries on top.
        assert_eq!(
            stats.delivered,
            stats.sent - stats.dropped + stats.duplicated
        );
        assert_eq!(net.fault_totals(), stats, "only one active link");
    }

    #[test]
    fn queue_depth_watermark_persists_after_drain() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..7u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        assert_eq!(net.queue_depth(b), 7);
        assert_eq!(net.max_queue_depth(b), 7);
        net.recv_all(b);
        assert_eq!(net.queue_depth(b), 0);
        assert_eq!(net.max_queue_depth(b), 7, "watermark survives drain");
        assert_eq!(net.max_queue_depth(a), 0);
    }

    #[test]
    fn recv_timed_reports_delivery_time() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(3),
            ..Default::default()
        });
        net.send(a, b, &b"x"[..]);
        assert_eq!(
            net.next_event_at(),
            Some(SimTime::ZERO + SimDuration::from_millis(3))
        );
        net.run_to_idle();
        let (at, p) = net.recv_timed(b).unwrap();
        assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(3));
        assert_eq!(&p.payload[..], b"x");
        assert_eq!(net.next_event_at(), None, "quiescent again");
    }

    #[test]
    fn pcap_capture_contains_delivered_payloads() {
        let mut net = Network::new(1);
        net.enable_pcap();
        let a = net.add_node();
        let b = net.add_node();
        net.add_duplex_link(a, b, LinkConfig::default());
        net.send(a, b, &b"captured"[..]);
        net.run_to_idle();
        let pcap = net.trace.to_pcap();
        assert!(pcap.len() > 24);
        assert!(pcap.windows(8).any(|w| w == b"captured"));
    }
}
