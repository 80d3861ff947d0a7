//! Network interfaces: injection queues, ejection assembly, circuit-origin
//! records (§4.1: "information of the circuit is also stored in the network
//! interface where the circuit starts"), the timed injection check (§4.7)
//! and scrounger reuse (§4.5).

use crate::config::{NocConfig, VcLayout};
use crate::flit::{Delivered, Flit, FlitKind, PacketId, PacketSpec};
use crate::router::alloc::RoundRobin;
use crate::stats::{CircuitOutcome, NocStats};
use rcsim_core::circuit::{CircuitHandle, CircuitKey};
use rcsim_core::routing::{path_is_healthy, Routing};
use rcsim_core::{
    CircuitMode, CongestionMap, Cycle, MechanismConfig, MessageClass, NodeId, Topology,
    TopologyHealth, Vnet,
};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// The reply class (and its flit count) a circuit-building request expects.
pub(crate) fn expected_reply_flits(class: MessageClass, flit_bytes: u32) -> u32 {
    match class {
        MessageClass::L1Request => MessageClass::L2Reply.flits(flit_bytes),
        MessageClass::WbData => MessageClass::L2WbAck.flits(flit_bytes),
        MessageClass::MemRequest => MessageClass::MemoryReply.flits(flit_bytes),
        // The MEMORY reply to an L2 write-back is a single-flit ack.
        MessageClass::MemWbData => 1,
        _ => 1,
    }
}

/// A packet waiting at (or streaming out of) the NI.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pending {
    id: PacketId,
    src: NodeId,
    dst: NodeId,
    class: MessageClass,
    vnet: Vnet,
    len: u32,
    block: u64,
    token: u64,
    created_at: Cycle,
    /// Preserved original injection time for scrounger re-injections.
    injected_at: Option<Cycle>,
    circuit: Option<Box<CircuitHandle>>,
    on_circuit: Option<CircuitKey>,
    scrounger_final: Option<NodeId>,
    /// Earliest cycle the committed circuit stream may start.
    start_at: Cycle,
    /// `false` for scrounger re-injections (already counted).
    count_injection: bool,
}

/// An in-flight outbound stream on one local-input VC (or the circuit path).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stream {
    pending: Pending,
    next_seq: u32,
    vc: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Origin {
    handle: CircuitHandle,
    registered_at: Cycle,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Assembly {
    head: Option<Flit>,
    received: u32,
}

/// What one NI tick produced. The network owns one reusable instance
/// per tick ([`NiOut::clear`] between NIs) so the per-cycle loop stays
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct NiOut {
    /// Flits entering the router's local input port next cycle.
    pub flits: Vec<Flit>,
    /// Circuit undos to start propagating from this node's router.
    pub undos: Vec<(CircuitKey, NodeId)>,
    /// Fully received packets for the tile logic.
    pub delivered: Vec<Delivered>,
    /// Packets that failed the NI's integrity check (corrupted by the
    /// fault layer) and were discarded instead of delivered; the network
    /// schedules their end-to-end retransmission.
    pub corrupt_discards: Vec<PacketId>,
    /// Packets this tick sent on a recorded detour because their DOR path
    /// crossed a dead link or router (added to the fault counters).
    pub reroutes: u64,
    /// Packets this tick sent on a congestion-aware detour: their DOR path
    /// was healthy but crossed a hot region (added to the adaptive
    /// counters, not the fault counters).
    pub congestion_reroutes: u64,
    /// The statistics-counted injection this tick started, if any (class
    /// and flit count of the head emitted with `count_injection` set). At
    /// most one per tick — an NI injects at most one flit per cycle. The
    /// network records it with [`NocStats::record_injection`], so all NI
    /// statistics are kept in one place, the network's tick.
    pub injection: Option<(MessageClass, u32)>,
}

impl NiOut {
    /// Empties every output list, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.flits.clear();
        self.undos.clear();
        self.delivered.clear();
        self.corrupt_discards.clear();
        self.reroutes = 0;
        self.congestion_reroutes = 0;
        self.injection = None;
    }
}

pub(crate) struct Ni {
    node: NodeId,
    topology: Topology,
    layout: VcLayout,
    mechanism: MechanismConfig,
    flit_bytes: u32,
    buffer_depth: u32,
    /// Per-VN FIFO of packet-switched packets.
    queues: [VecDeque<Pending>; 2],
    /// Per local-input VC, the packet currently streaming into the router.
    streams: Vec<Option<Stream>>,
    /// Credits for the router's local-input VC buffers.
    credits: Vec<u32>,
    rr_stream: RoundRobin,
    vnet_rr: usize,
    /// Committed circuit (and scrounger) packets, in commitment order.
    circuit_queue: VecDeque<Pending>,
    circuit_active: Option<Stream>,
    /// Cycle after which the next circuit stream may start (commitments
    /// are back-to-back and never overlap).
    circuit_link_free_at: Cycle,
    origins: HashMap<CircuitKey, Origin>,
    /// Reversed source routes of detoured requests delivered here, keyed
    /// by `(requestor, block)`: consumed when the matching reply is
    /// emitted so it retraces the request's detour instead of a freshly
    /// recomputed route (path symmetry, DESIGN.md §10). Each route is
    /// stamped with the [`CongestionMap`] era it was recorded under and
    /// only consumed while that era is still current — when the blocking
    /// condition heals (link/router revival, hot region cooling) the era
    /// bumps and the stale detour is ignored, so post-heal replies return
    /// to DOR. Bounded FIFO.
    reply_paths: HashMap<(NodeId, u64), (u64, Vec<NodeId>)>,
    /// Insertion order of `reply_paths` keys, for deterministic eviction.
    reply_path_order: VecDeque<(NodeId, u64)>,
    /// Circuit origins removed by fault-recovery teardown; consumed when
    /// the reply shows up to record the `TornDown` outcome.
    torn: HashSet<CircuitKey>,
    assembling: HashMap<PacketId, Assembly>,
    /// Undos decided at enqueue time, drained at the next tick.
    pending_undos: Vec<(CircuitKey, NodeId)>,
    /// Reused scratch for [`Ni::inject_one`]'s sendable-VC collection.
    sendable: Vec<usize>,
    /// Requests whose circuit construction the adaptive mechanism switch
    /// suppressed (reply path crossed a hot region at enqueue time).
    circuits_suppressed: u64,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
}

impl Ni {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let total = layout.total();
        Self {
            node,
            topology: cfg.topology,
            layout,
            mechanism: cfg.mechanism,
            flit_bytes: cfg.flit_bytes,
            buffer_depth: cfg.buffer_depth,
            queues: [VecDeque::new(), VecDeque::new()],
            streams: vec![None; total],
            credits: vec![cfg.buffer_depth; total],
            rr_stream: RoundRobin::new(total),
            vnet_rr: 0,
            circuit_queue: VecDeque::new(),
            circuit_active: None,
            circuit_link_free_at: 0,
            origins: HashMap::new(),
            reply_paths: HashMap::new(),
            reply_path_order: VecDeque::new(),
            torn: HashSet::new(),
            assembling: HashMap::new(),
            pending_undos: Vec::new(),
            sendable: Vec::new(),
            circuits_suppressed: 0,
            sink: TraceSink::default(),
        }
    }

    /// How many requests enqueued here had their circuit construction
    /// suppressed by the adaptive mechanism switch.
    pub(crate) fn circuits_suppressed(&self) -> u64 {
        self.circuits_suppressed
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// `true` if a fully built circuit origin for `key` is registered here.
    pub(crate) fn has_origin(&self, key: CircuitKey) -> bool {
        self.origins.contains_key(&key)
    }

    /// Fault-recovery teardown (DESIGN.md §10): forgets every circuit
    /// origin whose key is in `doomed`, remembering the key so the reply
    /// that would have ridden it records the `torn_down` outcome instead
    /// of a generic failure. The router entries are removed by the
    /// network; no undo propagation is needed.
    pub(crate) fn purge_origins(&mut self, doomed: &HashSet<CircuitKey>) {
        for key in doomed {
            if self.origins.remove(key).is_some() {
                self.torn.insert(*key);
            }
        }
    }

    /// The circuit keys of every origin registered at this NI, in sorted
    /// order (deterministic iteration for the adaptive teardown).
    pub(crate) fn origin_keys(&self) -> Vec<CircuitKey> {
        let mut keys: Vec<CircuitKey> = self.origins.keys().copied().collect();
        keys.sort_by_key(|k| (k.requestor, k.block));
        keys
    }

    /// Mechanism-switch teardown (DESIGN.md §14): forgets the origin and
    /// starts §4.4 undo propagation to release the router entries hop by
    /// hop — the abort path that is already safe against every in-flight
    /// race (reservations still arriving, borrowed scroungers, streams:
    /// in-use entries are flagged `undo_pending` and removed when the
    /// tail passes). The reply that would have ridden the circuit records
    /// the `torn_down` outcome and goes packet-switched.
    pub(crate) fn teardown_origin(&mut self, key: CircuitKey) -> bool {
        if self.origins.remove(&key).is_some() {
            self.torn.insert(key);
            self.pending_undos.push((key, key.requestor));
            true
        } else {
            false
        }
    }

    /// Protocol-initiated circuit teardown (the L2-forwards-to-owner flow
    /// of §4.4). Records the `undone` outcome and starts undo propagation.
    pub(crate) fn undo_circuit(&mut self, key: CircuitKey, stats: &mut NocStats) -> bool {
        if self.origins.remove(&key).is_some() {
            stats.record_outcome(CircuitOutcome::Undone);
            self.pending_undos.push((key, key.requestor));
            true
        } else {
            false
        }
    }

    /// Enqueues a packet. Returns `true` when the packet is a reply that
    /// committed to riding its own complete circuit (the §4.6 NoAck
    /// condition).
    pub(crate) fn enqueue(
        &mut self,
        spec: PacketSpec,
        id: PacketId,
        now: Cycle,
        cong: &CongestionMap,
        stats: &mut NocStats,
    ) -> bool {
        let len = spec
            .flits_override
            .unwrap_or_else(|| spec.class.flits(self.flit_bytes));
        let mut pending = Pending {
            id,
            src: spec.src,
            dst: spec.dst,
            class: spec.class,
            vnet: spec.class.vnet(),
            len,
            block: spec.block,
            token: spec.token,
            created_at: now,
            injected_at: None,
            circuit: None,
            on_circuit: None,
            scrounger_final: None,
            start_at: now,
            count_injection: true,
        };

        if !spec.class.is_reply() {
            // A circuit needs at least one router-to-router hop: tiles
            // sharing a router on a concentrated mesh exchange traffic
            // through local ports only, where reservations buy nothing.
            if spec.class.builds_circuit()
                && self.mechanism.circuits_enabled()
                && self.topology.hop_count(spec.src, spec.dst) > 0
                && !self.mech_switch_suppresses(&spec, cong)
            {
                let reply_flits = expected_reply_flits(spec.class, self.flit_bytes);
                // The tail of a multi-flit request arrives len-1 cycles
                // after its head, so the responder's turnaround as seen
                // from the head's schedule is that much longer.
                let turnaround = spec.turnaround + (len - 1);
                let handle = CircuitHandle::new(
                    spec.src,
                    spec.block,
                    spec.dst,
                    self.topology.hop_count(spec.src, spec.dst),
                    reply_flits,
                    turnaround,
                )
                .with_policy(self.mechanism.timed);
                pending.circuit = Some(Box::new(handle));
            }
            self.queues[pending.vnet.index()].push_back(pending);
            return false;
        }

        // Reply: resolve its circuit situation.
        let mut committed = false;
        let mut outcome = CircuitOutcome::NotEligible;
        if let Some(key) = spec.circuit_key {
            match self.origins.get(&key) {
                Some(origin) if origin.handle.fully_built() => {
                    if self.mechanism.mode.is_complete() {
                        let earliest = now.max(self.circuit_link_free_at);
                        let start = match origin.handle.timing {
                            None => Some(earliest),
                            Some(t) => t.injection_time(earliest),
                        };
                        match start {
                            Some(t) => {
                                committed = true;
                                outcome = CircuitOutcome::OnCircuit;
                                pending.on_circuit = Some(key);
                                pending.start_at = t;
                                self.circuit_link_free_at = t + len as Cycle;
                                self.origins.remove(&key);
                            }
                            None => {
                                // Missed the reserved window (§4.7): undo
                                // and go packet-switched.
                                outcome = CircuitOutcome::Undone;
                                self.origins.remove(&key);
                                self.pending_undos.push((key, key.requestor));
                            }
                        }
                    } else {
                        // Fragmented: ride wherever reserved; buffers
                        // guarantee progress everywhere else.
                        outcome = CircuitOutcome::OnCircuit;
                        pending.on_circuit = Some(key);
                        self.origins.remove(&key);
                    }
                }
                Some(_) => {
                    // Partially built fragmented circuit: still useful.
                    outcome = CircuitOutcome::Failed;
                    pending.on_circuit = Some(key);
                    self.origins.remove(&key);
                }
                None => {
                    outcome = if self.torn.remove(&key) {
                        // The circuit was built but a dead link or router
                        // tore it down before the reply could ride.
                        CircuitOutcome::TornDown
                    } else if spec.class.circuit_eligible() && self.mechanism.circuits_enabled() {
                        CircuitOutcome::Failed
                    } else {
                        CircuitOutcome::NotEligible
                    };
                }
            }
        }

        // Scrounger reuse (§4.5): ride a foreign complete circuit that
        // ends strictly closer to this reply's destination.
        if !committed
            && pending.on_circuit.is_none()
            && self.mechanism.reuse_circuits
            && spec.dst != self.node
        {
            if let Some(key) = self.best_scrounge_target(spec.dst, now) {
                if !self.mechanism.scrounger_borrow {
                    self.origins.remove(&key);
                }
                let start = now.max(self.circuit_link_free_at);
                outcome = CircuitOutcome::Scrounger;
                pending.dst = key.requestor;
                pending.on_circuit = Some(key);
                pending.scrounger_final = Some(spec.dst);
                pending.start_at = start;
                self.circuit_link_free_at = start + len as Cycle;
            }
        }

        if spec.count_outcome {
            stats.record_outcome(outcome);
        }
        if pending.on_circuit.is_some() && self.mechanism.mode.is_complete() {
            self.circuit_queue.push_back(pending);
        } else {
            self.queues[pending.vnet.index()].push_back(pending);
        }
        committed
    }

    /// The adaptive mechanism switch (DESIGN.md §14): `true` when circuit
    /// construction for this request should be skipped because the reply
    /// it reserves for would cross a hot region. The reply retraces the
    /// request's route YX (§4.1), so the check routes `dst → src` on the
    /// reply vnet; endpoints are exempt for the same reason as in
    /// [`Ni::path_is_congested`] — a reply into or out of the hot region
    /// cannot avoid it, and a reservation still beats queueing there.
    /// Suppression is path-sensitive rather than per-source: a requestor
    /// far from the congestion keeps building circuits on clear paths,
    /// while any requestor whose reply would thread the jam falls back to
    /// Baseline-equivalent packet switching (no timed window to miss, no
    /// undo traffic when it inevitably would).
    fn mech_switch_suppresses(&mut self, spec: &PacketSpec, cong: &CongestionMap) -> bool {
        if !cong.suppress_active() {
            return false;
        }
        let reply = self.topology.route_path(spec.dst, spec.src, Routing::Yx);
        if Self::path_is_congested(&reply, cong) {
            self.circuits_suppressed += 1;
            true
        } else {
            false
        }
    }

    /// Re-injection of a scrounger at its intermediate node: same logical
    /// message, original timestamps, no new statistics.
    fn reenqueue_scrounger(&mut self, flit: &Flit, final_dst: NodeId, now: Cycle) {
        let mut pending = Pending {
            id: flit.packet,
            src: flit.src,
            dst: final_dst,
            class: flit.class,
            vnet: Vnet::Reply,
            len: flit.len,
            block: flit.block,
            token: flit.token,
            created_at: flit.created_at,
            injected_at: Some(flit.injected_at),
            circuit: None,
            on_circuit: None,
            scrounger_final: None,
            start_at: now,
            count_injection: false,
        };
        // A scrounger may chain onto another circuit from here.
        if self.mechanism.reuse_circuits && final_dst != self.node {
            if let Some(key) = self.best_scrounge_target(final_dst, now) {
                if !self.mechanism.scrounger_borrow {
                    self.origins.remove(&key);
                }
                let start = now.max(self.circuit_link_free_at);
                pending.dst = key.requestor;
                pending.on_circuit = Some(key);
                pending.scrounger_final = Some(final_dst);
                pending.start_at = start;
                self.circuit_link_free_at = start + flit.len as Cycle;
                self.circuit_queue.push_back(pending);
                return;
            }
        }
        self.queues[Vnet::Reply.index()].push_back(pending);
    }

    /// End-to-end retransmission of a packet lost or corrupted by the
    /// fault layer: same id, token and creation time, but a fresh plain
    /// packet-switched traversal — a replacement circuit would need a new
    /// request, so retries never ride one. Injection statistics are not
    /// recounted (the original injection already was).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reenqueue_retry(
        &mut self,
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        len: u32,
        block: u64,
        token: u64,
        created_at: Cycle,
        now: Cycle,
    ) {
        self.queues[class.vnet().index()].push_back(Pending {
            id,
            src,
            dst,
            class,
            vnet: class.vnet(),
            len,
            block,
            token,
            created_at,
            injected_at: None,
            circuit: None,
            on_circuit: None,
            scrounger_final: None,
            start_at: now,
            count_injection: false,
        });
    }

    /// How long a circuit must have sat idle before a scrounger may take
    /// it. Scrounging *consumes* the circuit (DESIGN.md §4b), so stealing
    /// one whose reply is imminent trades a cheap ride for an expensive
    /// packet-switched data reply; circuits this old belong to
    /// memory-latency transactions that barely notice the loss.
    const SCROUNGE_MIN_IDLE: Cycle = 120;

    /// The long-idle, untimed, fully built circuit from this NI whose
    /// endpoint is closest to (and strictly closer than this node to)
    /// `final_dst`.
    fn best_scrounge_target(&self, final_dst: NodeId, now: Cycle) -> Option<CircuitKey> {
        let here = self.topology.hop_count(self.node, final_dst);
        self.origins
            .iter()
            .filter(|(_, o)| {
                o.handle.fully_built()
                    && o.handle.timing.is_none()
                    && now.saturating_sub(o.registered_at) >= Self::SCROUNGE_MIN_IDLE
            })
            .map(|(k, _)| (*k, self.topology.hop_count(k.requestor, final_dst)))
            .filter(|&(_, d)| d < here)
            .min_by_key(|&(k, d)| (d, k.requestor.0, k.block))
            .map(|(k, _)| k)
    }

    /// One NI cycle: process ejected flits, then inject at most one flit
    /// into the router's local port (circuit streams have priority).
    /// Inputs are drained in place so the caller can reuse the buffers.
    ///
    /// Statistics-free: deliveries and the counted injection are surfaced
    /// through `out` and recorded into [`NocStats`] by the network (see
    /// [`NiOut::injection`]).
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        ejected: &mut Vec<Flit>,
        credit_arrivals: &mut Vec<usize>,
        topo: &TopologyHealth,
        cong: &CongestionMap,
        out: &mut NiOut,
    ) {
        out.undos.append(&mut self.pending_undos);
        for vc in credit_arrivals.drain(..) {
            self.credits[vc] += 1;
        }
        for flit in ejected.drain(..) {
            self.receive_flit(flit, now, cong, out);
        }
        self.inject_one(now, topo, cong, out);
    }

    /// `true` when a tick with no arriving flits or credits could still
    /// produce output: something is queued, streaming, or an undo is
    /// waiting to propagate. A `false` NI receiving no input this cycle
    /// is a provable no-op, so the event kernel may skip its tick.
    pub(crate) fn is_active(&self) -> bool {
        self.backlog() > 0 || !self.pending_undos.is_empty()
    }

    fn receive_flit(&mut self, flit: Flit, now: Cycle, cong: &CongestionMap, out: &mut NiOut) {
        let a = self.assembling.entry(flit.packet).or_default();
        a.received += 1;
        if flit.kind.is_head() {
            a.head = Some(flit.clone());
        }
        if !flit.kind.is_tail() {
            return;
        }
        let a = self
            .assembling
            .remove(&flit.packet)
            .expect("assembly entry exists for the tail's packet");
        debug_assert_eq!(a.received, flit.len, "flits lost or duplicated in transit");
        let head = a.head.expect("head received before tail");

        if head.corrupted {
            // Failed the integrity check: discard here (even a scrounger
            // leg — the data is bad everywhere) and let the network
            // schedule an end-to-end retransmission from the source.
            out.corrupt_discards.push(head.packet);
            return;
        }

        if let Some(final_dst) = head.scrounger_final {
            if final_dst != self.node {
                self.reenqueue_scrounger(&head, final_dst, now);
                return;
            }
        }

        if head.vnet == Vnet::Request {
            if let Some(path) = &head.path {
                // A detoured request: remember its route reversed so the
                // reply retraces it (path symmetry, DESIGN.md §10).
                let mut rev = path.as_ref().clone();
                rev.reverse();
                self.record_reply_path((head.src, head.block), cong.era(), rev);
            }
        }

        // The delivery statistic is replayed by the network from the
        // `Delivered` record below: its arguments — class, queueing delay
        // (`injected_at - created_at`) and network latency
        // (`delivered_at - injected_at`) — are all fields of the record,
        // so the replay is exact.
        let circuit = head.circuit.as_deref().copied();
        if let Some(h) = &circuit {
            let register = match self.mechanism.mode {
                CircuitMode::Complete | CircuitMode::Ideal => h.fully_built(),
                CircuitMode::Fragmented => h.built_hops > 0,
                CircuitMode::None => false,
            };
            if register {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitConfirm {
                        node: self.node.0,
                        requestor: h.key.requestor.0,
                        block: h.key.block,
                    },
                });
                self.origins.insert(
                    h.key,
                    Origin {
                        handle: *h,
                        registered_at: now,
                    },
                );
            }
        }
        out.delivered.push(Delivered {
            packet: head.packet,
            src: head.src,
            dst: self.node,
            class: head.class,
            block: head.block,
            token: head.token,
            created_at: head.created_at,
            injected_at: head.injected_at,
            delivered_at: now,
            circuit,
            // "Rode a circuit" means *its own* circuit: a scrounger ends
            // its circuit leg at an intermediate node and re-injects, so
            // it must not trigger ACK elision at the receiver (§4.6).
            rode_circuit: head.on_circuit.is_some() && head.scrounger_final.is_none(),
        });
    }

    fn inject_one(
        &mut self,
        now: Cycle,
        topo: &TopologyHealth,
        cong: &CongestionMap,
        out: &mut NiOut,
    ) {
        // Circuit streams first: they must hold their committed schedule.
        if self.circuit_active.is_none() {
            if let Some(p) = self.circuit_queue.front() {
                if p.start_at <= now {
                    let pending = self.circuit_queue.pop_front().expect("front checked");
                    let vc = if self.layout.circuit_vcs > 0 {
                        self.layout.circuit_vc(0)
                    } else {
                        0
                    };
                    self.circuit_active = Some(Stream {
                        pending,
                        next_seq: 0,
                        vc,
                    });
                }
            }
        }
        if let Some(mut s) = self.circuit_active.take() {
            let flit = self.emit_flit(&mut s, now, topo, cong, out);
            out.flits.push(flit);
            if s.next_seq < s.pending.len {
                self.circuit_active = Some(s);
            }
            return;
        }

        // Packet-switched: continue an in-flight stream or start one.
        self.collect_sendable();
        if self.sendable.is_empty() {
            self.try_activate(now);
            self.collect_sendable();
        }
        if let Some(vc) = self.rr_stream.grant_among(&self.sendable) {
            let mut s = self.streams[vc].take().expect("sendable stream exists");
            self.credits[vc] -= 1;
            let flit = self.emit_flit(&mut s, now, topo, cong, out);
            out.flits.push(flit);
            if s.next_seq < s.pending.len {
                self.streams[vc] = Some(s);
            }
        }
    }

    /// Rebuilds the scratch list of VCs with a stream and a credit.
    fn collect_sendable(&mut self) {
        self.sendable.clear();
        for vc in 0..self.layout.total() {
            if self.streams[vc].is_some() && self.credits[vc] > 0 {
                self.sendable.push(vc);
            }
        }
    }

    /// Starts a new packet-switched stream if a VC of its class is fully
    /// idle (all credits home, no local stream).
    fn try_activate(&mut self, _now: Cycle) {
        for attempt in 0..2 {
            let vn = (self.vnet_rr + attempt) % 2;
            let vnet = Vnet::ALL[vn];
            if self.queues[vn].is_empty() {
                continue;
            }
            let vc = self
                .layout
                .allocatable_vcs(vnet)
                .find(|&vc| self.streams[vc].is_none() && self.credits[vc] == self.buffer_depth);
            if let Some(vc) = vc {
                let pending = self.queues[vn]
                    .pop_front()
                    .expect("queue checked non-empty");
                self.streams[vc] = Some(Stream {
                    pending,
                    next_seq: 0,
                    vc,
                });
                self.vnet_rr = (vn + 1) % 2;
                return;
            }
        }
    }

    fn emit_flit(
        &mut self,
        s: &mut Stream,
        now: Cycle,
        topo: &TopologyHealth,
        cong: &CongestionMap,
        out: &mut NiOut,
    ) -> Flit {
        let p = &mut s.pending;
        let mut path = None;
        if s.next_seq == 0 {
            if p.injected_at.is_none() {
                p.injected_at = Some(now);
            }
            if p.count_injection {
                out.injection = Some((p.class, p.len));
            }
            // Scrounger legs and retransmissions re-emit: the breakdown
            // post-pass keeps the first injection per packet id.
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::NiInject {
                    packet: p.id.0,
                    node: self.node.0,
                },
            });
            if (topo.is_degraded() || cong.detour_active()) && p.dst != self.node {
                path = self.plan_detour(p, now, topo, cong, out);
            }
        }
        let kind = FlitKind::for_position(s.next_seq, p.len);
        let flit = Flit {
            packet: p.id,
            kind,
            seq: s.next_seq,
            len: p.len,
            src: p.src,
            dst: p.dst,
            class: p.class,
            vnet: p.vnet,
            vc: s.vc,
            circuit: if kind.is_head() {
                p.circuit.clone()
            } else {
                None
            },
            on_circuit: p.on_circuit,
            scrounger_final: p.scrounger_final,
            block: p.block,
            token: p.token,
            created_at: p.created_at,
            injected_at: p.injected_at.expect("set on head emission"),
            corrupted: false,
            path,
        };
        s.next_seq += 1;
        flit
    }

    /// When the packet's DOR route crosses a dead link or router — or a
    /// hot region the adaptive policy wants avoided — the detour to record
    /// in its head flit: the reversed route of the request it answers when
    /// a current-era one was recorded (path symmetry, DESIGN.md §10), else
    /// a deterministic BFS around the dead (and, when adaptation is on,
    /// hot) region. `None` when DOR is healthy and uncongested (the
    /// ordinary case, bit-identical to a fault-free run), when every
    /// healthy route crosses the hot region anyway, or when no healthy
    /// route exists at all — then the flit is emitted on DOR and, for
    /// faults, the end-to-end retry/abandon machinery takes over.
    // The Box matches `Flit::path`, which keeps the no-detour case
    // pointer-sized on every head flit.
    #[allow(clippy::box_collection)]
    fn plan_detour(
        &mut self,
        p: &mut Pending,
        now: Cycle,
        topo: &TopologyHealth,
        cong: &CongestionMap,
        out: &mut NiOut,
    ) -> Option<Box<Vec<NodeId>>> {
        let dor = self
            .topology
            .route_path(self.node, p.dst, Routing::for_vnet(p.vnet));
        let dor_healthy = path_is_healthy(&dor, topo);
        let dor_congested = cong.detour_active() && Self::path_is_congested(&dor, cong);
        if dor_healthy && !dor_congested {
            return None;
        }
        let my_router = self.topology.router_of(self.node);
        let recorded = if p.vnet == Vnet::Reply {
            self.reply_paths
                .remove(&(p.dst, p.block))
                .filter(|(era, r)| {
                    *era == cong.era()
                        && r.first() == Some(&my_router)
                        && path_is_healthy(r, topo)
                        // While adaptive detours are live, every reply-VN
                        // path must obey the east-last turn model (see
                        // `route_path_healthy_avoiding`). Reversed
                        // congestion detours comply by construction
                        // (reverse of west-first); a reversed *fault*
                        // detour may not — those replies re-plan instead.
                        && (!cong.detour_active() || self.path_obeys_east_last(r))
                })
                .map(|(_, r)| r)
        } else {
            None
        };
        let detour = recorded.or_else(|| {
            if cong.detour_active() {
                // Prefer a route that is both healthy and clear of hot
                // regions; when none exists, congestion alone is not
                // worth stalling for — fall through.
                if let Some(clear) = self.topology.route_path_healthy_avoiding(
                    self.node,
                    p.dst,
                    Routing::for_vnet(p.vnet),
                    topo,
                    cong,
                ) {
                    return Some(clear);
                }
            }
            if dor_healthy {
                None
            } else {
                self.topology.route_path_healthy(self.node, p.dst, topo)
            }
        })?;
        // A detoured request reserves nothing: the reservation mirror
        // assumes the reply retraces the request's DOR route (§4.1),
        // which the detour breaks.
        p.circuit = None;
        if dor_healthy {
            out.congestion_reroutes += 1;
        } else {
            out.reroutes += 1;
        }
        self.sink.emit(|| TraceEvent {
            cycle: now,
            kind: EventKind::NiReroute {
                packet: p.id.0,
                node: self.node.0,
            },
        });
        Some(Box::new(detour))
    }

    /// `true` when the recorded path satisfies the reply VN's east-last
    /// turn model: after its first East hop, every hop is East.
    fn path_obeys_east_last(&self, path: &[NodeId]) -> bool {
        let mut gone_east = false;
        for w in path.windows(2) {
            let east = self.topology.port_between(w[0], w[1]) == Some(rcsim_core::PORT_EAST);
            if gone_east && !east {
                return false;
            }
            gone_east |= east;
        }
        true
    }

    /// `true` when the routed path crosses a hot *interior* router. The
    /// endpoints are exempt: traffic into or out of a hot router cannot
    /// avoid it, so detouring such a packet would burn hops for nothing.
    fn path_is_congested(path: &[NodeId], cong: &CongestionMap) -> bool {
        path.len() > 2
            && path[1..path.len() - 1]
                .iter()
                .any(|r| cong.is_hot(r.index()))
    }

    /// Remembers the reversed route of a detoured request so its reply can
    /// retrace it, stamped with the current staleness era. Bounded: the
    /// oldest recorded route is evicted first.
    fn record_reply_path(&mut self, key: (NodeId, u64), era: u64, rev: Vec<NodeId>) {
        const REPLY_PATH_CAP: usize = 256;
        if self.reply_paths.insert(key, (era, rev)).is_none() {
            self.reply_path_order.push_back(key);
        }
        while self.reply_paths.len() > REPLY_PATH_CAP {
            let Some(old) = self.reply_path_order.pop_front() else {
                break;
            };
            self.reply_paths.remove(&old);
        }
    }

    /// Number of packets waiting or streaming (diagnostics).
    pub(crate) fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>()
            + self.circuit_queue.len()
            + self.streams.iter().flatten().count()
            + usize::from(self.circuit_active.is_some())
    }

    /// The full dynamic state, for checkpointing. Hash-keyed maps and
    /// sets are flattened to deterministically ordered vectors (sorted by
    /// key), so the snapshot bytes are a pure function of the simulation
    /// state. `reply_path_order` is captured verbatim — it is the
    /// eviction history, which legitimately holds keys already removed
    /// from the map (a consumed reply path leaves its order slot behind)
    /// and duplicates (a re-recorded path is pushed again), and the
    /// bounded eviction's future pops depend on exactly that sequence.
    pub(crate) fn snapshot(&self) -> NiSnapshot {
        let mut origins: Vec<(CircuitKey, Origin)> =
            self.origins.iter().map(|(k, o)| (*k, o.clone())).collect();
        origins.sort_by_key(|(k, _)| (k.requestor, k.block));
        let mut reply_paths: Vec<ReplyPathEntry> = self
            .reply_paths
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        reply_paths.sort_by_key(|&((node, block), _)| (node, block));
        let mut torn: Vec<CircuitKey> = self.torn.iter().copied().collect();
        torn.sort_by_key(|k| (k.requestor, k.block));
        let mut assembling: Vec<(PacketId, Assembly)> = self
            .assembling
            .iter()
            .map(|(k, a)| (*k, a.clone()))
            .collect();
        assembling.sort_by_key(|(k, _)| k.0);
        NiSnapshot {
            queues: self.queues.clone(),
            streams: self.streams.clone(),
            credits: self.credits.clone(),
            rr_stream: self.rr_stream.clone(),
            vnet_rr: self.vnet_rr,
            circuit_queue: self.circuit_queue.clone(),
            circuit_active: self.circuit_active.clone(),
            circuit_link_free_at: self.circuit_link_free_at,
            origins,
            reply_paths,
            reply_path_order: self.reply_path_order.clone(),
            torn,
            assembling,
            pending_undos: self.pending_undos.clone(),
            circuits_suppressed: self.circuits_suppressed,
        }
    }

    /// Overwrites the dynamic state from an [`Ni::snapshot`] taken on an
    /// identically-configured NI.
    pub(crate) fn restore(&mut self, snap: NiSnapshot) {
        self.queues = snap.queues;
        self.streams = snap.streams;
        self.credits = snap.credits;
        self.rr_stream = snap.rr_stream;
        self.vnet_rr = snap.vnet_rr;
        self.circuit_queue = snap.circuit_queue;
        self.circuit_active = snap.circuit_active;
        self.circuit_link_free_at = snap.circuit_link_free_at;
        self.reply_path_order = snap.reply_path_order;
        self.reply_paths = snap.reply_paths.into_iter().collect();
        self.origins = snap.origins.into_iter().collect();
        self.torn = snap.torn.into_iter().collect();
        self.assembling = snap.assembling.into_iter().collect();
        self.pending_undos = snap.pending_undos;
        self.circuits_suppressed = snap.circuits_suppressed;
    }
}

/// One saved reply path: `(requestor, block)` mapped to its recording
/// cycle and hop list.
type ReplyPathEntry = ((NodeId, u64), (u64, Vec<NodeId>));

/// Complete dynamic state of one [`Ni`], for checkpointing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct NiSnapshot {
    queues: [VecDeque<Pending>; 2],
    streams: Vec<Option<Stream>>,
    credits: Vec<u32>,
    rr_stream: RoundRobin,
    vnet_rr: usize,
    circuit_queue: VecDeque<Pending>,
    circuit_active: Option<Stream>,
    circuit_link_free_at: Cycle,
    origins: Vec<(CircuitKey, Origin)>,
    reply_paths: Vec<ReplyPathEntry>,
    reply_path_order: VecDeque<(NodeId, u64)>,
    torn: Vec<CircuitKey>,
    assembling: Vec<(PacketId, Assembly)>,
    pending_undos: Vec<(CircuitKey, NodeId)>,
    circuits_suppressed: u64,
}
