//! The 4-stage wormhole VC router with Reactive Circuits extensions.
//!
//! Pipeline (Table 4): a head flit that arrives at cycle *t* is buffered
//! and route-computed during *t* (stage 1), VC-allocated at *t+1*
//! (stage 2, **in parallel with the circuit reservation** of §4.1),
//! switch-allocated at *t+2* (stage 3) and traverses the crossbar at *t+3*
//! (stage 4), reaching the next router at *t+5* after the 1-cycle link —
//! 5 cycles per hop. A reply that finds its circuit reserved bypasses
//! stages 1–3 entirely: it crosses the router the cycle it arrives and
//! reaches the next router 2 cycles later (§4.3).

pub(crate) mod alloc;
mod input;

use crate::config::{NocConfig, VcLayout};
use crate::flit::{Flit, PacketId};
use crate::stats::Activity;
use alloc::RoundRobin;
use input::{InputPort, InputVc, VcState};
use rcsim_core::circuit::timing::{router_window, REQ_HOP_CYCLES};
use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
use rcsim_core::routing::Routing;
use rcsim_core::{CircuitMode, Cycle, MechanismConfig, NodeId, Topology, Vnet, PORT_LOCAL};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// A message leaving the router this cycle, to be routed by the network.
///
/// Ports are indices in `0..Topology::ports()`: 0–3 the N/E/S/W network
/// ports, 4.. the local (NI) ports — one per tile concentrated on this
/// router.
#[derive(Debug, Clone, PartialEq)]
pub enum Outgoing {
    /// A flit leaving through `port` (local ports eject to a tile's NI).
    Flit {
        /// Output port index.
        port: usize,
        /// The flit (its `vc` field is the downstream buffer index).
        flit: Flit,
        /// Cycle it reaches the neighbour router / NI.
        arrive: Cycle,
    },
    /// A credit returned upstream through input port `port` (local ports
    /// go to a tile's NI).
    Credit {
        /// The input port whose buffer slot was freed.
        port: usize,
        /// The VC the credit belongs to.
        vc: usize,
        /// Cycle it reaches the upstream router / NI.
        arrive: Cycle,
    },
    /// Circuit-undo information riding the credit channel (§4.4) towards
    /// the circuit destination `dst`.
    Undo {
        /// Port towards the next router on the circuit's path.
        port: usize,
        /// Circuit identity.
        key: CircuitKey,
        /// The circuit's destination node (the original requestor).
        dst: NodeId,
        /// Cycle it reaches the neighbour.
        arrive: Cycle,
    },
}

/// How one output VC is held by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Owner {
    /// Free for VC allocation.
    Free,
    /// Held by a packet streaming from `(in_port, in_vc)`.
    Owned(usize, usize),
    /// Tail has departed; waiting for all credits to return so the
    /// downstream VC is idle again.
    Draining,
}

/// One output port's state in the checkpoint format. The live router
/// keeps these fields in flat per-router arrays (`credits`, `owner`,
/// `busy`); [`Router::snapshot`] and [`Router::restore`] convert.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OutputPort {
    credits: Vec<u32>,
    owner: Vec<Owner>,
    busy: bool,
}

/// Outcome of checking whether a circuit-tagged flit can bypass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BypassCheck {
    /// Reservation present and the crossbar output is free: go.
    Ready,
    /// Reservation present but the output is in use this cycle: retry.
    Busy,
    /// No usable reservation: take the normal four-stage pipeline.
    Pipeline,
}

/// A switch-allocation grant awaiting switch traversal next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct StGrant {
    in_port: usize,
    in_vc: usize,
}

pub(crate) struct Router {
    /// Router id (`0..Topology::routers()`; equals the tile id only when
    /// the concentration is 1).
    node: NodeId,
    topology: Topology,
    /// Ports per router (`Topology::ports()`), cached.
    ports: usize,
    /// VCs per port (`VcLayout::total()`), cached.
    vcs_per_port: usize,
    layout: VcLayout,
    mechanism: MechanismConfig,
    buffer_depth: u32,
    link_latency: u32,
    inject_overhead: u32,
    /// Every input VC, port-major: VC `v` of input port `p` is slot
    /// `p * vcs_per_port + v` (see [`Router::slot`]).
    vcs: Vec<InputVc>,
    /// Bit `i` is set exactly when `vcs[i]` buffers at least one flit.
    live: Vec<u64>,
    /// Flits buffered across all input VCs.
    buffered: usize,
    /// Credits per output VC, slotted like `vcs` (output port-major).
    credits: Vec<u32>,
    /// Holder of each output VC, slotted like `credits`.
    owner: Vec<Owner>,
    /// Crossbar output used this cycle, per output port (circuits have
    /// priority, §4.3).
    busy: Vec<bool>,
    pub(crate) circuits: RouterCircuits,
    st_pending: Vec<StGrant>,
    /// Reused backing store for [`Router::stage_st`]'s grant sweep.
    st_scratch: Vec<StGrant>,
    /// The live VC slots (ascending) SA and VA walk this tick.
    live_scratch: Vec<usize>,
    /// Reused per-output-port requester lists for SA phase 2 and VA.
    by_out: Vec<Vec<usize>>,
    /// Reused per-port scratch for the SA/VA arbitration sweeps.
    sa_blocked: Vec<bool>,
    sa_nominee: Vec<Option<usize>>,
    arb_scratch: Vec<usize>,
    sa_rr_in: Vec<RoundRobin>,
    sa_rr_out: Vec<RoundRobin>,
    va_rr_out: Vec<RoundRobin>,
    /// Reused candidate list for the VC-allocation sweep.
    va_scratch: Vec<(Cycle, usize, Vnet, NodeId)>,
    /// Bypass flits that lost a same-cycle output conflict (ideal mode) or
    /// arrived while an earlier flit of the same stream is still queued.
    bypass_retry: Vec<VecDeque<Flit>>,
    /// Flits queued across `bypass_retry`.
    retry_queued: usize,
    /// `true` while this router is part of, or borders, a dead region
    /// (set by the network when scheduled permanent faults fire).
    /// Degraded routers take no part in circuits: reservations are
    /// refused and bypasses forced to the packet pipeline (DESIGN.md
    /// §10).
    degraded: bool,
    pub(crate) activity: Activity,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
}

impl Router {
    pub(crate) fn new(node: NodeId, cfg: &NocConfig) -> Self {
        let layout = cfg.vc_layout();
        let total = layout.total();
        let ports = cfg.topology.ports();
        let slots = ports * total;
        Self {
            node,
            topology: cfg.topology,
            ports,
            vcs_per_port: total,
            layout,
            mechanism: cfg.mechanism,
            buffer_depth: cfg.buffer_depth,
            link_latency: cfg.link_latency,
            inject_overhead: cfg.inject_overhead,
            vcs: (0..slots).map(|_| InputVc::new()).collect(),
            live: vec![0; slots.div_ceil(64)],
            buffered: 0,
            credits: vec![cfg.buffer_depth; slots],
            owner: vec![Owner::Free; slots],
            busy: vec![false; ports],
            circuits: RouterCircuits::with_ports(
                cfg.mechanism.mode,
                cfg.mechanism.max_circuits_per_input,
                cfg.mechanism.circuit_vcs().max(1),
                ports,
            ),
            st_pending: Vec::new(),
            st_scratch: Vec::new(),
            live_scratch: Vec::with_capacity(slots),
            by_out: (0..ports).map(|_| Vec::with_capacity(ports)).collect(),
            sa_blocked: vec![false; ports],
            sa_nominee: vec![None; ports],
            arb_scratch: Vec::with_capacity(ports),
            sa_rr_in: (0..ports).map(|_| RoundRobin::new(total)).collect(),
            sa_rr_out: (0..ports).map(|_| RoundRobin::new(ports)).collect(),
            va_rr_out: (0..ports).map(|_| RoundRobin::new(ports)).collect(),
            va_scratch: Vec::with_capacity(total),
            bypass_retry: (0..ports).map(|_| VecDeque::new()).collect(),
            retry_queued: 0,
            degraded: false,
            activity: Activity::default(),
            sink: TraceSink::default(),
        }
    }

    /// The slot of VC `vc` at port `port` in the flat per-router arrays.
    fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.vcs_per_port + vc
    }

    /// The output VCs at `out_port` a `vnet` packet bound for `dst` may
    /// claim. Dateline deadlock avoidance: on wrap topologies a packet
    /// crossing a network link may only claim VCs of its dateline class,
    /// which breaks the dependency cycle the wraparound links would
    /// otherwise close.
    fn allocatable_out_vcs(&self, out_port: usize, vnet: Vnet, dst: NodeId) -> Range<usize> {
        if self.topology.has_wrap() && out_port < PORT_LOCAL {
            let downstream = self
                .topology
                .neighbor(self.node, out_port)
                .expect("network port leads to a neighbor");
            let class = self
                .topology
                .vc_class(downstream, self.topology.router_of(dst), out_port);
            self.layout.allocatable_class_vcs(vnet, class as u8)
        } else {
            self.layout.allocatable_vcs(vnet)
        }
    }

    /// Appends `flit` to input VC slot `i`, keeping the live set and the
    /// buffered count in step.
    fn push_flit(&mut self, i: usize, flit: Flit) {
        self.vcs[i].buffer.push_back(flit);
        self.live[i / 64] |= 1 << (i % 64);
        self.buffered += 1;
    }

    /// Pops the head flit of input VC slot `i` (which must hold one),
    /// keeping the live set and the buffered count in step.
    fn pop_flit(&mut self, i: usize) -> Flit {
        let buffer = &mut self.vcs[i].buffer;
        let flit = buffer.pop_front().expect("granted VC has a flit");
        if buffer.is_empty() {
            self.live[i / 64] &= !(1 << (i % 64));
        }
        self.buffered -= 1;
        flit
    }

    /// Queues `flit` on input port `port`'s bypass retry queue.
    fn park(&mut self, port: usize, flit: Flit) {
        self.bypass_retry[port].push_back(flit);
        self.retry_queued += 1;
    }

    /// The incremental bookkeeping recomputed from the buffers: the
    /// live-VC bitset, the buffered-flit count and the queued bypass
    /// retries.
    fn recount(&self) -> (Vec<u64>, usize, usize) {
        let mut live = vec![0u64; self.live.len()];
        let mut buffered = 0;
        for (i, vc) in self.vcs.iter().enumerate() {
            if !vc.buffer.is_empty() {
                live[i / 64] |= 1 << (i % 64);
                buffered += vc.buffer.len();
            }
        }
        let retries = self.bypass_retry.iter().map(VecDeque::len).sum();
        (live, buffered, retries)
    }

    /// Checks the incremental bookkeeping (live-VC set, buffered count,
    /// queued retries) against a from-scratch recount.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_bookkeeping(&self) -> Result<(), String> {
        let (live, buffered, retries) = self.recount();
        if live != self.live || buffered != self.buffered || retries != self.retry_queued {
            return Err(format!(
                "{:?}: live {:x?}/{:x?} buffered {}/{} retries {}/{} (kept/recounted)",
                self.node, self.live, live, self.buffered, buffered, self.retry_queued, retries
            ));
        }
        Ok(())
    }

    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// Appends a human-readable dump of this router's non-idle pipeline
    /// state (waiting VCs, bypass retry queues, busy output VCs) — used
    /// by wedge-diagnosis assertions to show *where* traffic stuck.
    pub(crate) fn debug_dump(&self, out: &mut String) {
        use std::fmt::Write;
        let total = self.vcs_per_port;
        for (i, vc) in self.vcs.iter().enumerate() {
            if !vc.is_idle() {
                let (p, v) = (i / total, i % total);
                let head = vc
                    .buffer
                    .front()
                    .map(|f| (f.packet.0, f.kind, f.on_circuit.is_some()));
                writeln!(
                    out,
                    "  {:?} in[{p}][{v}] state={:?} since={} route={:?} out_vc={:?} buf={} head={:?}",
                    self.node, vc.state, vc.state_since, vc.route, vc.out_vc,
                    vc.buffer.len(), head
                )
                .ok();
            }
        }
        for (p, q) in self.bypass_retry.iter().enumerate() {
            if !q.is_empty() {
                let items: Vec<_> = q
                    .iter()
                    .map(|f| (f.packet.0, f.kind, f.vc, f.on_circuit.is_some()))
                    .collect();
                writeln!(out, "  {:?} bypass_retry[{p}]: {items:?}", self.node).ok();
            }
        }
        for o in 0..self.ports {
            let owned: Vec<_> = (0..total)
                .map(|v| (v, self.slot(o, v)))
                .filter(|&(_, i)| self.owner[i] != Owner::Free)
                .map(|(v, i)| format!("vc{v}={:?} cr{}", self.owner[i], self.credits[i]))
                .collect();
            if !owned.is_empty() {
                writeln!(out, "  {:?} out[{o}]: {owned:?}", self.node).ok();
            }
        }
        if !self.st_pending.is_empty() {
            writeln!(out, "  {:?} st_pending: {:?}", self.node, self.st_pending).ok();
        }
    }

    /// Marks this router as part of (or adjacent to) a dead region; the
    /// network re-derives the flag whenever a scheduled fault fires.
    pub(crate) fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Runs one cycle. `arrivals`, `credits` and `undos` are the messages
    /// reaching this router this cycle (drained in place so the caller can
    /// reuse the buffers); produced messages go into `out`.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        arrivals: &mut Vec<(usize, Flit)>,
        credits: &mut Vec<(usize, usize)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
        out: &mut Vec<Outgoing>,
    ) {
        self.busy.fill(false);
        // Stamp the table's clock so leak detection can age entries.
        self.circuits.note_now(now);

        // Credits (and the undo information they may carry, §4.4).
        for (port, vc) in credits.drain(..) {
            let i = self.slot(port, vc);
            self.credits[i] += 1;
            if self.owner[i] == Owner::Draining && self.credits[i] >= self.buffer_depth {
                self.owner[i] = Owner::Free;
            }
        }
        for (key, dst) in undos.drain(..) {
            self.process_undo(now, key, dst, out);
        }

        if self.mechanism.timed.is_timed() {
            // A few cycles of grace keep boundary-case replies (committed
            // at the very edge of their window) from losing their entries;
            // lookups are key-matched, so lingering entries are harmless.
            self.circuits.expire(now.saturating_sub(4));
        }

        // Retry queued bypass flits (in order per input), then arrivals.
        if self.retry_queued > 0 {
            self.drain_bypass_retries(now, out);
        }
        for (port, flit) in arrivals.drain(..) {
            self.receive(now, port, flit, out);
        }

        self.stage_st(now, out);
        // SA and VA only ever act on VCs that hold a flit; with none
        // buffered every arbiter would see an empty request set and keep
        // its pointer, so both stages are skipped outright.
        if self.buffered > 0 {
            // The live slots, ascending: (port, VC) order.
            self.live_scratch.clear();
            for (w, &word) in self.live.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    self.live_scratch
                        .push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            self.stage_sa(now);
            self.stage_va(now, out);
        }
    }

    /// `true` when a tick with no arriving messages could still change
    /// state: flits are buffered in the pipeline, a switch grant or
    /// bypass retry is pending, or a timed circuit entry is (over)due for
    /// expiry. A `false` router receiving nothing this cycle only resets
    /// `busy` flags, re-stamps the table clock and runs empty stage
    /// loops — all no-ops — so the event kernel may skip its tick.
    pub(crate) fn is_active(&self, now: Cycle) -> bool {
        if !self.st_pending.is_empty() || self.buffered > 0 || self.retry_queued > 0 {
            return true;
        }
        if self.mechanism.timed.is_timed() {
            // `tick` expires entries at `now - 4`; stay awake from the
            // cycle that check starts firing.
            if let Some(end) = self.circuits.next_expiry() {
                if now.saturating_sub(4) >= end {
                    return true;
                }
            }
        }
        false
    }

    /// Undo handling: clear the local reservation and forward the undo
    /// towards the circuit destination (it rides credits, 1 cycle/hop).
    fn process_undo(&mut self, now: Cycle, key: CircuitKey, dst: NodeId, out: &mut Vec<Outgoing>) {
        let port = match self.circuits.undo(key) {
            Some(entry) => {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitTear {
                        node: self.node.0,
                        requestor: key.requestor.0,
                        block: key.block,
                    },
                });
                entry.out_port
            }
            // No reservation here (fragmented gap, or already expired):
            // keep following the reply path towards the destination.
            None => {
                if self.node == self.topology.router_of(dst) {
                    return;
                }
                self.topology.next_hop_port(self.node, dst, Routing::Yx)
            }
        };
        if port < PORT_LOCAL {
            self.activity.credits += 1;
            out.push(Outgoing::Undo {
                port,
                key,
                dst,
                arrive: now + self.link_latency as Cycle,
            });
        }
    }

    fn drain_bypass_retries(&mut self, now: Cycle, out: &mut Vec<Outgoing>) {
        for p in 0..self.ports {
            while let Some(head) = self.bypass_retry[p].front() {
                let (key, is_head, vc) = (head.on_circuit, head.kind.is_head(), head.vc);
                match self.bypass_check(p, key, is_head) {
                    BypassCheck::Ready => {
                        let flit = self.bypass_retry[p].pop_front().expect("front checked");
                        self.retry_queued -= 1;
                        self.execute_bypass(now, p, flit, out);
                    }
                    BypassCheck::Busy => break,
                    BypassCheck::Pipeline => {
                        if is_head && !self.vcs[self.slot(p, vc)].is_idle() {
                            // The fallback VC is still draining an earlier
                            // packet: hold the stream here (in order) until
                            // it idles instead of corrupting the wormhole.
                            break;
                        }
                        let flit = self.bypass_retry[p].pop_front().expect("front checked");
                        self.retry_queued -= 1;
                        self.buffer_flit(now, p, flit);
                    }
                }
            }
        }
    }

    /// Whether a flit arriving on `port` with circuit tag `on_circuit`
    /// can take the bypass path right now.
    fn bypass_check(
        &mut self,
        port: usize,
        on_circuit: Option<CircuitKey>,
        is_head: bool,
    ) -> BypassCheck {
        let Some(key) = on_circuit else {
            return BypassCheck::Pipeline;
        };
        if self.degraded {
            // Circuits are disabled while this router borders a dead
            // region: drop the local reservation (if any, so it cannot
            // leak — the tail that would have released it now streams
            // through the pipeline) and fall back.
            self.circuits.release(port, key);
            return BypassCheck::Pipeline;
        }
        let Some(entry) = self.circuits.lookup(port, key).copied() else {
            // No reservation here: a fragmented gap, or a head that
            // already fell back and released the entry.
            return BypassCheck::Pipeline;
        };
        if self.mechanism.mode == CircuitMode::Fragmented && is_head && entry.out_port < PORT_LOCAL
        {
            // Fragmented circuits keep buffers: the downstream circuit VC
            // must be able to hold the whole message in case its own
            // reservation there is missing (§4.2 "messages can always be
            // stored"). Without that guarantee the message takes the
            // pipeline here instead, and the local reservation is freed.
            let gvc = self
                .layout
                .circuit_vc(entry.vc as usize % self.layout.circuit_vcs);
            // A head needs the downstream VC completely idle (all credits
            // home), like the packet-switched Draining rule.
            if self.credits[self.slot(entry.out_port, gvc)] < self.buffer_depth {
                self.circuits.release(port, key);
                return BypassCheck::Pipeline;
            }
        }
        if self.busy[entry.out_port] {
            // Ideal mode resolves collisions per cycle (§4.8); fragmented
            // circuits may share an output port through different circuit
            // VCs. The complete-circuit conflict rules make this
            // unreachable for `Complete`.
            debug_assert!(
                self.mechanism.mode != CircuitMode::None,
                "baseline never bypasses"
            );
            return BypassCheck::Busy;
        }
        BypassCheck::Ready
    }

    /// Arrival processing: circuit check first (§4.3), else stage 1
    /// (buffer write + route computation).
    fn receive(&mut self, now: Cycle, port: usize, flit: Flit, out: &mut Vec<Outgoing>) {
        if flit.on_circuit.is_some() {
            self.activity.circuit_lookups += 1;
            // Keep stream order: if earlier flits of this input are already
            // queued for retry, queue behind them.
            if !self.bypass_retry[port].is_empty() {
                self.park(port, flit);
                return;
            }
            match self.bypass_check(port, flit.on_circuit, flit.kind.is_head()) {
                BypassCheck::Ready => {
                    self.execute_bypass(now, port, flit, out);
                    return;
                }
                BypassCheck::Busy => {
                    self.park(port, flit);
                    return;
                }
                BypassCheck::Pipeline => {}
            }
        }
        self.buffer_flit(now, port, flit);
    }

    /// One-cycle circuit traversal: straight through the crossbar (§4.3).
    fn execute_bypass(&mut self, now: Cycle, port: usize, mut flit: Flit, out: &mut Vec<Outgoing>) {
        let key = flit.on_circuit.expect("bypass requires a circuit key");
        let entry = *self
            .circuits
            .lookup(port, key)
            .expect("caller checked the entry exists");
        if flit.kind.is_head() {
            self.circuits.begin_use(port, key);
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::CircuitBypass {
                    packet: flit.packet.0,
                    node: self.node.0,
                },
            });
        }
        if flit.kind.is_tail() {
            if flit.scrounger_final.is_some() && self.mechanism.scrounger_borrow {
                // Borrowing scrounger: the circuit survives for its own
                // reply. If an undo raced the borrow, the entry comes
                // back here — the undo already continued downstream, so
                // dropping it completes the teardown.
                self.circuits.end_use(port, key);
            } else {
                // The tail clears the built-circuit bit (§4.3);
                // consuming scroungers release the same way (DESIGN.md).
                self.circuits.release(port, key);
            }
        }
        // A bypassed flit never occupies the buffer slot its VC credit paid
        // for; return the credit immediately (not needed on the bufferless
        // complete-mode circuit VC, whose flits are uncredited).
        let arrived_buffered =
            !self.layout.is_circuit_vc(flit.vc) || self.mechanism.circuit_vc_buffered();
        if arrived_buffered {
            self.activity.credits += 1;
            out.push(Outgoing::Credit {
                port,
                vc: flit.vc,
                arrive: now + self.link_latency as Cycle,
            });
        }
        self.busy[entry.out_port] = true;
        self.activity.xbar_traversals += 1;
        flit.vc = if self.layout.circuit_vcs > 0 {
            self.layout
                .circuit_vc(entry.vc as usize % self.layout.circuit_vcs.max(1))
        } else {
            flit.vc
        };
        // Fragmented circuit VCs are buffered and credited; the bypass
        // consumes the downstream slot it may need at a gap router.
        if self.mechanism.mode == CircuitMode::Fragmented && entry.out_port < PORT_LOCAL {
            let o = self.slot(entry.out_port, flit.vc);
            self.credits[o] = self.credits[o]
                .checked_sub(1)
                .expect("fragmented bypass head verified whole-message credits");
        }
        let arrive = if entry.out_port >= PORT_LOCAL {
            now + 1
        } else {
            self.activity.link_flits += 1;
            now + 1 + self.link_latency as Cycle
        };
        out.push(Outgoing::Flit {
            port: entry.out_port,
            flit,
            arrive,
        });
    }

    /// Stage 1: buffer write and route computation.
    fn buffer_flit(&mut self, now: Cycle, port: usize, flit: Flit) {
        let i = self.slot(port, flit.vc);
        if flit.kind.is_head() && !self.vcs[i].is_idle() {
            // A head whose fallback VC is still draining an earlier
            // packet — e.g. a timed circuit stream that lost its window
            // behind a stuck port and degraded to the pipeline. It must
            // wait, not corrupt the wormhole: park it with the bypass
            // retries ([`Router::drain_bypass_retries`] holds it until
            // the VC idles, and the non-empty queue keeps its body flits
            // behind it in arrival order).
            self.park(port, flit);
            return;
        }
        self.activity.buffer_writes += 1;
        if flit.kind.is_head() {
            // Detoured packets follow the source route recorded in their
            // head (DESIGN.md §10); everything else routes DOR.
            let routing = Routing::for_vnet(flit.vnet);
            let hop = flit
                .path
                .as_deref()
                .and_then(|p| self.topology.next_hop_on_path(p, self.node, flit.dst))
                .unwrap_or_else(|| self.topology.next_hop_port(self.node, flit.dst, routing));
            let vc = &mut self.vcs[i];
            vc.route = Some(hop);
            vc.state = VcState::WaitVa;
            vc.state_since = now;
            vc.circuit_attempted = false;
        }
        self.push_flit(i, flit);
    }

    /// Stage 4: switch traversal for last cycle's SA winners. Circuit
    /// bypasses processed earlier this cycle have already claimed their
    /// output ports (crossbar priority, §4.3); blocked grants retry.
    fn stage_st(&mut self, now: Cycle, out: &mut Vec<Outgoing>) {
        // Swap the grant list into scratch so blocked grants can re-queue
        // onto `st_pending` without reallocating either vector.
        std::mem::swap(&mut self.st_pending, &mut self.st_scratch);
        for k in 0..self.st_scratch.len() {
            let g = self.st_scratch[k];
            let i = self.slot(g.in_port, g.in_vc);
            let vc = &self.vcs[i];
            let route = vc.route.expect("granted VC has a route");
            let out_vc = vc.out_vc.expect("granted VC has an output VC");
            if self.busy[route] {
                self.st_pending.push(g);
                continue;
            }
            let mut flit = self.pop_flit(i);
            let is_tail = flit.kind.is_tail();
            if is_tail {
                self.vcs[i].reset(now);
            }
            if flit.kind.is_head() {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::StageSt {
                        packet: flit.packet.0,
                        node: self.node.0,
                    },
                });
            }
            self.activity.buffer_reads += 1;
            self.activity.xbar_traversals += 1;

            // Return the freed buffer slot upstream.
            self.activity.credits += 1;
            out.push(Outgoing::Credit {
                port: g.in_port,
                vc: g.in_vc,
                arrive: now + self.link_latency as Cycle,
            });

            self.busy[route] = true;
            let o = self.slot(route, out_vc);
            flit.vc = out_vc;
            let arrive = if route >= PORT_LOCAL {
                now + 1
            } else {
                self.credits[o] = self.credits[o]
                    .checked_sub(1)
                    .expect("SA checked a credit was available");
                self.activity.link_flits += 1;
                now + 1 + self.link_latency as Cycle
            };
            if is_tail {
                self.owner[o] = if route >= PORT_LOCAL {
                    Owner::Free
                } else {
                    Owner::Draining
                };
            }
            out.push(Outgoing::Flit {
                port: route,
                flit,
                arrive,
            });
        }
        self.st_scratch.clear();
    }

    /// Whether live VC slot `i` requests the switch this cycle: past VA
    /// (and out of its VA cycle) with a credit for its output VC.
    fn wants_switch(&self, now: Cycle, i: usize) -> bool {
        let vc = &self.vcs[i];
        debug_assert!(!vc.buffer.is_empty(), "only live VCs are asked");
        let stage_ok = match vc.state {
            VcState::WaitSa => vc.state_since < now,
            VcState::Active => true,
            _ => false,
        };
        if !stage_ok {
            return false;
        }
        let route = vc.route.expect("post-VA VC has a route");
        let out_vc = vc.out_vc.expect("post-VA VC has an output VC");
        route >= PORT_LOCAL
            || self.credits[self.slot(route, out_vc)] > 0
            // Circuit-class VCs are reservation-managed, not
            // credited (fragmented gap traffic).
            || self.layout.is_circuit_vc(out_vc)
    }

    /// Stage 3: two-phase round-robin switch allocation over the live VCs
    /// (`live_scratch`); winners traverse the crossbar next cycle. An
    /// arbiter is consulted only when it has a requester — one with none
    /// would return no grant and keep its pointer, so skipping it is
    /// exact (DESIGN.md §16).
    fn stage_sa(&mut self, now: Cycle) {
        let total = self.vcs_per_port;
        // Inputs with a grant still pending ST cannot be granted again.
        self.sa_blocked.fill(false);
        for g in &self.st_pending {
            self.sa_blocked[g.in_port] = true;
        }
        // Phase 1: each input port nominates one VC. Live slots come
        // port by port in ascending order.
        self.sa_nominee.fill(None);
        let live = std::mem::take(&mut self.live_scratch);
        let mut requests = std::mem::take(&mut self.arb_scratch);
        for port_slots in live.chunk_by(|a, b| a / total == b / total) {
            let p = port_slots[0] / total;
            if self.sa_blocked[p] {
                continue;
            }
            requests.clear();
            requests.extend(
                port_slots
                    .iter()
                    .filter(|&&i| self.wants_switch(now, i))
                    .map(|&i| i - p * total),
            );
            if !requests.is_empty() {
                self.sa_nominee[p] = self.sa_rr_in[p].grant_among(&requests);
            }
        }
        self.live_scratch = live;
        self.arb_scratch = requests;
        // Phase 2: each output port picks one nominating input.
        for contenders in &mut self.by_out {
            contenders.clear();
        }
        for p in 0..self.ports {
            if let Some(v) = self.sa_nominee[p] {
                let route = self.vcs[self.slot(p, v)]
                    .route
                    .expect("post-VA VC has a route");
                self.by_out[route].push(p);
            }
        }
        for out_port in 0..self.ports {
            if self.by_out[out_port].is_empty() {
                continue;
            }
            let Some(winner) = self.sa_rr_out[out_port].grant_among(&self.by_out[out_port]) else {
                continue;
            };
            let v = self.sa_nominee[winner].expect("winner nominated a VC");
            let i = self.slot(winner, v);
            let vc = &mut self.vcs[i];
            if vc.state == VcState::WaitSa {
                vc.state = VcState::Active;
                vc.state_since = now;
                let head = vc.buffer.front().expect("granted VC holds a flit");
                if head.kind.is_head() {
                    let packet = head.packet.0;
                    self.sink.emit(|| TraceEvent {
                        cycle: now,
                        kind: EventKind::StageSa {
                            packet,
                            node: self.node.0,
                        },
                    });
                }
            }
            self.activity.sw_allocs += 1;
            self.st_pending.push(StGrant {
                in_port: winner,
                in_vc: v,
            });
        }
    }

    /// Stage 2: VC allocation over the live VCs (`live_scratch`) — and,
    /// in parallel, the reactive-circuit reservation for request packets
    /// (§4.1).
    fn stage_va(&mut self, now: Cycle, out: &mut Vec<Outgoing>) {
        let total = self.vcs_per_port;
        // One pass over the live VCs: circuit reservations happen on the
        // first VA attempt, whether or not the VC wins allocation this
        // cycle, and every waiting VC joins its output port's requester
        // list (slot order, so input ports come ascending).
        for requesters in &mut self.by_out {
            requesters.clear();
        }
        for k in 0..self.live_scratch.len() {
            let i = self.live_scratch[k];
            let vc = &self.vcs[i];
            if vc.state != VcState::WaitVa || vc.state_since >= now {
                continue;
            }
            let route = vc.route.expect("WaitVa VC has a route");
            if !vc.circuit_attempted {
                self.attempt_reservation(now, i / total, i % total, out);
            }
            self.by_out[route].push(i);
        }

        // Two-phase allocation: one grant per output port per cycle,
        // round-robin over input ports. Output ports without requesters
        // leave their arbiters untouched.
        let mut tried = std::mem::take(&mut self.arb_scratch);
        for out_port in 0..self.ports {
            if self.by_out[out_port].is_empty() {
                continue;
            }
            tried.clear();
            for &i in &self.by_out[out_port] {
                let p = i / total;
                if tried.last() != Some(&p) {
                    tried.push(p);
                }
            }
            // Check a free output VC exists for at least one contender
            // class; pick the winner first (RR), then the VC.
            let mut granted = false;
            while !granted && !tried.is_empty() {
                let Some(winner) = self.va_rr_out[out_port].grant_among(&tried) else {
                    break;
                };
                let pos = tried
                    .iter()
                    .position(|&p| p == winner)
                    .expect("winner came from the candidate list");
                tried.remove(pos);
                // The winning input port's WaitVa VCs for this output,
                // walked in age order (oldest first, ties by VC index):
                // the first candidate whose class has a free output VC
                // wins. An unallocatable oldest VC therefore never blocks
                // a younger one of another virtual network behind it
                // (tests/echo_probe.rs).
                let mut candidates = std::mem::take(&mut self.va_scratch);
                candidates.clear();
                candidates.extend(
                    self.by_out[out_port]
                        .iter()
                        .filter(|&&i| i / total == winner)
                        .map(|&i| {
                            let vc = &self.vcs[i];
                            let head = vc.buffer.front().expect("WaitVa VC holds its head");
                            (vc.state_since, i % total, head.vnet, head.dst)
                        }),
                );
                candidates.sort_unstable_by_key(|&(since, v, _, _)| (since, v));
                for &(_, v, vnet, dst) in &candidates {
                    let free_vc = self
                        .allocatable_out_vcs(out_port, vnet, dst)
                        .find(|&ovc| self.owner[self.slot(out_port, ovc)] == Owner::Free);
                    if let Some(ovc) = free_vc {
                        let o = self.slot(out_port, ovc);
                        self.owner[o] = Owner::Owned(winner, v);
                        let i = self.slot(winner, v);
                        let vc = &mut self.vcs[i];
                        vc.out_vc = Some(ovc);
                        vc.state = VcState::WaitSa;
                        vc.state_since = now;
                        let packet = vc
                            .buffer
                            .front()
                            .expect("WaitVa VC holds its head")
                            .packet
                            .0;
                        self.sink.emit(|| TraceEvent {
                            cycle: now,
                            kind: EventKind::StageVa {
                                packet,
                                node: self.node.0,
                            },
                        });
                        self.activity.vc_allocs += 1;
                        granted = true;
                        break;
                    }
                }
                self.va_scratch = candidates;
            }
        }
        self.arb_scratch = tried;
    }

    /// Number of flits buffered across all input VCs (occupancy telemetry
    /// and whitebox tests).
    pub(crate) fn buffered_flits(&self) -> usize {
        self.buffered
    }

    /// The §4.1 reservation: while the request head sits in VA, write the
    /// reply's circuit into this router's tables.
    fn attempt_reservation(&mut self, now: Cycle, p: usize, v: usize, out: &mut Vec<Outgoing>) {
        let i = self.slot(p, v);
        let vc = &mut self.vcs[i];
        vc.circuit_attempted = true;
        let route = vc.route.expect("WaitVa VC has a route");
        let head = vc.buffer.front_mut().expect("WaitVa VC holds its head");
        let Some(handle) = head.circuit.as_deref_mut() else {
            return;
        };
        if handle.failed {
            return;
        }
        // Reply direction through this router: it arrives from where the
        // request is going and leaves where the request came from.
        let in_port_reply = route;
        let out_port_reply = p;
        if self.degraded {
            // A degraded router refuses reservations outright: complete
            // circuits are doomed like any reservation conflict, while
            // fragmented and ideal circuits simply gain a gap here.
            if self.mechanism.mode == CircuitMode::Complete {
                handle.failed = true;
                if handle.built_hops > 0 {
                    let key = handle.key;
                    self.activity.credits += 1;
                    out.push(Outgoing::Undo {
                        port: out_port_reply,
                        key,
                        dst: key.requestor,
                        arrive: now + self.link_latency as Cycle,
                    });
                }
            }
            return;
        }
        if self.topology.is_wrap_hop(self.node, in_port_reply)
            || self.topology.is_wrap_hop(self.node, out_port_reply)
        {
            // Circuit reservations never span a wraparound link: a reply
            // streaming through the bypass would skip the dateline VC
            // switch and close the channel-dependency cycle the dateline
            // exists to break. Complete circuits are doomed like any
            // reservation conflict; fragmented and ideal ones simply gain
            // a gap at the dateline router.
            if self.mechanism.mode == CircuitMode::Complete {
                handle.failed = true;
                if handle.built_hops > 0 {
                    let key = handle.key;
                    self.activity.credits += 1;
                    out.push(Outgoing::Undo {
                        port: out_port_reply,
                        key,
                        dst: key.requestor,
                        arrive: now + self.link_latency as Cycle,
                    });
                }
            }
            return;
        }
        let h_req = self
            .topology
            .distance(self.node, self.topology.router_of(head.dst));

        let (window, max_extra_shift, nominal, slack) = match handle.timing {
            Some(t) => {
                let nominal = now
                    + (REQ_HOP_CYCLES * h_req) as Cycle
                    + handle.turnaround as Cycle
                    + self.inject_overhead as Cycle;
                let slack = self.mechanism.timed.slack(handle.path_hops);
                // `nominal` is the reply's *injection* time at its NI; it
                // occupies this router one cycle later (NI→router link).
                let w = router_window(nominal + 1, t.shift, h_req, handle.reply_flits, slack);
                (Some(w), t.max_shift - t.shift, nominal, slack)
            }
            None => (None, 0, 0, 0),
        };

        let req = ReserveRequest {
            key: handle.key,
            source: handle.source,
            in_port: in_port_reply,
            out_port: out_port_reply,
            window,
            max_extra_shift,
        };
        let key = handle.key;
        match self.circuits.try_reserve(&req) {
            Ok(outcome) => {
                handle.built_hops += 1;
                self.activity.circuit_writes += 1;
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitReserve {
                        node: self.node.0,
                        requestor: key.requestor.0,
                        block: key.block,
                    },
                });
                if let Some(t) = handle.timing.as_mut() {
                    t.shift += outcome.extra_shift;
                    t.narrow(nominal, slack);
                    if !t.feasible() {
                        // A delayed request can no longer meet the earlier
                        // routers' windows: doom the circuit now.
                        handle.failed = true;
                        let key = handle.key;
                        let dst = key.requestor;
                        self.process_undo(now, key, dst, out);
                    }
                }
            }
            Err(_) => {
                self.sink.emit(|| TraceEvent {
                    cycle: now,
                    kind: EventKind::CircuitConflict {
                        node: self.node.0,
                        requestor: key.requestor.0,
                        block: key.block,
                    },
                });
                match self.mechanism.mode {
                    CircuitMode::Complete => {
                        handle.failed = true;
                        let built = handle.built_hops;
                        if built > 0 {
                            self.activity.credits += 1;
                            out.push(Outgoing::Undo {
                                port: out_port_reply,
                                key,
                                dst: key.requestor,
                                arrive: now + self.link_latency as Cycle,
                            });
                        }
                    }
                    // Fragmented circuits keep the partial prefix and try
                    // again at the next hop (§4.2).
                    CircuitMode::Fragmented => {}
                    CircuitMode::None | CircuitMode::Ideal => {
                        unreachable!("these modes never fail reservations")
                    }
                }
            }
        }
    }

    /// The full dynamic state, for checkpointing. Taken at tick
    /// boundaries, where the per-tick scratch vectors (`st_scratch`,
    /// `live_scratch`, `by_out`, `sa_blocked`, `sa_nominee`,
    /// `arb_scratch`, `va_scratch`) are dead and the `busy` flags stale —
    /// everything else is configuration, rebuilt from the [`NocConfig`],
    /// or bookkeeping derived from the buffers. The flat per-router
    /// arrays are regrouped per port, the checkpoint format.
    pub(crate) fn snapshot(&self) -> RouterSnapshot {
        let total = self.vcs_per_port;
        let per_port = |p: usize| p * total..(p + 1) * total;
        RouterSnapshot {
            inputs: (0..self.ports)
                .map(|p| InputPort {
                    vcs: self.vcs[per_port(p)].to_vec(),
                })
                .collect(),
            outputs: (0..self.ports)
                .map(|o| OutputPort {
                    credits: self.credits[per_port(o)].to_vec(),
                    owner: self.owner[per_port(o)].to_vec(),
                    busy: self.busy[o],
                })
                .collect(),
            circuits: self.circuits.clone(),
            st_pending: self.st_pending.clone(),
            sa_rr_in: self.sa_rr_in.clone(),
            sa_rr_out: self.sa_rr_out.clone(),
            va_rr_out: self.va_rr_out.clone(),
            bypass_retry: self.bypass_retry.clone(),
            degraded: self.degraded,
            activity: self.activity,
        }
    }

    /// Overwrites the dynamic state from a [`Router::snapshot`] taken on
    /// an identically-configured router, then recounts the bookkeeping.
    pub(crate) fn restore(&mut self, snap: RouterSnapshot) {
        self.vcs = snap.inputs.into_iter().flat_map(|p| p.vcs).collect();
        self.credits.clear();
        self.owner.clear();
        self.busy.clear();
        for o in snap.outputs {
            self.credits.extend(o.credits);
            self.owner.extend(o.owner);
            self.busy.push(o.busy);
        }
        self.circuits = snap.circuits;
        self.st_pending = snap.st_pending;
        self.sa_rr_in = snap.sa_rr_in;
        self.sa_rr_out = snap.sa_rr_out;
        self.va_rr_out = snap.va_rr_out;
        self.bypass_retry = snap.bypass_retry;
        self.degraded = snap.degraded;
        self.activity = snap.activity;
        (self.live, self.buffered, self.retry_queued) = self.recount();
    }

    /// Reports every input VC that is blocked on a channel resource,
    /// with the exact resources it waits on — this router's slice of
    /// the network-level wait-for graph (deadlock diagnosis). Mirrors
    /// the allocator rules: a post-VA VC is blocked when its allocated
    /// output VC has no credits; a `WaitVa` VC is blocked when *no* VC
    /// in its allocatable class is free. Only runs on the cold
    /// watchdog path, so it allocates freely.
    pub(crate) fn waiters(&self, now: Cycle, out: &mut Vec<VcWaiter>) {
        let total = self.vcs_per_port;
        for p in 0..self.ports {
            let port = &self.vcs[p * total..(p + 1) * total];
            for (v, vc) in port.iter().enumerate() {
                if vc.is_idle() {
                    continue;
                }
                let Some(route) = vc.route else { continue };
                if route >= PORT_LOCAL {
                    // Ejection waits never close a channel cycle.
                    continue;
                }
                let Some(head) = vc.buffer.front() else {
                    continue;
                };
                let o_credits = &self.credits[route * total..(route + 1) * total];
                let o_owner = &self.owner[route * total..(route + 1) * total];
                let mut edges = Vec::new();
                let credits = match vc.out_vc {
                    Some(ov) => {
                        if o_credits[ov] == 0 && !self.layout.is_circuit_vc(ov) {
                            edges.push(WaitEdge::Downstream { out_vc: ov });
                        }
                        o_credits[ov]
                    }
                    None if vc.state == VcState::WaitVa => {
                        let cands = self.allocatable_out_vcs(route, head.vnet, head.dst);
                        if cands.clone().all(|ovc| o_owner[ovc] != Owner::Free) {
                            for ovc in cands {
                                match o_owner[ovc] {
                                    Owner::Owned(hp, hv) => {
                                        edges.push(WaitEdge::Local {
                                            in_port: hp,
                                            vc: hv,
                                        });
                                    }
                                    Owner::Draining => {
                                        edges.push(WaitEdge::Downstream { out_vc: ovc });
                                    }
                                    Owner::Free => {}
                                }
                            }
                        }
                        0
                    }
                    None => 0,
                };
                if edges.is_empty() {
                    continue;
                }
                edges.sort_unstable();
                edges.dedup();
                let held_by_circuit = self
                    .circuits
                    .stale_entries(now, 0)
                    .into_iter()
                    .find(|(_, e, _)| e.out_port == route)
                    .map(|(_, e, _)| e.key);
                out.push(VcWaiter {
                    in_port: p,
                    vc: v,
                    packet: Some(head.packet),
                    wants_port: route,
                    out_vc: vc.out_vc,
                    credits,
                    held_by_circuit,
                    edges,
                });
            }
        }
    }
}

/// How one blocked input VC waits on another resource, as reported by
/// [`Router::waiters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum WaitEdge {
    /// Waits for a same-router input VC to finish streaming: the wanted
    /// output VC is owned by it.
    Local {
        /// Input port of the owning VC.
        in_port: usize,
        /// VC index of the owning VC.
        vc: usize,
    },
    /// Waits for the downstream input VC to drain: the wanted output VC
    /// has no credits left, or is draining back to idle.
    Downstream {
        /// The output VC waited on (equals the downstream input VC).
        out_vc: usize,
    },
}

/// One blocked input VC and everything it waits on — a node of the
/// network's wait-for graph plus its outgoing edges.
#[derive(Debug, Clone)]
pub(crate) struct VcWaiter {
    /// Input port of the blocked VC.
    pub in_port: usize,
    /// VC index of the blocked VC.
    pub vc: usize,
    /// Head packet buffered in it.
    pub packet: Option<PacketId>,
    /// Output port the route computation picked.
    pub wants_port: usize,
    /// Allocated output VC, if VC allocation already succeeded.
    pub out_vc: Option<usize>,
    /// Credits left on the allocated output VC (0 when credit-blocked
    /// or still waiting for allocation).
    pub credits: u32,
    /// Circuit reservation pinning the wanted output port, if any.
    pub held_by_circuit: Option<CircuitKey>,
    /// Everything this VC is blocked behind (never empty).
    pub edges: Vec<WaitEdge>,
}

/// Complete dynamic state of one [`Router`], for checkpointing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RouterSnapshot {
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    circuits: RouterCircuits,
    st_pending: Vec<StGrant>,
    sa_rr_in: Vec<RoundRobin>,
    sa_rr_out: Vec<RoundRobin>,
    va_rr_out: Vec<RoundRobin>,
    bypass_retry: Vec<VecDeque<Flit>>,
    degraded: bool,
    activity: Activity,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, PacketId};
    use rcsim_core::{MechanismConfig, Mesh, MessageClass, Vnet, PORT_EAST, PORT_NORTH, PORT_WEST};

    fn router(mechanism: MechanismConfig) -> Router {
        let mesh = Mesh::new(4, 4).expect("valid");
        // Router at n5 = (1,1): all four neighbours exist.
        Router::new(NodeId(5), &NocConfig::paper_baseline(mesh, mechanism))
    }

    fn flit(kind: FlitKind, seq: u32, len: u32, dst: u16, vc: usize) -> Flit {
        Flit {
            packet: PacketId(1),
            kind,
            seq,
            len,
            src: NodeId(4),
            dst: NodeId(dst),
            class: MessageClass::L1Request,
            vnet: Vnet::Request,
            vc,
            circuit: None,
            on_circuit: None,
            scrounger_final: None,
            block: 0x40,
            token: 0,
            created_at: 0,
            injected_at: 0,
            corrupted: false,
            path: None,
        }
    }

    fn tick(r: &mut Router, now: Cycle, mut arrivals: Vec<(usize, Flit)>) -> Vec<Outgoing> {
        let mut out = Vec::new();
        r.tick(
            now,
            &mut arrivals,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// The Table 4 pipeline takes exactly four cycles in the router: a
    /// head arriving at cycle 0 departs on the link during the tick at
    /// cycle 3 (RC@0, VA@1, SA@2, ST@3).
    #[test]
    fn single_flit_takes_four_router_cycles() {
        let mut r = router(MechanismConfig::baseline());
        // Head-tail toward n6 = (2,1): East of n5, arriving from the West.
        let f = flit(FlitKind::HeadTail, 0, 1, 6, 0);
        let out = tick(&mut r, 0, vec![(PORT_WEST, f)]);
        assert!(out.is_empty(), "cycle 0: buffered + route computed");
        assert!(tick(&mut r, 1, vec![]).is_empty(), "cycle 1: VC allocation");
        assert!(
            tick(&mut r, 2, vec![]).is_empty(),
            "cycle 2: switch allocation"
        );
        let out = tick(&mut r, 3, vec![]);
        let sent = out
            .iter()
            .find_map(|o| match o {
                Outgoing::Flit { port, arrive, .. } => Some((*port, *arrive)),
                _ => None,
            })
            .expect("cycle 3: switch traversal");
        assert_eq!(sent.0, PORT_EAST);
        assert_eq!(sent.1, 3 + 2, "one ST cycle + one link cycle");
        // The freed buffer slot returns upstream as a credit.
        assert!(out.iter().any(|o| matches!(
            o,
            Outgoing::Credit {
                port: PORT_WEST,
                vc: 0,
                ..
            }
        )));
        assert_eq!(r.buffered_flits(), 0);
    }

    /// Body flits stream one per cycle behind the head.
    #[test]
    fn multiflit_streams_at_one_per_cycle() {
        let mut r = router(MechanismConfig::baseline());
        let mut departures = Vec::new();
        for now in 0..16u64 {
            let arrivals = if now < 5 {
                let seq = now as u32;
                vec![(
                    PORT_WEST,
                    flit(FlitKind::for_position(seq, 5), seq, 5, 6, 0),
                )]
            } else {
                vec![]
            };
            for o in tick(&mut r, now, arrivals) {
                if let Outgoing::Flit { .. } = o {
                    departures.push(now);
                }
            }
        }
        // Head departs at cycle 3 (after RC/VA/SA); the other four flits
        // stream back-to-back behind it.
        assert_eq!(departures, vec![3, 4, 5, 6, 7], "1 flit/cycle streaming");
        assert_eq!(r.buffered_flits(), 0);
    }

    /// Two heads contending for one output port: switch allocation
    /// serializes them round-robin; both eventually depart.
    #[test]
    fn output_contention_is_arbitrated() {
        let mut r = router(MechanismConfig::baseline());
        let a = flit(FlitKind::HeadTail, 0, 1, 6, 0);
        let mut b = flit(FlitKind::HeadTail, 0, 1, 6, 0);
        b.packet = PacketId(2);
        b.src = NodeId(1);
        let _ = tick(&mut r, 0, vec![(PORT_WEST, a), (PORT_NORTH, b)]);
        let mut departures = 0;
        for now in 1..10 {
            for o in tick(&mut r, now, vec![]) {
                if let Outgoing::Flit { port, .. } = o {
                    assert_eq!(port, PORT_EAST);
                    departures += 1;
                }
            }
        }
        assert_eq!(departures, 2, "both packets cross, serialized");
    }

    /// A request head reserves the reply circuit during its VA cycle,
    /// with the reply's ports mirrored from the request's.
    #[test]
    fn reservation_happens_at_va_with_mirrored_ports() {
        let mut r = router(MechanismConfig::complete());
        let mut f = flit(FlitKind::HeadTail, 0, 1, 6, 0);
        f.circuit = Some(Box::new(rcsim_core::circuit::CircuitHandle::new(
            NodeId(4),
            0x40,
            NodeId(6),
            2,
            5,
            7,
        )));
        let _ = tick(&mut r, 0, vec![(PORT_WEST, f)]);
        assert_eq!(r.circuits.total_entries(), 0, "not during RC");
        let _ = tick(&mut r, 1, vec![]);
        assert_eq!(
            r.circuits.total_entries(),
            1,
            "reserved in parallel with VA"
        );
        // Reply arrives from where the request went (East) and leaves
        // where it came from (West).
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        let e = r
            .circuits
            .lookup(PORT_EAST, key)
            .expect("entry at East input");
        assert_eq!(e.out_port, PORT_WEST);
    }

    /// A reply flit with a matching reservation crosses in the arrival
    /// cycle (1-cycle bypass) and releases the circuit at its tail.
    #[test]
    fn bypass_crosses_in_one_cycle_and_releases() {
        let mut r = router(MechanismConfig::complete());
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        r.circuits
            .try_reserve(&ReserveRequest {
                key,
                source: NodeId(6),
                in_port: PORT_EAST,
                out_port: PORT_WEST,
                window: None,
                max_extra_shift: 0,
            })
            .expect("reservation succeeds");
        let mut f = flit(FlitKind::HeadTail, 0, 1, 4, 3);
        f.class = MessageClass::L2Reply;
        f.vnet = Vnet::Reply;
        f.on_circuit = Some(key);
        let out = tick(&mut r, 10, vec![(PORT_EAST, f)]);
        let (port, arrive) = out
            .iter()
            .find_map(|o| match o {
                Outgoing::Flit { port, arrive, .. } => Some((*port, *arrive)),
                _ => None,
            })
            .expect("bypass departs the same cycle");
        assert_eq!(port, PORT_WEST);
        assert_eq!(arrive, 12, "1 router cycle + 1 link cycle");
        assert_eq!(r.circuits.total_entries(), 0, "tail released the circuit");
        assert_eq!(r.buffered_flits(), 0, "bypassed flits are never stored");
    }

    /// An undo notification removes the local entry and is forwarded
    /// towards the circuit destination.
    #[test]
    fn undo_propagates_towards_destination() {
        let mut r = router(MechanismConfig::complete());
        let key = rcsim_core::circuit::CircuitKey {
            requestor: NodeId(4),
            block: 0x40,
        };
        r.circuits
            .try_reserve(&ReserveRequest {
                key,
                source: NodeId(6),
                in_port: PORT_EAST,
                out_port: PORT_WEST,
                window: None,
                max_extra_shift: 0,
            })
            .expect("reservation succeeds");
        let mut out = Vec::new();
        r.tick(
            5,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut vec![(key, NodeId(4))],
            &mut out,
        );
        assert_eq!(r.circuits.total_entries(), 0);
        assert!(out.iter().any(|o| matches!(
            o,
            Outgoing::Undo {
                port: PORT_WEST,
                ..
            }
        )));
    }
}
