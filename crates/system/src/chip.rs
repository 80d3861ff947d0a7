//! Chip assembly: one tile per topology node (core + L1 + L2 bank +
//! router, plus a memory controller on four edge tiles — Figure 1),
//! wired to the cycle-accurate NoC through an adapter implementing the
//! protocol's [`Port`].

use crate::core_model::{Core, CoreAction, CoreSnapshot};
use crate::open_loop::{OpenLoopConfig, OpenLoopSnapshot, OpenLoopState, EXT_TOKEN_BIT};
use crate::report::ExternalSummary;
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{Cycle, KernelMode, MechanismConfig, MessageClass, NodeId, Topology};
use rcsim_noc::{
    CircuitOutcome, FaultConfig, HealthReport, Network, NetworkSnapshot, NocConfig, NocStats,
    PacketSpec, WatchdogConfig,
};
use rcsim_protocol::{
    Access, L1Cache, L1Snapshot, L2Bank, L2Snapshot, MemSnapshot, MemoryController, Msg, Port,
    ProtocolConfig,
};
use rcsim_trace::{EventKind, TraceEvent, TraceSink};
use rcsim_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Bridges the protocol state machines to the NoC: attaches circuit keys
/// to eligible replies, reports NoAck commits, forwards undos and keeps
/// the Figure 6 outcome accounting consistent (see DESIGN.md).
struct ChipPort<'a> {
    net: &'a mut Network,
    payloads: &'a mut HashMap<u64, Msg>,
    next_token: &'a mut u64,
    undone: &'a mut HashSet<CircuitKey>,
    node: NodeId,
    circuits_enabled: bool,
    track_undone: bool,
}

impl Port for ChipPort<'_> {
    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn send(&mut self, msg: Msg, turnaround: u32) -> bool {
        let token = *self.next_token;
        *self.next_token += 1;
        self.payloads.insert(token, msg);
        let mut spec = PacketSpec::new(msg.src, msg.dst, msg.class)
            .with_block(msg.block)
            .with_token(token)
            .with_turnaround(turnaround);
        if msg.short {
            spec = spec.with_flits(1);
        }
        if self.circuits_enabled {
            if msg.class.is_reply() && msg.class.circuit_eligible() {
                let key = CircuitKey {
                    requestor: msg.dst,
                    block: msg.block,
                };
                if self.undone.remove(&key) {
                    // The §4.4 ablation already classified this reply as
                    // `undone` when the circuit was torn down at L2 miss.
                    spec = spec.without_outcome();
                } else {
                    spec = spec.with_circuit_key(key);
                }
            }
            if msg.class == MessageClass::L1ToL1 {
                // The forwarded transaction's circuit fate (undone or
                // failed) was recorded when the L2 forwarded the request.
                spec = spec.without_outcome();
            }
        }
        let (_, committed) = self.net.inject(spec);
        committed
    }

    fn undo_circuit(&mut self, key: CircuitKey) {
        if self.net.undo_circuit(self.node, key) {
            if self.track_undone {
                self.undone.insert(key);
            }
        } else if self.circuits_enabled {
            // The circuit had already failed mid-path: the transaction's
            // logical reply still belongs in the Figure 6 breakdown.
            self.net.record_reply_outcome(CircuitOutcome::Failed);
        }
    }

    fn record_eliminated_ack(&mut self) {
        self.net.record_eliminated_ack();
    }
}

/// The full chip multiprocessor.
pub struct Chip {
    topology: Topology,
    proto_cfg: ProtocolConfig,
    net: Network,
    cores: Vec<Core>,
    l1s: Vec<L1Cache>,
    l2s: Vec<L2Bank>,
    mcs: HashMap<usize, MemoryController>,
    payloads: HashMap<u64, Msg>,
    next_token: u64,
    undone: HashSet<CircuitKey>,
    /// Where trace events go; disabled by default.
    sink: TraceSink,
    /// Cycles between whole-network occupancy samples (0 = never).
    trace_epoch: u64,
    /// Dense (tick everything) or event-driven (skip quiescent tiles).
    kernel: KernelMode,
    /// Open-loop external-traffic driver; `None` for closed-loop runs.
    open_loop: Option<Box<OpenLoopState>>,
}

impl Chip {
    /// Assembles a chip for a workload.
    ///
    /// # Errors
    ///
    /// Returns the configuration errors of [`Chip::with_faults`].
    pub fn new(
        topology: impl Into<Topology>,
        mechanism: MechanismConfig,
        proto_cfg: ProtocolConfig,
        workload: &Workload,
    ) -> Result<Self, rcsim_core::ConfigError> {
        Chip::with_faults(
            topology,
            mechanism,
            proto_cfg,
            workload,
            FaultConfig::none(),
            WatchdogConfig::default(),
        )
    }

    /// Assembles a chip with a fault-injection configuration and watchdog
    /// thresholds. `FaultConfig::none()` is exactly [`Chip::new`].
    ///
    /// # Errors
    ///
    /// Propagates mechanism-configuration validation errors; returns
    /// [`ConfigError::TooManyTiles`](rcsim_core::ConfigError::TooManyTiles)
    /// above the directory's tile limit and
    /// [`ConfigError::CoreCountMismatch`](rcsim_core::ConfigError::CoreCountMismatch)
    /// unless the workload runs one thread per tile.
    pub fn with_faults(
        topology: impl Into<Topology>,
        mechanism: MechanismConfig,
        mut proto_cfg: ProtocolConfig,
        workload: &Workload,
        faults: FaultConfig,
        watchdog: WatchdogConfig,
    ) -> Result<Self, rcsim_core::ConfigError> {
        let topology = topology.into();
        mechanism.validate()?;
        let tiles = topology.nodes();
        if tiles > L2Bank::MAX_TILES {
            return Err(rcsim_core::ConfigError::TooManyTiles {
                tiles,
                max: L2Bank::MAX_TILES,
            });
        }
        if workload.cores() != tiles {
            return Err(rcsim_core::ConfigError::CoreCountMismatch {
                threads: workload.cores(),
                tiles,
            });
        }
        proto_cfg.eliminate_acks = mechanism.eliminate_acks;
        proto_cfg.undo_on_l2_miss = mechanism.undo_on_l2_miss;
        let mut net = Network::with_faults(NocConfig::paper_baseline(topology, mechanism), faults)?;
        net.set_watchdog(watchdog);
        let cores = (0..topology.nodes())
            .map(|i| Core::new(i as u16, workload.core_trace(i)))
            .collect();
        let l1s = topology
            .iter_tiles()
            .map(|n| L1Cache::new(n, topology, proto_cfg.clone()))
            .collect();
        let l2s = topology
            .iter_tiles()
            .map(|n| L2Bank::new(n, topology, proto_cfg.clone()))
            .collect();
        let mcs = proto_cfg
            .mc_tiles
            .iter()
            .map(|n| (n.index(), MemoryController::new(*n, proto_cfg.mem_latency)))
            .collect();
        Ok(Self {
            topology,
            proto_cfg,
            net,
            cores,
            l1s,
            l2s,
            mcs,
            payloads: HashMap::new(),
            next_token: 0,
            undone: HashSet::new(),
            sink: TraceSink::default(),
            trace_epoch: 0,
            kernel: KernelMode::from_env(),
            open_loop: None,
        })
    }

    /// Turns on open-loop external traffic: installs the bounded-ingress
    /// layer at the topology's ingress edge (the west router column; see
    /// [`Topology::edge_nodes`]) and seeds one arrival stream per edge
    /// node. Every other tile serves external requests. Call before the
    /// first [`Chip::tick`].
    pub fn enable_open_loop(&mut self, cfg: OpenLoopConfig, seed: u64) {
        let edges = self.topology.edge_nodes();
        let servers: Vec<NodeId> = self
            .topology
            .iter_tiles()
            .filter(|n| !edges.contains(n))
            .collect();
        let circuits_enabled = self.net.config().mechanism.circuits_enabled();
        self.open_loop = Some(Box::new(OpenLoopState::new(
            cfg,
            seed,
            edges,
            servers,
            circuits_enabled,
            &mut self.net,
        )));
    }

    /// Turns on the adaptive runtime-policy controller: per-region
    /// congestion-aware detours and mechanism switching on the network
    /// (see [`Network::enable_adaptive`](rcsim_noc::Network::enable_adaptive)
    /// and DESIGN.md §14). Call before the first [`Chip::tick`].
    pub fn enable_adaptive(
        &mut self,
        cfg: rcsim_core::AdaptiveConfig,
    ) -> Result<(), rcsim_core::ConfigError> {
        self.net.enable_adaptive(cfg)
    }

    /// The external-traffic summary (all-zero for closed-loop chips).
    pub fn external_summary(&self) -> ExternalSummary {
        self.open_loop
            .as_ref()
            .map(|ol| ol.summary(&self.net))
            .unwrap_or_default()
    }

    /// Selects the simulation kernel for this chip and its network. Both
    /// kernels produce byte-identical results; `Event` skips quiescent
    /// tiles and is the default (see `RC_KERNEL`).
    pub fn set_kernel(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
        self.net.set_kernel(kernel);
    }

    /// The active simulation kernel.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Installs a trace sink, fanned out to the network (NIs and routers)
    /// and every cache so the whole chip records into one shared event
    /// log. Pass [`TraceSink::Disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.net.set_trace_sink(sink.clone());
        for l1 in &mut self.l1s {
            l1.set_trace_sink(sink.clone());
        }
        for l2 in &mut self.l2s {
            l2.set_trace_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// Sets the occupancy-sampling period: every `epoch` cycles the chip
    /// emits an [`EventKind::EpochSample`] with circuit-table, VC-buffer
    /// and NI-queue occupancy. `0` disables sampling.
    pub fn set_trace_epoch(&mut self, epoch: u64) {
        self.trace_epoch = epoch;
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.net.now()
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Advances the whole chip one cycle.
    pub fn tick(&mut self) {
        let now = self.net.now();
        let n = self.topology.nodes();
        let mechanism = *self.net.config();
        let circuits_enabled = mechanism.mechanism.circuits_enabled();
        let track_undone = self.proto_cfg.undo_on_l2_miss;
        let l1_hit = self.proto_cfg.l1_hit_latency;
        let event = self.kernel == KernelMode::Event;

        // Cores issue L1 accesses.
        for i in 0..n {
            // A core still computing (or blocked on a miss) polls as a
            // pure no-op; the event kernel skips the call outright.
            if event && self.cores[i].ready_at() > now {
                continue;
            }
            if let CoreAction::Access {
                block,
                write,
                value,
            } = self.cores[i].poll(now, l1_hit)
            {
                let mut port = ChipPort {
                    net: &mut self.net,
                    payloads: &mut self.payloads,
                    next_token: &mut self.next_token,
                    undone: &mut self.undone,
                    node: NodeId(i as u16),
                    circuits_enabled,
                    track_undone,
                };
                match self.l1s[i].access(block, write, write.then_some(value), &mut port) {
                    Access::Hit { .. } => self.cores[i].access_hit(now),
                    Access::Miss => self.cores[i].access_missed(),
                }
            }
        }

        // Overdue-miss reissue (DESIGN.md §10): a permanent fault may have
        // eaten a request or its reply before the fabric routed around the
        // dead resource. Cheap per-L1 no-op unless a miss is outstanding,
        // so it runs every cycle under both kernels (a blocked core is
        // exactly the tile the event kernel would otherwise skip).
        for i in 0..n {
            if !self.l1s[i].miss_pending() {
                continue;
            }
            let mut port = ChipPort {
                net: &mut self.net,
                payloads: &mut self.payloads,
                next_token: &mut self.next_token,
                undone: &mut self.undone,
                node: NodeId(i as u16),
                circuits_enabled,
                track_undone,
            };
            self.l1s[i].maybe_reissue(now, &mut port);
        }

        // Open-loop external traffic: service replies, client retries,
        // fresh arrivals and ingress release — all before the network
        // moves, so injections land this cycle under both kernels.
        if let Some(ol) = self.open_loop.as_mut() {
            ol.pre_net_tick(&mut self.net, now);
        }

        // The network moves.
        self.net.tick();
        let now = self.net.now();

        if self.trace_epoch > 0 && now.is_multiple_of(self.trace_epoch) && self.sink.is_enabled() {
            let t = self.net.telemetry();
            self.sink.emit(|| TraceEvent {
                cycle: now,
                kind: EventKind::EpochSample {
                    circuit_entries: t.circuit_entries,
                    buffered_flits: t.buffered_flits,
                    ni_backlog: t.ni_backlog,
                },
            });
        }

        // Deliveries fan out to the tile components.
        for (node, d) in self.net.take_all_delivered() {
            if d.token & EXT_TOKEN_BIT != 0 {
                // External traffic bypasses the coherence protocol.
                self.open_loop
                    .as_mut()
                    .expect("external token implies an open-loop driver")
                    .on_delivered(node, d.token, d.block, now);
                continue;
            }
            let msg = self
                .payloads
                .remove(&d.token)
                .expect("every injected packet has a payload record");
            let i = node.index();
            match msg.class {
                MessageClass::L2Reply
                | MessageClass::L1ToL1
                | MessageClass::Invalidation
                | MessageClass::FwdRequest
                | MessageClass::L2WbAck => {
                    let mut port = ChipPort {
                        net: &mut self.net,
                        payloads: &mut self.payloads,
                        next_token: &mut self.next_token,
                        undone: &mut self.undone,
                        node,
                        circuits_enabled,
                        track_undone,
                    };
                    if self.l1s[i]
                        .handle(&msg, d.rode_circuit, &mut port)
                        .is_some()
                    {
                        self.cores[i].miss_done(now, l1_hit);
                    }
                }
                MessageClass::L1Request
                | MessageClass::WbData
                | MessageClass::L1DataAck
                | MessageClass::L1InvAck
                | MessageClass::MemoryReply => {
                    self.l2s[i].receive(msg, now);
                }
                MessageClass::MemRequest | MessageClass::MemWbData => {
                    self.mcs
                        .get_mut(&i)
                        .expect("memory traffic targets an MC tile")
                        .receive(msg, now);
                }
            }
        }

        // L2 banks and memory controllers act on due work.
        for i in 0..n {
            // Ticking a bank with nothing due (and an MC with nothing
            // pending) is a no-op; the event kernel skips the tile.
            if event
                && !self.l2s[i].has_due_work(now)
                && !self.mcs.get(&i).is_some_and(|m| m.has_due_work(now))
            {
                continue;
            }
            let mut port = ChipPort {
                net: &mut self.net,
                payloads: &mut self.payloads,
                next_token: &mut self.next_token,
                undone: &mut self.undone,
                node: NodeId(i as u16),
                circuits_enabled,
                track_undone,
            };
            self.l2s[i].tick(now, &mut port);
            if let Some(mc) = self.mcs.get_mut(&i) {
                mc.tick(now, &mut port);
            }
        }
    }

    /// Runs `cycles` cycles, watching for lost progress. Returns the
    /// liveness report as the error if the network watchdog declares a
    /// stall (deadlock/livelock) along the way; the chip is left at the
    /// cycle the stall was detected for post-mortem inspection.
    ///
    /// # Errors
    ///
    /// [`HealthReport`] with `stalled == true` when in-flight traffic
    /// stopped moving for the watchdog's stall window.
    pub fn run(&mut self, cycles: u64) -> Result<(), Box<HealthReport>> {
        for _ in 0..cycles {
            self.tick();
            if self.net.stalled() {
                return Err(Box::new(self.health()));
            }
        }
        Ok(())
    }

    /// `true` when the network watchdog has declared a stall — the cheap
    /// per-tick check behind [`Chip::run`]; the full post-mortem is
    /// [`Chip::health`].
    pub fn stalled(&self) -> bool {
        self.net.stalled()
    }

    /// A liveness snapshot of the network (see [`Network::health`]),
    /// extended with the chip-level reissue counter.
    pub fn health(&self) -> HealthReport {
        let mut h = self.net.health();
        h.l1_reissues = self.l1s.iter().map(|l1| l1.stats().reissues).sum();
        h
    }

    /// Zeroes every statistic after warm-up (traffic in flight continues).
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
        for c in &mut self.cores {
            c.instructions = 0;
        }
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        for l2 in &mut self.l2s {
            l2.reset_stats();
        }
        for mc in self.mcs.values_mut() {
            mc.reset_stats();
        }
        if let Some(ol) = self.open_loop.as_mut() {
            ol.reset_window();
        }
    }

    /// Instructions retired across all cores since the last reset.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Network statistics snapshot.
    pub fn noc_stats(&self) -> NocStats {
        self.net.stats()
    }

    /// Aggregated L1 counters.
    pub fn l1_totals(&self) -> rcsim_protocol::L1Stats {
        let mut total = rcsim_protocol::L1Stats::default();
        for s in self.l1s.iter().map(L1Cache::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.upgrades += s.upgrades;
            total.writebacks += s.writebacks;
            total.invalidations += s.invalidations;
            total.forwards_served += s.forwards_served;
            total.acks_elided += s.acks_elided;
            total.reissues += s.reissues;
            total.stale_fills += s.stale_fills;
        }
        total
    }

    /// Aggregated L2 counters.
    pub fn l2_totals(&self) -> rcsim_protocol::L2Stats {
        let mut total = rcsim_protocol::L2Stats::default();
        for s in self.l2s.iter().map(L2Bank::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.forwards += s.forwards;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
            total.queued_on_busy += s.queued_on_busy;
            total.busy_wait_cycles += s.busy_wait_cycles;
            total.self_acked += s.self_acked;
        }
        total
    }

    /// The complete dynamic state of the chip, for checkpointing. Call
    /// at a tick boundary (between [`Chip::tick`] calls): mid-tick
    /// scratch is empty there, so the snapshot is identical under either
    /// kernel. Configuration (topology, protocol parameters, mechanism,
    /// kernel, trace wiring) is deliberately excluded — a restore target
    /// is rebuilt from the same `SimConfig` and the snapshot overwrites
    /// only what evolves.
    pub fn snapshot(&self) -> ChipSnapshot {
        let mut mcs: Vec<(usize, MemSnapshot)> =
            self.mcs.iter().map(|(&i, mc)| (i, mc.snapshot())).collect();
        mcs.sort_unstable_by_key(|&(i, _)| i);
        let mut payloads: Vec<(u64, Msg)> = self.payloads.iter().map(|(&t, &m)| (t, m)).collect();
        payloads.sort_unstable_by_key(|&(t, _)| t);
        let mut undone: Vec<CircuitKey> = self.undone.iter().copied().collect();
        undone.sort_unstable_by_key(|k| (k.requestor, k.block));
        ChipSnapshot {
            net: self.net.snapshot(),
            cores: self.cores.iter().map(Core::snapshot).collect(),
            l1s: self.l1s.iter().map(L1Cache::snapshot).collect(),
            l2s: self.l2s.iter().map(L2Bank::snapshot).collect(),
            mcs,
            payloads,
            next_token: self.next_token,
            undone,
            open_loop: self.open_loop.as_deref().map(OpenLoopState::snapshot),
        }
    }

    /// Overwrites the chip's dynamic state from a [`Chip::snapshot`]
    /// taken on an identically-configured chip.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's shape disagrees with this chip's
    /// configuration (different core count, or open-loop presence
    /// mismatch) — restoring across configurations is a caller bug.
    pub fn restore(&mut self, snap: &ChipSnapshot) {
        assert_eq!(
            snap.cores.len(),
            self.cores.len(),
            "checkpoint is for a different core count"
        );
        self.net.restore(&snap.net);
        for (core, s) in self.cores.iter_mut().zip(&snap.cores) {
            core.restore(s);
        }
        for (l1, s) in self.l1s.iter_mut().zip(&snap.l1s) {
            l1.restore(s.clone());
        }
        for (l2, s) in self.l2s.iter_mut().zip(&snap.l2s) {
            l2.restore(s.clone());
        }
        for (i, s) in &snap.mcs {
            self.mcs
                .get_mut(i)
                .expect("checkpoint has an MC on a non-MC tile")
                .restore(s.clone());
        }
        self.payloads = snap.payloads.iter().copied().collect();
        self.next_token = snap.next_token;
        self.undone = snap.undone.iter().copied().collect();
        match (self.open_loop.as_deref_mut(), &snap.open_loop) {
            (Some(ol), Some(s)) => ol.restore(s),
            (None, None) => {}
            _ => panic!("checkpoint and chip disagree on open-loop traffic"),
        }
    }

    /// Checks the single-writer/multiple-reader invariant and directory
    /// consistency across all caches. Returns human-readable violations
    /// (empty = coherent).
    pub fn coherence_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        // Gather every cached L1 line.
        let mut holders: HashMap<u64, Vec<(NodeId, bool, u64)>> = HashMap::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            for (block, writable, value) in l1.lines() {
                holders
                    .entry(block)
                    .or_default()
                    .push((NodeId(i as u16), writable, value));
            }
        }
        for (block, hs) in &holders {
            let writers: Vec<_> = hs.iter().filter(|(_, w, _)| *w).collect();
            if writers.len() > 1 {
                violations.push(format!(
                    "block {block:#x}: {} writable copies",
                    writers.len()
                ));
            }
            if writers.len() == 1 && hs.len() > 1 {
                violations.push(format!(
                    "block {block:#x}: writable copy coexists with {} other copies",
                    hs.len() - 1
                ));
            }
            // Every actual holder must be known to the directory (the
            // directory may track stale sharers, never the reverse). The
            // requestor of a forwarded transfer counts as known while the
            // line waits for its ack: the old owner already served it.
            let home = &self.l2s[self.proto_cfg.home(&self.topology, *block).index()];
            if let Some((owner, sharers)) = home.probe(*block) {
                for (n, w, _) in hs {
                    let known = owner == Some(*n) || sharers & (1u64 << n.index()) != 0;
                    if *w && !known && home.pending_requestor(*block) != Some(*n) {
                        violations.push(format!(
                            "block {block:#x}: writable holder {n} unknown to the directory"
                        ));
                    }
                }
            } else {
                violations.push(format!(
                    "block {block:#x}: cached in an L1 but absent from its home bank (inclusion)"
                ));
            }
        }
        violations
    }
}

/// Complete dynamic state of a [`Chip`], for checkpointing (see
/// [`Chip::snapshot`]). Hash-keyed collections are sorted so the
/// serialized form is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipSnapshot {
    net: NetworkSnapshot,
    cores: Vec<CoreSnapshot>,
    l1s: Vec<L1Snapshot>,
    l2s: Vec<L2Snapshot>,
    mcs: Vec<(usize, MemSnapshot)>,
    payloads: Vec<(u64, Msg)>,
    next_token: u64,
    undone: Vec<CircuitKey>,
    open_loop: Option<OpenLoopSnapshot>,
}
