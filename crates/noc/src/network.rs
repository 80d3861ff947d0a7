//! The whole network: routers, links, NIs and the cycle loop — plus the
//! fault-injection hooks (flits and credits crossing inter-router links,
//! circuit tables, input ports) and the always-on progress watchdog.

use crate::config::NocConfig;
use crate::fault::{FaultConfig, FaultSnapshot, FaultState, FaultStats, LinkFate};
use crate::flit::{Delivered, Flit, PacketId, PacketSpec};
use crate::health::{
    AdaptiveReport, DeadlockReport, DeadlockResource, HealthReport, LeakedCircuit, StuckMessage,
    WatchdogConfig,
};
use crate::ingress::{
    Admission, IngressConfig, IngressSnapshot, IngressState, OverloadReport, ReleasedArrival,
    ShedArrival,
};
use crate::ni::{Ni, NiOut, NiSnapshot};
use crate::router::{Outgoing, Router, RouterSnapshot, VcWaiter, WaitEdge};
use crate::stats::{CircuitOutcome, NocStats};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::routing::{path_is_healthy, Routing};
use rcsim_core::{
    AdaptiveConfig, ConfigError, CongestionMap, CongestionSnapshot, Cycle, Direction, KernelMode,
    MessageClass, NodeId, PolicyController, RegionMode, RegionPlan, RegionSample, TopologyHealth,
    TopologyHealthSnapshot, WakeTimes, PORT_LOCAL,
};
use rcsim_trace::{EventKind, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A whole-network occupancy snapshot, taken between cycles. Feeds the
/// trace layer's periodic `EpochSample` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkTelemetry {
    /// Live circuit-table entries across all routers.
    pub circuit_entries: u64,
    /// Flits sitting in router input VC buffers.
    pub buffered_flits: u64,
    /// Packets queued or streaming at the NIs.
    pub ni_backlog: u64,
}

/// The input port a flit sent out of network port `port` arrives on at
/// the downstream router. All four network ports are grid-directional
/// (N↔S, E↔W), so the opposite is a single XOR — valid on every
/// topology, including wraparound links and 2-wide rings where both of a
/// router's horizontal ports reach the same neighbour.
fn opposite_port(port: usize) -> usize {
    debug_assert!(port < PORT_LOCAL, "only network ports have an opposite");
    port ^ 2
}

/// Messages in flight towards one router.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RouterInbox {
    /// Flits per input port, with arrival cycle.
    flits: Vec<Vec<(Cycle, Flit)>>,
    /// Credits per *output* port (they return upstream).
    credits: Vec<Vec<(Cycle, usize)>>,
    /// Undo notifications.
    undos: Vec<(Cycle, CircuitKey, NodeId)>,
}

impl RouterInbox {
    fn new(ports: usize) -> Self {
        RouterInbox {
            flits: vec![Vec::new(); ports],
            credits: vec![Vec::new(); ports],
            undos: Vec::new(),
        }
    }

    /// Moves everything due at `now` into the router's tick inputs —
    /// flits port by port (ports flagged in `stuck` keep theirs queued),
    /// then credits port by port, then undos — and returns the earliest
    /// arrival left behind (`Cycle::MAX` if none), the router's exact
    /// next wake cycle. One pass over each queue.
    fn drain_due(
        &mut self,
        now: Cycle,
        stuck: &[bool],
        arrivals: &mut Vec<(usize, Flit)>,
        credits: &mut Vec<(usize, usize)>,
        undos: &mut Vec<(CircuitKey, NodeId)>,
    ) -> Cycle {
        let mut next = Cycle::MAX;
        for (p, q) in self.flits.iter_mut().enumerate() {
            next = next.min(if stuck[p] {
                q.iter().map(|&(a, _)| a).min().unwrap_or(Cycle::MAX)
            } else {
                drain_due(q, now, |&(a, _)| a, |(_, f)| arrivals.push((p, f)))
            });
        }
        for (p, q) in self.credits.iter_mut().enumerate() {
            next = next.min(drain_due(
                q,
                now,
                |&(a, _)| a,
                |(_, vc)| credits.push((p, vc)),
            ));
        }
        next.min(drain_due(
            &mut self.undos,
            now,
            |&(a, _, _)| a,
            |(_, k, d)| undos.push((k, d)),
        ))
    }

    /// Earliest arrival cycle across every queue (`Cycle::MAX` if empty),
    /// recomputed from scratch.
    #[cfg(any(test, debug_assertions))]
    fn next_due(&self) -> Cycle {
        let flits = self.flits.iter().flatten().map(|&(a, _)| a);
        let credits = self.credits.iter().flatten().map(|&(a, _)| a);
        let undos = self.undos.iter().map(|&(a, _, _)| a);
        flits
            .chain(credits)
            .chain(undos)
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

/// Messages in flight towards one NI.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct NiInbox {
    flits: Vec<(Cycle, Flit)>,
    credits: Vec<(Cycle, usize)>,
}

impl NiInbox {
    /// Moves everything due at `now` into the NI's tick inputs and
    /// returns the earliest arrival left behind (`Cycle::MAX` if none).
    fn drain_due(
        &mut self,
        now: Cycle,
        ejected: &mut Vec<Flit>,
        credits: &mut Vec<usize>,
    ) -> Cycle {
        let f = drain_due(&mut self.flits, now, |&(a, _)| a, |(_, f)| ejected.push(f));
        let c = drain_due(
            &mut self.credits,
            now,
            |&(a, _)| a,
            |(_, vc)| credits.push(vc),
        );
        f.min(c)
    }

    /// Earliest arrival cycle across both queues (`Cycle::MAX` if empty),
    /// recomputed from scratch.
    #[cfg(any(test, debug_assertions))]
    fn next_due(&self) -> Cycle {
        let flits = self.flits.iter().map(|&(a, _)| a);
        let credits = self.credits.iter().map(|&(a, _)| a);
        flits.chain(credits).min().unwrap_or(Cycle::MAX)
    }
}

/// Hands every entry of `q` due at `now` (arrival cycle `at(entry) <=
/// now`) to `due`, in enqueue order — the cycle-accurate contract:
/// arrival processing order equals emission order — and keeps the rest in
/// order. Returns the earliest arrival kept (`Cycle::MAX` if none).
fn drain_due<E>(
    q: &mut Vec<E>,
    now: Cycle,
    at: impl Fn(&E) -> Cycle,
    mut due: impl FnMut(E),
) -> Cycle {
    let mut next = Cycle::MAX;
    for e in q.extract_if(.., |e| {
        let a = at(e);
        if a > now {
            next = next.min(a);
        }
        a <= now
    }) {
        due(e);
    }
    next
}

/// Reusable per-tick buffers — the cycle loop's arena. Taken out of
/// `self` at the top of [`Network::tick`] (sidestepping borrow
/// conflicts) and put back at the end, so the steady-state loop performs
/// no per-flit heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    ejected: Vec<Flit>,
    ni_credits: Vec<usize>,
    ni_out: NiOut,
    arrivals: Vec<(usize, Flit)>,
    credits: Vec<(usize, usize)>,
    undos: Vec<(CircuitKey, NodeId)>,
    outgoing: Vec<Outgoing>,
    stuck: Vec<bool>,
}

/// One scheduled permanent-fault transition, precomputed at construction
/// from the [`FaultConfig`] and applied densely at the top of the cycle
/// loop (RNG-free, so both kernels see the identical fault stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoChange {
    /// The link between two adjacent routers dies.
    LinkDown(NodeId, NodeId),
    /// A bounded dead-link window ends.
    LinkUp(NodeId, NodeId),
    /// A whole router dies (all five of its links with it).
    RouterDown(NodeId),
    /// A bounded dead-router window ends.
    RouterUp(NodeId),
}

/// Runtime state of the adaptive policy layer (DESIGN.md §14): the knobs,
/// the region map, the deterministic controller, the cumulative counters
/// and the next decision cycle. Boxed behind `Option` so the default
/// (adaptive-off) network carries a single extra pointer.
#[derive(Debug)]
struct AdaptiveState {
    cfg: AdaptiveConfig,
    plan: RegionPlan,
    controller: PolicyController,
    report: AdaptiveReport,
    next_decision: Cycle,
}

/// One injected packet, tracked until delivery or abandonment: the raw
/// material for per-message watchdog ages and end-to-end retransmission.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Outstanding {
    src: NodeId,
    dst: NodeId,
    class: MessageClass,
    len: u32,
    block: u64,
    token: u64,
    created_at: Cycle,
    /// The reply committed to riding its own complete circuit at inject.
    committed: bool,
    /// The circuit key the reply intended to ride, if any.
    circuit_key: Option<CircuitKey>,
    /// End-to-end retransmissions issued so far.
    retries: u32,
}

/// A mesh NoC instance.
///
/// Drive it with [`Network::tick`]; submit packets with
/// [`Network::inject`]; collect arrivals with [`Network::take_delivered`].
/// See the crate docs for a complete example.
///
/// Fault injection is enabled with [`Network::with_faults`]; liveness is
/// observable at any time through [`Network::health`] and
/// [`Network::stalled`]. The watchdog bookkeeping is always on and purely
/// observational, so it never perturbs the simulation.
pub struct Network {
    cfg: NocConfig,
    routers: Vec<Router>,
    nis: Vec<Ni>,
    router_inboxes: Vec<RouterInbox>,
    ni_inboxes: Vec<NiInbox>,
    delivered: Vec<Vec<Delivered>>,
    stats: NocStats,
    now: Cycle,
    next_packet: u64,
    /// `Some` only when the fault configuration can actually fire — a
    /// fault-free network carries no fault state at all, which is what
    /// makes `FaultConfig::none()` bit-identical to no fault layer.
    faults: Option<FaultState>,
    /// The live dead-link / dead-router map, updated as the scheduled
    /// fault events in [`Network::fault_schedule`] fire. Routing and the
    /// NIs consult it; a healthy map costs one boolean check per packet.
    topo: TopologyHealth,
    /// Scheduled permanent-fault transitions, sorted by cycle.
    fault_schedule: Vec<(Cycle, TopoChange)>,
    /// First not-yet-applied entry of `fault_schedule`.
    fault_cursor: usize,
    watchdog: WatchdogConfig,
    /// Every injected, not-yet-delivered packet (src == dst traffic never
    /// enters the network and is not tracked).
    outstanding: HashMap<PacketId, Outstanding>,
    /// Scheduled end-to-end retransmissions: (due cycle, packet).
    retry_queue: Vec<(Cycle, PacketId)>,
    /// Circuits hit by table corruption or dead-resource teardown;
    /// consumed when their reply is delivered to reclassify it as
    /// `FaultDegraded`.
    faulted_circuits: HashSet<CircuitKey>,
    /// Packets whose head flit died at a dead link; their remaining flits
    /// are eaten silently at the same link (packet-atomic loss).
    dead_eating: HashSet<PacketId>,
    /// Last cycle any flit moved (arrived, ejected or was delivered).
    last_progress: Cycle,
    /// Which kernel drives the per-cycle loops (see [`KernelMode`]).
    kernel: KernelMode,
    /// Earliest due inbox item per NI (event-kernel wake times).
    ni_wake: WakeTimes,
    /// Earliest due inbox item per router (event-kernel wake times).
    router_wake: WakeTimes,
    /// Reusable per-tick buffers.
    scratch: Scratch,
    /// Open-loop edge ingress (bounded queues + admission control);
    /// `None` unless [`Network::configure_ingress`] was called, so
    /// closed-loop runs carry no ingress state at all.
    ingress: Option<Box<IngressState>>,
    /// Where trace events go; [`TraceSink::Disabled`] by default.
    sink: TraceSink,
    /// Adaptive policy layer; `None` (the default) is the exact seed
    /// behavior. See [`Network::enable_adaptive`].
    adaptive: Option<Box<AdaptiveState>>,
    /// Which routers the adaptive policy currently marks hot, plus the
    /// staleness era for recorded detour paths. Always present (an
    /// all-calm map when adaptation is off) because the era also fences
    /// fault-heal staleness: it bumps on every link/router revival, so
    /// post-heal replies stop riding detours recorded under the fault.
    congestion: CongestionMap,
}

impl Network {
    /// Builds the network for a configuration, without fault injection.
    ///
    /// # Errors
    ///
    /// Returns the mechanism's [`ConfigError`] when the configuration is
    /// internally inconsistent (see
    /// [`MechanismConfig::validate`](rcsim_core::MechanismConfig::validate)).
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        Network::with_faults(cfg, FaultConfig::none())
    }

    /// Builds the network with a fault-injection configuration. Passing
    /// [`FaultConfig::none`] is exactly equivalent to [`Network::new`].
    ///
    /// # Errors
    ///
    /// Returns the mechanism's [`ConfigError`] when the configuration is
    /// internally inconsistent.
    pub fn with_faults(cfg: NocConfig, faults: FaultConfig) -> Result<Self, ConfigError> {
        cfg.mechanism.validate()?;
        faults.validate(&cfg.topology)?;
        let tiles = cfg.topology.nodes();
        let routers_n = cfg.topology.routers();
        let ports = cfg.topology.ports();
        let mut fault_schedule = Vec::new();
        for e in &faults.dead_links {
            fault_schedule.push((e.at, TopoChange::LinkDown(e.a, e.b)));
            if let Some(h) = e.heals_at() {
                fault_schedule.push((h, TopoChange::LinkUp(e.a, e.b)));
            }
        }
        for e in &faults.dead_routers {
            fault_schedule.push((e.at, TopoChange::RouterDown(e.node)));
            if let Some(h) = e.heals_at() {
                fault_schedule.push((h, TopoChange::RouterUp(e.node)));
            }
        }
        fault_schedule.sort_by_key(|&(t, _)| t);
        Ok(Self {
            cfg,
            routers: cfg
                .topology
                .iter_routers()
                .map(|id| Router::new(id, &cfg))
                .collect(),
            nis: cfg
                .topology
                .iter_tiles()
                .map(|id| Ni::new(id, &cfg))
                .collect(),
            router_inboxes: (0..routers_n).map(|_| RouterInbox::new(ports)).collect(),
            ni_inboxes: (0..tiles).map(|_| NiInbox::default()).collect(),
            delivered: vec![Vec::new(); tiles],
            stats: NocStats::default(),
            now: 0,
            next_packet: 0,
            faults: if faults.is_none() {
                None
            } else {
                Some(FaultState::new(faults))
            },
            topo: TopologyHealth::new(),
            fault_schedule,
            fault_cursor: 0,
            watchdog: WatchdogConfig::default(),
            outstanding: HashMap::new(),
            retry_queue: Vec::new(),
            faulted_circuits: HashSet::new(),
            dead_eating: HashSet::new(),
            last_progress: 0,
            kernel: KernelMode::from_env(),
            ni_wake: WakeTimes::new(tiles),
            router_wake: WakeTimes::new(routers_n),
            scratch: Scratch::default(),
            ingress: None,
            sink: TraceSink::default(),
            adaptive: None,
            congestion: CongestionMap::new(routers_n),
        })
    }

    /// Selects the simulation kernel. Both kernels are required to
    /// produce byte-identical results; `Event` (the default, overridable
    /// via `RC_KERNEL=dense`) skips provably idle components.
    pub fn set_kernel(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
    }

    /// The active simulation kernel.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Installs the adaptive runtime-policy layer (DESIGN.md §14): a
    /// deterministic per-region controller that, every
    /// [`AdaptiveConfig::decision_epoch`] cycles — in the tick prologue,
    /// so `RC_KERNEL` byte-identity is preserved — samples occupancy
    /// telemetry per region and flips regions between calm and hot with
    /// hysteresis and min-dwell. While
    /// a region is hot, requests whose reply path would cross it skip
    /// circuit construction (path-sensitive mechanism switch; the
    /// established circuits through it are torn down via §4.4 undo), and
    /// congestion-aware detours route traffic around its routers — per
    /// the config's `mech_switch` / `detour` switches.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::AdaptivePolicy`] when the knobs violate
    /// their invariants (see [`AdaptiveConfig::validate`]).
    pub fn enable_adaptive(&mut self, cfg: AdaptiveConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        let plan = RegionPlan::new(&self.cfg.topology, cfg.regions);
        let controller = PolicyController::new(cfg, plan.regions());
        self.congestion.set_features(cfg.detour, cfg.mech_switch);
        self.adaptive = Some(Box::new(AdaptiveState {
            cfg,
            plan,
            controller,
            report: AdaptiveReport::default(),
            next_decision: self.now + cfg.decision_epoch,
        }));
        Ok(())
    }

    /// The adaptive-policy counters (all zero when adaptation is off).
    pub fn adaptive_report(&self) -> AdaptiveReport {
        self.adaptive
            .as_ref()
            .map(|a| {
                let mut r = a.report;
                r.hot_regions = a.controller.hot_regions();
                r.circuits_suppressed = self.nis.iter().map(|ni| ni.circuits_suppressed()).sum();
                r
            })
            .unwrap_or_default()
    }

    /// Installs a trace sink, fanning it out to every NI and router so the
    /// whole fabric records into one shared event log. Pass
    /// [`TraceSink::Disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        for ni in &mut self.nis {
            ni.set_trace_sink(sink.clone());
        }
        for r in &mut self.routers {
            r.set_trace_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// The occupancy snapshot the trace layer samples once per epoch.
    pub fn telemetry(&self) -> NetworkTelemetry {
        NetworkTelemetry {
            circuit_entries: self
                .routers
                .iter()
                .map(|r| r.circuits.total_entries() as u64)
                .sum(),
            buffered_flits: self.routers.iter().map(|r| r.buffered_flits() as u64).sum(),
            ni_backlog: self.nis.iter().map(|ni| ni.backlog() as u64).sum(),
        }
    }

    /// Replaces the watchdog thresholds.
    pub fn set_watchdog(&mut self, watchdog: WatchdogConfig) {
        self.watchdog = watchdog;
    }

    /// The active watchdog thresholds.
    pub fn watchdog(&self) -> &WatchdogConfig {
        &self.watchdog
    }

    /// Installs the open-loop ingress layer at `edges` (bounded queues,
    /// token-bucket admission, shed timeouts — see [`IngressConfig`]).
    /// Until this is called, [`Network::offer_external`] panics and the
    /// network carries no ingress state.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or names a node outside the mesh.
    pub fn configure_ingress(&mut self, cfg: IngressConfig, edges: Vec<NodeId>) {
        assert!(!edges.is_empty(), "ingress needs at least one edge node");
        for e in &edges {
            assert!(
                e.index() < self.cfg.topology.nodes(),
                "ingress edge {e} outside mesh"
            );
        }
        self.ingress = Some(Box::new(IngressState::new(cfg, edges)));
    }

    /// Offers one external arrival at ingress edge `edge`, destined for
    /// `dst` with external block address `block`. Returns the typed
    /// admission outcome; rejected clients should re-offer no sooner than
    /// the returned `retry_after`. Emits an `ingress_admit` or
    /// `ingress_reject` trace event either way — refusal is never silent.
    ///
    /// # Panics
    ///
    /// Panics when no ingress layer is configured or `edge` is not one of
    /// its edges.
    pub fn offer_external(&mut self, edge: NodeId, dst: NodeId, block: u64) -> Admission {
        let now = self.now;
        let ingress = self
            .ingress
            .as_mut()
            .expect("configure_ingress before offer_external");
        let outcome = ingress.offer(now, edge, dst, block);
        self.sink.emit(|| rcsim_trace::TraceEvent {
            cycle: now,
            kind: match outcome {
                Admission::Admitted { depth } => EventKind::IngressAdmit {
                    node: edge.0,
                    depth,
                },
                Admission::Rejected {
                    reason,
                    retry_after,
                } => EventKind::IngressReject {
                    node: edge.0,
                    queue_full: reason == crate::ingress::RejectReason::QueueFull,
                    retry_after,
                },
            },
        });
        outcome
    }

    /// One cycle of ingress service, to be called once per cycle *before*
    /// [`Network::tick`]: refills token buckets, sheds queue heads older
    /// than the shed timeout (emitting `ingress_shed` events), and
    /// releases at most one arrival per edge whose NI backlog is under
    /// the backpressure threshold. Released arrivals are appended to
    /// `out`; the caller injects them this same cycle. A no-op when no
    /// ingress layer is configured.
    pub fn drain_ingress(&mut self, out: &mut Vec<ReleasedArrival>) {
        let Some(mut ingress) = self.ingress.take() else {
            return;
        };
        let backlogs: Vec<usize> = ingress
            .edge_nodes()
            .iter()
            .map(|e| self.nis[e.index()].backlog())
            .collect();
        let mut shed: Vec<ShedArrival> = Vec::new();
        ingress.drain(self.now, &backlogs, out, &mut shed);
        self.ingress = Some(ingress);
        for s in &shed {
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: self.now,
                kind: EventKind::IngressShed {
                    node: s.edge.0,
                    waited: s.waited,
                },
            });
        }
    }

    /// The cumulative ingress ledger (all-zero when no ingress layer is
    /// configured).
    pub fn overload_report(&self) -> OverloadReport {
        self.ingress
            .as_ref()
            .map(|i| i.report())
            .unwrap_or_default()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Submits a packet at its source NI. Returns the packet id and, for
    /// replies, whether the packet committed to riding its own complete
    /// circuit — the condition under which the protocol may eliminate the
    /// `L1_DATA_ACK` (§4.6).
    ///
    /// A packet with `src == dst` never enters the network: it is
    /// delivered directly on the next cycle (tile-local traffic).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are outside the mesh.
    pub fn inject(&mut self, spec: PacketSpec) -> (PacketId, bool) {
        assert!(
            spec.src.index() < self.cfg.topology.nodes(),
            "src out of range"
        );
        assert!(
            spec.dst.index() < self.cfg.topology.nodes(),
            "dst out of range"
        );
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        self.sink.emit(|| rcsim_trace::TraceEvent {
            cycle: self.now,
            kind: EventKind::NiEnqueue {
                packet: id.0,
                src: spec.src.0,
                dst: spec.dst.0,
                class: spec.class.label(),
            },
        });
        if spec.src == spec.dst {
            // Tile-local traffic never enters the network; record its
            // ejection here so the lifecycle invariant (one terminal event
            // per enqueue) holds for every packet.
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: self.now + 1,
                kind: EventKind::NiEject {
                    packet: id.0,
                    node: spec.dst.0,
                    rode_circuit: false,
                    retries: 0,
                },
            });
            self.delivered[spec.dst.index()].push(Delivered {
                packet: id,
                src: spec.src,
                dst: spec.dst,
                class: spec.class,
                block: spec.block,
                token: spec.token,
                created_at: self.now,
                injected_at: self.now,
                delivered_at: self.now + 1,
                circuit: None,
                rode_circuit: false,
            });
            return (id, false);
        }
        let committed = self.nis[spec.src.index()].enqueue(
            spec,
            id,
            self.now,
            &self.congestion,
            &mut self.stats,
        );
        self.outstanding.insert(
            id,
            Outstanding {
                src: spec.src,
                dst: spec.dst,
                class: spec.class,
                len: spec
                    .flits_override
                    .unwrap_or_else(|| spec.class.flits(self.cfg.flit_bytes)),
                block: spec.block,
                token: spec.token,
                created_at: self.now,
                committed,
                circuit_key: spec.circuit_key,
                retries: 0,
            },
        );
        (id, committed)
    }

    /// Tears down an unused circuit whose origin is `node`'s NI — the
    /// protocol calls this when the L2 forwards a request to an owning L1
    /// instead of replying itself (§4.4). Returns `false` when no such
    /// circuit is registered.
    pub fn undo_circuit(&mut self, node: NodeId, key: CircuitKey) -> bool {
        self.nis[node.index()].undo_circuit(key, &mut self.stats)
    }

    /// `true` when `node`'s NI holds a fully built circuit origin for
    /// `key` (diagnostic / test helper).
    pub fn has_circuit_origin(&self, node: NodeId, key: CircuitKey) -> bool {
        self.nis[node.index()].has_origin(key)
    }

    /// Records an `L1_DATA_ACK` eliminated by the protocol (§4.6) so the
    /// Figure 6 outcome breakdown stays complete.
    pub fn record_eliminated_ack(&mut self) {
        self.stats
            .record_outcome(crate::stats::CircuitOutcome::Eliminated);
    }

    /// Records a reply outcome classified by the protocol layer (e.g. the
    /// logical reply of a forwarded transaction whose circuit had already
    /// failed mid-path and so was never registered at an NI).
    pub fn record_reply_outcome(&mut self, outcome: crate::stats::CircuitOutcome) {
        self.stats.record_outcome(outcome);
    }

    /// Packets fully received at `node` since the last call.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered[node.index()])
    }

    /// Packets fully received anywhere since the last call, as
    /// `(node, packet)` pairs.
    pub fn take_all_delivered(&mut self) -> Vec<(NodeId, Delivered)> {
        let mut all = Vec::new();
        for (i, v) in self.delivered.iter_mut().enumerate() {
            for d in v.drain(..) {
                all.push((NodeId(i as u16), d));
            }
        }
        all
    }

    /// The tick prologue: scheduled fault transitions, adaptive policy
    /// decisions, due end-to-end retransmissions, and the dense fault
    /// pre-pass. It runs for every component under both kernels.
    fn tick_prologue(&mut self, now: Cycle, stuck: &mut Vec<bool>) {
        // Scheduled dead-link / dead-router transitions fire first, before
        // anything moves this cycle: they are dense (kernel-independent)
        // and draw no fault RNG.
        self.process_fault_onsets(now);

        // Adaptive policy decisions come next, after the fault map has
        // settled (a sample taken exactly at a fault-onset tick sees the
        // post-onset state). Dense and RNG-free: decisions — and the
        // trace events and teardowns they trigger — land at the same
        // point under both kernels, which keeps `RC_KERNEL` byte-identity
        // under adaptation.
        self.adaptive_tick(now);

        // Due end-to-end retransmissions re-enter their source NI.
        let mut due_retries = Vec::new();
        self.retry_queue.retain(|&(t, id)| {
            if t <= now {
                due_retries.push(id);
                false
            } else {
                true
            }
        });
        for id in due_retries {
            if let Some(rec) = self.outstanding.get(&id) {
                self.nis[rec.src.index()].reenqueue_retry(
                    id,
                    rec.src,
                    rec.dst,
                    rec.class,
                    rec.len,
                    rec.block,
                    rec.token,
                    rec.created_at,
                    now,
                );
            }
        }

        self.fault_pre_pass(now, stuck);
    }

    /// One adaptive-policy step: on decision-epoch boundaries, samples
    /// every region's occupancy, runs the controller, and applies the
    /// switched regions' effects — circuit suppression flags, congestion
    /// map updates (with an era bump when a region cools, staling
    /// recorded detours through it), region circuit teardown, event
    /// wake-ups and trace events. A no-op (one `Option` check) when
    /// adaptation is off.
    fn adaptive_tick(&mut self, now: Cycle) {
        let Some(mut ad) = self.adaptive.take() else {
            return;
        };
        if now >= ad.next_decision {
            while ad.next_decision <= now {
                ad.next_decision += ad.cfg.decision_epoch;
            }
            let samples = self.region_samples(&ad.plan);
            // Threshold-calibration aid: `RC_ADAPT_DEBUG=1` dumps every
            // epoch's region scores to stderr so `hot_enter`/`hot_exit`
            // can be placed relative to a workload's calm and burst
            // bands. Output only — never feeds back into decisions.
            if std::env::var_os("RC_ADAPT_DEBUG").is_some() {
                let scores: Vec<u64> = samples.iter().map(|s| s.score()).collect();
                eprintln!("[adaptive] t={now} scores={scores:?}");
            }
            let decisions = ad.controller.decide(now, &samples);
            ad.report.decisions += 1;
            let mut newly_hot: Vec<usize> = Vec::new();
            for d in decisions.iter().filter(|d| d.switched) {
                let hot = d.mode == RegionMode::Hot;
                self.sink.emit(|| rcsim_trace::TraceEvent {
                    cycle: now,
                    kind: EventKind::PolicySwitch {
                        region: d.region as u16,
                        hot,
                        score: d.score,
                    },
                });
                if hot {
                    ad.report.hot_switches += 1;
                    if ad.cfg.mech_switch {
                        newly_hot.push(d.region);
                    }
                } else {
                    ad.report.calm_switches += 1;
                }
                // Both features key off the hot-router map: detours avoid
                // hot routers, the mechanism switch suppresses circuits
                // whose reply path crosses one. Which of the two actually
                // fires is gated by the feature bits armed on the map at
                // [`Network::enable_adaptive`] time.
                if ad.cfg.detour || ad.cfg.mech_switch {
                    for r in ad.plan.router_range(d.region) {
                        self.congestion.set_hot(r, hot);
                    }
                    if !hot {
                        // The blocking condition cleared: recorded detour
                        // paths through this region are stale from now on.
                        self.congestion.bump_era();
                    }
                }
                // Wake the region so the event kernel re-evaluates its
                // components under the new policy this very cycle.
                for t in ad.plan.tile_range(d.region) {
                    self.ni_wake.wake_at(t, now);
                }
                for r in ad.plan.router_range(d.region) {
                    self.router_wake.wake_at(r, now);
                }
            }
            if !newly_hot.is_empty() {
                ad.report.circuits_torn_on_switch +=
                    self.teardown_regions(now, &ad.plan, &newly_hot);
            }
            ad.report.hot_regions = ad.controller.hot_regions();
        }
        self.adaptive = Some(ad);
    }

    /// Per-region occupancy sums (the [`Network::telemetry`] quantities,
    /// split over the region plan's contiguous router/tile ranges).
    fn region_samples(&self, plan: &RegionPlan) -> Vec<RegionSample> {
        (0..plan.regions())
            .map(|s| {
                let rr = plan.router_range(s);
                let routers = rr.len() as u64;
                RegionSample {
                    buffered_flits: self.routers[rr.clone()]
                        .iter()
                        .map(|r| r.buffered_flits() as u64)
                        .sum(),
                    circuit_entries: self.routers[rr]
                        .iter()
                        .map(|r| r.circuits.total_entries() as u64)
                        .sum(),
                    ni_backlog: self.nis[plan.tile_range(s)]
                        .iter()
                        .map(|ni| ni.backlog() as u64)
                        .sum(),
                    routers,
                }
            })
            .collect()
    }

    /// Mechanism-switch circuit teardown. Unlike the fault path
    /// ([`Network::teardown_circuits`]), which may rip table entries out
    /// directly because the dead resource also kills any flit that still
    /// references them, a policy switch happens on a *healthy* fabric:
    /// requests may still be mid-flight writing reservations, scroungers
    /// may be borrowing, and a direct release would strand headless body
    /// flits. So the teardown goes through each circuit's NI *origin*
    /// instead: every built circuit whose reply path (YX
    /// source→requestor) crosses a newly-hot region has its origin
    /// forgotten and §4.4 undo propagation started
    /// ([`Ni::teardown_origin`]) — the proven abort path, which releases
    /// entries hop by hop and defers in-use entries to the passing tail.
    /// NIs are visited in index order and keys in sorted order, so the
    /// teardown (and its `CircuitTear` trace stream) is deterministic.
    /// Returns the circuits torn.
    fn teardown_regions(&mut self, now: Cycle, plan: &RegionPlan, regions: &[usize]) -> u64 {
        let topology = self.cfg.topology;
        let mut torn = 0u64;
        for i in 0..self.nis.len() {
            let node = NodeId(i as u16);
            for key in self.nis[i].origin_keys() {
                let reply_path = topology.route_path(node, key.requestor, Routing::Yx);
                if reply_path
                    .iter()
                    .any(|r| regions.contains(&plan.region_of_router(r.index())))
                    && self.nis[i].teardown_origin(key)
                {
                    torn += 1;
                    self.ni_wake.wake_at(i, now);
                }
            }
        }
        torn
    }

    /// The dense per-cycle fault pre-pass, hoisted ahead of the NI and
    /// router loops: computes every router's stuck-port flags into
    /// `stuck` (flattened `router × port`), counts stuck-port cycles, and
    /// rolls each router's table-corruption draw. It runs for every
    /// router in index order under either kernel, so the fault RNG
    /// stream is `corrupt(0..n)` then `links(0..n)` — identical across
    /// kernels. Scheduled stuck-port windows freeze individual input
    /// ports: their arrivals stay queued on the link until the window
    /// ends.
    fn fault_pre_pass(&mut self, now: Cycle, stuck: &mut Vec<bool>) {
        let routers_n = self.cfg.topology.routers();
        let ports = self.cfg.topology.ports();
        stuck.clear();
        stuck.resize(routers_n * ports, false);
        if self.faults.is_none() {
            return;
        }
        for i in 0..routers_n {
            let flags = &mut stuck[i * ports..(i + 1) * ports];
            if let Some(fs) = &self.faults {
                for (p, st) in flags.iter_mut().enumerate() {
                    // Scheduled stuck-port events name network ports by
                    // direction; every local port maps to `Local`.
                    let dir = if p < PORT_LOCAL {
                        Direction::from_index(p)
                    } else {
                        Direction::Local
                    };
                    *st = fs.port_stuck(i, dir, now);
                }
            }
            if let Some(fs) = self.faults.as_mut() {
                fs.stats.stuck_port_cycles += flags.iter().filter(|&&st| st).count() as u64;
            }
            // Soft errors in the reservation SRAM: one random entry of one
            // random port evaporates; the riding reply (if any) degrades
            // to the ordinary pipeline at this router.
            if let Some((port, draw)) = self
                .faults
                .as_mut()
                .and_then(|fs| fs.roll_table_corruption(ports))
            {
                let occ = self.routers[i].circuits.port_occupancy(port);
                if occ > 0 {
                    if let Some(e) = self.routers[i].circuits.fault_remove(port, draw % occ) {
                        self.faulted_circuits.insert(e.key);
                        if let Some(fs) = self.faults.as_mut() {
                            fs.stats.table_entries_corrupted += 1;
                        }
                    }
                }
            }
        }
    }

    /// Advances the network by one clock cycle.
    ///
    /// Under [`KernelMode::Event`] the NI and router loops skip
    /// components with no due inbox traffic and no internal activity (an
    /// NI with nothing queued or streaming, a router with nothing
    /// buffered or pending), whose tick would be a no-op; everything
    /// else — iteration order, drain order, fault RNG draws, statistics —
    /// is shared verbatim with the dense kernel.
    pub fn tick(&mut self) {
        let now = self.now;
        let tiles = self.cfg.topology.nodes();
        let routers_n = self.cfg.topology.routers();
        let ports = self.cfg.topology.ports();
        let mut moved = false;
        let event = self.kernel == KernelMode::Event;
        let mut s = std::mem::take(&mut self.scratch);

        self.tick_prologue(now, &mut s.stuck);

        // NIs first: they consume flits/credits produced last cycle and
        // inject at most one flit each into their router's local port.
        for i in 0..tiles {
            let due = self.ni_wake.due(i, now);
            if event && !due && !self.nis[i].is_active() {
                // Nothing due and nothing queued or streaming: the tick
                // would be a no-op; skip it.
                continue;
            }
            if due {
                let next = self.ni_inboxes[i].drain_due(now, &mut s.ejected, &mut s.ni_credits);
                self.ni_wake.set(i, next);
            }
            moved |= !s.ejected.is_empty();
            s.ni_out.clear();
            self.nis[i].tick(
                now,
                &mut s.ejected,
                &mut s.ni_credits,
                &self.topo,
                &self.congestion,
                &mut s.ni_out,
            );
            moved |= !s.ni_out.flits.is_empty() || !s.ni_out.delivered.is_empty();
            // Record the tick's statistics: deliveries (in ejection
            // order), then the at-most-one injection, then reroutes.
            for d in &s.ni_out.delivered {
                self.stats.record_delivery(
                    d.class,
                    d.injected_at - d.created_at,
                    d.delivered_at - d.injected_at,
                );
            }
            if let Some((class, len)) = s.ni_out.injection.take() {
                self.stats.record_injection(class, len);
            }
            if s.ni_out.reroutes > 0 {
                if let Some(fs) = self.faults.as_mut() {
                    fs.stats.packets_rerouted += s.ni_out.reroutes;
                }
            }
            if s.ni_out.congestion_reroutes > 0 {
                if let Some(ad) = self.adaptive.as_mut() {
                    ad.report.congestion_detours += s.ni_out.congestion_reroutes;
                }
            }
            let tile = NodeId(i as u16);
            let router = self.cfg.topology.router_of(tile).index();
            let inject_port = self.cfg.topology.eject_port(tile);
            for flit in s.ni_out.flits.drain(..) {
                self.router_wake.wake_at(router, now + 1);
                self.router_inboxes[router].flits[inject_port].push((now + 1, flit));
            }
            for (key, dst) in s.ni_out.undos.drain(..) {
                self.router_wake.wake_at(router, now + 1);
                self.router_inboxes[router].undos.push((now + 1, key, dst));
            }
            for id in s.ni_out.corrupt_discards.drain(..) {
                self.schedule_retry(id, now);
            }
            for mut d in s.ni_out.delivered.drain(..) {
                let retries = self.note_delivered(&mut d);
                self.sink.emit(|| rcsim_trace::TraceEvent {
                    cycle: now,
                    kind: EventKind::NiEject {
                        packet: d.packet.0,
                        node: d.dst.0,
                        rode_circuit: d.rode_circuit,
                        retries,
                    },
                });
                self.delivered[i].push(d);
            }
        }

        // Routers. The fault pre-pass already ran densely for every
        // router (see [`Network::fault_pre_pass`]); this loop only reads
        // its flattened per-router stuck flags.
        for i in 0..routers_n {
            let flags = &s.stuck[i * ports..(i + 1) * ports];
            let due = self.router_wake.due(i, now);
            if event && !due && !self.routers[i].is_active(now) {
                // Nothing due, nothing buffered or pending: skip. A stuck
                // port never hides work — its queued arrivals stay in the
                // inbox, keeping the wake time due until the window ends.
                continue;
            }
            if due {
                let next = self.router_inboxes[i].drain_due(
                    now,
                    flags,
                    &mut s.arrivals,
                    &mut s.credits,
                    &mut s.undos,
                );
                self.router_wake.set(i, next);
            }
            moved |= !s.arrivals.is_empty();
            s.outgoing.clear();
            self.routers[i].tick(
                now,
                &mut s.arrivals,
                &mut s.credits,
                &mut s.undos,
                &mut s.outgoing,
            );
            self.route_outgoing(NodeId(i as u16), s.outgoing.drain(..));
        }

        if moved {
            self.last_progress = now;
        }
        self.stats.cycles += 1;
        self.now = now + 1;
        self.scratch = s;
    }

    /// Watchdog bookkeeping at delivery: closes the packet's outstanding
    /// record and, when a committed circuit ride was hit by a fault along
    /// the way (retransmitted, or its circuit corrupted out of a table),
    /// reclassifies its Figure 6 outcome as `FaultDegraded` and keeps the
    /// delivery's `rode_circuit` flag consistent with the sender's §4.6
    /// NoAck commitment. Returns the packet's end-to-end retry count.
    fn note_delivered(&mut self, d: &mut Delivered) -> u32 {
        let Some(rec) = self.outstanding.remove(&d.packet) else {
            return 0;
        };
        let key_faulted = rec
            .circuit_key
            .is_some_and(|k| self.faulted_circuits.remove(&k));
        if rec.committed && (rec.retries > 0 || key_faulted) {
            self.stats
                .reclassify_outcome(CircuitOutcome::OnCircuit, CircuitOutcome::FaultDegraded);
            // The sender committed to the NoAck condition; the receiver
            // must still elide its ack even though the reply limped home.
            d.rode_circuit = true;
        }
        rec.retries
    }

    /// Marks `id` as hit by a fault and schedules its next end-to-end
    /// retransmission (linear backoff), or abandons it once the retry
    /// budget is spent. No-op without fault injection.
    fn schedule_retry(&mut self, id: PacketId, at: Cycle) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        let Some(rec) = self.outstanding.get_mut(&id) else {
            return;
        };
        if rec.retries < fs.cfg.max_retries {
            rec.retries += 1;
            fs.stats.retransmissions += 1;
            let attempt = rec.retries;
            let backoff = fs.cfg.retry_backoff.max(1) * attempt as Cycle;
            self.retry_queue.push((at + backoff, id));
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: at,
                kind: EventKind::NiRetry {
                    packet: id.0,
                    attempt,
                },
            });
        } else {
            fs.stats.packets_abandoned += 1;
            self.stats.dropped_packets += 1;
            let retries = rec.retries;
            self.outstanding.remove(&id);
            self.sink.emit(|| rcsim_trace::TraceEvent {
                cycle: at,
                kind: EventKind::PacketDropped {
                    packet: id.0,
                    retries,
                },
            });
        }
    }

    /// Delivers one router's tick output to the inboxes it targets,
    /// consuming it (flits move, never clone).
    fn route_outgoing(&mut self, from: NodeId, outgoing: impl Iterator<Item = Outgoing>) {
        for o in outgoing {
            match o {
                Outgoing::Flit {
                    port,
                    mut flit,
                    arrive,
                } => {
                    if port >= PORT_LOCAL {
                        // Ejection: local port `4 + slot` reaches the NI of
                        // the tile in that slot of this router.
                        let tile = self.cfg.topology.tile_of(from, port - PORT_LOCAL);
                        self.ni_wake.wake_at(tile.index(), arrive);
                        self.ni_inboxes[tile.index()].flits.push((arrive, flit));
                        continue;
                    }
                    let Some(nb) = self.cfg.topology.neighbor(from, port) else {
                        // Invariant: XY/YX routing never crosses the mesh
                        // edge. Losing one flit beats tearing down a long
                        // experiment run, and the watchdog will flag the
                        // wedged packet.
                        debug_assert!(false, "routing crossed the mesh edge at {from}/{port}");
                        continue;
                    };
                    if !self.topo.hop_usable(from, nb)
                        && (flit.kind.is_head() || self.dead_eating.contains(&flit.packet))
                    {
                        // The link (or an endpoint router) is dead: the
                        // packet is lost from its head flit on. Synthesize
                        // the credits it would have earned, tear the
                        // reservations it orphans and schedule the
                        // end-to-end retransmission — without touching the
                        // fault RNG, so the random-fault stream is
                        // unchanged by scheduled dead resources. A packet
                        // whose head crossed *before* the link died drains
                        // whole instead (the `else` path): cutting a
                        // wormhole mid-stream would wedge the downstream
                        // VC forever.
                        if flit.kind.is_head() && !flit.kind.is_tail() {
                            self.dead_eating.insert(flit.packet);
                        }
                        if flit.kind.is_tail() {
                            self.dead_eating.remove(&flit.packet);
                        }
                        if let Some(fs) = self.faults.as_mut() {
                            fs.stats.dead_flits_lost += 1;
                        }
                        self.drop_on_link(from, nb, port, &flit, arrive);
                        continue;
                    }
                    if let Some(fs) = self.faults.as_mut() {
                        match fs.on_link_flit(from.index(), port, &flit) {
                            LinkFate::Deliver => {}
                            LinkFate::Corrupt => flit.corrupted = true,
                            LinkFate::Drop => {
                                self.drop_on_link(from, nb, port, &flit, arrive);
                                continue;
                            }
                        }
                    }
                    self.router_wake.wake_at(nb.index(), arrive);
                    self.router_inboxes[nb.index()].flits[opposite_port(port)].push((arrive, flit));
                }
                Outgoing::Credit { port, vc, arrive } => {
                    if port >= PORT_LOCAL {
                        let tile = self.cfg.topology.tile_of(from, port - PORT_LOCAL);
                        self.ni_wake.wake_at(tile.index(), arrive);
                        self.ni_inboxes[tile.index()].credits.push((arrive, vc));
                        continue;
                    }
                    let Some(nb) = self.cfg.topology.neighbor(from, port) else {
                        // Invariant: credits return along existing links.
                        debug_assert!(false, "credit crossed the mesh edge at {from}/{port}");
                        continue;
                    };
                    if self.faults.as_mut().is_some_and(FaultState::on_link_credit) {
                        continue;
                    }
                    // Credits deliberately survive dead links: the credit
                    // backchannel is the recovery path's control plane, and
                    // without it every VC that ever crossed the link would
                    // wedge permanently (DESIGN.md §10). Credit loss stays
                    // its own (random) fault class.
                    self.router_wake.wake_at(nb.index(), arrive);
                    self.router_inboxes[nb.index()].credits[opposite_port(port)].push((arrive, vc));
                }
                Outgoing::Undo {
                    port,
                    key,
                    dst,
                    arrive,
                } => {
                    let Some(nb) = self.cfg.topology.neighbor(from, port) else {
                        // Invariant: undo propagation follows the reserved
                        // path, which never leaves the mesh.
                        debug_assert!(false, "undo crossed the mesh edge at {from}/{port}");
                        continue;
                    };
                    if !self.topo.hop_usable(from, nb) {
                        // Undo propagation dies with the link; the entries
                        // beyond it were removed by the scheduled-fault
                        // teardown, so nothing is left to clean up.
                        continue;
                    }
                    self.router_wake.wake_at(nb.index(), arrive);
                    self.router_inboxes[nb.index()]
                        .undos
                        .push((arrive, key, dst));
                }
            }
        }
    }

    /// Handles one flit dropped on the link `from → nb`: synthesizes the
    /// downstream credit it will never earn (credit loss is its own fault
    /// class; drops must not wedge the fabric by themselves), tears down
    /// the circuit reservations the packet leaves orphaned, and schedules
    /// the end-to-end retransmission.
    fn drop_on_link(&mut self, from: NodeId, nb: NodeId, port: usize, flit: &Flit, arrive: Cycle) {
        // Mirror the downstream router's credit-return rule: circuit VCs
        // are only credited when they are buffered (fragmented mode).
        let layout = self.cfg.vc_layout();
        if !layout.is_circuit_vc(flit.vc) || self.cfg.mechanism.circuit_vc_buffered() {
            self.router_wake.wake_at(from.index(), arrive);
            self.router_inboxes[from.index()].credits[port].push((arrive, flit.vc));
        }
        if flit.kind.is_head() {
            if let Some(h) = &flit.circuit {
                // A dropped circuit-building request: undo the prefix of
                // reservations it made, starting from the last router it
                // crossed (the retransmission goes plain packet-switched).
                self.router_wake.wake_at(from.index(), arrive);
                self.router_inboxes[from.index()]
                    .undos
                    .push((arrive, h.key, h.key.requestor));
            } else if let Some(key) = flit.on_circuit {
                // A dropped circuit ride: the not-yet-used suffix of the
                // circuit (from the next router on) is torn down; routers
                // it already crossed were released by normal streaming.
                self.router_wake.wake_at(nb.index(), arrive);
                self.router_inboxes[nb.index()]
                    .undos
                    .push((arrive, key, key.requestor));
            }
            self.schedule_retry(flit.packet, arrive);
        }
    }

    /// Applies every scheduled dead-link / dead-router transition due
    /// this cycle: updates the topology-health map, re-derives each
    /// router's degraded flag, emits the fault trace events, and on each
    /// onset tears down every circuit whose reply path crosses a dead
    /// resource. Dense and RNG-free, so the fault stream (and therefore
    /// the whole run) is identical across kernels and worker counts.
    fn process_fault_onsets(&mut self, now: Cycle) {
        while self.fault_cursor < self.fault_schedule.len()
            && self.fault_schedule[self.fault_cursor].0 <= now
        {
            let (_, change) = self.fault_schedule[self.fault_cursor];
            self.fault_cursor += 1;
            match change {
                TopoChange::LinkDown(a, b) => {
                    self.topo.kill_link(a, b);
                    self.sink.emit(|| rcsim_trace::TraceEvent {
                        cycle: now,
                        kind: EventKind::LinkDead { a: a.0, b: b.0 },
                    });
                }
                TopoChange::LinkUp(a, b) => {
                    self.topo.revive_link(a, b);
                    self.sink.emit(|| rcsim_trace::TraceEvent {
                        cycle: now,
                        kind: EventKind::LinkHealed { a: a.0, b: b.0 },
                    });
                }
                TopoChange::RouterDown(node) => {
                    self.topo.kill_router(node);
                    self.sink.emit(|| rcsim_trace::TraceEvent {
                        cycle: now,
                        kind: EventKind::RouterDead { node: node.0 },
                    });
                }
                TopoChange::RouterUp(node) => {
                    self.topo.revive_router(node);
                    self.sink.emit(|| rcsim_trace::TraceEvent {
                        cycle: now,
                        kind: EventKind::RouterHealed { node: node.0 },
                    });
                }
            }
            self.refresh_degraded();
            if matches!(
                change,
                TopoChange::LinkDown(..) | TopoChange::RouterDown(..)
            ) {
                self.teardown_circuits(now);
            } else {
                // A heal invalidates recorded detour paths: any reply path
                // an NI memorised before this cycle may now be worse than
                // DOR, so stale it via the era fence.
                self.congestion.bump_era();
            }
        }
    }

    /// Re-derives each router's degraded flag: a router is degraded while
    /// it is dead itself or any of its links is unusable. Degraded
    /// routers take no part in circuits — reservations are refused and
    /// bypasses forced to the packet pipeline — so reactive traffic
    /// adjacent to the dead region falls back to plain packet switching
    /// (DESIGN.md §10).
    fn refresh_degraded(&mut self) {
        for i in 0..self.cfg.topology.routers() {
            let id = NodeId(i as u16);
            let degraded = self.topo.is_degraded()
                && (!self.topo.node_usable(id)
                    || (0..PORT_LOCAL).any(|p| {
                        self.cfg
                            .topology
                            .neighbor(id, p)
                            .is_some_and(|nb| !self.topo.hop_usable(id, nb))
                    }));
            self.routers[i].set_degraded(degraded);
        }
    }

    /// Fault-onset circuit recovery: removes every circuit-table entry —
    /// at every router and input port — belonging to a circuit whose
    /// reply path (YX from the circuit's source to its requestor, the
    /// route the reply itself would take) crosses a dead resource, and
    /// purges the matching NI origins. A reply already committed to a
    /// torn circuit limps home through the pipeline and is reclassified
    /// `FaultDegraded` on delivery; one not yet enqueued finds its origin
    /// gone and records `TornDown`.
    fn teardown_circuits(&mut self, now: Cycle) {
        let topology = self.cfg.topology;
        let ports = topology.ports();
        let mut doomed: HashSet<CircuitKey> = HashSet::new();
        for i in 0..topology.routers() {
            let node = NodeId(i as u16);
            for (_, e, _) in self.routers[i].circuits.stale_entries(now, 0) {
                if doomed.contains(&e.key) {
                    continue;
                }
                let reply_path = topology.route_path(e.source, e.key.requestor, Routing::Yx);
                if !self.topo.node_usable(node) || !path_is_healthy(&reply_path, &self.topo) {
                    doomed.insert(e.key);
                }
            }
        }
        if doomed.is_empty() {
            return;
        }
        for i in 0..topology.routers() {
            for key in &doomed {
                for p in 0..ports {
                    if self.routers[i].circuits.release(p, *key).is_some() {
                        self.sink.emit(|| rcsim_trace::TraceEvent {
                            cycle: now,
                            kind: EventKind::CircuitTear {
                                node: i as u16,
                                requestor: key.requestor.0,
                                block: key.block,
                            },
                        });
                    }
                }
            }
        }
        for ni in &mut self.nis {
            ni.purge_origins(&doomed);
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.circuits_torn += doomed.len() as u64;
        }
        self.faulted_circuits.extend(doomed.iter().copied());
    }

    /// Zeroes every statistic (latencies, outcomes, activity, table
    /// counters, cycle count) without disturbing in-flight traffic —
    /// called at the end of a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
        for r in &mut self.routers {
            r.activity = Default::default();
            r.circuits.reset_stats();
        }
    }

    /// A snapshot of all statistics, including per-router activity and
    /// circuit-table counters.
    pub fn stats(&self) -> NocStats {
        let mut s = self.stats.clone();
        for r in &self.routers {
            s.activity.merge(&r.activity);
            s.tables.merge(r.circuits.stats());
        }
        s
    }

    /// Checks the hot path's incremental bookkeeping against a recount
    /// from scratch: every router's live-VC set, buffered-flit count and
    /// queued bypass retries, and every router and NI wake cycle, which
    /// must never be later than its inbox's earliest arrival (DESIGN.md
    /// §16). Meant to be called between ticks.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch found.
    #[cfg(any(test, debug_assertions))]
    pub fn check_bookkeeping(&self) -> Result<(), String> {
        for (i, r) in self.routers.iter().enumerate() {
            r.check_bookkeeping()?;
            let due = self.router_inboxes[i].next_due();
            if !self.router_wake.due(i, due) {
                return Err(format!("router {i}: wake cycle after inbox arrival {due}"));
            }
        }
        for (i, ib) in self.ni_inboxes.iter().enumerate() {
            let due = ib.next_due();
            if !self.ni_wake.due(i, due) {
                return Err(format!("NI {i}: wake cycle after inbox arrival {due}"));
            }
        }
        Ok(())
    }

    /// `true` when nothing is queued or travelling. Packets abandoned by
    /// the fault layer after exhausting their retries count as resolved.
    pub fn is_quiescent(&self) -> bool {
        self.nis.iter().all(|ni| ni.backlog() == 0)
            && self
                .router_inboxes
                .iter()
                .all(|ib| ib.flits.iter().all(Vec::is_empty) && ib.undos.is_empty())
            && self.ni_inboxes.iter().all(|ib| ib.flits.is_empty())
            && self.retry_queue.is_empty()
            && self.ingress.as_ref().is_none_or(|i| i.queued() == 0)
            && self.stats.total_injected()
                == self.stats.total_delivered() + self.stats.dropped_packets
    }

    /// `true` when packets are in flight but no flit has moved for at
    /// least the watchdog's stall window — a deadlock (e.g. lost credits)
    /// or total livelock.
    pub fn stalled(&self) -> bool {
        !self.outstanding.is_empty()
            && self.now.saturating_sub(self.last_progress) >= self.watchdog.stall_window
    }

    /// The fault-injection counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(|f| f.stats.clone())
            .unwrap_or_default()
    }

    /// Human-readable dump of every router's non-idle pipeline state and
    /// every NI backlog. Tests print this next to [`Network::health`] when
    /// a drain assertion fails, so a wedge report shows exactly which VCs
    /// and credits are stuck (see `tests/echo_probe.rs`).
    #[doc(hidden)]
    pub fn debug_dump(&self) -> String {
        let mut s = String::new();
        for r in &self.routers {
            r.debug_dump(&mut s);
        }
        for (i, ni) in self.nis.iter().enumerate() {
            if ni.backlog() > 0 {
                use std::fmt::Write;
                writeln!(s, "  ni[{i}] backlog={}", ni.backlog()).ok();
            }
        }
        s
    }

    /// Assembles a structured liveness snapshot: stall state, in-flight
    /// and queued traffic, the oldest stuck messages, suspected
    /// circuit-table leaks and the fault counters. Purely observational
    /// and deterministic (messages are ordered by age, then packet id).
    pub fn health(&self) -> HealthReport {
        let mut msgs: Vec<StuckMessage> = self
            .outstanding
            .iter()
            .map(|(id, rec)| StuckMessage {
                packet: *id,
                src: rec.src,
                dst: rec.dst,
                class: rec.class,
                age: self.now.saturating_sub(rec.created_at),
                retries: rec.retries,
            })
            .collect();
        msgs.sort_by_key(|m| (std::cmp::Reverse(m.age), m.packet));
        let oldest_age = msgs.first().map(|m| m.age);
        msgs.truncate(self.watchdog.max_report_entries);

        let mut leaked = Vec::new();
        'scan: for (i, r) in self.routers.iter().enumerate() {
            for (in_port, e, age) in r
                .circuits
                .stale_entries(self.now.saturating_sub(1), self.watchdog.leak_age)
            {
                if leaked.len() >= self.watchdog.max_report_entries {
                    break 'scan;
                }
                leaked.push(LeakedCircuit {
                    node: NodeId(i as u16),
                    in_port,
                    key: e.key,
                    age,
                    in_use: e.in_use,
                });
            }
        }

        let mut dead_links = self.topo.dead_links_sorted();
        dead_links.truncate(self.watchdog.max_report_entries);
        let mut dead_routers = self.topo.dead_routers_sorted();
        dead_routers.truncate(self.watchdog.max_report_entries);

        HealthReport {
            cycle: self.now,
            stalled: self.stalled(),
            last_progress: self.last_progress,
            in_flight: self.outstanding.len() as u64,
            ni_backlog: self.nis.iter().map(|ni| ni.backlog() as u64).sum(),
            quiescent: self.is_quiescent(),
            oldest_age,
            stuck_messages: msgs,
            leaked_circuits: leaked,
            faults: self.fault_stats(),
            dead_links,
            dead_routers,
            l1_reissues: 0,
            overload: self.overload_report(),
            adaptive: self.adaptive_report(),
            deadlock: if self.stalled() {
                self.deadlock_report()
            } else {
                None
            },
        }
    }

    /// The wait-for-graph deadlock diagnoser. Builds the blocked-VC
    /// graph — nodes are input-VC channel resources, an edge runs from
    /// a blocked VC to the resource it waits on (the downstream VC it
    /// needs credits from, or the same-router VC owning its wanted
    /// output) — then walks it with a deterministic DFS (routers in id
    /// order, edges sorted) and reports the first cycle. Returns `None`
    /// when no cycle exists, so a stall caused by livelock or lost
    /// credits is not misreported as a deadlock.
    pub fn deadlock_report(&self) -> Option<Box<DeadlockReport>> {
        let ports = self.cfg.topology.ports();
        let vcs = self.cfg.vc_layout().total();
        let idx = |n: usize, p: usize, v: usize| (n * ports + p) * vcs + v;
        let total = self.routers.len() * ports * vcs;
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut waiters: Vec<Option<(NodeId, VcWaiter)>> = vec![None; total];
        let mut buf = Vec::new();
        for (i, r) in self.routers.iter().enumerate() {
            buf.clear();
            r.waiters(self.now, &mut buf);
            for w in buf.drain(..) {
                let src = idx(i, w.in_port, w.vc);
                for e in &w.edges {
                    match *e {
                        WaitEdge::Local { in_port, vc } => edges[src].push(idx(i, in_port, vc)),
                        WaitEdge::Downstream { out_vc } => {
                            let Some(nb) =
                                self.cfg.topology.neighbor(NodeId(i as u16), w.wants_port)
                            else {
                                continue;
                            };
                            edges[src].push(idx(
                                nb.0 as usize,
                                opposite_port(w.wants_port),
                                out_vc,
                            ));
                        }
                    }
                }
                waiters[src] = Some((NodeId(i as u16), w));
            }
        }
        // Deterministic iterative DFS with tree-edge parents; a back
        // edge to a gray node closes the cycle.
        let mut color = vec![0u8; total]; // 0 white, 1 gray, 2 black
        let mut parent = vec![usize::MAX; total];
        for start in 0..total {
            if color[start] != 0 || waiters[start].is_none() {
                continue;
            }
            color[start] = 1;
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
                if *ei >= edges[node].len() {
                    color[node] = 2;
                    stack.pop();
                    continue;
                }
                let next = edges[node][*ei];
                *ei += 1;
                if waiters[next].is_none() {
                    // Waiting on an idle or progressing VC: a dangling
                    // edge, never part of a cycle.
                    continue;
                }
                match color[next] {
                    0 => {
                        color[next] = 1;
                        parent[next] = node;
                        stack.push((next, 0));
                    }
                    1 => {
                        // Walk the tree path next → … → node; with the
                        // back edge node → next it is the cycle, in
                        // wait order (each entry waits on the next).
                        let mut cycle = Vec::new();
                        let mut cur = node;
                        while cur != next {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.push(next);
                        cycle.reverse();
                        let cycle_len = cycle.len();
                        let cap = self.watchdog.max_report_entries;
                        let resources = cycle
                            .iter()
                            .take(cap)
                            .map(|&ix| {
                                let (node, w) =
                                    waiters[ix].as_ref().expect("cycle nodes are waiters");
                                DeadlockResource {
                                    node: *node,
                                    in_port: w.in_port,
                                    vc: w.vc,
                                    packet: w.packet,
                                    wants_port: w.wants_port,
                                    out_vc: w.out_vc,
                                    credits: w.credits,
                                    held_by_circuit: w.held_by_circuit,
                                }
                            })
                            .collect();
                        return Some(Box::new(DeadlockReport {
                            resources,
                            cycle_len,
                            truncated: cycle_len > cap,
                        }));
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Captures every piece of dynamic network state. Must be taken
    /// between ticks: the per-tick scratch is empty there, which is what
    /// makes the snapshot identical under either `RC_KERNEL` setting.
    pub fn snapshot(&self) -> NetworkSnapshot {
        let mut outstanding: Vec<(PacketId, Outstanding)> = self
            .outstanding
            .iter()
            .map(|(id, rec)| (*id, rec.clone()))
            .collect();
        outstanding.sort_unstable_by_key(|&(id, _)| id);
        let mut faulted_circuits: Vec<CircuitKey> = self.faulted_circuits.iter().copied().collect();
        faulted_circuits.sort_unstable_by_key(|k| (k.requestor, k.block));
        let mut dead_eating: Vec<PacketId> = self.dead_eating.iter().copied().collect();
        dead_eating.sort_unstable();
        NetworkSnapshot {
            routers: self.routers.iter().map(Router::snapshot).collect(),
            nis: self.nis.iter().map(Ni::snapshot).collect(),
            router_inboxes: self.router_inboxes.clone(),
            ni_inboxes: self.ni_inboxes.clone(),
            delivered: self.delivered.clone(),
            stats: self.stats.clone(),
            now: self.now,
            next_packet: self.next_packet,
            faults: self.faults.as_ref().map(FaultState::snapshot),
            topo: self.topo.snapshot(),
            fault_cursor: self.fault_cursor,
            outstanding,
            retry_queue: self.retry_queue.clone(),
            faulted_circuits,
            dead_eating,
            last_progress: self.last_progress,
            ni_wake: self.ni_wake.clone(),
            router_wake: self.router_wake.clone(),
            ingress: self.ingress.as_deref().map(IngressState::snapshot),
            adaptive: self.adaptive.as_deref().map(|a| AdaptiveSnapshot {
                controller: a.controller.snapshot(),
                report: a.report,
                next_decision: a.next_decision,
            }),
            congestion: self.congestion.snapshot(),
        }
    }

    /// Overwrites this network's dynamic state with a snapshot taken by
    /// [`Network::snapshot`]. `self` must have been freshly constructed
    /// from the *same* configuration (topology, mechanism, faults,
    /// ingress, adaptive) that produced the snapshot: configuration-
    /// derived objects — routing, the fault schedule, region plans, trace
    /// sinks — are kept and only dynamic state is replaced. Mismatched
    /// shapes panic rather than limp along.
    pub fn restore(&mut self, snap: &NetworkSnapshot) {
        assert_eq!(
            self.routers.len(),
            snap.routers.len(),
            "network snapshot router count mismatch"
        );
        for (r, s) in self.routers.iter_mut().zip(&snap.routers) {
            r.restore(s.clone());
        }
        for (ni, s) in self.nis.iter_mut().zip(&snap.nis) {
            ni.restore(s.clone());
        }
        self.router_inboxes = snap.router_inboxes.clone();
        self.ni_inboxes = snap.ni_inboxes.clone();
        self.delivered = snap.delivered.clone();
        self.stats = snap.stats.clone();
        self.now = snap.now;
        self.next_packet = snap.next_packet;
        match (&mut self.faults, &snap.faults) {
            (Some(f), Some(s)) => f.restore(s.clone()),
            (None, None) => {}
            _ => panic!("network snapshot fault-state presence mismatch"),
        }
        self.topo = TopologyHealth::from_snapshot(&snap.topo);
        self.fault_cursor = snap.fault_cursor;
        self.outstanding = snap.outstanding.iter().cloned().collect();
        self.retry_queue = snap.retry_queue.clone();
        self.faulted_circuits = snap.faulted_circuits.iter().copied().collect();
        self.dead_eating = snap.dead_eating.iter().copied().collect();
        self.last_progress = snap.last_progress;
        self.ni_wake = snap.ni_wake.clone();
        self.router_wake = snap.router_wake.clone();
        match (&mut self.ingress, &snap.ingress) {
            (Some(i), Some(s)) => i.restore(s.clone()),
            (None, None) => {}
            _ => panic!("network snapshot ingress presence mismatch"),
        }
        match (&mut self.adaptive, &snap.adaptive) {
            (Some(a), Some(s)) => {
                a.controller.restore(&s.controller);
                a.report = s.report;
                a.next_decision = s.next_decision;
            }
            (None, None) => {}
            _ => panic!("network snapshot adaptive presence mismatch"),
        }
        self.congestion.restore(&snap.congestion);
        self.refresh_degraded();
    }
}

/// Complete dynamic state of a [`Network`], captured between ticks by
/// [`Network::snapshot`] and re-applied with [`Network::restore`] onto a
/// freshly constructed, identically-configured network (DESIGN.md §15).
/// Configuration-derived objects (routing tables, the fault schedule,
/// region plans, trace sinks, kernel mode) are deliberately excluded: they
/// are rebuilt from the simulation config on resume, and only cursor and
/// ownership state travels. Hash-map state is stored as sorted vectors so
/// the serialized form is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkSnapshot {
    routers: Vec<RouterSnapshot>,
    nis: Vec<NiSnapshot>,
    router_inboxes: Vec<RouterInbox>,
    ni_inboxes: Vec<NiInbox>,
    delivered: Vec<Vec<Delivered>>,
    stats: NocStats,
    now: Cycle,
    next_packet: u64,
    faults: Option<FaultSnapshot>,
    topo: TopologyHealthSnapshot,
    fault_cursor: usize,
    outstanding: Vec<(PacketId, Outstanding)>,
    retry_queue: Vec<(Cycle, PacketId)>,
    faulted_circuits: Vec<CircuitKey>,
    dead_eating: Vec<PacketId>,
    last_progress: Cycle,
    ni_wake: WakeTimes,
    router_wake: WakeTimes,
    ingress: Option<IngressSnapshot>,
    adaptive: Option<AdaptiveSnapshot>,
    congestion: CongestionSnapshot,
}

/// Dynamic slice of [`AdaptiveState`] (the config and region plan are
/// rebuilt from the simulation config on resume).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdaptiveSnapshot {
    controller: Vec<(RegionMode, Option<Cycle>)>,
    report: AdaptiveReport,
    next_decision: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, Mesh, MessageClass, Topology};

    fn net(mechanism: MechanismConfig) -> Network {
        let mesh = Mesh::new(4, 4).unwrap();
        Network::new(NocConfig::paper_baseline(mesh, mechanism)).unwrap()
    }

    fn run(net: &mut Network, cycles: u64) {
        for _ in 0..cycles {
            net.tick();
        }
    }

    #[test]
    fn single_packet_crosses_baseline() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(15),
            MessageClass::L1Request,
        ));
        run(&mut n, 60);
        let d = n.take_delivered(NodeId(15));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].src, NodeId(0));
        assert_eq!(d[0].class, MessageClass::L1Request);
        assert!(n.is_quiescent());
    }

    #[test]
    fn request_hop_latency_is_five_cycles() {
        // Uncontended: injection + 5 cycles/hop + ejection pipeline.
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(1),
            MessageClass::L1Request,
        ));
        run(&mut n, 40);
        let d = n.take_delivered(NodeId(1));
        assert_eq!(d.len(), 1);
        let lat1 = d[0].delivered_at - d[0].injected_at;

        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(0),
            NodeId(3),
            MessageClass::L1Request,
        ));
        run(&mut n, 60);
        let d = n.take_delivered(NodeId(3));
        let lat3 = d[0].delivered_at - d[0].injected_at;
        assert_eq!(
            lat3 - lat1,
            10,
            "each extra hop must cost 5 cycles (got {lat1} for 1 hop, {lat3} for 3)"
        );
    }

    #[test]
    fn local_delivery_bypasses_network() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(
            NodeId(5),
            NodeId(5),
            MessageClass::L1Request,
        ));
        let d = n.take_delivered(NodeId(5));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn multiflit_packet_arrives_whole() {
        let mut n = net(MechanismConfig::baseline());
        n.inject(PacketSpec::new(NodeId(0), NodeId(12), MessageClass::WbData));
        run(&mut n, 80);
        let d = n.take_delivered(NodeId(12));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].class, MessageClass::WbData);
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut n = net(MechanismConfig::baseline());
        let mut expected = [0usize; 16];
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s != d {
                    n.inject(
                        PacketSpec::new(NodeId(s), NodeId(d), MessageClass::L1Request)
                            .with_block((s as u64) << 16 | d as u64),
                    );
                    expected[d as usize] += 1;
                }
            }
        }
        run(&mut n, 3000);
        for d in 0..16u16 {
            assert_eq!(
                n.take_delivered(NodeId(d)).len(),
                expected[d as usize],
                "node {d}"
            );
        }
        assert!(n.is_quiescent());
    }

    /// The incremental router bookkeeping (live-VC sets, buffered and
    /// retry counts) and the inbox wake cycles match a from-scratch
    /// recount after every tick: every mechanism on every topology shape
    /// (incl. an 8-port concentrated mesh), under both kernels, with
    /// random request/echo traffic, a stuck input port and a dead link
    /// that heals.
    #[test]
    fn bookkeeping_matches_a_recount_every_tick() {
        use crate::fault::{DeadLinkEvent, StuckPortEvent};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rcsim_core::circuit::CircuitKey;

        let topologies = [
            Topology::from(Mesh::new(4, 4).unwrap()),
            Topology::torus(4, 4).unwrap(),
            Topology::ring(8).unwrap(),
            Topology::cmesh(2, 2, 4).unwrap(),
        ];
        let mechanisms = [
            MechanismConfig::baseline(),
            MechanismConfig::complete(),
            MechanismConfig::fragmented(),
            MechanismConfig::ideal(),
        ];
        for (t, topology) in topologies.into_iter().enumerate() {
            for (m, mechanism) in mechanisms.into_iter().enumerate() {
                let faults = FaultConfig {
                    stuck_ports: vec![StuckPortEvent {
                        node: NodeId(1),
                        dir: Direction::West,
                        at: 40,
                        duration: 60,
                    }],
                    dead_links: vec![DeadLinkEvent {
                        a: NodeId(0),
                        b: NodeId(1),
                        at: 150,
                        duration: Some(200),
                    }],
                    ..FaultConfig::none()
                };
                let cfg = NocConfig::paper_baseline(topology, mechanism);
                let mut net = Network::with_faults(cfg, faults).unwrap();
                net.set_kernel(if (t + m) % 2 == 0 {
                    KernelMode::Dense
                } else {
                    KernelMode::Event
                });
                let tiles = topology.nodes() as u16;
                let mut rng = StdRng::seed_from_u64(0xB00C + (t * 4 + m) as u64);
                let mut block = 0u64;
                let mut replies = 0u32;
                for cycle in 0..1_500u64 {
                    if cycle < 500 {
                        for s in 0..tiles {
                            if rng.gen_bool(0.05) {
                                let dst = NodeId(rng.gen_range(0..tiles));
                                block += 64;
                                net.inject(
                                    PacketSpec::new(NodeId(s), dst, MessageClass::L1Request)
                                        .with_block(block),
                                );
                            }
                        }
                    }
                    net.tick();
                    for (node, d) in net.take_all_delivered() {
                        if d.class == MessageClass::L1Request {
                            let key = CircuitKey {
                                requestor: d.src,
                                block: d.block,
                            };
                            net.inject(
                                PacketSpec::new(node, d.src, MessageClass::L2Reply)
                                    .with_block(d.block)
                                    .with_circuit_key(key),
                            );
                        } else {
                            replies += 1;
                        }
                    }
                    if let Err(e) = net.check_bookkeeping() {
                        panic!(
                            "{} {}: cycle {cycle}: {e}",
                            topology.label(),
                            mechanism.label()
                        );
                    }
                }
                // Draining is not asserted: a complete-circuit reply cut
                // mid-stream by the dead link can wedge its circuit VC
                // (ROADMAP); the bookkeeping must hold either way.
                assert!(
                    replies > 100,
                    "{} {}: only {replies} replies",
                    topology.label(),
                    mechanism.label()
                );
            }
        }
    }
}
