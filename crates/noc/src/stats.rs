//! Network statistics: latency by message group, circuit outcomes
//! (Figure 6), activity counts for the energy model, and the circuit-table
//! counters behind Table 5.

use rcsim_core::circuit::TableStats;
use rcsim_core::MessageClass;
use rcsim_stats::LatencyStat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The three message groups of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageGroup {
    /// Everything on the request VN.
    Request,
    /// Replies eligible for circuit construction (`Circuit_Rep`).
    CircuitRep,
    /// Replies that cannot have a circuit (`NoCircuit_Rep`).
    NoCircuitRep,
}

impl MessageGroup {
    /// The group a message class belongs to.
    pub fn of(class: MessageClass) -> MessageGroup {
        if !class.is_reply() {
            MessageGroup::Request
        } else if class.circuit_eligible() {
            MessageGroup::CircuitRep
        } else {
            MessageGroup::NoCircuitRep
        }
    }

    /// Figure 7 label.
    pub fn label(self) -> &'static str {
        match self {
            MessageGroup::Request => "Request",
            MessageGroup::CircuitRep => "Circuit_Rep",
            MessageGroup::NoCircuitRep => "NoCircuit_Rep",
        }
    }
}

/// How one reply ended up travelling — the categories of Figure 6.
/// (`Eliminated` is recorded by the protocol layer, which is the one that
/// skips generating the ack.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CircuitOutcome {
    /// Travelled on its own circuit.
    OnCircuit,
    /// Eligible, but the circuit could not be (completely) built.
    Failed,
    /// Circuit was completely built but undone before use (coherence
    /// forward or missed time window).
    Undone,
    /// Rode a circuit built for another message (§4.5).
    Scrounger,
    /// Reply class not eligible for circuits.
    NotEligible,
    /// `L1_DATA_ACK` never sent thanks to a complete circuit (§4.6).
    Eliminated,
    /// Committed to a circuit, but an injected fault broke it; the reply
    /// fell back to the packet-switched pipeline (and was retransmitted
    /// end-to-end if flits were lost).
    FaultDegraded,
    /// The circuit was built, but a dead link or router severed its path
    /// before the reply used it; the reservation was torn down at fault
    /// onset and the reply travelled packet-switched (DESIGN.md §10).
    TornDown,
}

impl CircuitOutcome {
    /// All outcomes in Figure 6 order (plus the fault buckets).
    pub const ALL: [CircuitOutcome; 8] = [
        CircuitOutcome::OnCircuit,
        CircuitOutcome::Failed,
        CircuitOutcome::Undone,
        CircuitOutcome::Scrounger,
        CircuitOutcome::NotEligible,
        CircuitOutcome::Eliminated,
        CircuitOutcome::FaultDegraded,
        CircuitOutcome::TornDown,
    ];

    /// Figure 6 legend label.
    pub fn label(self) -> &'static str {
        match self {
            CircuitOutcome::OnCircuit => "circuit",
            CircuitOutcome::Failed => "failed",
            CircuitOutcome::Undone => "undone",
            CircuitOutcome::Scrounger => "scrounger",
            CircuitOutcome::NotEligible => "not_eligible",
            CircuitOutcome::Eliminated => "eliminated",
            CircuitOutcome::FaultDegraded => "fault_degraded",
            CircuitOutcome::TornDown => "torn_down",
        }
    }
}

/// Per-event activity counters consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activity {
    /// Flits written into VC buffers.
    pub buffer_writes: u64,
    /// Flits read out of VC buffers.
    pub buffer_reads: u64,
    /// Crossbar traversals (packet-switched and bypass).
    pub xbar_traversals: u64,
    /// Flit-hops over inter-router links.
    pub link_flits: u64,
    /// VC-allocator grant operations.
    pub vc_allocs: u64,
    /// Switch-allocator grant operations.
    pub sw_allocs: u64,
    /// Credit messages (incl. undo piggybacks).
    pub credits: u64,
    /// Circuit-table reservations written.
    pub circuit_writes: u64,
    /// Circuit-table lookups at input units.
    pub circuit_lookups: u64,
}

impl Activity {
    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &Activity) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.xbar_traversals += other.xbar_traversals;
        self.link_flits += other.link_flits;
        self.vc_allocs += other.vc_allocs;
        self.sw_allocs += other.sw_allocs;
        self.credits += other.credits;
        self.circuit_writes += other.circuit_writes;
        self.circuit_lookups += other.circuit_lookups;
    }
}

/// Aggregated statistics for one network run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NocStats {
    /// Network latency (injection → tail delivery) per message group:
    /// mean/CI plus a 5-cycle-bin distribution up to 500 cycles for
    /// tail-latency queries, fed by one accumulation path.
    pub network_latency: BTreeMap<MessageGroup, LatencyStat>,
    /// Queueing latency (enqueue → injection) per message group, same
    /// shape as [`NocStats::network_latency`].
    pub queueing_latency: BTreeMap<MessageGroup, LatencyStat>,
    /// Count of packets injected, per message class.
    pub injected: BTreeMap<MessageClass, u64>,
    /// Count of packets delivered, per message class.
    pub delivered: BTreeMap<MessageClass, u64>,
    /// Reply outcomes (Figure 6 numerators; `Eliminated` added by the
    /// protocol layer).
    pub outcomes: BTreeMap<CircuitOutcome, u64>,
    /// Energy-model activity counters.
    pub activity: Activity,
    /// Circuit-table reservation counters (Table 5), merged over routers.
    pub tables: TableStats,
    /// Cycles simulated.
    pub cycles: u64,
    /// Total flits injected (for the flits/node/100-cycles load metric).
    pub flits_injected: u64,
    /// Packets abandoned after exhausting end-to-end retransmission
    /// attempts under fault injection. Zero when faults are disabled.
    #[serde(default)]
    pub dropped_packets: u64,
}

impl NocStats {
    /// The histogram geometry shared by every latency statistic: 5-cycle
    /// bins up to 500 cycles (everything beyond lands in the overflow bin).
    fn new_latency_stat() -> LatencyStat {
        LatencyStat::new(5.0, 100)
    }

    /// Records a packet delivery with its latencies.
    pub fn record_delivery(&mut self, class: MessageClass, queueing: u64, network: u64) {
        let group = MessageGroup::of(class);
        self.network_latency
            .entry(group)
            .or_insert_with(Self::new_latency_stat)
            .record(network as f64);
        self.queueing_latency
            .entry(group)
            .or_insert_with(Self::new_latency_stat)
            .record(queueing as f64);
        *self.delivered.entry(class).or_insert(0) += 1;
    }

    /// Records a packet injection.
    pub fn record_injection(&mut self, class: MessageClass, flits: u32) {
        *self.injected.entry(class).or_insert(0) += 1;
        self.flits_injected += flits as u64;
    }

    /// Records a reply outcome (Figure 6).
    pub fn record_outcome(&mut self, outcome: CircuitOutcome) {
        *self.outcomes.entry(outcome).or_insert(0) += 1;
    }

    /// Moves one previously recorded outcome into another bucket. Used
    /// when a fault invalidates an outcome that was committed at enqueue
    /// time (e.g. `OnCircuit` → `FaultDegraded`), keeping the Figure 6
    /// denominator unchanged.
    pub fn reclassify_outcome(&mut self, from: CircuitOutcome, to: CircuitOutcome) {
        let counted = self.outcomes.get(&from).copied().unwrap_or(0) > 0;
        if counted {
            *self.outcomes.entry(from).or_insert(0) -= 1;
        }
        // Even if the `from` bucket was emptied by a stats reset between
        // enqueue and delivery, still record where the reply ended up.
        *self.outcomes.entry(to).or_insert(0) += 1;
    }

    /// Total replies classified (the Figure 6 denominator).
    pub fn total_reply_outcomes(&self) -> u64 {
        self.outcomes.values().sum()
    }

    /// Fraction of classified replies with a given outcome.
    pub fn outcome_fraction(&self, outcome: CircuitOutcome) -> f64 {
        let total = self.total_reply_outcomes();
        if total == 0 {
            0.0
        } else {
            *self.outcomes.get(&outcome).unwrap_or(&0) as f64 / total as f64
        }
    }

    /// Tail latency of a message group at quantile `q` (approximate,
    /// 5-cycle bins). `None` when the group has no samples.
    pub fn latency_quantile(&self, group: MessageGroup, q: f64) -> Option<f64> {
        self.network_latency.get(&group).and_then(|s| s.quantile(q))
    }

    /// Average injected flits per node per 100 cycles (the paper's load
    /// metric: "<4 flits every 100 cycles").
    pub fn load_flits_per_node_per_100(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_injected as f64 * 100.0 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Total packets injected across classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Total packets delivered across classes.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_classification() {
        assert_eq!(
            MessageGroup::of(MessageClass::L1Request),
            MessageGroup::Request
        );
        assert_eq!(
            MessageGroup::of(MessageClass::WbData),
            MessageGroup::Request
        );
        assert_eq!(
            MessageGroup::of(MessageClass::L2Reply),
            MessageGroup::CircuitRep
        );
        assert_eq!(
            MessageGroup::of(MessageClass::MemoryReply),
            MessageGroup::CircuitRep
        );
        assert_eq!(
            MessageGroup::of(MessageClass::L1DataAck),
            MessageGroup::NoCircuitRep
        );
        assert_eq!(
            MessageGroup::of(MessageClass::L1ToL1),
            MessageGroup::NoCircuitRep
        );
    }

    #[test]
    fn outcome_fractions() {
        let mut s = NocStats::default();
        for _ in 0..3 {
            s.record_outcome(CircuitOutcome::OnCircuit);
        }
        s.record_outcome(CircuitOutcome::NotEligible);
        assert_eq!(s.total_reply_outcomes(), 4);
        assert!((s.outcome_fraction(CircuitOutcome::OnCircuit) - 0.75).abs() < 1e-12);
        assert_eq!(s.outcome_fraction(CircuitOutcome::Failed), 0.0);
    }

    #[test]
    fn load_metric() {
        let s = NocStats {
            cycles: 1000,
            flits_injected: 400,
            ..Default::default()
        };
        // 400 flits / 10 nodes / 1000 cycles = 4 per 100 cycles per node.
        assert!((s.load_flits_per_node_per_100(10) - 4.0).abs() < 1e-12);
        assert_eq!(NocStats::default().load_flits_per_node_per_100(10), 0.0);
    }

    #[test]
    fn latency_histogram_tracks_quantiles() {
        let mut s = NocStats::default();
        for lat in [10u64, 12, 14, 200] {
            s.record_delivery(MessageClass::L2Reply, 0, lat);
        }
        let p50 = s.latency_quantile(MessageGroup::CircuitRep, 0.5).unwrap();
        let p99 = s.latency_quantile(MessageGroup::CircuitRep, 0.99).unwrap();
        assert!(p50 <= 15.0, "p50 {p50}");
        assert!(p99 >= 200.0, "p99 {p99}");
        assert_eq!(s.latency_quantile(MessageGroup::Request, 0.5), None);
    }
}
