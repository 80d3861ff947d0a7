//! A small name-keyed metrics registry: monotonic counters and last-value
//! gauges, with a tally helper that folds an event stream into counts.

use crate::event::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Named counters and gauges. Keys are plain strings so layers that know
/// nothing about each other can publish side by side; `BTreeMap` keeps
/// exports deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name` (created at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Counts every event by kind (`events.<name>` counters) and records
    /// the last epoch sample's occupancy values as gauges.
    pub fn tally_events(&mut self, events: &[TraceEvent]) {
        for e in events {
            self.inc(&format!("events.{}", e.kind.name()), 1);
            if let EventKind::EpochSample {
                circuit_entries,
                buffered_flits,
                ni_backlog,
            } = e.kind
            {
                self.set_gauge("noc.circuit_entries", circuit_entries as f64);
                self.set_gauge("noc.buffered_flits", buffered_flits as f64);
                self.set_gauge("noc.ni_backlog", ni_backlog as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 2);
        m.inc("a", 3);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn tally_counts_by_kind() {
        let events = vec![
            TraceEvent {
                cycle: 1,
                kind: EventKind::NiInject { packet: 1, node: 0 },
            },
            TraceEvent {
                cycle: 2,
                kind: EventKind::NiInject { packet: 2, node: 0 },
            },
            TraceEvent {
                cycle: 3,
                kind: EventKind::EpochSample {
                    circuit_entries: 4,
                    buffered_flits: 7,
                    ni_backlog: 1,
                },
            },
        ];
        let mut m = MetricsRegistry::new();
        m.tally_events(&events);
        assert_eq!(m.counter("events.ni_inject"), 2);
        assert_eq!(m.counter("events.epoch_sample"), 1);
        assert_eq!(m.gauge("noc.circuit_entries"), Some(4.0));
    }
}
