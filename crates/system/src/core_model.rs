//! Trace-driven, in-order, IPC-1 cores (Table 2: UltraSPARC-class,
//! single-threaded, blocking on misses).

use rcsim_core::Cycle;
use rcsim_workload::{CoreTrace, TraceOp};
use serde::{Deserialize, Serialize};

/// What the core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum CoreState {
    /// Executing non-memory instructions until the given cycle, after
    /// which the pending memory reference accesses the L1.
    Compute { until: Cycle },
    /// Blocked on an outstanding L1 miss.
    WaitMiss,
}

/// One in-order core: retires one instruction per cycle, accesses the L1
/// after each compute gap, and stalls on misses.
#[derive(Debug, Clone)]
pub struct Core {
    trace: CoreTrace,
    state: CoreState,
    pending: Option<TraceOp>,
    /// Instructions retired since the last stats reset (the performance
    /// metric behind the paper's Figure 9/10 speedups: fixed measurement
    /// window, more instructions = faster execution).
    pub instructions: u64,
    /// Monotonic per-core value source for store data tokens.
    pub write_counter: u64,
    id: u16,
}

/// What the core wants to do this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Still computing (or stalled); nothing for the memory system.
    Idle,
    /// Issue this reference to the L1 now.
    Access {
        /// Referenced line.
        block: u64,
        /// `true` for a store.
        write: bool,
        /// Store value token.
        value: u64,
    },
}

impl Core {
    /// A core running `trace`.
    pub fn new(id: u16, trace: CoreTrace) -> Self {
        Self {
            trace,
            state: CoreState::Compute { until: 0 },
            pending: None,
            instructions: 0,
            write_counter: 0,
            id,
        }
    }

    /// Advances to `now` and reports whether an L1 access should issue.
    /// The chip must answer an `Access` with [`Core::access_hit`] or
    /// [`Core::access_missed`] in the same cycle.
    pub fn poll(&mut self, now: Cycle, l1_hit_latency: u32) -> CoreAction {
        match self.state {
            CoreState::WaitMiss => CoreAction::Idle,
            CoreState::Compute { until } => {
                if now < until {
                    return CoreAction::Idle;
                }
                let Some(op) = self.pending.take() else {
                    let op = self.trace.next_op();
                    // The compute gap plus the L1 lookup occupy the core.
                    self.instructions += op.gap as u64;
                    self.state = CoreState::Compute {
                        until: now + op.gap as Cycle + l1_hit_latency as Cycle,
                    };
                    self.pending = Some(op);
                    return CoreAction::Idle;
                };
                let value = if op.write {
                    self.write_counter += 1;
                    ((self.id as u64) << 48) | self.write_counter
                } else {
                    0
                };
                CoreAction::Access {
                    block: op.block,
                    write: op.write,
                    value,
                }
            }
        }
    }

    /// The issued access hit: the memory instruction retires.
    pub fn access_hit(&mut self, now: Cycle) {
        self.instructions += 1;
        self.state = CoreState::Compute { until: now };
    }

    /// The issued access missed: stall until [`Core::miss_done`].
    pub fn access_missed(&mut self) {
        self.state = CoreState::WaitMiss;
    }

    /// The outstanding miss completed; the instruction retires after the
    /// fill-to-use latency.
    pub fn miss_done(&mut self, now: Cycle, l1_hit_latency: u32) {
        debug_assert_eq!(self.state, CoreState::WaitMiss);
        self.instructions += 1;
        self.state = CoreState::Compute {
            until: now + l1_hit_latency as Cycle,
        };
    }

    /// `true` while blocked on a miss.
    pub fn stalled(&self) -> bool {
        self.state == CoreState::WaitMiss
    }

    /// The earliest cycle at which [`Core::poll`] can do anything but
    /// return `CoreAction::Idle` without mutating state. While blocked
    /// on a miss this is `Cycle::MAX` — only [`Core::miss_done`] (driven
    /// by a network delivery) can unblock the core. The event kernel
    /// skips polling cores whose `ready_at` lies in the future; such a
    /// poll is a pure no-op, so skipping cannot change observable state.
    pub fn ready_at(&self) -> Cycle {
        match self.state {
            CoreState::WaitMiss => Cycle::MAX,
            CoreState::Compute { until } => until,
        }
    }

    /// The full dynamic state, for checkpointing. The trace itself is
    /// config-derived (rebuilt from the workload name); only its RNG
    /// position is captured.
    pub(crate) fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            trace_rng: self.trace.rng_state(),
            state: self.state,
            pending: self.pending,
            instructions: self.instructions,
            write_counter: self.write_counter,
        }
    }

    /// Overwrites the dynamic state from a [`Core::snapshot`] taken on a
    /// core running the same trace.
    pub(crate) fn restore(&mut self, snap: &CoreSnapshot) {
        self.trace.set_rng_state(snap.trace_rng);
        self.state = snap.state;
        self.pending = snap.pending;
        self.instructions = snap.instructions;
        self.write_counter = snap.write_counter;
    }
}

/// Complete dynamic state of one [`Core`], for checkpointing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CoreSnapshot {
    trace_rng: (u64, u64),
    state: CoreState,
    pending: Option<TraceOp>,
    instructions: u64,
    write_counter: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_workload::Workload;

    fn core() -> Core {
        let wl = Workload::by_name("fft", 1, 3).unwrap();
        Core::new(0, wl.core_trace(0))
    }

    #[test]
    fn issues_after_gap() {
        let mut c = core();
        let mut now = 0;
        let mut issued = None;
        for _ in 0..5000 {
            match c.poll(now, 2) {
                CoreAction::Idle => now += 1,
                a @ CoreAction::Access { .. } => {
                    issued = Some(a);
                    break;
                }
            }
        }
        assert!(issued.is_some(), "the core eventually issues a reference");
    }

    #[test]
    fn hit_keeps_running_miss_stalls() {
        let mut c = core();
        let mut now = 0;
        while let CoreAction::Idle = c.poll(now, 2) {
            now += 1;
        }
        let before = c.instructions;
        c.access_missed();
        assert!(c.stalled());
        assert_eq!(c.poll(now, 2), CoreAction::Idle);
        c.miss_done(now + 100, 2);
        assert!(!c.stalled());
        assert_eq!(c.instructions, before + 1);
    }

    #[test]
    fn store_values_are_unique_and_tagged() {
        let mut c = core();
        let mut now = 0;
        let mut values = Vec::new();
        while values.len() < 5 {
            match c.poll(now, 2) {
                CoreAction::Idle => now += 1,
                CoreAction::Access { write, value, .. } => {
                    if write {
                        values.push(value);
                    }
                    c.access_hit(now);
                }
            }
        }
        let mut dedup = values.clone();
        dedup.dedup();
        assert_eq!(dedup, values, "store tokens are monotonic");
        assert!(values.iter().all(|v| v >> 48 == 0), "core 0 tag");
    }
}
