//! Kernel-scheduling primitives for the event-driven simulation loop.
//!
//! The cycle-accurate model is defined by the *dense* kernel: every
//! component ticks every cycle, in a fixed index order. The *event*
//! kernel produces byte-identical results by skipping only ticks that
//! are provable no-ops — a component with no due inbox traffic and no
//! internal activity. [`WakeTimes`] tracks, per component, the earliest
//! cycle at which pending input becomes due; producers call
//! [`WakeTimes::wake_at`] at every enqueue and consumers re-derive the
//! value after draining. See DESIGN.md §9 for the no-op argument.

use crate::types::Cycle;
use serde::{Deserialize, Serialize};

/// Which simulation kernel drives the per-cycle loops.
///
/// Both kernels execute the same code in the same order; `Event` merely
/// skips component ticks that cannot change any observable state, so the
/// two are required (and tested) to be byte-identical in every output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelMode {
    /// Tick every component every cycle (the reference semantics).
    Dense,
    /// Skip components that are provably idle this cycle (the default).
    #[default]
    Event,
}

impl KernelMode {
    /// Reads the `RC_KERNEL` environment knob: `dense` selects the dense
    /// reference kernel; anything else (including unset) selects `Event`.
    pub fn from_env() -> Self {
        match std::env::var("RC_KERNEL") {
            Ok(v) if v.eq_ignore_ascii_case("dense") => KernelMode::Dense,
            _ => KernelMode::Event,
        }
    }
}

/// Earliest-due-cycle tracker for a set of `n` components.
///
/// `next[i]` is a lower bound that is never *later* than the true
/// earliest due cycle of component `i`'s pending input (it may be
/// earlier, which only costs a spurious wake, never a missed one):
/// producers min-merge with [`WakeTimes::wake_at`] on every enqueue, and
/// the consumer restores exactness with [`WakeTimes::set`] after a drain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WakeTimes {
    next: Vec<Cycle>,
}

impl WakeTimes {
    /// A tracker for `n` components, all initially idle (`Cycle::MAX`).
    pub fn new(n: usize) -> Self {
        WakeTimes {
            next: vec![Cycle::MAX; n],
        }
    }

    /// Records that component `i` has input due at cycle `t` (min-merge).
    pub fn wake_at(&mut self, i: usize, t: Cycle) {
        let slot = &mut self.next[i];
        *slot = (*slot).min(t);
    }

    /// Overwrites component `i`'s wake cycle with the exact recomputed
    /// value (use after draining its inboxes).
    pub fn set(&mut self, i: usize, t: Cycle) {
        self.next[i] = t;
    }

    /// `true` when component `i` has (or may have) input due at `now`.
    pub fn due(&self, i: usize, now: Cycle) -> bool {
        self.next[i] <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_selects_kernel() {
        // `from_env` reads the process environment, which tests share;
        // exercise only the pure parsing contract via the default.
        assert_eq!(KernelMode::default(), KernelMode::Event);
    }

    #[test]
    fn wake_is_min_merge_and_set_overwrites() {
        let mut w = WakeTimes::new(2);
        assert!(!w.due(0, u64::MAX - 1));
        w.wake_at(0, 10);
        w.wake_at(0, 20); // later enqueue must not push the wake back
        assert!(!w.due(0, 9));
        assert!(w.due(0, 10));
        assert!(w.due(0, 11));
        w.set(0, 20);
        assert!(!w.due(0, 15));
        assert!(w.due(0, 20));
        assert!(!w.due(1, 1_000_000));
    }
}
