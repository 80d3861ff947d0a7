//! Checkpoint/restore: full simulation-state snapshots with byte-identical
//! resume, and the crash-resilient run driver built on them.
//!
//! A [`SimSession`] is [`run_sim`](crate::run_sim) opened up: the same
//! chip construction, warm-up boundary and result assembly, but advanced
//! explicitly with [`SimSession::run_until`] so a run can stop at any
//! cycle `k`, [`SimSession::checkpoint`] itself, and later be rebuilt with
//! [`SimSession::resume`] to continue from `k`. The contract — enforced by
//! the `checkpoint_diff` differential matrix — is byte identity:
//! `run(0..T)` and `run(0..k) + save + restore + run(k..T)` produce the
//! same [`RunResult`] and the same trace stream, for any `k`, under every
//! kernel, topology, fault plan, open-loop and adaptive configuration.
//!
//! What a snapshot holds is the *dynamic* state only: router pipelines,
//! VC buffers and credits, circuit tables, in-flight flits, NI queues and
//! retransmission state, the fault layer's RNG and health bookkeeping,
//! L1/L2/MSHR/directory and memory-controller state, core trace cursors,
//! the open-loop driver, adaptive policy controllers and the trace ring.
//! Everything derivable from the [`SimConfig`] (geometry, latencies,
//! mechanism flags, kernel wiring) is rebuilt by construction and
//! deliberately excluded — see DESIGN.md §15 for the ownership map.
//!
//! On disk a checkpoint is a one-line header
//! (`rcsim-checkpoint v<version> <fnv1a-64 of the payload>`) followed by
//! the serde payload, written tmp-then-rename so readers never observe a
//! torn file. A corrupt, truncated or stale-version file loads as `None`
//! — a clean miss, exactly like the sweep result cache — never an error.

use crate::chip::{Chip, ChipSnapshot};
use crate::report::RunResult;
use crate::sim::{assemble_result, build_chip, SimConfig, SimError, TraceConfig, TraceReport};
use rcsim_core::{Cycle, KernelMode};
use rcsim_trace::{LatencyBreakdown, MetricsRegistry, PortableEvent, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Bumped whenever the snapshot layout changes incompatibly. A checkpoint
/// carrying any other version is treated as a clean miss, never an error.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Stable 64-bit FNV-1a over `bytes` — deliberately not `DefaultHasher`,
/// whose output may change between Rust releases; checkpoint checksums
/// must be stable across toolchains.
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A saved simulation: the config that produced it (so a stale or
/// mismatched file is detected by comparison, not trusted), the cycle it
/// stopped at, and the complete dynamic state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    config: SimConfig,
    trace: Option<TraceConfig>,
    pos: Cycle,
    chip: ChipSnapshot,
    trace_events: Vec<PortableEvent>,
    trace_dropped: u64,
}

impl SessionSnapshot {
    /// The cycle the saved run had reached.
    pub fn pos(&self) -> Cycle {
        self.pos
    }

    /// The configuration the saved run was started from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Serializes to the versioned, checksummed on-disk form.
    fn encode(&self) -> String {
        let payload = serde_json::to_string(self).expect("snapshots always serialize");
        format!(
            "rcsim-checkpoint v{CHECKPOINT_FORMAT_VERSION} {:016x}\n{payload}",
            fnv1a_64(payload.as_bytes())
        )
    }

    /// Parses the on-disk form; `None` on any mismatch (wrong magic,
    /// stale version, checksum failure, malformed payload).
    fn decode(text: &str) -> Option<Self> {
        let (header, payload) = text.split_once('\n')?;
        let mut parts = header.split(' ');
        if parts.next()? != "rcsim-checkpoint" {
            return None;
        }
        let version: u32 = parts.next()?.strip_prefix('v')?.parse().ok()?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return None;
        }
        let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() || checksum != fnv1a_64(payload.as_bytes()) {
            return None;
        }
        serde_json::from_str(payload).ok()
    }

    /// Writes the checkpoint atomically (write to a sibling temp file,
    /// then rename): a reader — or a rerun after a mid-write crash —
    /// either sees the complete file or no file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the temp file is cleaned up on a
    /// failed rename.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Reads a checkpoint back. Missing, truncated, corrupt or
    /// stale-version files all return `None` — a clean miss the caller
    /// handles by starting from cycle 0.
    pub fn load(path: &Path) -> Option<Self> {
        Self::decode(&std::fs::read_to_string(path).ok()?)
    }
}

/// An explicitly-stepped simulation run: [`run_sim`](crate::run_sim)
/// decomposed into construct / advance / finish so the driver can stop at
/// arbitrary cycles to checkpoint (and the replay tooling can inspect a
/// wedged chip). See the module docs for the byte-identity contract.
pub struct SimSession {
    cfg: SimConfig,
    trace_cfg: Option<TraceConfig>,
    chip: Chip,
    sink: TraceSink,
    pos: Cycle,
}

impl SimSession {
    /// Opens a fresh session at cycle 0.
    ///
    /// The trailing `_shards` argument is ignored. It exists only so the
    /// host-speed benchmark harness (`perfbench/`), which still passes a
    /// shard count, keeps compiling; it goes at the next benchmark change.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for unknown workloads or invalid
    /// configurations, exactly like [`run_sim`](crate::run_sim).
    pub fn new(
        cfg: &SimConfig,
        trace: Option<&TraceConfig>,
        kernel: KernelMode,
        _shards: usize,
    ) -> Result<Self, SimError> {
        let mut chip = build_chip(cfg, kernel)?;
        let sink = match trace {
            Some(t) => {
                let sink = TraceSink::ring(t.capacity);
                chip.set_trace_sink(sink.clone());
                chip.set_trace_epoch(t.epoch);
                sink
            }
            None => TraceSink::Disabled,
        };
        Ok(Self {
            cfg: cfg.clone(),
            trace_cfg: trace.cloned(),
            chip,
            sink,
            pos: 0,
        })
    }

    /// Rebuilds a session from a [`SessionSnapshot`]: constructs the chip
    /// from the saved config by the same code path as a fresh run, then
    /// overwrites its dynamic state. The kernel is *not* part of the
    /// snapshot — it is a pure host-performance knob, so a run
    /// checkpointed under one kernel may resume under the other with
    /// byte-identical results. The trailing `_shards` argument is ignored,
    /// as in [`SimSession::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the saved config no longer builds (e.g. a
    /// workload renamed since the checkpoint was written).
    pub fn resume(
        snap: &SessionSnapshot,
        kernel: KernelMode,
        _shards: usize,
    ) -> Result<Self, SimError> {
        let mut session = Self::new(&snap.config, snap.trace.as_ref(), kernel, 1)?;
        session.chip.restore(&snap.chip);
        session.sink.restore(
            snap.trace_events
                .iter()
                .cloned()
                .map(TraceEvent::from)
                .collect(),
            snap.trace_dropped,
        );
        session.pos = snap.pos;
        Ok(session)
    }

    /// Cycles completed so far.
    pub fn pos(&self) -> Cycle {
        self.pos
    }

    /// Total cycles of the configured run (warm-up + measure).
    pub fn total(&self) -> Cycle {
        self.cfg.warmup_cycles + self.cfg.measure_cycles
    }

    /// The chip, for inspection (the replay tool's health dump).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Captures the complete dynamic state at the current cycle.
    pub fn checkpoint(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.cfg.clone(),
            trace: self.trace_cfg.clone(),
            pos: self.pos,
            chip: self.chip.snapshot(),
            trace_events: self
                .sink
                .snapshot()
                .into_iter()
                .map(PortableEvent::from)
                .collect(),
            trace_dropped: self.sink.dropped(),
        }
    }

    /// Advances to cycle `target` (`≤ total()`), applying the warm-up
    /// boundary (stats reset + trace drain) when crossing it — at the
    /// same cycle regardless of how the run is sliced, which is what
    /// makes resume byte-identical.
    ///
    /// On a watchdog stall the chip is left at the stalled cycle for
    /// inspection, and — when `RC_CKPT_DIR` is set — the wedged state is
    /// dumped as `wedged-<confighash>.ckpt` in that directory for
    /// post-mortem loading by `rcsim-replay`.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when the watchdog declares the network dead.
    pub fn run_until(&mut self, target: Cycle) -> Result<(), SimError> {
        assert!(target <= self.total(), "target beyond the configured run");
        while self.pos < target {
            if self.pos == self.cfg.warmup_cycles {
                self.chip.reset_stats();
                // Discard warm-up events so the trace covers the measure
                // window only (packets already in flight keep their
                // enqueue/inject events, which the breakdown post-pass
                // counts as unresolved).
                self.sink.drain();
            }
            self.chip.tick();
            self.pos += 1;
            if self.chip.stalled() {
                self.dump_wedged();
                return Err(SimError::Stalled {
                    report: Box::new(self.chip.health()),
                });
            }
        }
        Ok(())
    }

    /// Best-effort wedged-state dump for post-mortem debugging; failures
    /// (no `RC_CKPT_DIR`, unwritable disk) cost the dump, never the stall
    /// report.
    fn dump_wedged(&self) {
        let Ok(dir) = std::env::var("RC_CKPT_DIR") else {
            return;
        };
        let Ok(json) = serde_json::to_string(&self.cfg) else {
            return;
        };
        let path =
            PathBuf::from(dir).join(format!("wedged-{:016x}.ckpt", fnv1a_64(json.as_bytes())));
        if self.checkpoint().save(&path).is_ok() {
            eprintln!(
                "[checkpoint] wedged state at cycle {} dumped to {} (inspect with rcsim-replay)",
                self.pos,
                path.display()
            );
        }
    }

    /// Gathers the final [`RunResult`] (and the [`TraceReport`] when the
    /// session traces). Call at `pos() == total()`.
    ///
    /// # Panics
    ///
    /// Panics if the run has not completed — finishing early would
    /// silently report a shorter measure window.
    pub fn finish(self) -> (RunResult, Option<TraceReport>) {
        assert_eq!(self.pos, self.total(), "finish() before the run completed");
        let trace_report = self.trace_cfg.as_ref().map(|_| {
            let dropped = self.sink.dropped();
            let events = self.sink.drain();
            let breakdown = LatencyBreakdown::from_events(&events);
            let mut metrics = MetricsRegistry::new();
            metrics.tally_events(&events);
            TraceReport {
                events,
                dropped,
                breakdown,
                metrics,
            }
        });
        (assemble_result(&self.cfg, &self.chip), trace_report)
    }
}

/// [`run_sim`](crate::run_sim) with crash resilience: the run checkpoints
/// to `dir` every `interval` cycles, resumes from the latest valid
/// checkpoint if one exists (a rerun after a kill picks up mid-run), and
/// removes the checkpoint on completion. Byte-identical to an
/// uninterrupted [`run_sim`](crate::run_sim) by the session contract.
///
/// The checkpoint file is keyed by the config's content hash, so
/// concurrent sweeps over different points never collide; a stale file
/// for a *changed* config misses on the embedded-config comparison.
///
/// # Errors
///
/// Returns [`SimError`] for unknown workloads, invalid configurations or
/// watchdog stalls, exactly like [`run_sim`](crate::run_sim).
pub fn run_sim_resumable(
    cfg: &SimConfig,
    kernel: KernelMode,
    dir: &Path,
    interval: u64,
) -> Result<RunResult, SimError> {
    let interval = interval.max(1);
    let json = serde_json::to_string(cfg).expect("configs always serialize");
    let path = dir.join(format!("{:016x}.ckpt", fnv1a_64(json.as_bytes())));
    let mut session = match SessionSnapshot::load(&path).filter(|s| s.config() == cfg) {
        Some(snap) => {
            eprintln!(
                "[checkpoint] resuming {} from cycle {} ({})",
                cfg.workload,
                snap.pos(),
                path.display()
            );
            SimSession::resume(&snap, kernel, 1)?
        }
        None => SimSession::new(cfg, None, kernel, 1)?,
    };
    let total = session.total();
    while session.pos() < total {
        let target = (session.pos() + interval).min(total);
        session.run_until(target)?;
        if session.pos() < total {
            // Best effort: a failed write costs resumability, not the run.
            let _ = session.checkpoint().save(&path);
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(session.finish().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::MechanismConfig;

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_200,
            ..SimConfig::quick(16, MechanismConfig::complete_noack(), "fft")
        }
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let session = SimSession::new(&cfg(), None, KernelMode::Dense, 1).unwrap();
        let snap = session.checkpoint();
        let text = snap.encode();
        assert!(SessionSnapshot::decode(&text).is_some());
        // Flip a payload byte: checksum mismatch is a clean miss.
        let corrupt = text.replacen("\"pos\":0", "\"pos\":1", 1);
        assert!(SessionSnapshot::decode(&corrupt).is_none());
        // Stale version: clean miss.
        let stale = text.replacen("rcsim-checkpoint v1", "rcsim-checkpoint v0", 1);
        assert!(SessionSnapshot::decode(&stale).is_none());
        // Truncated: clean miss.
        assert!(SessionSnapshot::decode(&text[..text.len() / 2]).is_none());
        assert!(SessionSnapshot::decode("").is_none());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned: checkpoints outlive any single build.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
