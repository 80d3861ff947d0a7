//! Parallel sweep execution with an on-disk result cache.
//!
//! Every experiment binary is a sweep over independent, seed-deterministic
//! [`SimConfig`] points. [`SweepRunner`] fans a job list across
//! `std::thread::scope` workers (`RC_JOBS`, default = available
//! parallelism; `RC_JOBS=1` is the exact serial path — no threads are
//! spawned) and collects results **in submission order**, so tables and
//! `BENCH_<name>.json` rows are byte-identical regardless of worker
//! count. Per-point failures are collected, not fatal mid-sweep.
//!
//! Completed points are cached under `target/experiments/cache/` (or
//! `RC_CACHE_DIR`), keyed by [`cache_key`]: a stable FNV-1a hash of the
//! serde-serialized [`SimConfig`] plus [`CACHE_FORMAT_VERSION`]. A rerun
//! after an unrelated edit skips already-computed points; `RC_NO_CACHE=1`
//! bypasses the cache entirely. A corrupt, truncated or stale-format
//! cache file is treated as a miss and recomputed, never an error.

use rcsim_system::{run_sim, run_sim_resumable, KernelMode, RunResult, SimConfig, SimError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Cycles between periodic checkpoints when `RC_CKPT_DIR` enables them
/// without an explicit `RC_CKPT_INTERVAL`. Long enough that the snapshot
/// cost stays well under 5% of the wall time of any realistic point (the
/// `BENCH_checkpoint` harness asserts it), short enough that a killed
/// overnight sweep loses minutes, not hours.
pub const DEFAULT_CKPT_INTERVAL: u64 = 100_000;

/// Bumped whenever [`RunResult`] or the simulator's semantics change in a
/// way that invalidates previously cached results. Part of the cache key,
/// so stale entries are simply never looked up again.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Stable 64-bit FNV-1a over `bytes` — deliberately not `DefaultHasher`,
/// whose output may change between Rust releases; cache keys must be
/// stable across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content hash a [`SimConfig`] is cached under: FNV-1a of the
/// version-prefixed serde JSON form. Any field change — seed, cycles,
/// mechanism knobs, fault plan — produces a different key. Returns `None`
/// only if the config fails to serialize (never happens in practice).
pub fn cache_key(cfg: &SimConfig) -> Option<u64> {
    let json = serde_json::to_string(cfg).ok()?;
    Some(fnv1a(
        format!("rcsim-cache-v{CACHE_FORMAT_VERSION}:{json}").as_bytes(),
    ))
}

/// What a cache file holds. The full `config` rides along so a (vanishingly
/// unlikely) hash collision — or a hand-edited file — is detected by
/// field-for-field comparison instead of silently returning wrong results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    format_version: u32,
    config: SimConfig,
    result: RunResult,
}

/// Aggregate counters for one [`SweepRunner::run`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Points submitted.
    pub points: usize,
    /// Worker threads used (1 = serial path).
    pub jobs: usize,
    /// Points served from the on-disk cache.
    pub cached: usize,
    /// Points whose simulation returned an error.
    pub failed: usize,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Sum of per-point simulation times in milliseconds; `busy_ms /
    /// wall_ms` approximates the achieved parallel speedup.
    pub busy_ms: f64,
}

/// Results of a sweep, in submission order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One entry per submitted job, index-aligned with the input order
    /// regardless of which worker ran it or when it finished.
    pub results: Vec<Result<RunResult, SimError>>,
    /// Execution counters for the sweep.
    pub stats: SweepStats,
}

/// Executes a list of labelled [`SimConfig`] jobs across worker threads,
/// with transparent result caching. See the module docs for the knobs.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
    cache_dir: Option<PathBuf>,
    checkpoints: Option<(PathBuf, u64)>,
}

impl SweepRunner {
    /// A runner with an explicit worker count and cache directory
    /// (`None` disables caching). Tests use this to avoid touching the
    /// process environment.
    pub fn new(workers: usize, cache_dir: Option<PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            cache_dir,
            checkpoints: None,
        }
    }

    /// Enables crash resilience: uncached points checkpoint to `dir`
    /// every `interval` cycles and resume from the latest valid
    /// checkpoint on a rerun, so a killed sweep re-does at most
    /// `interval` cycles per in-flight point. Composes with the result
    /// cache — a finished point is served from the cache, a half-finished
    /// one from its checkpoint.
    #[must_use]
    pub fn with_checkpoints(mut self, dir: PathBuf, interval: u64) -> Self {
        self.checkpoints = Some((dir, interval.max(1)));
        self
    }

    /// The runner the experiment binaries use: `RC_JOBS` workers (default
    /// = available parallelism), caching under `RC_CACHE_DIR` (default
    /// `target/experiments/cache/`) unless `RC_NO_CACHE=1`.
    pub fn from_env() -> Self {
        let workers = std::env::var("RC_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        let cache_dir = if std::env::var("RC_NO_CACHE").is_ok_and(|v| v == "1") {
            None
        } else {
            Some(PathBuf::from(
                std::env::var("RC_CACHE_DIR")
                    .unwrap_or_else(|_| "target/experiments/cache".to_owned()),
            ))
        };
        let runner = Self::new(workers, cache_dir);
        match std::env::var("RC_CKPT_DIR") {
            Ok(dir) if !dir.is_empty() => {
                let interval = std::env::var("RC_CKPT_INTERVAL")
                    .ok()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or(DEFAULT_CKPT_INTERVAL);
                runner.with_checkpoints(PathBuf::from(dir), interval)
            }
            _ => runner,
        }
    }

    /// Worker threads this runner fans across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Where this runner caches results (`None` = caching disabled).
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The checkpoint directory and interval, when crash resilience is
    /// enabled (`RC_CKPT_DIR` / [`Self::with_checkpoints`]).
    pub fn checkpoints(&self) -> Option<(&Path, u64)> {
        self.checkpoints.as_ref().map(|(d, i)| (d.as_path(), *i))
    }

    /// The on-disk cache file a config maps to, if caching is enabled.
    pub fn cache_path(&self, cfg: &SimConfig) -> Option<PathBuf> {
        let dir = self.cache_dir.as_ref()?;
        Some(dir.join(format!("{:016x}.json", cache_key(cfg)?)))
    }

    fn cache_lookup(&self, cfg: &SimConfig) -> Option<RunResult> {
        let path = self.cache_path(cfg)?;
        let text = std::fs::read_to_string(path).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        (entry.format_version == CACHE_FORMAT_VERSION && entry.config == *cfg)
            .then_some(entry.result)
    }

    /// Best-effort: a cache write failure (read-only disk, races) costs a
    /// future recompute, never the current result.
    fn cache_store(&self, cfg: &SimConfig, result: &RunResult) {
        let Some(path) = self.cache_path(cfg) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let entry = CacheEntry {
            format_version: CACHE_FORMAT_VERSION,
            config: cfg.clone(),
            result: result.clone(),
        };
        let Ok(json) = serde_json::to_string_pretty(&entry) else {
            return;
        };
        // Write-then-rename so a concurrent reader never sees a torn file.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, json).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    fn run_one(
        &self,
        worker: usize,
        label: &str,
        cfg: &SimConfig,
    ) -> (Result<RunResult, SimError>, bool, f64) {
        if let Some(hit) = self.cache_lookup(cfg) {
            eprintln!("[sweep {worker}] {label}: cached");
            return (Ok(hit), true, 0.0);
        }
        let started = Instant::now();
        let res = match &self.checkpoints {
            Some((dir, interval)) => run_sim_resumable(cfg, KernelMode::from_env(), dir, *interval),
            None => run_sim(cfg),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match &res {
            Ok(r) => {
                self.cache_store(cfg, r);
                eprintln!("[sweep {worker}] {label}: ran in {ms:.0} ms");
            }
            Err(e) => eprintln!("[sweep {worker}] {label}: FAILED ({e})"),
        }
        (res, false, ms)
    }

    /// Runs every `(label, config)` job and returns the results in
    /// submission order. Failures are collected per point — one stalled
    /// configuration does not abort the remaining points.
    ///
    /// # Panics
    ///
    /// Panics only if a worker thread itself panics (i.e. a bug in the
    /// simulator rather than a reported `SimError`).
    pub fn run(&self, jobs: &[(String, SimConfig)]) -> SweepOutcome {
        let started = Instant::now();
        let n = jobs.len();
        let workers = self.workers.min(n.max(1));
        let slots: Vec<Mutex<Option<Result<RunResult, SimError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = Mutex::new(0usize);
        let tally = Mutex::new((0usize, 0.0f64)); // (cached, busy_ms)

        let work = |worker: usize| loop {
            let i = {
                let mut c = cursor.lock().expect("sweep cursor poisoned");
                if *c >= n {
                    break;
                }
                let i = *c;
                *c += 1;
                i
            };
            let (label, cfg) = &jobs[i];
            let (res, cached, ms) = self.run_one(worker, label, cfg);
            {
                let mut t = tally.lock().expect("sweep tally poisoned");
                t.0 += usize::from(cached);
                t.1 += ms;
            }
            *slots[i].lock().expect("sweep slot poisoned") = Some(res);
        };

        if workers <= 1 {
            // Serial path: identical to the pre-sweep harness, no threads.
            work(0);
        } else {
            std::thread::scope(|s| {
                let work = &work;
                for w in 0..workers {
                    s.spawn(move || work(w));
                }
            });
        }

        let results: Vec<Result<RunResult, SimError>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every submitted job produces a result")
            })
            .collect();
        let (cached, busy_ms) = tally.into_inner().expect("sweep tally poisoned");
        let failed = results.iter().filter(|r| r.is_err()).count();
        SweepOutcome {
            stats: SweepStats {
                points: n,
                jobs: workers,
                cached,
                failed,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                busy_ms,
            },
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::MechanismConfig;

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: the on-disk cache outlives any single build.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cache_key_tracks_every_field() {
        let base = SimConfig::quick(16, MechanismConfig::baseline(), "fft");
        let k0 = cache_key(&base).unwrap();
        assert_eq!(cache_key(&base.clone()).unwrap(), k0, "deterministic");
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(cache_key(&seed).unwrap(), k0);
        let mut cycles = base.clone();
        cycles.measure_cycles += 1;
        assert_ne!(cache_key(&cycles).unwrap(), k0);
        let mech = SimConfig::quick(16, MechanismConfig::complete_noack(), "fft");
        assert_ne!(cache_key(&mech).unwrap(), k0);
    }

    #[test]
    fn checkpointed_sweep_is_byte_identical_and_resumes() {
        use rcsim_system::{SessionSnapshot, SimSession};

        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 900,
            ..SimConfig::quick(16, MechanismConfig::complete_noack(), "fft")
        };
        let dir = std::env::temp_dir().join(format!("rcsim-sweep-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = [("point".to_owned(), cfg.clone())];

        let plain = SweepRunner::new(1, None).run(&jobs);
        let ckpt = SweepRunner::new(1, None)
            .with_checkpoints(dir.clone(), 250)
            .run(&jobs);
        assert_eq!(
            serde_json::to_string(plain.results[0].as_ref().unwrap()).unwrap(),
            serde_json::to_string(ckpt.results[0].as_ref().unwrap()).unwrap(),
            "checkpointed run diverged from the plain run"
        );

        // A half-finished checkpoint left behind by a "killed" run is
        // picked up: plant one mid-run at the exact path the resumable
        // driver uses, rerun, and the result must still be identical.
        let json = serde_json::to_string(&cfg).unwrap();
        let path = dir.join(format!("{:016x}.ckpt", fnv1a(json.as_bytes())));
        let mut half = SimSession::new(&cfg, None, KernelMode::Event, 1).unwrap();
        half.run_until(700).unwrap();
        half.checkpoint().save(&path).unwrap();
        assert!(SessionSnapshot::load(&path).is_some());
        let resumed = SweepRunner::new(1, None)
            .with_checkpoints(dir.clone(), 250)
            .run(&jobs);
        assert_eq!(
            serde_json::to_string(plain.results[0].as_ref().unwrap()).unwrap(),
            serde_json::to_string(resumed.results[0].as_ref().unwrap()).unwrap(),
            "resumed run diverged from the plain run"
        );
        assert!(!path.exists(), "completed point must remove its checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_free_runner_clamps_workers() {
        let r = SweepRunner::new(0, None);
        assert_eq!(r.workers(), 1);
        assert!(r.cache_dir().is_none());
        assert!(r
            .cache_path(&SimConfig::quick(16, MechanismConfig::baseline(), "fft"))
            .is_none());
    }
}
