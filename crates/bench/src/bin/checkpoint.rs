//! Checkpoint-cost sweep: what a full simulation snapshot costs to take
//! (wall milliseconds and on-disk bytes), what a resume costs, and how
//! much wall overhead periodic checkpointing adds to a run at each
//! interval — the numbers behind the "crash-resilience is nearly free at
//! the default interval" claim in DESIGN.md §15.
//!
//! Two tiers, matching the rest of the suite:
//!
//! - **Full-system** (64 cores): a real `SimConfig` point run three
//!   ways — plain, snapshot-at-midpoint (timing `SimSession::checkpoint`,
//!   `SessionSnapshot::save` size, and `SimSession::resume`), and through
//!   [`run_sim_resumable`] at several intervals. Every checkpointed run
//!   is asserted byte-identical to the plain run before its overhead is
//!   reported, and the overhead at [`DEFAULT_CKPT_INTERVAL`] is
//!   **asserted < 5%** (with a small absolute floor so timing noise on
//!   sub-second smoke configs cannot flake CI).
//! - **Network-level** (64 and 256 cores): the coherence protocol caps
//!   full chips at 64 tiles, so snapshot-size scaling past that is
//!   measured on a [`Network`] driven with a closed-loop request/echo
//!   load, snapshotting mid-flight and asserting the
//!   restore → re-snapshot round trip is byte-identical.
//!
//! Knobs: `RC_CKPT_BENCH_CYCLES` (full-system measure window, default
//! 4000), `RC_CKPT_BENCH_REPS` (wall-time repetitions, min is reported;
//! default 3), `RC_CKPT_NET_CORES` (comma list, default `64,256`),
//! `RC_CKPT_NET_CYCLES` (network-tier injection window, default 1200).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_bench::{bench_row, save_bench_summary, BenchSummary, DEFAULT_CKPT_INTERVAL};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{MechanismConfig, MessageClass, NodeId, TopologySpec};
use rcsim_noc::{Network, NocConfig, PacketSpec};
use rcsim_system::{run_sim_resumable, run_sim_with, KernelMode, RunResult, SimConfig, SimSession};
use std::time::Instant;

fn sim_cycles() -> u64 {
    std::env::var("RC_CKPT_BENCH_CYCLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c >= 100)
        .unwrap_or(4_000)
}

fn reps() -> usize {
    std::env::var("RC_CKPT_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(3)
}

fn net_cores() -> Vec<u16> {
    std::env::var("RC_CKPT_NET_CORES")
        .ok()
        .map(|s| s.split(',').filter_map(|c| c.trim().parse().ok()).collect())
        .filter(|v: &Vec<u16>| !v.is_empty())
        .unwrap_or_else(|| vec![64, 256])
}

fn net_cycles() -> u64 {
    std::env::var("RC_CKPT_NET_CYCLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c >= 1)
        .unwrap_or(1_200)
}

/// Minimum wall-clock seconds over `reps` runs of `f` (min, not mean:
/// the cleanest run is the one least polluted by scheduler noise).
fn min_wall<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut out = f();
    let mut best = started.elapsed().as_secs_f64();
    for _ in 1..reps {
        let started = Instant::now();
        out = f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (out, best)
}

/// Serialized result: the byte-identity witness for checkpointed runs.
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(r).expect("results serialize")
}

/// Consumes deliveries for the network-tier point: requests echo back
/// as circuit-riding replies.
fn echo(net: &mut Network, outstanding: &mut [u32]) {
    for (node, d) in net.take_all_delivered() {
        match d.class {
            MessageClass::L1Request => {
                let key = CircuitKey {
                    requestor: d.src,
                    block: d.block,
                };
                net.inject(
                    PacketSpec::new(node, d.src, MessageClass::L2Reply)
                        .with_block(d.block)
                        .with_circuit_key(key),
                );
            }
            MessageClass::L2Reply => outstanding[node.0 as usize] -= 1,
            other => panic!("unexpected class {other}"),
        }
    }
}

/// Network-tier point: drive a `cores`-tile mesh mid-flight, snapshot
/// it, and report the snapshot's wall cost and serialized size. The
/// restore → re-snapshot round trip is asserted byte-identical.
fn net_point(cores: u16, window: u64) -> (f64, u64) {
    let topology = TopologySpec::Mesh.build(cores).expect("mesh sizes fit");
    let cfg = NocConfig::paper_baseline(topology, MechanismConfig::complete());
    let mut net = Network::new(cfg).expect("valid config");
    let mut rng = StdRng::seed_from_u64(0xCC37);
    let n = topology.nodes() as u16;
    let mut outstanding = vec![0u32; n as usize];
    let mut block = 0u64;
    for _ in 0..window {
        for s in 0..n {
            if outstanding[s as usize] < 8 && rng.gen_bool(0.02) {
                let src = NodeId(s);
                let dst = loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != src {
                        break d;
                    }
                };
                block += 64;
                net.inject(PacketSpec::new(src, dst, MessageClass::L1Request).with_block(block));
                outstanding[s as usize] += 1;
            }
        }
        net.tick();
        echo(&mut net, &mut outstanding);
    }

    let started = Instant::now();
    let snap = net.snapshot();
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let bytes = serde_json::to_string(&snap).expect("snapshots serialize");

    let mut restored = Network::new(cfg).expect("valid config");
    restored.restore(&snap);
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).expect("snapshots serialize"),
        bytes,
        "c{cores}: restore → re-snapshot is not byte-identical"
    );
    (snapshot_ms, bytes.len() as u64)
}

fn main() {
    let kernel = KernelMode::from_env();
    let reps = reps();
    let measure = sim_cycles();
    let mut cfg = SimConfig::quick(64, MechanismConfig::complete(), "fft");
    cfg.warmup_cycles = measure / 4;
    cfg.measure_cycles = measure;
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let dir = std::env::temp_dir().join(format!("rcsim-bench-ckpt-{}", std::process::id()));

    println!("Checkpoint-cost sweep ({measure}-cycle window, min of {reps} reps)\n");

    // -- Full-system tier: plain baseline ------------------------------
    let (plain, plain_wall) = min_wall(reps, || {
        run_sim_with(&cfg, kernel).expect("plain run completes")
    });
    let plain_fp = fingerprint(&plain);
    println!("plain 64-core run: {plain_wall:.3}s");

    // -- Snapshot / save / resume microcosts at the midpoint -----------
    let mut session = SimSession::new(&cfg, None, kernel, 1).expect("session builds");
    session.run_until(total / 2).expect("midpoint is reachable");
    let started = Instant::now();
    let snap = session.checkpoint();
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let path = dir.join("bench-midpoint.ckpt");
    snap.save(&path).expect("checkpoint saves");
    let snapshot_bytes = std::fs::metadata(&path).expect("saved file exists").len();
    let started = Instant::now();
    let reloaded = rcsim_system::SessionSnapshot::load(&path).expect("checkpoint loads");
    let resumed = SimSession::resume(&reloaded, kernel, 1).expect("checkpoint resumes");
    let resume_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(resumed.pos(), total / 2, "resume landed on the wrong cycle");
    println!(
        "midpoint snapshot: {snapshot_ms:.2}ms to take, {snapshot_bytes} bytes on disk, \
         {resume_ms:.2}ms to load+resume"
    );

    // -- Checkpointed runs at each interval ----------------------------
    let mut extra = std::collections::BTreeMap::new();
    extra.insert("snapshot_ms".to_owned(), snapshot_ms);
    extra.insert("snapshot_bytes".to_owned(), snapshot_bytes as f64);
    extra.insert("resume_ms".to_owned(), resume_ms);
    extra.insert("plain_wall_s".to_owned(), plain_wall);
    println!("\n{:<22} {:>10} {:>10}", "interval", "wall s", "overhead");
    for (name, interval) in [
        ("eighth", (total / 8).max(1)),
        ("half", (total / 2).max(1)),
        ("default", DEFAULT_CKPT_INTERVAL),
    ] {
        let run_dir = dir.join(name);
        let (res, wall) = min_wall(reps, || {
            run_sim_resumable(&cfg, kernel, &run_dir, interval).expect("checkpointed run completes")
        });
        assert_eq!(
            fingerprint(&res),
            plain_fp,
            "interval {interval}: checkpointed run diverged from the plain run"
        );
        let overhead = wall / plain_wall.max(1e-9) - 1.0;
        extra.insert(format!("wall_s_{name}"), wall);
        extra.insert(format!("overhead_frac_{name}"), overhead);
        println!(
            "{:<22} {:>9.3}s {:>9.1}%",
            format!("{name} ({interval})"),
            wall,
            overhead * 1e2
        );
        if interval == DEFAULT_CKPT_INTERVAL {
            // The 5% gate. The 30ms floor keeps a sub-second smoke config
            // (RC_CKPT_BENCH_CYCLES in CI) from flaking on scheduler
            // noise; at realistic windows the relative bound dominates.
            assert!(
                overhead < 0.05 || (wall - plain_wall) < 0.030,
                "default-interval checkpointing costs {:.1}% > 5% wall overhead",
                overhead * 1e2
            );
        }
    }

    // -- Network tier: snapshot-size scaling past the 64-tile cap ------
    let mut summary = BenchSummary::new("checkpoint");
    let mut sim_row = bench_row("sim/complete/c64", 64, std::slice::from_ref(&plain));
    sim_row.extra = extra;
    summary.push(sim_row);

    println!(
        "\n{:<18} {:>12} {:>14}",
        "network tier", "snapshot ms", "bytes"
    );
    for cores in net_cores() {
        let (ms, bytes) = net_point(cores, net_cycles());
        println!(
            "{:<18} {:>11.2}ms {:>14}",
            format!("mesh c{cores}"),
            ms,
            bytes
        );
        let mut extra = std::collections::BTreeMap::new();
        extra.insert("snapshot_ms".to_owned(), ms);
        extra.insert("snapshot_bytes".to_owned(), bytes as f64);
        extra.insert(
            "snapshot_bytes_per_core".to_owned(),
            bytes as f64 / f64::from(cores),
        );
        summary.push(rcsim_bench::BenchRow {
            label: format!("net/complete/c{cores}"),
            cores: cores as usize,
            topology: "mesh".to_owned(),
            avg_latency: 0.0,
            p99_latency: 0.0,
            p999_latency: 0.0,
            circuit_hit_rate: 0.0,
            extra,
        });
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("\n(every checkpointed run above was asserted byte-identical to the");
    println!(" plain run, and default-interval overhead is gated at < 5%)");
    save_bench_summary(&mut summary);
}
