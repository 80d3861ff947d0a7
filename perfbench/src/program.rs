//! Every call the benchmark makes into the simulator, in one file, so an
//! API change touches one place. Each call into a layer runs inside a
//! span named after that layer (see `spans.rs`); with the tracer off a
//! span is a plain call.
//!
//! Only the program's default execution path is measured: the kernel and
//! shard count are the values the program itself derives when no `RC_*`
//! variable is set (`main` refuses to start otherwise), runs go straight
//! through `SimSession` / `Network`, never through the sweep runner or
//! its result cache.

use crate::spans::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::circuit::CircuitKey;
use rcsim_core::{KernelMode, MechanismConfig, Mesh, MessageClass, NodeId};
use rcsim_noc::{CircuitOutcome, Network, NocConfig, NocStats, PacketSpec};
use rcsim_power::EnergyModel;
use rcsim_system::{shards_from_env, SessionSnapshot, SimConfig, SimSession};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fs64Canneal,
    Fs16Blackscholes,
    Noc256Echo,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fs64Canneal,
        Workload::Fs16Blackscholes,
        Workload::Noc256Echo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fs64Canneal => "fs64-canneal",
            Workload::Fs16Blackscholes => "fs16-blackscholes",
            Workload::Noc256Echo => "noc256-echo",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn tiles(self) -> u64 {
        match self {
            Workload::Fs64Canneal => 64,
            Workload::Fs16Blackscholes => 16,
            Workload::Noc256Echo => 256,
        }
    }

    /// Cycles simulated before the measured window (full system) and in
    /// the measured window: the full-system measured window, or the
    /// network-only injection window. `tiny` is for the self-test.
    fn lengths(self, tiny: bool) -> (u64, u64) {
        match (self, tiny) {
            // Table 2 caches need ~130 k cycles to warm on canneal-64:
            // the L1 miss rate is 52% over cycles 40-60 k, 4.1% over the
            // last tenth of 150 k.
            (Workload::Fs64Canneal, false) => (150_000, 50_000),
            (Workload::Fs16Blackscholes, false) => (120_000, 200_000),
            (Workload::Noc256Echo, false) => (0, 4_000),
            (Workload::Fs64Canneal, true) => (3_000, 1_000),
            (Workload::Fs16Blackscholes, true) => (3_000, 2_000),
            (Workload::Noc256Echo, true) => (0, 400),
        }
    }

    fn sim_config(self, seed: u64, tiny: bool) -> SimConfig {
        let (cores, app) = match self {
            Workload::Fs64Canneal => (64, "canneal"),
            Workload::Fs16Blackscholes => (16, "blackscholes"),
            Workload::Noc256Echo => unreachable!("network-only workload"),
        };
        let (warmup_cycles, measure_cycles) = self.lengths(tiny);
        SimConfig {
            seed,
            warmup_cycles,
            measure_cycles,
            small_caches: false,
            ..SimConfig::quick(cores, MechanismConfig::complete_noack(), app)
        }
    }
}

/// The execution strategy the program picks by default, for the report.
pub fn default_strategy() -> String {
    format!(
        "kernel {:?}, shards {}",
        KernelMode::from_env(),
        shards_from_env()
    )
}

/// Host time of the checkpoint round trip at the warm-up boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checkpoint {
    pub snapshot_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub resume_s: f64,
    pub bytes: u64,
}

/// One operation: a full-system run, or one network-only round of
/// requests (setup, injection window, drain).
#[derive(Debug, Clone, Default)]
pub struct Op {
    pub setup_s: f64,
    /// Config to checked result.
    pub run_s: f64,
    pub warmup_s: f64,
    pub window_s: f64,
    pub window_cycles: u64,
    /// Simulated cycles per host second in each of `SLICES` equal parts
    /// of the window.
    pub slice_rates: Vec<f64>,
    /// `SimSession::finish` (full system) or the drain to quiescence
    /// (network only).
    pub tail_s: f64,
    pub checkpoint: Option<Checkpoint>,
    /// Full system: runs. Network only: requests.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// FNV-1a-64 of the serialized `RunResult` or final `NocStats`.
    pub fingerprint: u64,
    /// Modelled quantities and work counters: identical for every run
    /// of one seed.
    pub figures: Vec<(&'static str, f64)>,
}

/// Builds (and drops) the workload's simulator once; returns host seconds.
pub fn setup_only(w: Workload, seed: u64, tiny: bool, tr: &mut Tracer) -> f64 {
    let t = Instant::now();
    match w {
        Workload::Noc256Echo => drop(tr.span("noc.network.new", |_| Network::new(noc_config()))),
        _ => drop(tr.span("system.sim.new", |_| {
            SimSession::new(
                &w.sim_config(seed, tiny),
                None,
                KernelMode::from_env(),
                shards_from_env(),
            )
        })),
    }
    t.elapsed().as_secs_f64()
}

/// Runs one operation of `w`; `scratch` holds the checkpoint file.
pub fn run_op(w: Workload, seed: u64, tiny: bool, scratch: &Path, tr: &mut Tracer) -> Op {
    match w {
        Workload::Noc256Echo => noc_op(seed, w.lengths(tiny).1, tr),
        Workload::Fs64Canneal => fs_op(&w.sim_config(seed, tiny), Some(scratch), tr),
        Workload::Fs16Blackscholes => fs_op(&w.sim_config(seed, tiny), None, tr),
    }
}

fn fs_op(cfg: &SimConfig, checkpoint_dir: Option<&Path>, tr: &mut Tracer) -> Op {
    let mut op = Op {
        attempted: 1,
        ..Op::default()
    };
    if let Err(e) = fs_run(cfg, checkpoint_dir, tr, &mut op) {
        op.failures.push(e);
    }
    op.failed = u64::from(!op.failures.is_empty());
    op
}

fn fs_run(
    cfg: &SimConfig,
    checkpoint_dir: Option<&Path>,
    tr: &mut Tracer,
    op: &mut Op,
) -> Result<(), String> {
    let (kernel, shards) = (KernelMode::from_env(), shards_from_env());
    let t0 = Instant::now();
    let mut session = tr
        .span("system.sim.new", |_| {
            SimSession::new(cfg, None, kernel, shards)
        })
        .map_err(|e| e.to_string())?;
    op.setup_s = t0.elapsed().as_secs_f64();

    // Warm-up, split before its last tenth to read the L1 miss rate of
    // that slice: evidence that the caches are warm when measuring starts.
    let warmup = cfg.warmup_cycles;
    let t = Instant::now();
    let tail_l1 = tr.span("system.sim.warmup", |tr| {
        tr.span("system.sim.run_until", |_| {
            session.run_until(warmup - warmup / 10)
        })?;
        let before = tr.span("protocol.l1.totals", |_| session.chip().l1_totals());
        tr.span("system.sim.run_until", |_| session.run_until(warmup))?;
        let after = tr.span("protocol.l1.totals", |_| session.chip().l1_totals());
        Ok::<_, rcsim_system::SimError>((after.hits - before.hits, after.misses - before.misses))
    });
    let (tail_hits, tail_misses) = tail_l1.map_err(|e| e.to_string())?;
    op.warmup_s = t.elapsed().as_secs_f64();

    if let Some(dir) = checkpoint_dir {
        // Checkpoint to a file and resume from it, as a long run with
        // `RC_CKPT_DIR` set does after a restart.
        let path = dir.join(format!("fs-{}.ckpt", std::process::id()));
        let mut c = Checkpoint::default();
        let t = Instant::now();
        let snap = tr.span("system.checkpoint.snapshot", |_| session.checkpoint());
        c.snapshot_s = t.elapsed().as_secs_f64();
        drop(session);
        let t = Instant::now();
        tr.span("system.checkpoint.save", |_| snap.save(&path))
            .map_err(|e| format!("checkpoint save: {e}"))?;
        c.save_s = t.elapsed().as_secs_f64();
        drop(snap);
        c.bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let t = Instant::now();
        let loaded = tr.span("system.checkpoint.load", |_| SessionSnapshot::load(&path));
        c.load_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.ok_or("checkpoint did not load back")?;
        let t = Instant::now();
        session = tr
            .span("system.checkpoint.resume", |_| {
                SimSession::resume(&loaded, kernel, shards)
            })
            .map_err(|e| e.to_string())?;
        c.resume_s = t.elapsed().as_secs_f64();
        op.checkpoint = Some(c);
    }

    // The coherence check runs after every slice of the window. Besides
    // the single-writer rule it reports a writable L1 copy its directory
    // does not list, which an ownership transfer whose ack is still in
    // flight also shows for some tens of cycles (the directory records
    // the new owner when the ack arrives). Such a report fails the run
    // only when the next check, a slice later, repeats it; any other
    // report fails it at once.
    let total = session.total();
    let slice = cfg.measure_cycles.div_ceil(SLICES);
    let mut violations = BTreeSet::new();
    tr.span("system.sim.measure", |tr| {
        let mut previous = Vec::new();
        while session.pos() < total {
            let t = Instant::now();
            let end = (session.pos() + slice).min(total);
            let cycles = end - session.pos();
            if tr.is_on() {
                // Traced: one span per simulated cycle.
                while session.pos() < end {
                    let next = session.pos() + 1;
                    tr.span("system.chip.tick", |_| session.run_until(next))?;
                }
            } else {
                session.run_until(end)?;
            }
            let slice_s = t.elapsed().as_secs_f64();
            op.window_s += slice_s;
            op.slice_rates.push(cycles as f64 / slice_s);
            let found = tr.span("system.chip.coherence_violations", |_| {
                session.chip().coherence_violations()
            });
            for v in &found {
                if !v.contains("unknown to the directory") || previous.contains(v) {
                    violations.insert(v.clone());
                }
            }
            previous = found;
        }
        Ok(())
    })
    .map_err(|e: rcsim_system::SimError| e.to_string())?;
    op.window_cycles = cfg.measure_cycles;

    let stats = tr.span("noc.network.stats", |_| session.chip().noc_stats());
    let l1 = tr.span("protocol.l1.totals", |_| session.chip().l1_totals());
    let l2 = tr.span("protocol.l2.totals", |_| session.chip().l2_totals());
    let t = Instant::now();
    let (result, _) = tr.span("system.report.finish", |_| session.finish());
    op.tail_s = t.elapsed().as_secs_f64();
    op.run_s = t0.elapsed().as_secs_f64();

    op.failures
        .extend(violations.into_iter().map(|v| format!("coherence: {v}")));
    if !result.health.healthy() {
        op.failures.push(format!("unhealthy:\n{}", result.health));
    }
    op.fingerprint = fnv1a_64(
        serde_json::to_string(&result)
            .expect("results serialize")
            .as_bytes(),
    );
    let (mut latency_sum, mut latency_n) = (0.0, 0);
    for row in result.latency.values() {
        latency_sum += row.network * row.count as f64;
        latency_n += row.count;
    }
    let accesses = l1.hits + l1.misses;
    let mut figures = vec![
        ("sim_ipc", result.ipc_per_core()),
        (
            "sim_net_latency_cycles",
            ratio(latency_sum, latency_n as f64),
        ),
        ("sim_noc_energy_nj", result.energy.total_pj() / 1e3),
        ("system.instructions", result.instructions as f64),
        ("protocol.l1.accesses", accesses as f64),
        ("protocol.l1.misses", l1.misses as f64),
        (
            "protocol.l1.miss_rate",
            ratio(l1.misses as f64, accesses as f64),
        ),
        (
            "protocol.l1.warmup_tail_miss_rate",
            ratio(tail_misses as f64, (tail_hits + tail_misses) as f64),
        ),
        ("protocol.l1.reissues", l1.reissues as f64),
        ("protocol.l1.acks_elided", l1.acks_elided as f64),
        ("protocol.l2.queued_on_busy", l2.queued_on_busy as f64),
        ("protocol.l2.busy_wait_cycles", l2.busy_wait_cycles as f64),
    ];
    figures.extend(noc_counters(&stats));
    op.figures = figures;
    Ok(())
}

/// Parts of the measured window timed on their own.
const SLICES: u64 = 25;

/// Closed-loop request/echo traffic on a 16×16 Baseline mesh: each node
/// sends a request to a uniform-random other node with probability
/// `RATE` per cycle while it has fewer than `WINDOW` outstanding; every
/// request is echoed back as an `L2Reply`.
const RATE: f64 = 0.01;
const WINDOW: u32 = 8;

fn noc_config() -> NocConfig {
    NocConfig::paper_baseline(
        Mesh::new(16, 16).expect("16×16 is a valid mesh"),
        MechanismConfig::baseline(),
    )
}

fn noc_op(seed: u64, window: u64, tr: &mut Tracer) -> Op {
    let mut op = Op::default();
    let t0 = Instant::now();
    let mut net = match tr.span("noc.network.new", |_| Network::new(noc_config())) {
        Ok(net) => net,
        Err(e) => {
            op.attempted = 1;
            op.failed = 1;
            op.failures.push(e.to_string());
            return op;
        }
    };
    op.setup_s = t0.elapsed().as_secs_f64();
    let nodes = 256u16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outstanding = vec![0u32; usize::from(nodes)];
    let mut replied: Vec<bool> = Vec::new();

    let slice = window.div_ceil(SLICES);
    let mut t = Instant::now();
    tr.span("noc.window", |tr| {
        for cycle in 1..=window {
            for s in 0..nodes {
                if outstanding[usize::from(s)] < WINDOW && rng.gen_bool(RATE) {
                    let dst = loop {
                        let d = rng.gen_range(0..nodes);
                        if d != s {
                            break d;
                        }
                    };
                    let token = replied.len() as u64;
                    replied.push(false);
                    outstanding[usize::from(s)] += 1;
                    let spec = PacketSpec::new(NodeId(s), NodeId(dst), MessageClass::L1Request)
                        .with_block(token * 64)
                        .with_token(token);
                    tr.span("noc.network.inject", |_| net.inject(spec));
                }
            }
            echo_cycle(&mut net, &mut outstanding, &mut replied, tr);
            if cycle % slice == 0 || cycle == window {
                let slice_s = t.elapsed().as_secs_f64();
                op.window_s += slice_s;
                op.slice_rates
                    .push(((cycle - 1) % slice + 1) as f64 / slice_s);
                t = Instant::now();
            }
        }
    });
    op.window_cycles = window;
    let stats = tr.span("noc.network.stats", |_| net.stats());

    let t = Instant::now();
    let deadline = window + 1_000_000;
    tr.span("noc.network.drain", |tr| {
        while !tr.span("noc.network.is_quiescent", |_| net.is_quiescent()) && net.now() < deadline {
            echo_cycle(&mut net, &mut outstanding, &mut replied, tr);
        }
    });
    op.tail_s = t.elapsed().as_secs_f64();
    let final_stats = tr.span("noc.network.stats", |_| net.stats());
    let quiescent = tr.span("noc.network.is_quiescent", |_| net.is_quiescent());
    let health = tr.span("noc.network.health", |_| net.health());
    op.run_s = t0.elapsed().as_secs_f64();

    op.attempted = replied.len() as u64;
    op.failed = replied.iter().filter(|&&r| !r).count() as u64;
    if op.failed > 0 {
        op.failures
            .push(format!("{} requests without a reply", op.failed));
    }
    if !quiescent {
        op.failures.push("not quiescent after drain".into());
    }
    if final_stats.injected != final_stats.delivered {
        op.failures.push(format!(
            "injected {:?} != delivered {:?}",
            final_stats.injected, final_stats.delivered
        ));
    }
    if !health.healthy() {
        op.failures.push(format!("unhealthy:\n{health}"));
    }
    op.fingerprint = fnv1a_64(
        serde_json::to_string(&final_stats)
            .expect("stats serialize")
            .as_bytes(),
    );
    let (mut latency_sum, mut latency_n) = (0.0, 0);
    for s in stats.network_latency.values() {
        latency_sum += s.mean() * s.count() as f64;
        latency_n += s.count();
    }
    let energy =
        EnergyModel::default_32nm().network_energy(&stats, &MechanismConfig::baseline(), 16, 16);
    let mut figures = vec![
        (
            "sim_net_latency_cycles",
            ratio(latency_sum, latency_n as f64),
        ),
        ("sim_noc_energy_nj", energy.total_pj() / 1e3),
        ("noc.requests", op.attempted as f64),
    ];
    figures.extend(noc_counters(&stats));
    op.figures = figures;
    op
}

/// One cycle of the echo loop: tick, collect deliveries, answer requests
/// and retire replies.
fn echo_cycle(net: &mut Network, outstanding: &mut [u32], replied: &mut [bool], tr: &mut Tracer) {
    tr.span("noc.network.tick", |_| net.tick());
    let delivered = tr.span("noc.network.take_all_delivered", |_| {
        net.take_all_delivered()
    });
    for (node, d) in delivered {
        match d.class {
            MessageClass::L1Request => {
                let spec = PacketSpec::new(node, d.src, MessageClass::L2Reply)
                    .with_block(d.block)
                    .with_token(d.token)
                    .with_circuit_key(CircuitKey {
                        requestor: d.src,
                        block: d.block,
                    });
                tr.span("noc.network.inject", |_| net.inject(spec));
            }
            MessageClass::L2Reply => {
                outstanding[node.index()] -= 1;
                replied[d.token as usize] = true;
            }
            other => panic!("unexpected {other} in the echo loop"),
        }
    }
}

/// Work counters of the network and its circuit tables.
fn noc_counters(stats: &NocStats) -> Vec<(&'static str, f64)> {
    let a = &stats.activity;
    let outcome = |o| stats.outcomes.get(&o).copied().unwrap_or(0) as f64;
    let eligible: f64 = [
        CircuitOutcome::OnCircuit,
        CircuitOutcome::Failed,
        CircuitOutcome::Undone,
        CircuitOutcome::Scrounger,
        CircuitOutcome::FaultDegraded,
        CircuitOutcome::TornDown,
    ]
    .into_iter()
    .map(outcome)
    .sum();
    vec![
        ("noc.router.buffer_writes", a.buffer_writes as f64),
        ("noc.router.buffer_reads", a.buffer_reads as f64),
        ("noc.router.xbar_traversals", a.xbar_traversals as f64),
        ("noc.router.vc_allocs", a.vc_allocs as f64),
        ("noc.router.sw_allocs", a.sw_allocs as f64),
        ("noc.link.flits", a.link_flits as f64),
        ("noc.link.credits", a.credits as f64),
        ("noc.ni.flits_injected", stats.flits_injected as f64),
        ("core.circuit.writes", a.circuit_writes as f64),
        ("core.circuit.lookups", a.circuit_lookups as f64),
        (
            "core.circuit.on_circuit_share",
            ratio(outcome(CircuitOutcome::OnCircuit), eligible),
        ),
        (
            "core.circuit.reservations_failed",
            stats.tables.total_failed() as f64,
        ),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, the hash the simulator's own checkpoints use.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
