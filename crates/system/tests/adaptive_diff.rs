//! Differential and edge-case layer for the adaptive runtime policies
//! (DESIGN.md §14).
//!
//! Two obligations, mirroring the `kernel_diff` suite:
//!
//! * **Off-path**: with `adaptive: None` — the default — the policy
//!   hooks must be invisible. Serialized configs must not mention the
//!   field (cache keys and goldens predate it), and full runs must stay
//!   byte-identical across both kernels on mesh and torus, trace streams
//!   included.
//! * **On-path**: with the controller enabled the simulation is still a
//!   deterministic function of the config — bit-reproducible across
//!   repeated runs and invariant to `RC_KERNEL`, which is what pins the
//!   controller to the tick prologue.
//!
//! Plus the epoch edge cases: decision epochs that do not divide the run
//! length, all-idle regions (sampling must not perturb), a fault onset
//! landing exactly on a decision tick, and decisions spanning the
//! warm-up/measure stats reset.

use rcsim_core::MechanismConfig;
use rcsim_system::{
    run_sim_traced_with, run_sim_with, AdaptiveConfig, DeadLinkEvent, KernelMode, SimConfig,
    TraceConfig,
};

fn quick(cores: u16, mechanism: MechanismConfig) -> SimConfig {
    SimConfig {
        seed: 0xADA9,
        warmup_cycles: 500,
        measure_cycles: 2_500,
        ..SimConfig::quick(cores, mechanism, "blackscholes")
    }
}

/// Aggressive knobs for the quick coherence workloads: thresholds low
/// enough that ordinary L1 miss traffic heats regions and dwell short
/// enough that they also cool, so detours, suppression and teardowns all
/// fire inside a 3 000-cycle run.
fn aggressive() -> AdaptiveConfig {
    AdaptiveConfig {
        decision_epoch: 40,
        regions: 4,
        hot_enter: 96,
        hot_exit: 48,
        min_dwell: 80,
        detour: true,
        mech_switch: true,
    }
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        capacity: 1 << 20,
        epoch: 0,
    }
}

/// Runs `cfg` traced under both kernels and asserts the event kernel's
/// serialized report *and* trace-event sequence are identical to the
/// dense reference. Returns the reference run.
fn assert_traced_kernels_agree(
    cfg: &SimConfig,
    label: &str,
) -> (rcsim_system::RunResult, Vec<rcsim_trace::TraceEvent>) {
    let trace = trace_cfg();
    let (reference, reference_tr) =
        run_sim_traced_with(cfg, &trace, KernelMode::Dense).expect("dense run");
    let (run, tr) = run_sim_traced_with(cfg, &trace, KernelMode::Event).expect("event run");
    assert_eq!(
        serde_json::to_string(&reference).expect("serialize reference"),
        serde_json::to_string(&run).expect("serialize run"),
        "the event kernel diverged from the dense reference on {label}"
    );
    assert_eq!(
        reference_tr.events, tr.events,
        "trace-event sequences diverged between the kernels on {label}"
    );
    (reference, reference_tr.events)
}

/// The `adaptive` field must be absent from serialized configs when off
/// (cache keys and goldens predate the field) and present when set.
#[test]
fn serialized_config_omits_adaptive_when_off() {
    let cfg = quick(16, MechanismConfig::complete());
    let json = serde_json::to_string(&cfg).expect("serialize config");
    assert!(
        !json.contains("adaptive"),
        "adaptive-off config leaks the field: {json}"
    );
    let round: SimConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(round, cfg, "config round-trip changed the value");

    let mut on = cfg;
    on.adaptive = Some(AdaptiveConfig::default());
    let json = serde_json::to_string(&on).expect("serialize config");
    assert!(
        json.contains("adaptive"),
        "adaptive-on config lost the field"
    );
    let round: SimConfig = serde_json::from_str(&json).expect("deserialize config");
    assert_eq!(round, on, "adaptive config round-trip changed the value");
}

/// Adaptive absent: traced runs under both kernels must stay
/// byte-identical on mesh and torus with the policy hooks compiled in.
#[test]
fn adaptive_off_kernels_are_byte_identical() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
        let cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
        let (run, events) = assert_traced_kernels_agree(
            &cfg,
            &format!("adaptive off, complete @ 16 cores on {}", spec.label()),
        );
        assert_eq!(
            run.health.adaptive,
            Default::default(),
            "adaptive counters must stay zero when the policy is off"
        );
        assert!(
            !events.iter().any(|e| e.kind.name() == "policy_switch"),
            "policy events emitted with the policy off"
        );
    }
}

/// Adaptive on: the run is bit-reproducible and kernel-invariant, the
/// controller actually fires (decisions, switches in both directions,
/// suppressed circuits), and every switch appears in the trace stream.
#[test]
fn adaptive_on_is_reproducible_and_kernel_invariant() {
    use rcsim_core::TopologySpec;
    for spec in [TopologySpec::Mesh, TopologySpec::Torus] {
        let mut cfg = quick(16, MechanismConfig::complete()).with_topology(spec);
        // No warm-up: events before the stats reset are drained from the
        // trace, so the traced-switch count only matches the whole-run
        // counter when the whole run is the measure window.
        cfg.warmup_cycles = 0;
        cfg.adaptive = Some(aggressive());
        let label = format!("adaptive on, complete @ 16 cores on {}", spec.label());
        let (run, events) = assert_traced_kernels_agree(&cfg, &label);
        let (again, again_events) =
            run_sim_traced_with(&cfg, &trace_cfg(), KernelMode::Dense).expect("repeat run");
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "repeated adaptive run was not bit-reproducible on {label}"
        );
        assert_eq!(
            events, again_events.events,
            "repeated trace diverged on {label}"
        );
        let ad = &run.health.adaptive;
        assert!(ad.decisions > 0, "controller never ran on {label}");
        assert!(ad.hot_switches > 0, "no region ever heated on {label}");
        let switch_events = events
            .iter()
            .filter(|e| e.kind.name() == "policy_switch")
            .count() as u64;
        assert_eq!(
            switch_events,
            ad.hot_switches + ad.calm_switches,
            "every switch must be traced on {label}"
        );
    }
}

/// A decision epoch that does not divide the warm-up or measure length:
/// the controller must still fire on every multiple inside the run and
/// both kernels must agree. 2 500 + 500 cycles with a 33-cycle
/// epoch puts decisions at awkward offsets relative to both boundaries.
#[test]
fn epoch_not_dividing_run_length_is_kernel_invariant() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.adaptive = Some(AdaptiveConfig {
        decision_epoch: 33,
        ..aggressive()
    });
    let (run, _) = assert_traced_kernels_agree(&cfg, "33-cycle epoch");
    // Decisions start at the first epoch boundary and continue through
    // warm-up and measure: 3 000 / 33 = 90 full epochs.
    assert_eq!(run.health.adaptive.decisions, 3_000 / 33);
}

/// All-idle regions: with thresholds no sane run can reach, the
/// controller samples every epoch but never switches — and because
/// sampling is pure observation, the run's traffic statistics are
/// identical to the adaptive-off run bit for bit.
#[test]
fn all_idle_regions_never_switch_and_never_perturb() {
    let off = quick(16, MechanismConfig::complete());
    let mut on = off.clone();
    on.adaptive = Some(AdaptiveConfig {
        hot_enter: u64::MAX,
        hot_exit: u64::MAX / 2,
        ..aggressive()
    });
    let off_run = run_sim_with(&off, KernelMode::Event).expect("off run");
    let on_run = run_sim_with(&on, KernelMode::Event).expect("on run");
    let ad = &on_run.health.adaptive;
    assert!(ad.decisions > 0, "controller never sampled");
    assert_eq!(ad.hot_switches, 0);
    assert_eq!(ad.calm_switches, 0);
    assert_eq!(ad.circuits_suppressed, 0);
    assert_eq!(ad.congestion_detours, 0);
    // Everything measured about the traffic must match the off run; only
    // the adaptive decision counter itself may differ.
    assert_eq!(off_run.messages, on_run.messages);
    assert_eq!(off_run.latency, on_run.latency);
    assert_eq!(off_run.outcomes, on_run.outcomes);
    assert_eq!(off_run.energy, on_run.energy);
    assert_eq!(off_run.health.in_flight, on_run.health.in_flight);
}

/// A fault onset landing exactly on a decision tick: the fault pre-pass
/// (teardown, purge, reroute) and the policy decision run back to back
/// in the same tick prologue, and the kernels must still agree.
#[test]
fn fault_onset_on_a_decision_tick_is_kernel_invariant() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.adaptive = Some(aggressive());
    // Epoch 40 ⇒ decisions at 40, 80, …, 2 000, … — the link dies at
    // t = 2 000, exactly a decision tick, inside the measure window.
    cfg.faults.dead_links = vec![DeadLinkEvent {
        a: rcsim_core::NodeId(5),
        b: rcsim_core::NodeId(6),
        at: 2_000,
        duration: None,
    }];
    let (run, _) = assert_traced_kernels_agree(&cfg, "fault onset on decision tick");
    assert!(run.health.adaptive.decisions > 0);
    assert_eq!(run.health.dead_links.len(), 1, "link never died");
}

/// Decisions spanning the warm-up/measure boundary: the stats reset at
/// the end of warm-up zeroes the traffic counters but must not disturb
/// the controller (mode, dwell clocks, decision phase) — the decision
/// count covers the whole run and the kernels still agree.
#[test]
fn warmup_drain_keeps_controller_state_across_stats_reset() {
    let mut cfg = quick(16, MechanismConfig::complete());
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 2_000;
    cfg.adaptive = Some(aggressive());
    let (run, _) = assert_traced_kernels_agree(&cfg, "decisions across warm-up reset");
    // Ticks cover t = 0 … 2 999, so decisions land at every multiple of
    // 40 up to 2 960: ⌊2 999 / 40⌋ = 74 in total, the first 24 during
    // warm-up — none lost to the reset.
    assert_eq!(run.health.adaptive.decisions, 74);
}
