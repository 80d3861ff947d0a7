//! Full-system integration tests: every mechanism configuration runs a
//! real coherence workload, stays coherent, and reproduces the paper's
//! qualitative effects.

use rcsim_core::{ConfigError, KernelMode, MechanismConfig, Mesh, Topology};
use rcsim_protocol::ProtocolConfig;
use rcsim_system::{run_sim, Chip, SimConfig, SimError, SimSession};
use rcsim_workload::Workload;

fn quick(cores: u16, mechanism: MechanismConfig, workload: &str) -> SimConfig {
    SimConfig {
        warmup_cycles: 3_000,
        measure_cycles: 15_000,
        ..SimConfig::quick(cores, mechanism, workload)
    }
}

/// A full-system chip above the directory's 64-tile sharer set is a
/// configuration error, reported before any bank is built — not a panic.
#[test]
fn oversized_full_system_is_a_config_error() {
    let cfg = SimConfig::quick(256, MechanismConfig::complete(), "canneal");
    match SimSession::new(&cfg, None, KernelMode::Event, 1) {
        Err(SimError::Config(ConfigError::TooManyTiles { tiles, max })) => {
            assert_eq!((tiles, max), (256, 64));
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a 256-tile full system must be rejected"),
    }
}

/// A workload must run one thread per tile.
#[test]
fn workload_size_mismatch_is_a_config_error() {
    let mesh: Topology = Mesh::square(16).unwrap().into();
    let wl = Workload::by_name("canneal", 64, 7).unwrap();
    let err = Chip::new(
        mesh,
        MechanismConfig::baseline(),
        ProtocolConfig::small_for_tests(&mesh),
        &wl,
    )
    .err()
    .expect("a 64-thread workload on 16 tiles must be rejected");
    assert_eq!(
        err,
        ConfigError::CoreCountMismatch {
            threads: 64,
            tiles: 16
        }
    );
}

#[test]
fn every_configuration_runs_and_stays_coherent() {
    for mechanism in MechanismConfig::key_configs() {
        let mesh: Topology = Mesh::square(16).unwrap().into();
        let wl = Workload::by_name("canneal", 16, 7).unwrap();
        let mut chip =
            Chip::new(mesh, mechanism, ProtocolConfig::small_for_tests(&mesh), &wl).unwrap();
        chip.run(12_000).expect("chip run must not stall");
        let violations = chip.coherence_violations();
        assert!(
            violations.is_empty(),
            "{}: {:?}",
            mechanism.label(),
            violations
        );
        assert!(
            chip.instructions() > 1_000,
            "{} made no progress",
            mechanism.label()
        );
    }
}

#[test]
fn coherent_under_every_workload() {
    for name in ["fft", "ocean_ncp", "swaptions", "mix"] {
        let mesh: Topology = Mesh::square(16).unwrap().into();
        let wl = Workload::by_name(name, 16, 11).unwrap();
        let mut chip = Chip::new(
            mesh,
            MechanismConfig::complete_noack(),
            ProtocolConfig::small_for_tests(&mesh),
            &wl,
        )
        .unwrap();
        chip.run(12_000).expect("chip run must not stall");
        assert!(chip.coherence_violations().is_empty(), "{name}");
    }
}

/// The checker must not flag an ownership transfer in flight: after the
/// home forwards a GetX to the old owner, the requestor holds a writable
/// copy before its ack reaches the directory. On this canneal-64 run with
/// the paper's caches such a window opens at cycle 9 734 (block
/// `0x200000000`, holder `n23`); every cycle around it must check clean.
#[test]
fn ownership_transfer_in_flight_is_not_a_violation() {
    let cfg = SimConfig {
        small_caches: false,
        ..SimConfig::quick(64, MechanismConfig::complete_noack(), "canneal")
    };
    let mut session = SimSession::new(&cfg, None, KernelMode::Event, 1).unwrap();
    session.run_until(9_700).unwrap();
    while session.pos() < 9_800 {
        let violations = session.chip().coherence_violations();
        assert!(
            violations.is_empty(),
            "cycle {}: {violations:?}",
            session.pos()
        );
        session.run_until(session.pos() + 1).unwrap();
    }
}

#[test]
fn table1_shape_requests_vs_replies() {
    // Roughly half the messages are replies (Table 1: 47% / 53%), and
    // L2_Replies plus L1_DATA_ACKs dominate the reply mix.
    let r = run_sim(&quick(16, MechanismConfig::baseline(), "canneal")).unwrap();
    let total: u64 = r.messages.values().sum();
    let replies: u64 = [
        "L2_Reply",
        "L1_DATA_ACK",
        "L2_WB_ACK",
        "L1_INV_ACK",
        "MEMORY",
        "L1_TO_L1",
    ]
    .iter()
    .filter_map(|k| r.messages.get(*k))
    .sum();
    let frac = replies as f64 / total as f64;
    assert!(
        (0.35..=0.65).contains(&frac),
        "reply fraction {frac:.2} out of range; messages: {:?}",
        r.messages
    );
    assert!(r.messages.get("L2_Reply").copied().unwrap_or(0) > 0);
    assert!(r.messages.get("L1_DATA_ACK").copied().unwrap_or(0) > 0);
}

#[test]
fn network_is_lightly_loaded() {
    // The paper reports nodes injecting fewer than ~4 flits/100 cycles.
    let r = run_sim(&quick(16, MechanismConfig::baseline(), "blackscholes")).unwrap();
    assert!(
        r.load < 8.0,
        "load {} too high for a light workload",
        r.load
    );
    assert!(r.load > 0.0);
}

#[test]
fn complete_circuits_cut_circuit_reply_latency() {
    let base = run_sim(&quick(16, MechanismConfig::baseline(), "canneal")).unwrap();
    let complete = run_sim(&quick(16, MechanismConfig::complete(), "canneal")).unwrap();
    let b = base.latency["Circuit_Rep"].network;
    let c = complete.latency["Circuit_Rep"].network;
    assert!(
        c < b * 0.8,
        "circuit replies should be much faster: baseline {b:.1}, complete {c:.1}"
    );
    // Requests are untouched by the mechanism.
    let br = base.latency["Request"].network;
    let cr = complete.latency["Request"].network;
    assert!(
        (cr - br).abs() / br < 0.35,
        "requests roughly unchanged ({br:.1} vs {cr:.1})"
    );
}

#[test]
fn outcome_breakdown_is_complete_and_sane() {
    let r = run_sim(&quick(16, MechanismConfig::complete_noack(), "canneal")).unwrap();
    let sum: f64 = r.outcomes.values().sum();
    assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
    assert!(
        r.outcomes["circuit"] > 0.1,
        "some replies ride circuits: {:?}",
        r.outcomes
    );
    assert!(
        r.outcomes["eliminated"] > 0.05,
        "NoAck removes acks: {:?}",
        r.outcomes
    );
    assert!(r.outcomes["not_eligible"] > 0.0);
}

#[test]
fn noack_eliminates_acks_and_unblocks_lines() {
    let with_acks = run_sim(&quick(16, MechanismConfig::complete(), "canneal")).unwrap();
    let noack = run_sim(&quick(16, MechanismConfig::complete_noack(), "canneal")).unwrap();
    assert!(noack.acks_elided > 0);
    assert_eq!(with_acks.acks_elided, 0);
    let acks = |r: &rcsim_system::RunResult| r.messages.get("L1_DATA_ACK").copied().unwrap_or(0);
    assert!(
        acks(&noack) < acks(&with_acks),
        "NoAck must reduce ack traffic ({} vs {})",
        acks(&noack),
        acks(&with_acks)
    );
}

#[test]
fn circuit_configs_do_not_slow_the_chip_down() {
    // Figure 9: every complete-circuit version achieves a (small) speedup.
    // With short windows we only assert no significant slowdown and that
    // the best configs beat baseline.
    let base = run_sim(&quick(16, MechanismConfig::baseline(), "canneal")).unwrap();
    for mechanism in [
        MechanismConfig::complete(),
        MechanismConfig::complete_noack(),
        MechanismConfig::slack_delay(1),
        MechanismConfig::ideal(),
    ] {
        let r = run_sim(&quick(16, mechanism, "canneal")).unwrap();
        let s = r.speedup_over(&base);
        assert!(
            s > 0.97,
            "{} slowed the chip down: speedup {s:.3}",
            mechanism.label()
        );
    }
}

#[test]
fn complete_noack_saves_network_energy() {
    // Figure 8: the complete+NoAck configuration reduces network energy.
    let base = run_sim(&quick(16, MechanismConfig::baseline(), "canneal")).unwrap();
    let noack = run_sim(&quick(16, MechanismConfig::complete_noack(), "canneal")).unwrap();
    let ratio = noack.energy_ratio_over(&base);
    assert!(
        ratio < 1.0,
        "Complete_NoAck must save energy, got ratio {ratio:.3}"
    );
    // Fragmented grows the router: no static-energy win.
    let frag = run_sim(&quick(16, MechanismConfig::fragmented(), "canneal")).unwrap();
    assert!(frag.energy_ratio_over(&base) > ratio);
}

#[test]
fn table5_reservations_concentrate_on_first_entries() {
    let r = run_sim(&quick(64, MechanismConfig::complete_noack(), "canneal")).unwrap();
    let total: u64 = r.reservations_at_index.iter().sum();
    assert!(total > 0);
    assert!(
        r.reservations_at_index[0] > r.reservations_at_index[2],
        "first reservations dominate: {:?}",
        r.reservations_at_index
    );
}

#[test]
fn results_serialize_to_json() {
    let r = run_sim(&quick(16, MechanismConfig::complete(), "swaptions")).unwrap();
    let json = serde_json::to_string_pretty(&r).unwrap();
    assert!(json.contains("\"mechanism\": \"Complete\""));
    // And the document round-trips through the parser, measured fields,
    // histogram-backed latency summaries, health report and all.
    let back: rcsim_system::RunResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
}

#[test]
fn undo_on_l2_miss_ablation_runs() {
    let mut mechanism = MechanismConfig::complete_noack();
    mechanism.undo_on_l2_miss = true;
    let r = run_sim(&quick(16, mechanism, "canneal")).unwrap();
    assert!(r.instructions > 0);
    assert!(
        r.outcomes["undone"] > 0.0,
        "L2-miss undos appear: {:?}",
        r.outcomes
    );
}

#[test]
fn sixty_four_core_chip_runs() {
    let r = run_sim(&quick(64, MechanismConfig::slack_delay(1), "fft")).unwrap();
    assert_eq!(r.cores, 64);
    assert!(r.instructions > 10_000);
    assert!(r.outcomes["circuit"] > 0.0);
}

#[test]
fn partitioned_chip_stays_coherent() {
    // The §5.5 usage model: four quadrants, four applications, disjoint
    // shared regions.
    let mesh: Topology = Mesh::square(16).unwrap().into();
    let wl = Workload::partitioned(&["fft", "canneal", "swaptions", "barnes"], 16, 5)
        .expect("valid partitioned workload");
    let mut chip = Chip::new(
        mesh,
        MechanismConfig::complete_noack(),
        ProtocolConfig::small_for_tests(&mesh),
        &wl,
    )
    .unwrap();
    chip.run(12_000).expect("chip run must not stall");
    assert!(chip.coherence_violations().is_empty());
    assert!(chip.instructions() > 1_000);
    let stats = chip.noc_stats();
    assert!(
        stats.outcome_fraction(rcsim_noc::CircuitOutcome::OnCircuit) > 0.05,
        "circuits work inside partitions"
    );
}

#[test]
fn latency_quantiles_are_exposed() {
    let r = {
        let mesh: Topology = Mesh::square(16).unwrap().into();
        let wl = Workload::by_name("fft", 16, 3).unwrap();
        let mut chip = Chip::new(
            mesh,
            MechanismConfig::baseline(),
            ProtocolConfig::small_for_tests(&mesh),
            &wl,
        )
        .unwrap();
        chip.run(10_000).expect("chip run must not stall");
        chip.noc_stats()
    };
    let p50 = r
        .latency_quantile(rcsim_noc::MessageGroup::Request, 0.5)
        .expect("requests flowed");
    let p99 = r
        .latency_quantile(rcsim_noc::MessageGroup::Request, 0.99)
        .expect("requests flowed");
    assert!(p50 <= p99);
    assert!(p50 > 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = SimConfig::quick(16, MechanismConfig::baseline(), "not-an-app");
    assert!(run_sim(&cfg).is_err());
}
