//! Wait-for-graph deadlock diagnoser regression, pinned to a genuine
//! fault-layer wedge: on a 4×4 Baseline mesh with one permanent dead
//! link, the detour routes around the hole break dimension order, and
//! saturating uniform random traffic closes the resulting channel
//! dependency cycle into a hard deadlock. The watchdog must (a) declare
//! the stall, (b) attach a [`DeadlockReport`] whose resources form an
//! actual cycle in wait order, and (c) render it in the `Display` form
//! `run_or_die` prints. The same traffic without the dead link must
//! drain with no report.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsim_core::{MechanismConfig, Mesh, MessageClass, NodeId};
use rcsim_noc::{
    DeadLinkEvent, DeadlockReport, FaultConfig, Network, NocConfig, PacketSpec, WatchdogConfig,
};

/// Offered load in packets per node per cycle: past the 4×4 mesh's
/// saturation point, so the detour cycle fills.
const RATE: f64 = 0.3;

/// The pinned seeds: each wedges the dead-link configuration within a
/// few thousand cycles (same seed → same wedge).
const SEEDS: std::ops::Range<u64> = 0..4;

/// Open-loop uniform random traffic (half single-flit requests, half
/// five-flit data replies) on a 4×4 Baseline mesh, with link 5–6 dead
/// from cycle 0 when `dead_link`: inject for a burst, then stop and let
/// the network drain. A healthy network quiesces; a wedged detour cycle
/// survives the drain, global progress ceases, and the watchdog fires.
/// Returns the network at the stall, at quiescence, or at the drain
/// deadline, whichever comes first.
fn drive(dead_link: bool, seed: u64) -> Network {
    let mesh = Mesh::new(4, 4).unwrap();
    let cfg = NocConfig::paper_baseline(mesh, MechanismConfig::baseline());
    let mut faults = FaultConfig::none();
    if dead_link {
        faults.dead_links.push(DeadLinkEvent {
            a: NodeId(5),
            b: NodeId(6),
            at: 0,
            duration: None,
        });
    }
    let mut net = Network::with_faults(cfg, faults).unwrap();
    net.set_watchdog(WatchdogConfig {
        stall_window: 400,
        ..WatchdogConfig::default()
    });
    let n = mesh.nodes() as u16;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..600u64 {
        for s in 0..n {
            if rng.gen_bool(RATE) {
                let dst = loop {
                    let d = NodeId(rng.gen_range(0..n));
                    if d != NodeId(s) {
                        break d;
                    }
                };
                let class = if rng.gen_bool(0.5) {
                    MessageClass::L1Request
                } else {
                    MessageClass::L2Reply
                };
                net.inject(PacketSpec::new(NodeId(s), dst, class));
            }
        }
        net.tick();
        net.take_all_delivered();
        if net.stalled() {
            return net;
        }
    }
    let deadline = net.now() + 30_000;
    while !net.is_quiescent() && !net.stalled() && net.now() < deadline {
        net.tick();
        net.take_all_delivered();
    }
    net
}

/// The structural invariant of a reported cycle: every listed resource
/// is a distinct blocked input VC, and (when untruncated) each entry's
/// wanted channel leads to the next entry in wait order.
fn assert_well_formed(report: &DeadlockReport) {
    assert!(
        report.cycle_len >= 2,
        "a circular wait involves at least two resources"
    );
    assert!(!report.resources.is_empty(), "cycle with no resources");
    assert!(report.resources.len() <= report.cycle_len);
    assert_eq!(
        report.truncated,
        report.resources.len() < report.cycle_len,
        "truncation flag disagrees with the listed length"
    );
    let mut seen = std::collections::BTreeSet::new();
    for r in &report.resources {
        assert!(
            seen.insert((r.node, r.in_port, r.vc)),
            "resource listed twice in one cycle"
        );
        assert!(
            r.packet.is_some(),
            "a blocked VC in a wait cycle holds a packet"
        );
        if r.out_vc.is_some() {
            assert_eq!(r.credits, 0, "a credit wait has zero credits left");
        }
    }
}

#[test]
fn dead_link_detour_wedge_is_diagnosed_as_a_cycle() {
    let mut diagnosed = 0;
    for seed in SEEDS {
        let net = drive(true, seed);
        if !net.stalled() {
            continue;
        }
        let health = net.health();
        assert!(health.stalled, "watchdog fired, report must say so");
        let Some(report) = &health.deadlock else {
            // A stall without a circular wait (e.g. pure injection
            // backlog) is legal for the diagnoser; the pinned seeds
            // must produce at least one true cycle.
            continue;
        };
        assert_well_formed(report);
        let rendered = format!("{health}");
        assert!(
            rendered.contains("DEADLOCK: circular wait over"),
            "Display must render the deadlock section:\n{rendered}"
        );
        assert!(
            rendered.contains("wants out"),
            "Display must render each blocked resource:\n{rendered}"
        );
        diagnosed += 1;
    }
    assert!(
        diagnosed > 0,
        "no seed produced a diagnosed deadlock — the pinned wedge is gone"
    );
}

#[test]
fn report_respects_the_entry_cap() {
    for seed in SEEDS {
        let mut net = drive(true, seed);
        if !net.stalled() {
            continue;
        }
        net.set_watchdog(WatchdogConfig {
            stall_window: 400,
            max_report_entries: 2,
            ..WatchdogConfig::default()
        });
        let Some(report) = net.health().deadlock else {
            continue;
        };
        if report.cycle_len > 2 {
            assert_eq!(report.resources.len(), 2, "cap ignored");
            assert!(report.truncated, "truncation must be flagged");
            return;
        }
    }
    panic!("no seed produced a diagnosed cycle of more than 2 resources");
}

/// The same traffic on the intact mesh drains to quiescence: no stall,
/// and a drained network's health carries no deadlock report.
#[test]
fn healthy_runs_carry_no_deadlock_report() {
    for seed in SEEDS {
        let net = drive(false, seed);
        assert!(net.is_quiescent(), "seed {seed}: intact mesh must drain");
        let health = net.health();
        assert!(!health.stalled, "seed {seed}: {health}");
        assert!(
            health.deadlock.is_none(),
            "no stall, no deadlock report: {health}"
        );
    }
}
