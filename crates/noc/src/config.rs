//! Network configuration and the virtual-channel layout.

use rcsim_core::{MechanismConfig, Topology, Vnet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Configuration of one network instance.
///
/// The defaults of [`NocConfig::paper_baseline`] reproduce Table 4 of the
/// paper: 2 VCs per virtual network (plus the fragmented mode's extra
/// reply VC), 5-flit buffers, 16-byte flits, 1-cycle links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Network topology (mesh, torus, concentrated mesh or ring).
    pub topology: Topology,
    /// The Reactive Circuits mechanism configuration.
    pub mechanism: MechanismConfig,
    /// Flit buffer depth per VC, in flits (5: one whole data message).
    pub buffer_depth: u32,
    /// Flit payload width in bytes (16).
    pub flit_bytes: u32,
    /// Virtual channels in the request virtual network (2).
    pub req_vcs: usize,
    /// Link traversal latency in cycles (1).
    pub link_latency: u32,
    /// Fixed ejection + responder-NI + injection overhead added to the
    /// timed-window nominal estimate, in cycles. The reservation estimator
    /// of §4.7 counts 5 cycles/hop for the request, the responder
    /// turnaround, and 2 cycles/hop for the reply; the constant pipeline
    /// cycles at both endpoints are known at design time and included here
    /// so that an undelayed request yields an exactly-met window.
    pub inject_overhead: u32,
    /// Extra reply VCs on top of the mechanism's count. Wrap topologies
    /// (torus, ring) need one so each virtual network keeps at least two
    /// allocatable VCs after the dateline split halves them into classes.
    pub extra_reply_vcs: usize,
}

impl NocConfig {
    /// The Table 4 configuration for a given topology and mechanism. On
    /// wrap topologies one extra reply VC is provisioned for the dateline
    /// classes; on the mesh the layout is exactly the paper's.
    pub fn paper_baseline(topology: impl Into<Topology>, mechanism: MechanismConfig) -> Self {
        let topology = topology.into();
        Self {
            topology,
            mechanism,
            buffer_depth: 5,
            flit_bytes: 16,
            req_vcs: 2,
            link_latency: 1,
            inject_overhead: 6,
            extra_reply_vcs: usize::from(topology.has_wrap()),
        }
    }

    /// The VC layout implied by the mechanism configuration.
    pub fn vc_layout(&self) -> VcLayout {
        VcLayout {
            req_vcs: self.req_vcs,
            reply_vcs: self.mechanism.reply_vcs() + self.extra_reply_vcs,
            circuit_vcs: self.mechanism.circuit_vcs(),
        }
    }
}

/// How the virtual channels of one physical port are split between the two
/// virtual networks and the circuit class.
///
/// VC indices are dense: request VCs first, then reply VCs; the *last*
/// `circuit_vcs` reply VCs are the circuit class (bufferless in complete
/// mode).
///
/// # Examples
///
/// ```
/// use rcsim_core::{MechanismConfig, Mesh, Vnet};
/// use rcsim_noc::NocConfig;
///
/// let cfg = NocConfig::paper_baseline(
///     Mesh::new(4, 4)?,
///     MechanismConfig::complete(),
/// );
/// let vl = cfg.vc_layout();
/// assert_eq!(vl.total(), 4);
/// assert_eq!(vl.vnet_of(0), Vnet::Request);
/// assert_eq!(vl.vnet_of(3), Vnet::Reply);
/// assert!(vl.is_circuit_vc(3));
/// assert!(!vl.is_circuit_vc(2));
/// # Ok::<(), rcsim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcLayout {
    /// VCs in the request virtual network.
    pub req_vcs: usize,
    /// VCs in the reply virtual network (incl. circuit class).
    pub reply_vcs: usize,
    /// Trailing reply VCs dedicated to circuits.
    pub circuit_vcs: usize,
}

impl VcLayout {
    /// Total VCs per port.
    pub fn total(&self) -> usize {
        self.req_vcs + self.reply_vcs
    }

    /// Virtual network a VC index belongs to.
    ///
    /// Invariant: `vc < self.total()` — VC indices come from the layout
    /// itself, so this is debug-asserted rather than checked on the hot
    /// path. An out-of-range index classifies as `Reply` in release
    /// builds.
    pub fn vnet_of(&self, vc: usize) -> Vnet {
        debug_assert!(vc < self.total(), "vc {vc} out of range");
        if vc < self.req_vcs {
            Vnet::Request
        } else {
            Vnet::Reply
        }
    }

    /// The VC index range of a virtual network.
    pub fn vcs_of(&self, vnet: Vnet) -> Range<usize> {
        match vnet {
            Vnet::Request => 0..self.req_vcs,
            Vnet::Reply => self.req_vcs..self.total(),
        }
    }

    /// `true` when `vc` is a circuit-class VC.
    pub fn is_circuit_vc(&self, vc: usize) -> bool {
        vc >= self.total() - self.circuit_vcs && vc < self.total()
    }

    /// The global VC index of circuit VC `i`.
    ///
    /// Invariant: `i < self.circuit_vcs` — callers iterate the layout's
    /// own circuit range, so this is debug-asserted rather than checked
    /// on the hot path.
    pub fn circuit_vc(&self, i: usize) -> usize {
        debug_assert!(i < self.circuit_vcs, "circuit vc {i} out of range");
        self.total() - self.circuit_vcs + i
    }

    /// The VC index range a packet may be *allocated* in by the VC
    /// allocator: its VN's VCs minus the circuit class (circuit VCs are
    /// only ever used through reservations).
    pub fn allocatable_vcs(&self, vnet: Vnet) -> Range<usize> {
        match vnet {
            Vnet::Request => 0..self.req_vcs,
            Vnet::Reply => self.req_vcs..self.total() - self.circuit_vcs,
        }
    }

    /// The allocatable-VC subset for one dateline class on wrap
    /// topologies: class 0 (still to cross the wrap link in the current
    /// dimension) gets the first half of the VN's allocatable VCs, class 1
    /// (past the wrap, or never crossing it) the rest. Splitting by VC
    /// index breaks the channel-dependency cycle a torus/ring would
    /// otherwise close through its wraparound links.
    pub fn allocatable_class_vcs(&self, vnet: Vnet, class: u8) -> Range<usize> {
        let all = self.allocatable_vcs(vnet);
        let mid = all.start + (all.end - all.start) / 2;
        if class == 0 {
            all.start..mid
        } else {
            mid..all.end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcsim_core::{MechanismConfig, Mesh};

    fn layout_for(mechanism: MechanismConfig) -> VcLayout {
        NocConfig::paper_baseline(Mesh::new(4, 4).unwrap(), mechanism).vc_layout()
    }

    #[test]
    fn wrap_topologies_gain_a_reply_vc_and_split_classes() {
        let torus =
            NocConfig::paper_baseline(Topology::torus(4, 4).unwrap(), MechanismConfig::complete());
        assert_eq!(torus.extra_reply_vcs, 1);
        let vl = torus.vc_layout();
        // 2 req + (2 complete + 1 extra) reply, last one the circuit VC.
        assert_eq!(vl.total(), 5);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..4);
        // Each class keeps at least one allocatable VC in both VNs.
        for vnet in [Vnet::Request, Vnet::Reply] {
            let c0 = vl.allocatable_class_vcs(vnet, 0);
            let c1 = vl.allocatable_class_vcs(vnet, 1);
            assert!(!c0.is_empty() && !c1.is_empty(), "{vnet:?}: {c0:?}/{c1:?}");
            assert_eq!(c0.end, c1.start);
            assert_eq!(c0.start, vl.allocatable_vcs(vnet).start);
            assert_eq!(c1.end, vl.allocatable_vcs(vnet).end);
        }
        // Mesh keeps the paper's exact layout: no extra VC.
        let mesh = NocConfig::paper_baseline(Mesh::new(4, 4).unwrap(), MechanismConfig::complete());
        assert_eq!(mesh.extra_reply_vcs, 0);
        assert_eq!(mesh.vc_layout().total(), 4);
    }

    #[test]
    fn baseline_layout() {
        let vl = layout_for(MechanismConfig::baseline());
        assert_eq!(vl.total(), 4);
        assert_eq!(vl.circuit_vcs, 0);
        assert_eq!(vl.vcs_of(Vnet::Request), 0..2);
        assert_eq!(vl.vcs_of(Vnet::Reply), 2..4);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..4);
        assert!(!vl.is_circuit_vc(3));
    }

    #[test]
    fn fragmented_layout_has_extra_vc() {
        let vl = layout_for(MechanismConfig::fragmented());
        assert_eq!(vl.total(), 5);
        assert_eq!(vl.circuit_vcs, 2);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..3);
        assert!(vl.is_circuit_vc(3));
        assert!(vl.is_circuit_vc(4));
        assert_eq!(vl.circuit_vc(0), 3);
        assert_eq!(vl.circuit_vc(1), 4);
    }

    #[test]
    fn complete_layout_dedicates_one_vc() {
        let vl = layout_for(MechanismConfig::complete());
        assert_eq!(vl.total(), 4);
        assert_eq!(vl.circuit_vcs, 1);
        assert_eq!(vl.allocatable_vcs(Vnet::Reply), 2..3);
        assert!(vl.is_circuit_vc(3));
        assert_eq!(vl.circuit_vc(0), 3);
    }

    #[test]
    fn request_vcs_never_circuit_class() {
        for m in [
            MechanismConfig::baseline(),
            MechanismConfig::fragmented(),
            MechanismConfig::complete(),
            MechanismConfig::ideal(),
        ] {
            let vl = layout_for(m);
            for vc in vl.vcs_of(Vnet::Request) {
                assert!(!vl.is_circuit_vc(vc));
                assert_eq!(vl.vnet_of(vc), Vnet::Request);
            }
        }
    }

    /// The serialized Table 4 mesh config, exactly. Cache keys hash this
    /// form, so it must not change when an option is retired.
    const BASELINE_JSON: &str = concat!(
        r#"{"topology":{"Mesh":{"width":4,"height":4}},"#,
        r#""mechanism":{"mode":"Complete","timed":"Untimed","eliminate_acks":false,"#,
        r#""reuse_circuits":false,"scrounger_borrow":false,"max_circuits_per_input":5,"#,
        r#""undo_on_l2_miss":false},"buffer_depth":5,"flit_bytes":16,"req_vcs":2,"#,
        r#""link_latency":1,"inject_overhead":6,"extra_reply_vcs":0}"#,
    );

    fn mesh_baseline() -> NocConfig {
        NocConfig::paper_baseline(Mesh::new(4, 4).unwrap(), MechanismConfig::complete())
    }

    #[test]
    fn baseline_serialization_is_stable() {
        assert_eq!(
            serde_json::to_string(&mesh_baseline()).unwrap(),
            BASELINE_JSON
        );
    }

    #[test]
    fn config_with_the_retired_relief_key_loads_as_the_baseline() {
        // Configs stored while the VC allocator still had its oldest-only
        // mode may carry the retired opt-out key. It is ignored: they
        // load as the one allocator's baseline.
        let old = BASELINE_JSON.replace(
            r#""extra_reply_vcs":0}"#,
            r#""extra_reply_vcs":0,"va_hol_relief":false}"#,
        );
        assert_ne!(old, BASELINE_JSON);
        let loaded: NocConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(loaded, mesh_baseline());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn vnet_of_out_of_range_panics() {
        layout_for(MechanismConfig::baseline()).vnet_of(9);
    }
}
