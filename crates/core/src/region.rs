//! The region map of the adaptive runtime policy (see [`crate::policy`]).
//!
//! A [`RegionPlan`] partitions a topology's routers into contiguous,
//! index-ordered regions. Because tiles are numbered `router * c + slot`
//! (see [`Topology::tile_of`](crate::topology::Topology::tile_of)), a
//! contiguous router range induces a contiguous tile range, so an NI and
//! its router always belong to the same region. The policy controller
//! samples each region's occupancy (its routers' buffers and circuit
//! tables, its tiles' NI backlogs) and flips whole regions between calm
//! and hot.
//!
//! The plan is a pure function of `(routers, regions)`: no RNG, no
//! host-dependent input. Two constructions with the same arguments are
//! identical, so the region map — and every decision taken over it — is
//! reproducible.

use crate::topology::Topology;
use std::ops::Range;

/// A contiguous partition of a topology's routers (and, via the
/// concentration factor, its tiles) into balanced regions.
///
/// Ranges are ascending and non-empty: region `s` of `K` owns routers
/// `s·R/K .. (s+1)·R/K` (integer division), so sizes differ by at most
/// one. Iterating regions in order visits every router exactly once, in
/// global index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Router-index boundaries; `bounds[s]..bounds[s + 1]` is region `s`.
    bounds: Vec<usize>,
    /// Tiles per router, cached from the topology.
    concentration: usize,
}

impl RegionPlan {
    /// Builds the plan for `topology` with the requested region count,
    /// clamped to `1..=routers` so every region is non-empty.
    pub fn new(topology: &Topology, regions: usize) -> Self {
        let routers = topology.routers();
        let regions = regions.clamp(1, routers.max(1));
        let bounds = (0..=regions).map(|s| s * routers / regions).collect();
        RegionPlan {
            bounds,
            concentration: topology.concentration(),
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total routers covered by the plan.
    pub fn routers(&self) -> usize {
        *self.bounds.last().expect("bounds are never empty")
    }

    /// The contiguous router-index range of region `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.regions()`.
    pub fn router_range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The contiguous tile-index range of region `s` — the router range
    /// scaled by the concentration, so `router_of(tile)` of every tile in
    /// the range lies in [`RegionPlan::router_range`].
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.regions()`.
    pub fn tile_range(&self, s: usize) -> Range<usize> {
        (self.bounds[s] * self.concentration)..(self.bounds[s + 1] * self.concentration)
    }

    /// The region containing router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the plan.
    pub fn region_of_router(&self, r: usize) -> usize {
        assert!(r < self.routers(), "router {r} outside the plan");
        // First boundary strictly above r, minus one.
        self.bounds.partition_point(|&b| b <= r) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    fn mesh(cores: u16) -> Topology {
        TopologySpec::Mesh.build(cores).unwrap()
    }

    #[test]
    fn ranges_partition_the_routers() {
        for regions in [1, 2, 3, 4, 7, 16] {
            let plan = RegionPlan::new(&mesh(64), regions);
            let mut covered = Vec::new();
            for s in 0..plan.regions() {
                assert!(!plan.router_range(s).is_empty(), "empty region {s}");
                covered.extend(plan.router_range(s));
            }
            assert_eq!(covered, (0..64).collect::<Vec<_>>(), "{regions} regions");
        }
    }

    #[test]
    fn region_count_clamps_to_router_count() {
        let plan = RegionPlan::new(&mesh(16), 64);
        assert_eq!(plan.regions(), 16);
        let plan = RegionPlan::new(&mesh(16), 0);
        assert_eq!(plan.regions(), 1);
    }

    #[test]
    fn tiles_follow_their_router() {
        let t = TopologySpec::CMesh { concentration: 4 }.build(64).unwrap();
        let plan = RegionPlan::new(&t, 4);
        for s in 0..plan.regions() {
            for tile in plan.tile_range(s) {
                let router = t.router_of(crate::types::NodeId(tile as u16)).index();
                assert_eq!(
                    plan.region_of_router(router),
                    s,
                    "tile {tile} split from its router"
                );
            }
        }
        let total: usize = (0..plan.regions()).map(|s| plan.tile_range(s).len()).sum();
        assert_eq!(total, t.nodes());
    }

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let a = RegionPlan::new(&mesh(64), 4);
        let b = RegionPlan::new(&mesh(64), 4);
        assert_eq!(a, b);
    }
}
