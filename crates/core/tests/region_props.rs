//! Property-based tests for the region map of the adaptive runtime
//! policy (DESIGN.md §14): every router lands in exactly one region,
//! regions are contiguous and balanced, tiles follow their router, and
//! the partition is a pure (seed-independent, deterministic) function of
//! `(topology, region count)` — so the regions the controller samples and
//! switches are the same on every run.

use proptest::prelude::*;
use rcsim_core::{Mesh, RegionPlan, Topology};

/// A strategy over all four topology families at mixed sizes (4–1024
/// tiles), mirroring the spread the topology benches sweep.
fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2u16..=8, 2u16..=8).prop_map(|(w, h)| Topology::from(Mesh::new(w, h).expect("mesh dims"))),
        (2u16..=8, 2u16..=8).prop_map(|(w, h)| Topology::torus(w, h).expect("torus dims")),
        (2u16..=6, 2u16..=6, prop_oneof![Just(2u16), Just(4u16)])
            .prop_map(|(w, h, c)| Topology::cmesh(w, h, c).expect("cmesh dims")),
        (3u16..=64).prop_map(|n| Topology::ring(n).expect("ring size")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Partition: the region ranges are contiguous, ordered, cover
    /// 0..routers exactly once, and no region is empty.
    #[test]
    fn every_router_lands_in_exactly_one_region(
        topology in topology_strategy(),
        regions in 1usize..=16,
    ) {
        let plan = RegionPlan::new(&topology, regions);
        prop_assert!(plan.regions() >= 1);
        prop_assert!(plan.regions() <= topology.routers());
        let mut next = 0;
        for s in 0..plan.regions() {
            let r = plan.router_range(s);
            prop_assert_eq!(r.start, next, "region {} not contiguous", s);
            prop_assert!(!r.is_empty(), "region {} empty", s);
            for i in r.clone() {
                prop_assert_eq!(plan.region_of_router(i), s);
            }
            next = r.end;
        }
        prop_assert_eq!(next, topology.routers(), "ranges must cover every router");
    }

    /// Balance: contiguous `s * n / k` bounds keep region sizes within one
    /// router of each other, so region scores (occupancy per router)
    /// compare like with like.
    #[test]
    fn regions_are_balanced_within_one_router(
        topology in topology_strategy(),
        regions in 1usize..=16,
    ) {
        let plan = RegionPlan::new(&topology, regions);
        let sizes: Vec<usize> = (0..plan.regions())
            .map(|s| plan.router_range(s).len())
            .collect();
        let min = *sizes.iter().min().expect("at least one region");
        let max = *sizes.iter().max().expect("at least one region");
        prop_assert!(max - min <= 1, "unbalanced partition: {:?}", sizes);
    }

    /// Tiles follow their router: every tile of a region's tile range is
    /// attached to one of the region's routers on every topology,
    /// including concentrated meshes where several tiles share one router
    /// — so a region's NI backlog is sampled from its own tiles.
    #[test]
    fn tiles_always_land_in_their_routers_region(
        topology in topology_strategy(),
        regions in 1usize..=16,
    ) {
        let plan = RegionPlan::new(&topology, regions);
        let mut next = 0;
        for s in 0..plan.regions() {
            let t = plan.tile_range(s);
            prop_assert_eq!(t.start, next);
            for tile in topology.iter_tiles().filter(|t2| t.contains(&t2.index())) {
                let router = topology.router_of(tile).index();
                prop_assert_eq!(plan.region_of_router(router), s, "tile {} split", tile);
            }
            next = t.end;
        }
        prop_assert_eq!(next, topology.nodes());
    }

    /// Purity: the plan is a deterministic function of its inputs alone —
    /// rebuilding it (in any process, from any seed) yields identical
    /// bounds.
    #[test]
    fn partition_is_seed_independent(
        topology in topology_strategy(),
        regions in 1usize..=16,
        _noise in any::<u64>(),
    ) {
        let a = RegionPlan::new(&topology, regions);
        let b = RegionPlan::new(&topology, regions);
        prop_assert_eq!(a, b);
    }

    /// Clamping: asking for more regions than routers degrades gracefully
    /// to one router per region, never to an empty region.
    #[test]
    fn oversubscribed_region_counts_clamp(
        topology in topology_strategy(),
        extra in 0usize..64,
    ) {
        let plan = RegionPlan::new(&topology, topology.routers() + extra);
        prop_assert_eq!(plan.regions(), topology.routers());
        for s in 0..plan.regions() {
            prop_assert_eq!(plan.router_range(s).len(), 1);
        }
    }
}
