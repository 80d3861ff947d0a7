//! Dimension-order routing.
//!
//! The paper modifies classic DOR so that requests use XY and replies use
//! YX (§4.1): the two then traverse the *same* routers in opposite order,
//! which is what lets a request reserve circuit resources for its reply at
//! every hop. Different message types travel on different virtual networks,
//! so the XY/YX mix stays deadlock-free.

use crate::geometry::Mesh;
use crate::types::{Direction, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Deterministic routing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Routing {
    /// X first then Y — used by the request virtual network.
    Xy,
    /// Y first then X — used by the reply virtual network.
    Yx,
}

impl Routing {
    /// The routing used by a virtual network.
    pub fn for_vnet(vnet: crate::types::Vnet) -> Routing {
        match vnet {
            crate::types::Vnet::Request => Routing::Xy,
            crate::types::Vnet::Reply => Routing::Yx,
        }
    }
}

/// The output direction to take at router `at` for a packet heading to
/// `dst`. Returns [`Direction::Local`] when `at == dst` (eject).
///
/// # Examples
///
/// ```
/// use rcsim_core::geometry::Mesh;
/// use rcsim_core::routing::{next_hop, Routing};
/// use rcsim_core::types::{Direction, NodeId};
///
/// let mesh = Mesh::new(4, 4)?;
/// // From n0 (0,0) to n5 (1,1): XY goes East first, YX goes South first.
/// assert_eq!(next_hop(&mesh, NodeId(0), NodeId(5), Routing::Xy), Direction::East);
/// assert_eq!(next_hop(&mesh, NodeId(0), NodeId(5), Routing::Yx), Direction::South);
/// # Ok::<(), rcsim_core::ConfigError>(())
/// ```
pub fn next_hop(mesh: &Mesh, at: NodeId, dst: NodeId, algo: Routing) -> Direction {
    let a = mesh.coord(at);
    let d = mesh.coord(dst);
    let x_dir = if d.x > a.x {
        Some(Direction::East)
    } else if d.x < a.x {
        Some(Direction::West)
    } else {
        None
    };
    let y_dir = if d.y > a.y {
        Some(Direction::South)
    } else if d.y < a.y {
        Some(Direction::North)
    } else {
        None
    };
    match algo {
        Routing::Xy => x_dir.or(y_dir).unwrap_or(Direction::Local),
        Routing::Yx => y_dir.or(x_dir).unwrap_or(Direction::Local),
    }
}

/// The full sequence of routers a packet visits from `src` to `dst`
/// (inclusive of both endpoints).
pub fn route_path(mesh: &Mesh, src: NodeId, dst: NodeId, algo: Routing) -> Vec<NodeId> {
    let mut path = vec![src];
    let mut at = src;
    while at != dst {
        let dir = next_hop(mesh, at, dst, algo);
        at = mesh
            .neighbor(at, dir)
            .expect("next_hop returned an edge-crossing direction");
        path.push(at);
    }
    path
}

/// Number of router-to-router hops between `src` and `dst` under DOR
/// (equals the Manhattan distance — DOR is minimal).
pub fn hop_count(mesh: &Mesh, src: NodeId, dst: NodeId) -> u32 {
    mesh.distance(src, dst)
}

/// Live health map of the mesh: which links and routers are currently
/// dead (the permanent-fault model, DESIGN.md §10). Links are
/// bidirectional — killing `(a, b)` kills both directions — and a dead
/// router implicitly kills every link touching it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyHealth {
    /// Dead links, stored as normalized `(min, max)` node pairs.
    dead_links: HashSet<(NodeId, NodeId)>,
    /// Dead routers: nothing may enter, leave or cross them.
    dead_routers: HashSet<NodeId>,
}

fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl TopologyHealth {
    /// A fully healthy topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when any link or router is currently dead.
    pub fn is_degraded(&self) -> bool {
        !self.dead_links.is_empty() || !self.dead_routers.is_empty()
    }

    /// Marks the `a`–`b` link dead in both directions.
    pub fn kill_link(&mut self, a: NodeId, b: NodeId) {
        self.dead_links.insert(norm(a, b));
    }

    /// Heals the `a`–`b` link (end of a bounded dead window).
    pub fn revive_link(&mut self, a: NodeId, b: NodeId) {
        self.dead_links.remove(&norm(a, b));
    }

    /// Marks router `n` dead.
    pub fn kill_router(&mut self, n: NodeId) {
        self.dead_routers.insert(n);
    }

    /// Heals router `n`.
    pub fn revive_router(&mut self, n: NodeId) {
        self.dead_routers.remove(&n);
    }

    /// `true` when router `n` is alive.
    pub fn node_usable(&self, n: NodeId) -> bool {
        !self.dead_routers.contains(&n)
    }

    /// `true` when the `a`–`b` link itself is alive (endpoint routers are
    /// checked separately via [`TopologyHealth::node_usable`]).
    pub fn link_usable(&self, a: NodeId, b: NodeId) -> bool {
        !self.dead_links.contains(&norm(a, b))
    }

    /// `true` when a flit may cross from `a` to `b`: the link and both
    /// endpoint routers are alive.
    pub fn hop_usable(&self, a: NodeId, b: NodeId) -> bool {
        self.link_usable(a, b) && self.node_usable(a) && self.node_usable(b)
    }

    /// Currently dead links, sorted, for deterministic reporting.
    pub fn dead_links_sorted(&self) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<_> = self.dead_links.iter().copied().collect();
        v.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
        v
    }

    /// Currently dead routers, sorted, for deterministic reporting.
    pub fn dead_routers_sorted(&self) -> Vec<NodeId> {
        let mut v: Vec<_> = self.dead_routers.iter().copied().collect();
        v.sort_unstable_by_key(|n| n.0);
        v
    }

    /// The full health state as sorted lists, for checkpointing.
    pub fn snapshot(&self) -> TopologyHealthSnapshot {
        TopologyHealthSnapshot {
            dead_links: self.dead_links_sorted(),
            dead_routers: self.dead_routers_sorted(),
        }
    }

    /// Rebuilds health state from a [`TopologyHealth::snapshot`].
    pub fn from_snapshot(snap: &TopologyHealthSnapshot) -> Self {
        let mut h = TopologyHealth::new();
        for &(a, b) in &snap.dead_links {
            h.kill_link(a, b);
        }
        for &n in &snap.dead_routers {
            h.kill_router(n);
        }
        h
    }
}

/// Serializable state of a [`TopologyHealth`] map (sorted, so equal maps
/// serialize identically regardless of insertion history).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TopologyHealthSnapshot {
    /// Dead links as normalized `(min, max)` pairs, sorted.
    pub dead_links: Vec<(NodeId, NodeId)>,
    /// Dead routers, sorted.
    pub dead_routers: Vec<NodeId>,
}

/// `true` when every router on `path` is alive and every consecutive hop
/// crosses a live link.
pub fn path_is_healthy(path: &[NodeId], topo: &TopologyHealth) -> bool {
    path.iter().all(|&n| topo.node_usable(n))
        && path.windows(2).all(|w| topo.link_usable(w[0], w[1]))
}

/// The direction of travel from `a` to an adjacent node `b`, or `None`
/// when the two are not mesh neighbours.
pub fn direction_between(mesh: &Mesh, a: NodeId, b: NodeId) -> Option<Direction> {
    [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ]
    .into_iter()
    .find(|&dir| mesh.neighbor(a, dir) == Some(b))
}

/// The output direction at `at` for a packet following a recorded `path`:
/// [`Direction::Local`] at the path's end, `None` when `at` is not on the
/// path or the recorded successor is not adjacent (caller falls back to
/// plain DOR).
pub fn next_hop_on_path(mesh: &Mesh, path: &[NodeId], at: NodeId) -> Option<Direction> {
    let i = path.iter().position(|&n| n == at)?;
    match path.get(i + 1) {
        None => Some(Direction::Local),
        Some(&next) => direction_between(mesh, at, next),
    }
}

/// Shortest healthy path from `src` to `dst` avoiding dead links and
/// routers, or `None` when the degraded mesh is disconnected between the
/// two. Breadth-first search with a fixed E/W/N/S expansion order, so the
/// detour is fully deterministic. Detours are *not* restricted to
/// dimension order, so a degraded mesh is not deadlock-free: even one
/// dead link lets saturating traffic close a channel dependency cycle
/// through the detour turns (pinned by the noc crate's
/// `deadlock_diagnoser` tests). Below saturation single-fault detours
/// drain; a wedge is caught by the watchdog and its circular wait is
/// reported.
pub fn route_path_healthy(
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    topo: &TopologyHealth,
) -> Option<Vec<NodeId>> {
    if !topo.node_usable(src) || !topo.node_usable(dst) {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; mesh.nodes()];
    let mut seen = vec![false; mesh.nodes()];
    seen[src.index()] = true;
    let mut frontier = std::collections::VecDeque::from([src]);
    while let Some(at) = frontier.pop_front() {
        for dir in [
            Direction::East,
            Direction::West,
            Direction::North,
            Direction::South,
        ] {
            let Some(nb) = mesh.neighbor(at, dir) else {
                continue;
            };
            if seen[nb.index()] || !topo.node_usable(nb) || !topo.link_usable(at, nb) {
                continue;
            }
            seen[nb.index()] = true;
            prev[nb.index()] = Some(at);
            if nb == dst {
                let mut path = vec![dst];
                let mut n = dst;
                while let Some(p) = prev[n.index()] {
                    path.push(p);
                    n = p;
                }
                path.reverse();
                return Some(path);
            }
            frontier.push_back(nb);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 4).unwrap()
    }

    #[test]
    fn eject_at_destination() {
        let m = mesh();
        assert_eq!(
            next_hop(&m, NodeId(7), NodeId(7), Routing::Xy),
            Direction::Local
        );
        assert_eq!(
            next_hop(&m, NodeId(7), NodeId(7), Routing::Yx),
            Direction::Local
        );
    }

    #[test]
    fn xy_goes_x_first() {
        let m = mesh();
        // n0 = (0,0), n10 = (2,2)
        let p = route_path(&m, NodeId(0), NodeId(10), Routing::Xy);
        assert_eq!(
            p,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(6), NodeId(10)]
        );
    }

    #[test]
    fn yx_goes_y_first() {
        let m = mesh();
        let p = route_path(&m, NodeId(0), NodeId(10), Routing::Yx);
        assert_eq!(
            p,
            vec![NodeId(0), NodeId(4), NodeId(8), NodeId(9), NodeId(10)]
        );
    }

    #[test]
    fn paths_are_minimal() {
        let m = Mesh::new(8, 8).unwrap();
        for s in [0u16, 9, 37, 63] {
            for d in [0u16, 5, 33, 63] {
                let (s, d) = (NodeId(s), NodeId(d));
                for algo in [Routing::Xy, Routing::Yx] {
                    let p = route_path(&m, s, d, algo);
                    assert_eq!(p.len() as u32, m.distance(s, d) + 1);
                    assert_eq!(p.first(), Some(&s));
                    assert_eq!(p.last(), Some(&d));
                }
            }
        }
    }

    #[test]
    fn xy_forward_equals_yx_reverse() {
        // The property the whole mechanism rests on (§4.1): the reply's YX
        // path visits exactly the request's XY routers, reversed.
        let m = Mesh::new(8, 8).unwrap();
        for s in 0..64u16 {
            for d in [0u16, 7, 28, 56, 63] {
                let fwd = route_path(&m, NodeId(s), NodeId(d), Routing::Xy);
                let mut back = route_path(&m, NodeId(d), NodeId(s), Routing::Yx);
                back.reverse();
                assert_eq!(fwd, back, "s={s} d={d}");
            }
        }
    }

    #[test]
    fn routing_for_vnet() {
        use crate::types::Vnet;
        assert_eq!(Routing::for_vnet(Vnet::Request), Routing::Xy);
        assert_eq!(Routing::for_vnet(Vnet::Reply), Routing::Yx);
    }

    #[test]
    fn healthy_topology_accepts_dor_paths() {
        let m = mesh();
        let topo = TopologyHealth::new();
        assert!(!topo.is_degraded());
        let p = route_path(&m, NodeId(0), NodeId(10), Routing::Xy);
        assert!(path_is_healthy(&p, &topo));
    }

    #[test]
    fn dead_link_breaks_path_and_bfs_detours() {
        let m = mesh();
        let mut topo = TopologyHealth::new();
        // Kill the (1)-(2) link on n0 -> n10's XY path.
        topo.kill_link(NodeId(2), NodeId(1));
        assert!(topo.is_degraded());
        assert!(!topo.link_usable(NodeId(1), NodeId(2)));
        assert!(!topo.hop_usable(NodeId(1), NodeId(2)));
        let dor = route_path(&m, NodeId(0), NodeId(10), Routing::Xy);
        assert!(!path_is_healthy(&dor, &topo));

        let detour = route_path_healthy(&m, NodeId(0), NodeId(10), &topo).unwrap();
        assert_eq!(detour.first(), Some(&NodeId(0)));
        assert_eq!(detour.last(), Some(&NodeId(10)));
        assert!(path_is_healthy(&detour, &topo));
        // Single dead link off the bounding box: detour stays minimal.
        assert_eq!(detour.len() as u32, m.distance(NodeId(0), NodeId(10)) + 1);

        topo.revive_link(NodeId(1), NodeId(2));
        assert!(path_is_healthy(&dor, &topo));
    }

    #[test]
    fn dead_router_blocks_traversal_and_endpoints() {
        let m = mesh();
        let mut topo = TopologyHealth::new();
        topo.kill_router(NodeId(5));
        assert!(!topo.node_usable(NodeId(5)));
        // Paths through n5 detour around it.
        let p = route_path_healthy(&m, NodeId(4), NodeId(6), &topo).unwrap();
        assert!(!p.contains(&NodeId(5)));
        assert!(path_is_healthy(&p, &topo));
        // Paths *to* a dead router do not exist.
        assert!(route_path_healthy(&m, NodeId(0), NodeId(5), &topo).is_none());
        topo.revive_router(NodeId(5));
        assert!(route_path_healthy(&m, NodeId(0), NodeId(5), &topo).is_some());
    }

    #[test]
    fn disconnected_corner_returns_none() {
        let m = mesh();
        let mut topo = TopologyHealth::new();
        // Cut both links of corner n0 = (0,0): n1 (east) and n4 (south).
        topo.kill_link(NodeId(0), NodeId(1));
        topo.kill_link(NodeId(0), NodeId(4));
        assert!(route_path_healthy(&m, NodeId(0), NodeId(15), &topo).is_none());
        assert!(route_path_healthy(&m, NodeId(15), NodeId(0), &topo).is_none());
    }

    #[test]
    fn bfs_detour_is_deterministic() {
        let m = Mesh::new(8, 8).unwrap();
        let mut topo = TopologyHealth::new();
        topo.kill_link(NodeId(9), NodeId(10));
        topo.kill_router(NodeId(27));
        for s in 0..64u16 {
            for d in [0u16, 7, 35, 63] {
                let a = route_path_healthy(&m, NodeId(s), NodeId(d), &topo);
                let b = route_path_healthy(&m, NodeId(s), NodeId(d), &topo);
                assert_eq!(a, b, "s={s} d={d}");
            }
        }
    }

    #[test]
    fn next_hop_on_path_follows_recording() {
        let m = mesh();
        let p = vec![NodeId(0), NodeId(1), NodeId(5), NodeId(6)];
        assert_eq!(next_hop_on_path(&m, &p, NodeId(0)), Some(Direction::East));
        assert_eq!(next_hop_on_path(&m, &p, NodeId(1)), Some(Direction::South));
        assert_eq!(next_hop_on_path(&m, &p, NodeId(6)), Some(Direction::Local));
        // Off-path routers fall back to DOR (None).
        assert_eq!(next_hop_on_path(&m, &p, NodeId(9)), None);
        // Non-adjacent successor (corrupt recording) also falls back.
        let bad = vec![NodeId(0), NodeId(10)];
        assert_eq!(next_hop_on_path(&m, &bad, NodeId(0)), None);
    }

    #[test]
    fn health_report_accessors_sorted() {
        let mut topo = TopologyHealth::new();
        topo.kill_link(NodeId(9), NodeId(8));
        topo.kill_link(NodeId(3), NodeId(2));
        topo.kill_router(NodeId(12));
        topo.kill_router(NodeId(4));
        assert_eq!(
            topo.dead_links_sorted(),
            vec![(NodeId(2), NodeId(3)), (NodeId(8), NodeId(9))]
        );
        assert_eq!(topo.dead_routers_sorted(), vec![NodeId(4), NodeId(12)]);
    }
}
