//! Topology abstraction: mesh, torus, concentrated mesh and ring behind
//! one enum, all sharing the paper's port model and the path-symmetry
//! guarantee that circuit reservation rests on (§4.1).
//!
//! # Port model
//!
//! Every router has four network ports with fixed indices — North `0`,
//! East `1`, South `2`, West `3` (matching [`Direction::index`]) — and
//! `concentration()` local ports at indices `4..4 + c`. A plain mesh,
//! torus or ring has one local port (index 4, the old `Direction::Local`),
//! so its port numbering is bit-identical to the pre-topology code. A
//! concentrated mesh (`CMesh`) attaches `c` tiles to each router through
//! distinct local ports.
//!
//! # Identity spaces
//!
//! Tiles (cores, caches, NIs) and routers are distinct spaces. For mesh,
//! torus and ring they coincide (`router_of` is the identity); for
//! `CMesh` with concentration `c`, tile `t` sits at router `t / c`, local
//! slot `t % c`, and routers form a `width × height` grid numbered
//! row-major. Flit source routes, [`TopologyHealth`] and fault events all
//! live in *router* space.
//!
//! # Wraparound and deadlock (dateline rule)
//!
//! Torus and ring links wrap. Three rules keep them deadlock-free
//! (DESIGN.md §12):
//!
//! 1. every virtual network splits its allocatable VCs into two *dateline
//!    classes*; a packet whose remaining travel in the current dimension
//!    still crosses the wrap link allocates class 0, otherwise class 1
//!    ([`Topology::vc_class`] — stateless, derived from position alone);
//! 2. wrap topologies add one extra reply VC so every VN has at least two
//!    allocatable VCs to split;
//! 3. circuit reservations never span a wrap link
//!    ([`Topology::is_wrap_hop`]), so circuit-VC dependency chains cannot
//!    close a cycle around a ring dimension.

use crate::config::ConfigError;
use crate::geometry::{Coord, Mesh};
use crate::policy::CongestionMap;
use crate::routing::{Routing, TopologyHealth};
use crate::types::{Direction, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Port indices of the four network ports (identical to
/// [`Direction::index`]); local ports follow at `4..4 + concentration`.
pub const PORT_NORTH: usize = 0;
/// East network port.
pub const PORT_EAST: usize = 1;
/// South network port.
pub const PORT_SOUTH: usize = 2;
/// West network port.
pub const PORT_WEST: usize = 3;
/// First local (injection/ejection) port.
pub const PORT_LOCAL: usize = 4;

/// The physical interconnect topology of one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// The paper's 2-D mesh (bit-identical to the pre-topology code).
    Mesh(Mesh),
    /// 2-D torus: mesh plus wraparound links in both dimensions.
    Torus {
        /// Columns of the router grid.
        width: u16,
        /// Rows of the router grid.
        height: u16,
    },
    /// Concentrated mesh: `concentration` tiles share each router through
    /// distinct local ports.
    CMesh {
        /// Columns of the router grid.
        width: u16,
        /// Rows of the router grid.
        height: u16,
        /// Tiles per router (local ports per router).
        concentration: u16,
    },
    /// 1-D bidirectional ring using the East/West ports only.
    Ring {
        /// Number of nodes (= routers) on the ring.
        nodes: u16,
    },
}

impl From<Mesh> for Topology {
    fn from(mesh: Mesh) -> Self {
        Topology::Mesh(mesh)
    }
}

impl Topology {
    /// A torus with the given router grid.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of [`Mesh::new`].
    pub fn torus(width: u16, height: u16) -> Result<Self, ConfigError> {
        Mesh::new(width, height)?;
        Ok(Topology::Torus { width, height })
    }

    /// A concentrated mesh: a `width × height` router grid with
    /// `concentration` tiles per router.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for a zero dimension or zero
    /// concentration and [`ConfigError::MeshTooLarge`] when the *tile*
    /// count exceeds the node-id space.
    pub fn cmesh(width: u16, height: u16, concentration: u16) -> Result<Self, ConfigError> {
        if concentration == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        Mesh::new(width, height)?;
        let tiles = width as u32 * height as u32 * concentration as u32;
        if tiles > u16::MAX as u32 {
            return Err(ConfigError::MeshTooLarge);
        }
        Ok(Topology::CMesh {
            width,
            height,
            concentration,
        })
    }

    /// A ring of `nodes` routers.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for fewer than two nodes (a
    /// one-node ring has no links).
    pub fn ring(nodes: u16) -> Result<Self, ConfigError> {
        if nodes < 2 {
            return Err(ConfigError::EmptyMesh);
        }
        Ok(Topology::Ring { nodes })
    }

    /// Short label for bench rows and reports.
    pub fn label(&self) -> String {
        match self {
            Topology::Mesh(_) => "mesh".to_owned(),
            Topology::Torus { .. } => "torus".to_owned(),
            Topology::CMesh { concentration, .. } => format!("cmesh-{concentration}"),
            Topology::Ring { .. } => "ring".to_owned(),
        }
    }

    /// Number of tiles (cores, caches, NIs).
    pub fn nodes(&self) -> usize {
        match self {
            Topology::Mesh(m) => m.nodes(),
            Topology::Torus { width, height } => *width as usize * *height as usize,
            Topology::CMesh {
                width,
                height,
                concentration,
            } => *width as usize * *height as usize * *concentration as usize,
            Topology::Ring { nodes } => *nodes as usize,
        }
    }

    /// Number of routers (`nodes() / concentration()`).
    pub fn routers(&self) -> usize {
        self.nodes() / self.concentration()
    }

    /// Tiles per router (local ports per router); 1 except for `CMesh`.
    pub fn concentration(&self) -> usize {
        match self {
            Topology::CMesh { concentration, .. } => *concentration as usize,
            _ => 1,
        }
    }

    /// Total ports per router: four network ports plus the local ports.
    pub fn ports(&self) -> usize {
        PORT_LOCAL + self.concentration()
    }

    /// The router grid dimensions `(width, height)` (a ring is `n × 1`).
    pub fn dims(&self) -> (u16, u16) {
        match self {
            Topology::Mesh(m) => (m.width(), m.height()),
            Topology::Torus { width, height } | Topology::CMesh { width, height, .. } => {
                (*width, *height)
            }
            Topology::Ring { nodes } => (*nodes, 1),
        }
    }

    /// Iterator over all router ids, row-major.
    pub fn iter_routers(&self) -> impl Iterator<Item = NodeId> {
        (0..self.routers() as u16).map(NodeId)
    }

    /// Iterator over all tile ids.
    pub fn iter_tiles(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// The router a tile hangs off.
    pub fn router_of(&self, tile: NodeId) -> NodeId {
        NodeId(tile.0 / self.concentration() as u16)
    }

    /// The local-port slot of a tile at its router (`0..concentration()`).
    pub fn local_slot(&self, tile: NodeId) -> usize {
        tile.index() % self.concentration()
    }

    /// The tile attached to `router` through local slot `slot`.
    pub fn tile_of(&self, router: NodeId, slot: usize) -> NodeId {
        NodeId(router.0 * self.concentration() as u16 + slot as u16)
    }

    /// The router port a flit ejects through to reach `tile`.
    pub fn eject_port(&self, tile: NodeId) -> usize {
        PORT_LOCAL + self.local_slot(tile)
    }

    /// Coordinate of a router on the grid.
    pub fn coord(&self, router: NodeId) -> Coord {
        let (w, _) = self.dims();
        Coord {
            x: router.0 % w,
            y: router.0 / w,
        }
    }

    /// Router at a grid coordinate.
    pub fn router_at(&self, c: Coord) -> NodeId {
        let (w, _) = self.dims();
        NodeId(c.y * w + c.x)
    }

    /// The neighbouring *router* out of a network port, or `None` at a
    /// mesh edge, for a local port, or for an unused ring port.
    pub fn neighbor(&self, router: NodeId, port: usize) -> Option<NodeId> {
        match self {
            Topology::Mesh(m) => {
                if port >= PORT_LOCAL {
                    return None;
                }
                m.neighbor(router, Direction::from_index(port))
            }
            Topology::CMesh { width, height, .. } => {
                let c = self.coord(router);
                let n = match port {
                    PORT_NORTH => Coord {
                        x: c.x,
                        y: c.y.checked_sub(1)?,
                    },
                    PORT_SOUTH => {
                        if c.y + 1 >= *height {
                            return None;
                        }
                        Coord { x: c.x, y: c.y + 1 }
                    }
                    PORT_EAST => {
                        if c.x + 1 >= *width {
                            return None;
                        }
                        Coord { x: c.x + 1, y: c.y }
                    }
                    PORT_WEST => Coord {
                        x: c.x.checked_sub(1)?,
                        y: c.y,
                    },
                    _ => return None,
                };
                Some(self.router_at(n))
            }
            Topology::Torus { width, height } => {
                let c = self.coord(router);
                let n = match port {
                    PORT_NORTH if *height > 1 => Coord {
                        x: c.x,
                        y: (c.y + height - 1) % height,
                    },
                    PORT_SOUTH if *height > 1 => Coord {
                        x: c.x,
                        y: (c.y + 1) % height,
                    },
                    PORT_EAST if *width > 1 => Coord {
                        x: (c.x + 1) % width,
                        y: c.y,
                    },
                    PORT_WEST if *width > 1 => Coord {
                        x: (c.x + width - 1) % width,
                        y: c.y,
                    },
                    _ => return None,
                };
                Some(self.router_at(n))
            }
            Topology::Ring { nodes } => match port {
                PORT_EAST => Some(NodeId((router.0 + 1) % nodes)),
                PORT_WEST => Some(NodeId((router.0 + nodes - 1) % nodes)),
                _ => None,
            },
        }
    }

    /// `true` when the hop out of `port` at `router` crosses a wraparound
    /// link (torus dateline / ring seam). Always `false` on mesh/cmesh.
    pub fn is_wrap_hop(&self, router: NodeId, port: usize) -> bool {
        match self {
            Topology::Mesh(_) | Topology::CMesh { .. } => false,
            Topology::Torus { width, height } => {
                let c = self.coord(router);
                match port {
                    PORT_NORTH => *height > 1 && c.y == 0,
                    PORT_SOUTH => *height > 1 && c.y == height - 1,
                    PORT_EAST => *width > 1 && c.x == width - 1,
                    PORT_WEST => *width > 1 && c.x == 0,
                    _ => false,
                }
            }
            Topology::Ring { nodes } => match port {
                PORT_EAST => router.0 == nodes - 1,
                PORT_WEST => router.0 == 0,
                _ => false,
            },
        }
    }

    /// `true` for topologies with wraparound links (torus, ring): these
    /// need the dateline VC classes and the extra reply VC.
    pub fn has_wrap(&self) -> bool {
        matches!(self, Topology::Torus { .. } | Topology::Ring { .. })
    }

    /// Minimal hop distance between two *routers*.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        match self {
            Topology::Mesh(m) => m.distance(a, b),
            Topology::CMesh { .. } => {
                let ca = self.coord(a);
                let cb = self.coord(b);
                (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as u32
            }
            Topology::Torus { width, height } => {
                let ca = self.coord(a);
                let cb = self.coord(b);
                let dx = ca.x.abs_diff(cb.x);
                let dy = ca.y.abs_diff(cb.y);
                (dx.min(width - dx) + dy.min(height - dy)) as u32
            }
            Topology::Ring { nodes } => {
                let d = a.0.abs_diff(b.0);
                d.min(nodes - d) as u32
            }
        }
    }

    /// Minimal hop distance between two *tiles* (their routers).
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        self.distance(self.router_of(a), self.router_of(b))
    }

    /// Minimal direction of travel in one wrapping dimension of size
    /// `len`: `Some(true)` = positive direction (East/South), `Some(false)`
    /// = negative, `None` = already aligned. Equal wrap distances break
    /// the tie toward the *non-wrapping* direction, which is what makes
    /// forward and reverse routes retrace each other.
    fn wrap_dir(at: u16, dst: u16, len: u16) -> Option<bool> {
        if at == dst {
            return None;
        }
        let pos = (dst + len - at) % len; // hops going positive
        let neg = (at + len - dst) % len; // hops going negative
        if pos < neg {
            Some(true)
        } else if neg < pos {
            Some(false)
        } else {
            // Tie: take the direction that does not cross the wrap link.
            Some(dst > at)
        }
    }

    /// The output port at router `at` for a packet whose destination
    /// *router* is `dst`, under dimension-order routing. Must not be
    /// called with `at == dst` (ejection is [`Topology::eject_port`],
    /// which needs the tile).
    fn min_route_port(&self, at: NodeId, dst: NodeId, algo: Routing) -> usize {
        debug_assert_ne!(at, dst, "min_route_port called at the destination");
        let (w, h) = self.dims();
        let ca = self.coord(at);
        let cd = self.coord(dst);
        let (x_dir, y_dir) = match self {
            Topology::Mesh(_) | Topology::CMesh { .. } => (
                match cd.x.cmp(&ca.x) {
                    std::cmp::Ordering::Greater => Some(PORT_EAST),
                    std::cmp::Ordering::Less => Some(PORT_WEST),
                    std::cmp::Ordering::Equal => None,
                },
                match cd.y.cmp(&ca.y) {
                    std::cmp::Ordering::Greater => Some(PORT_SOUTH),
                    std::cmp::Ordering::Less => Some(PORT_NORTH),
                    std::cmp::Ordering::Equal => None,
                },
            ),
            Topology::Torus { .. } | Topology::Ring { .. } => (
                Self::wrap_dir(ca.x, cd.x, w).map(|pos| if pos { PORT_EAST } else { PORT_WEST }),
                Self::wrap_dir(ca.y, cd.y, h).map(|pos| if pos { PORT_SOUTH } else { PORT_NORTH }),
            ),
        };
        match algo {
            Routing::Xy => x_dir.or(y_dir),
            Routing::Yx => y_dir.or(x_dir),
        }
        .expect("at != dst, so one dimension differs")
    }

    /// The output port at router `at` for a packet heading to *tile*
    /// `dst`: the ejection port when `at` is the destination's router,
    /// the DOR port otherwise.
    pub fn next_hop_port(&self, at: NodeId, dst: NodeId, algo: Routing) -> usize {
        let dst_router = self.router_of(dst);
        if at == dst_router {
            self.eject_port(dst)
        } else {
            self.min_route_port(at, dst_router, algo)
        }
    }

    /// The full sequence of *routers* a packet visits between two tiles
    /// (inclusive of both endpoint routers).
    pub fn route_path(&self, src: NodeId, dst: NodeId, algo: Routing) -> Vec<NodeId> {
        let mut at = self.router_of(src);
        let dst_router = self.router_of(dst);
        let mut path = vec![at];
        while at != dst_router {
            let port = self.min_route_port(at, dst_router, algo);
            at = self
                .neighbor(at, port)
                .expect("min_route_port returned an edge-crossing port");
            path.push(at);
        }
        path
    }

    /// Dateline VC class of the downstream input VC for a hop arriving at
    /// router `downstream` out of network port `port`, for a packet whose
    /// destination router is `dst`: class 0 while the remaining travel in
    /// the hop's dimension still crosses the wrap link, class 1 once it no
    /// longer does. Stateless — derived from position alone — and always
    /// 1 on mesh/cmesh (which never restrict by class).
    pub fn vc_class(&self, downstream: NodeId, dst: NodeId, port: usize) -> usize {
        if !self.has_wrap() {
            return 1;
        }
        let m = self.coord(downstream);
        let d = self.coord(dst);
        let wraps_ahead = match port {
            // Going East (x grows, wraps w-1 -> 0): still ahead iff the
            // destination column is behind us in East order.
            PORT_EAST => d.x < m.x,
            PORT_WEST => d.x > m.x,
            PORT_SOUTH => d.y < m.y,
            PORT_NORTH => d.y > m.y,
            _ => false,
        };
        usize::from(!wraps_ahead)
    }

    /// The network port leading from router `a` to adjacent router `b`,
    /// or `None` when the two are not neighbours. Scan order E, W, N, S
    /// matches the old mesh `direction_between`.
    pub fn port_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH]
            .into_iter()
            .find(|&p| self.neighbor(a, p) == Some(b))
    }

    /// The output port at router `at` for a packet following a recorded
    /// router `path` toward tile `dst`: the ejection port at the path's
    /// end, `None` when `at` is not on the path or the recorded successor
    /// is not adjacent (caller falls back to plain DOR).
    pub fn next_hop_on_path(&self, path: &[NodeId], at: NodeId, dst: NodeId) -> Option<usize> {
        let i = path.iter().position(|&n| n == at)?;
        match path.get(i + 1) {
            None => Some(self.eject_port(dst)),
            Some(&next) => self.port_between(at, next),
        }
    }

    /// Shortest healthy router path between the routers of two tiles,
    /// avoiding dead links and routers, or `None` when the degraded
    /// network is disconnected between the two. Breadth-first search with
    /// the fixed E/W/N/S expansion order of the old mesh BFS, so mesh
    /// detours are bit-identical and every topology's detour is fully
    /// deterministic.
    pub fn route_path_healthy(
        &self,
        src: NodeId,
        dst: NodeId,
        topo: &TopologyHealth,
    ) -> Option<Vec<NodeId>> {
        let src = self.router_of(src);
        let dst = self.router_of(dst);
        if !topo.node_usable(src) || !topo.node_usable(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let n = self.routers();
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[src.index()] = true;
        let mut frontier = VecDeque::from([src]);
        while let Some(at) = frontier.pop_front() {
            for port in [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH] {
                let Some(nb) = self.neighbor(at, port) else {
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

    /// Like [`Topology::route_path_healthy`], but additionally refuses to
    /// route *through* routers the [`CongestionMap`] marks hot, and —
    /// unlike the fault BFS, whose detours are rare — constrains the path
    /// to a deadlock-free *turn model*, because congestion detours happen
    /// in bulk and unrestricted paths would close cycles in a virtual
    /// network's channel-dependency graph (observed as wormhole deadlock
    /// among detoured replies):
    ///
    /// * request VN (`Routing::Xy`) — **west-first**: every West hop
    ///   precedes any other direction. XY DOR paths satisfy this (their
    ///   X phase comes first), and west-first prohibits exactly the
    ///   North→West / South→West turns that close both abstract mesh
    ///   cycles (Glass & Ni), so DOR traffic plus these detours stays
    ///   acyclic;
    /// * reply VN (`Routing::Yx`) — **east-last**: after the first East
    ///   hop, only East hops follow. YX DOR paths satisfy it (horizontal
    ///   phase last), it prohibits the East→North / East→South turns
    ///   (again one per abstract cycle), and it is exactly the *reverse*
    ///   of west-first — so a reply retracing a detoured request's
    ///   recorded route is compliant by construction.
    ///
    /// Wrap links are never taken: a detour across the torus dateline is
    /// outside the mesh turn-model argument, so detours stay on the mesh
    /// subgraph (torus DOR traffic keeps its dateline VC classes).
    ///
    /// The endpoints are exempt from the hot check — a packet cannot
    /// avoid its own source or destination router — so this returns
    /// `None` only when every healthy, model-compliant route crosses a
    /// hot interior router (callers then fall back to DOR). Fixed
    /// E/W/N/S BFS expansion order, for the same determinism guarantee
    /// as [`Topology::route_path_healthy`].
    pub fn route_path_healthy_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        routing: Routing,
        topo: &TopologyHealth,
        cong: &CongestionMap,
    ) -> Option<Vec<NodeId>> {
        let src = self.router_of(src);
        let dst = self.router_of(dst);
        if !topo.node_usable(src) || !topo.node_usable(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let n = self.routers();
        // Two BFS layers per router: before and after the turn-model
        // commit point (west-first: the first non-West hop; east-last:
        // the first East hop).
        let idx = |r: NodeId, committed: bool| r.index() + if committed { n } else { 0 };
        let mut prev: Vec<Option<(NodeId, bool)>> = vec![None; 2 * n];
        let mut seen = vec![false; 2 * n];
        seen[idx(src, false)] = true;
        let mut frontier = VecDeque::from([(src, false)]);
        while let Some((at, committed)) = frontier.pop_front() {
            for port in [PORT_EAST, PORT_WEST, PORT_NORTH, PORT_SOUTH] {
                let Some(nb) = self.neighbor(at, port) else {
                    continue;
                };
                let (a, b) = (self.coord(at), self.coord(nb));
                if a.x.abs_diff(b.x) + a.y.abs_diff(b.y) != 1 {
                    continue; // wrap link
                }
                let next_committed = match routing {
                    Routing::Xy => {
                        if committed && port == PORT_WEST {
                            continue;
                        }
                        committed || port != PORT_WEST
                    }
                    Routing::Yx => {
                        if committed && port != PORT_EAST {
                            continue;
                        }
                        committed || port == PORT_EAST
                    }
                };
                if seen[idx(nb, next_committed)]
                    || !topo.node_usable(nb)
                    || !topo.link_usable(at, nb)
                {
                    continue;
                }
                if nb != dst && cong.is_hot(nb.index()) {
                    continue;
                }
                seen[idx(nb, next_committed)] = true;
                prev[idx(nb, next_committed)] = Some((at, committed));
                if nb == dst {
                    let mut path = vec![dst];
                    let mut cur = (at, committed);
                    loop {
                        path.push(cur.0);
                        match prev[idx(cur.0, cur.1)] {
                            Some(p) => cur = p,
                            None => break,
                        }
                    }
                    path.reverse();
                    return Some(path);
                }
                frontier.push_back((nb, next_committed));
            }
        }
        None
    }

    /// The tiles where external open-loop traffic enters the chip: every
    /// tile whose router sits in the leftmost grid column (`x == 0`).
    /// Identical to the old `Mesh::west_edge` on a mesh; a ring's single
    /// `n × 1` row pins ingress at node 0.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        let (_, h) = self.dims();
        let mut edge = Vec::new();
        for y in 0..h {
            let router = self.router_at(Coord { x: 0, y });
            for slot in 0..self.concentration() {
                edge.push(self.tile_of(router, slot));
            }
        }
        edge
    }

    /// The tiles holding memory controllers. Mesh keeps the paper's
    /// placement exactly (top and bottom edges); torus and cmesh reuse the
    /// same grid rule (cmesh maps each chosen router to its slot-0 tile);
    /// a ring spreads four controllers evenly around the circumference.
    pub fn memory_controller_tiles(&self) -> Vec<NodeId> {
        match self {
            Topology::Mesh(m) => m.memory_controller_tiles(),
            Topology::Torus { width, height } | Topology::CMesh { width, height, .. } => {
                let grid = Mesh::new(*width, *height).expect("validated at construction");
                grid.memory_controller_tiles()
                    .into_iter()
                    .map(|r| self.tile_of(r, 0))
                    .collect()
            }
            Topology::Ring { nodes } => {
                let mut tiles: Vec<NodeId> = (0..4u32)
                    .map(|i| NodeId((i * *nodes as u32 / 4) as u16))
                    .collect();
                tiles.dedup();
                tiles
            }
        }
    }
}

/// How [`SimConfig`](https://docs.rs/rcsim-system)'s `cores` knob lowers
/// to a [`Topology`]: the spec carries only the *shape*, and the concrete
/// dimensions come from the core count (squares preferred, the most
/// nearly square rectangle otherwise — exactly how plain meshes always
/// resolved).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Plain 2-D mesh (the default; serialization omits it so old cache
    /// keys and goldens stay valid).
    #[default]
    Mesh,
    /// 2-D torus on the same grid a mesh would use.
    Torus,
    /// Concentrated mesh with the given tiles-per-router.
    CMesh {
        /// Tiles per router.
        concentration: u16,
    },
    /// 1-D bidirectional ring over all cores.
    Ring,
}

impl TopologySpec {
    /// `true` for the default mesh spec (used by `skip_serializing_if` to
    /// keep default configurations byte-identical on disk).
    pub fn is_mesh(&self) -> bool {
        matches!(self, TopologySpec::Mesh)
    }

    /// Short label for bench rows.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Mesh => "mesh".to_owned(),
            TopologySpec::Torus => "torus".to_owned(),
            TopologySpec::CMesh { concentration } => format!("cmesh-{concentration}"),
            TopologySpec::Ring => "ring".to_owned(),
        }
    }

    /// Builds the concrete topology for `cores` tiles.
    ///
    /// # Errors
    ///
    /// Returns the dimension errors of the topology constructors (zero
    /// cores, node-id overflow, or a core count not divisible by a cmesh
    /// concentration).
    pub fn build(&self, cores: u16) -> Result<Topology, ConfigError> {
        match self {
            TopologySpec::Mesh => {
                let mesh = Mesh::square(cores).or_else(|_| Mesh::near_square(cores))?;
                Ok(Topology::Mesh(mesh))
            }
            TopologySpec::Torus => {
                let grid = Mesh::square(cores).or_else(|_| Mesh::near_square(cores))?;
                Topology::torus(grid.width(), grid.height())
            }
            TopologySpec::CMesh { concentration } => {
                if *concentration == 0 || !cores.is_multiple_of(*concentration) {
                    return Err(ConfigError::NotSquare(cores));
                }
                let routers = cores / concentration;
                let grid = Mesh::square(routers).or_else(|_| Mesh::near_square(routers))?;
                Topology::cmesh(grid.width(), grid.height(), *concentration)
            }
            TopologySpec::Ring => Topology::ring(cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies() -> Vec<Topology> {
        vec![
            Topology::Mesh(Mesh::new(4, 4).unwrap()),
            Topology::torus(4, 4).unwrap(),
            Topology::torus(5, 3).unwrap(),
            Topology::cmesh(4, 2, 4).unwrap(),
            Topology::ring(16).unwrap(),
            Topology::ring(7).unwrap(),
        ]
    }

    #[test]
    fn constructors_validate() {
        assert!(Topology::torus(0, 4).is_err());
        assert!(Topology::cmesh(4, 4, 0).is_err());
        assert!(Topology::cmesh(256, 256, 4).is_err());
        assert!(Topology::ring(1).is_err());
        assert!(Topology::ring(2).is_ok());
    }

    #[test]
    fn mesh_matches_legacy_geometry() {
        let mesh = Mesh::new(4, 4).unwrap();
        let t = Topology::Mesh(mesh);
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.routers(), 16);
        assert_eq!(t.ports(), 5);
        for r in t.iter_routers() {
            for d in Direction::ALL {
                let legacy = mesh.neighbor(r, d);
                assert_eq!(t.neighbor(r, d.index()), legacy, "r={r} d={d}");
            }
            assert_eq!(t.eject_port(r), Direction::Local.index());
        }
        assert_eq!(t.edge_nodes(), mesh.west_edge());
        assert_eq!(t.memory_controller_tiles(), mesh.memory_controller_tiles());
        use crate::routing::{next_hop, route_path};
        for s in t.iter_routers() {
            for d in [NodeId(0), NodeId(3), NodeId(10), NodeId(15)] {
                for algo in [Routing::Xy, Routing::Yx] {
                    assert_eq!(
                        t.route_path(s, d, algo),
                        route_path(&mesh, s, d, algo),
                        "s={s} d={d}"
                    );
                    assert_eq!(
                        t.next_hop_port(s, d, algo),
                        next_hop(&mesh, s, d, algo).index(),
                        "s={s} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_links_are_symmetric() {
        for t in all_topologies() {
            for r in t.iter_routers() {
                for (port, opp) in [
                    (PORT_NORTH, PORT_SOUTH),
                    (PORT_EAST, PORT_WEST),
                    (PORT_SOUTH, PORT_NORTH),
                    (PORT_WEST, PORT_EAST),
                ] {
                    if let Some(nb) = t.neighbor(r, port) {
                        assert_eq!(t.neighbor(nb, opp), Some(r), "{t:?} r={r} port={port}");
                    }
                }
            }
        }
    }

    #[test]
    fn paths_are_minimal_and_terminate() {
        for t in all_topologies() {
            for s in t.iter_tiles() {
                for d in t.iter_tiles() {
                    for algo in [Routing::Xy, Routing::Yx] {
                        let p = t.route_path(s, d, algo);
                        assert_eq!(p.len() as u32, t.hop_count(s, d) + 1, "{t:?} s={s} d={d}");
                        assert_eq!(p.first(), Some(&t.router_of(s)));
                        assert_eq!(p.last(), Some(&t.router_of(d)));
                        for w in p.windows(2) {
                            assert_eq!(t.distance(w[0], w[1]), 1, "{t:?} non-adjacent hop");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn xy_forward_equals_yx_reverse_everywhere() {
        // The property circuit reservation rests on (§4.1), per topology.
        for t in all_topologies() {
            for s in t.iter_tiles() {
                for d in t.iter_tiles() {
                    let fwd = t.route_path(s, d, Routing::Xy);
                    let mut back = t.route_path(d, s, Routing::Yx);
                    back.reverse();
                    assert_eq!(fwd, back, "{t:?} s={s} d={d}");
                }
            }
        }
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let t = Topology::torus(4, 4).unwrap();
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 1); // wrap West
        assert_eq!(t.distance(NodeId(0), NodeId(12)), 1); // wrap North
        assert_eq!(t.distance(NodeId(0), NodeId(15)), 2);
        let r = Topology::ring(8).unwrap();
        assert_eq!(r.distance(NodeId(0), NodeId(7)), 1);
        assert_eq!(r.distance(NodeId(1), NodeId(5)), 4);
    }

    #[test]
    fn wrap_hops_only_at_the_seam() {
        let t = Topology::torus(4, 4).unwrap();
        assert!(t.is_wrap_hop(NodeId(3), PORT_EAST));
        assert!(t.is_wrap_hop(NodeId(0), PORT_WEST));
        assert!(t.is_wrap_hop(NodeId(0), PORT_NORTH));
        assert!(t.is_wrap_hop(NodeId(12), PORT_SOUTH));
        assert!(!t.is_wrap_hop(NodeId(1), PORT_EAST));
        let m = Topology::Mesh(Mesh::new(4, 4).unwrap());
        for r in m.iter_routers() {
            for p in 0..4 {
                assert!(!m.is_wrap_hop(r, p));
            }
        }
        let r = Topology::ring(8).unwrap();
        assert!(r.is_wrap_hop(NodeId(7), PORT_EAST));
        assert!(r.is_wrap_hop(NodeId(0), PORT_WEST));
        assert!(!r.is_wrap_hop(NodeId(3), PORT_EAST));
    }

    #[test]
    fn dateline_class_flips_after_the_wrap() {
        let t = Topology::torus(4, 4).unwrap();
        // Node 2 -> node 1 going East wraps at x=3: before the wrap the
        // remaining path still crosses it (class 0), after it does not.
        assert_eq!(t.vc_class(NodeId(3), NodeId(1), PORT_EAST), 0);
        assert_eq!(t.vc_class(NodeId(0), NodeId(1), PORT_EAST), 1);
        // Non-wrapping journeys are class 1 from the start.
        assert_eq!(t.vc_class(NodeId(1), NodeId(3), PORT_EAST), 1);
        // Mesh never restricts.
        let m = Topology::Mesh(Mesh::new(4, 4).unwrap());
        assert_eq!(m.vc_class(NodeId(1), NodeId(3), PORT_EAST), 1);
    }

    #[test]
    fn cmesh_identity_spaces() {
        let t = Topology::cmesh(4, 2, 4).unwrap();
        assert_eq!(t.nodes(), 32);
        assert_eq!(t.routers(), 8);
        assert_eq!(t.ports(), 8);
        assert_eq!(t.router_of(NodeId(13)), NodeId(3));
        assert_eq!(t.local_slot(NodeId(13)), 1);
        assert_eq!(t.tile_of(NodeId(3), 1), NodeId(13));
        assert_eq!(t.eject_port(NodeId(13)), PORT_LOCAL + 1);
        // Tiles on the same router are zero hops apart.
        assert_eq!(t.hop_count(NodeId(12), NodeId(13)), 0);
        assert_eq!(t.route_path(NodeId(12), NodeId(13), Routing::Xy).len(), 1);
    }

    #[test]
    fn edge_nodes_cover_column_zero() {
        let t = Topology::cmesh(4, 2, 4).unwrap();
        let edge = t.edge_nodes();
        assert_eq!(edge.len(), 8); // 2 rows x 4 tiles
        for n in &edge {
            assert_eq!(t.coord(t.router_of(*n)).x, 0);
        }
        assert_eq!(Topology::ring(8).unwrap().edge_nodes(), vec![NodeId(0)]);
        assert_eq!(Topology::torus(4, 4).unwrap().edge_nodes().len(), 4);
    }

    #[test]
    fn memory_controllers_exist_and_are_distinct() {
        for t in all_topologies() {
            let mcs = t.memory_controller_tiles();
            assert!(!mcs.is_empty(), "{t:?}");
            let mut sorted = mcs.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), mcs.len(), "{t:?} duplicate MC tiles");
            for mc in &mcs {
                assert!(mc.index() < t.nodes());
            }
        }
    }

    #[test]
    fn healthy_bfs_generalizes() {
        for t in all_topologies() {
            let health = TopologyHealth::new();
            let p = t.route_path_healthy(NodeId(0), NodeId(5), &health).unwrap();
            assert_eq!(p.first(), Some(&t.router_of(NodeId(0))));
            assert_eq!(p.last(), Some(&t.router_of(NodeId(5))));
            // BFS on a healthy network is minimal.
            assert_eq!(p.len() as u32, t.hop_count(NodeId(0), NodeId(5)) + 1);
        }
    }

    #[test]
    fn spec_builds_expected_shapes() {
        assert_eq!(
            TopologySpec::Mesh.build(64).unwrap(),
            Topology::Mesh(Mesh::new(8, 8).unwrap())
        );
        assert_eq!(
            TopologySpec::Torus.build(64).unwrap(),
            Topology::torus(8, 8).unwrap()
        );
        assert_eq!(
            TopologySpec::CMesh { concentration: 4 }.build(64).unwrap(),
            Topology::cmesh(4, 4, 4).unwrap()
        );
        assert_eq!(
            TopologySpec::Ring.build(64).unwrap(),
            Topology::ring(64).unwrap()
        );
        assert!(TopologySpec::CMesh { concentration: 3 }.build(64).is_err());
        // 1024 cores: the scale regime the bench opens.
        assert_eq!(TopologySpec::Torus.build(1024).unwrap().routers(), 1024);
        assert_eq!(
            TopologySpec::CMesh { concentration: 4 }
                .build(1024)
                .unwrap()
                .routers(),
            256
        );
    }

    #[test]
    fn spec_default_is_mesh_and_skippable() {
        assert!(TopologySpec::default().is_mesh());
        assert!(!TopologySpec::Ring.is_mesh());
        assert_eq!(TopologySpec::CMesh { concentration: 4 }.label(), "cmesh-4");
    }

    #[test]
    fn spec_serde_forms_match_docs() {
        // README documents these exact on-disk forms (the default Mesh is
        // additionally omitted at the SimConfig level via
        // skip_serializing_if, so old configs stay byte-identical).
        assert_eq!(
            serde_json::from_str::<TopologySpec>("\"Torus\"").unwrap(),
            TopologySpec::Torus
        );
        assert_eq!(
            serde_json::from_str::<TopologySpec>(r#"{"CMesh":{"concentration":4}}"#).unwrap(),
            TopologySpec::CMesh { concentration: 4 }
        );
        for spec in [
            TopologySpec::Mesh,
            TopologySpec::Torus,
            TopologySpec::CMesh { concentration: 4 },
            TopologySpec::Ring,
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TopologySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip of {json}");
        }
    }
}
