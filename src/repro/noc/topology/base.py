"""The :class:`TopologyProvider` interface and the shared grid machinery.

A *topology provider* realizes one :class:`~repro.params.TopologyParams`
floorplan as a concrete router graph.  Everything downstream — routing
tables, the three cycle kernels, traffic generators, shortcut selection,
fault re-planning, the visualizer — talks to the provider interface and
never to a concrete width x height mesh, which is what lets the RF-I
overlay question ("where do express links buy the most?") be asked over
any substrate.

The provider contract
---------------------
A provider exposes:

* **router-grid geometry** — :attr:`width`, :attr:`height`,
  :attr:`num_routers`, :attr:`router_spacing_mm`, :meth:`router_id`,
  :meth:`coord` (coordinates exist for *every* provider; the visualizer
  and placement heuristics rely on them);
* **the node set** — :meth:`kind` plus the :attr:`cores` /
  :attr:`caches` / :attr:`memports` / :attr:`cache_clusters` component
  views;
* **the port/neighbor map** — :meth:`neighbors`, keyed by
  :class:`Port` (providers wire at most the four mesh ports plus LOCAL
  and RF, so router microarchitecture is shared), and
  :meth:`opposite_port`;
* **a minimal-route function** — :meth:`min_port`, the deterministic
  minimal next hop used for table tie-breaking and as the mesh-only
  adaptive fallback (the mesh's is classic XY);
* **the escape obligation** — :attr:`minimal_escape_deadlock_free`.
  When True (mesh), :meth:`min_port` itself is a deadlock-free escape
  route and the escape VC class follows it directly.  When False
  (torus: wraparound rings make dimension-ordered routing cyclic),
  :class:`~repro.noc.routing.RoutingTables` builds a BFS spanning-tree
  escape over the provider graph and *proves* it with
  :meth:`~repro.noc.routing.RoutingTables.validate_escape` (CDG
  acyclicity) at construction time;
* **distances** — :meth:`manhattan` (the provider's hop metric, used
  for wire-shortcut lengths, detour costs, and locality analysis) and
  :meth:`distance_matrix` (the APSP seed of shortcut selection).

This base class implements the machinery every grid-shaped provider
shares: component placement (memory ports on corners, cache banks
hugging the horizontal die edges per quadrant — Section 3.1), cluster
grouping, staggered RF-access-point placement, BFS distances, and ASCII
rendering.  Concrete providers override connectivity (:meth:`neighbors`),
the hop metric, and the minimal-route function.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.params import TopologyParams

Coord = tuple[int, int]


class NodeKind(enum.Enum):
    """What the local port of a router is attached to."""

    CORE = "core"
    CACHE = "cache"
    MEMORY = "memory"


class Port(enum.IntEnum):
    """Router port numbering; RF is the sixth port of RF-enabled routers."""

    LOCAL = 0
    NORTH = 1
    SOUTH = 2
    EAST = 3
    WEST = 4
    RF = 5


#: (dx, dy) step taken when leaving a router through each mesh port.
PORT_STEP: dict[Port, Coord] = {
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}

#: The receiving port paired with each sending mesh port.
OPPOSITE_PORT: dict[Port, Port] = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}


@dataclass
class TopologyProvider:
    """Shared grid machinery behind every first-party provider.

    Parameters
    ----------
    params:
        Floorplan geometry.  Component counts must satisfy
        ``num_cores + num_caches + num_memports == width * height``
        (the *logical* grid; concentrated providers collapse it).
    """

    params: TopologyParams = field(default_factory=TopologyParams)

    #: Registry name; concrete providers override.
    name = "abstract"
    #: True when :meth:`min_port` routes are themselves deadlock-free and
    #: may serve as the escape VC class directly (the mesh's XY).  False
    #: makes :class:`~repro.noc.routing.RoutingTables` build and prove a
    #: spanning-tree escape even without faults.
    minimal_escape_deadlock_free = True
    #: Capability flags this provider supports, from
    #: :data:`repro.noc.topology.registry.TOPOLOGY_CAPABILITIES`.
    capabilities = frozenset({"overlay", "faults", "multicast"})

    def __post_init__(self) -> None:
        p = self.params
        total = p.num_cores + p.num_caches + p.num_memports
        if total != p.width * p.height:
            raise ValueError(
                f"component counts ({total}) must fill the "
                f"{p.width}x{p.height} mesh ({p.width * p.height} routers)"
            )
        if p.num_memports > 4:
            raise ValueError("memory ports are restricted to the 4 corners")
        self._kinds: list[NodeKind] = self._assign_kinds()
        self._clusters = self._build_cache_clusters()

    # -- router-grid geometry -------------------------------------------

    @property
    def width(self) -> int:
        """Router-grid width (== the logical grid for 1:1 providers)."""
        return self.params.width

    @property
    def height(self) -> int:
        """Router-grid height."""
        return self.params.height

    @property
    def num_routers(self) -> int:
        """Routers in this provider's graph."""
        return self.width * self.height

    @property
    def router_spacing_mm(self) -> float:
        """Distance between adjacent routers (die edge / router-grid width)."""
        edge_mm = self.params.die_area_mm2 ** 0.5
        return edge_mm / self.width

    def router_id(self, x: int, y: int) -> int:
        """Router id for router-grid coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def coord(self, router: int) -> Coord:
        """Coordinate ``(x, y)`` of a router id."""
        if not (0 <= router < self.num_routers):
            raise ValueError(f"router {router} out of range")
        return router % self.width, router // self.width

    def manhattan(self, a: int, b: int) -> int:
        """Hop distance between two routers under this provider's metric."""
        ax, ay = self.coord(a)
        bx, by = self.coord(b)
        return abs(ax - bx) + abs(ay - by)

    # -- placement (Section 3.1, generalized to the router grid) --------

    def _assign_kinds(self) -> list[NodeKind]:
        """Component kind per router; grid providers place 1:1."""
        kinds = [NodeKind.CORE] * self.num_routers
        self._place_components(kinds)
        return kinds

    def _corners(self) -> list[int]:
        return [
            self.router_id(0, 0),
            self.router_id(self.width - 1, 0),
            self.router_id(0, self.height - 1),
            self.router_id(self.width - 1, self.height - 1),
        ]

    def _quadrant_positions(self, qx: int, qy: int) -> list[Coord]:
        """All coordinates of quadrant (qx, qy) with qx, qy in {0, 1}."""
        w, h = self.width, self.height
        xs = range(0, w // 2) if qx == 0 else range(w // 2, w)
        ys = range(0, h // 2) if qy == 0 else range(h // 2, h)
        return [(x, y) for x in xs for y in ys]

    def _place_components(self, kinds: list[NodeKind]) -> None:
        p = self.params
        memories = self._corners()[: p.num_memports]
        for r in memories:
            kinds[r] = NodeKind.MEMORY

        # Cache banks: per quadrant, fill positions nearest the closer
        # horizontal die edge, scanning left to right, skipping memory corners.
        quads = [(0, 0), (1, 0), (0, 1), (1, 1)]
        base, extra = divmod(p.num_caches, len(quads))
        for qi, (qx, qy) in enumerate(quads):
            quota = base + (1 if qi < extra else 0)
            edge_y = 0 if qy == 0 else self.height - 1
            candidates = sorted(
                self._quadrant_positions(qx, qy),
                key=lambda c: (abs(c[1] - edge_y), c[0]),
            )
            placed = 0
            for x, y in candidates:
                if placed == quota:
                    break
                r = self.router_id(x, y)
                if kinds[r] is NodeKind.CORE:
                    kinds[r] = NodeKind.CACHE
                    placed += 1
            if placed < quota:
                raise ValueError("quadrant too small for its cache quota")

    def _build_cache_clusters(self) -> list[list[int]]:
        """Cache banks grouped by quadrant (one cluster per quadrant)."""
        clusters: list[list[int]] = []
        for qx, qy in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            banks = [
                self.router_id(x, y)
                for x, y in self._quadrant_positions(qx, qy)
                if self._kinds[self.router_id(x, y)] is NodeKind.CACHE
            ]
            if banks:
                clusters.append(sorted(banks))
        return clusters

    # -- node-set queries -----------------------------------------------

    def kind(self, router: int) -> NodeKind:
        """Component kind attached to a router's local port."""
        return self._kinds[router]

    @property
    def cores(self) -> list[int]:
        """Router ids whose local port is a processor core."""
        return [r for r, k in enumerate(self._kinds) if k is NodeKind.CORE]

    @property
    def caches(self) -> list[int]:
        """Router ids whose local port is an L2 cache bank."""
        return [r for r, k in enumerate(self._kinds) if k is NodeKind.CACHE]

    @property
    def memports(self) -> list[int]:
        """Router ids attached to memory controllers (corners)."""
        return [r for r, k in enumerate(self._kinds) if k is NodeKind.MEMORY]

    @property
    def cache_clusters(self) -> list[list[int]]:
        """Cache banks grouped into quadrant clusters."""
        return [list(c) for c in self._clusters]

    def central_bank(self, cluster_index: int) -> int:
        """The cache bank nearest its cluster centroid (multicast transmitter)."""
        banks = self._clusters[cluster_index]
        cx = sum(self.coord(b)[0] for b in banks) / len(banks)
        cy = sum(self.coord(b)[1] for b in banks) / len(banks)

        def distance(b: int) -> tuple[float, int]:
            x, y = self.coord(b)
            return (abs(x - cx) + abs(y - cy), b)

        return min(banks, key=distance)

    def cluster_of(self, cache_router: int) -> int:
        """Index of the cluster containing a cache bank's router."""
        for i, banks in enumerate(self._clusters):
            if cache_router in banks:
                return i
        raise ValueError(f"router {cache_router} is not a cache bank")

    # -- connectivity ---------------------------------------------------

    def neighbors(self, router: int) -> dict[Port, int]:
        """Neighbors of a router, keyed by the outgoing port (no wrap)."""
        x, y = self.coord(router)
        result: dict[Port, int] = {}
        for port, (dx, dy) in PORT_STEP.items():
            nx_, ny = x + dx, y + dy
            if 0 <= nx_ < self.width and 0 <= ny < self.height:
                result[port] = self.router_id(nx_, ny)
        return result

    @staticmethod
    def opposite_port(port: Port) -> Port:
        """The receiving port paired with a sending mesh port."""
        return OPPOSITE_PORT[Port(port)]

    def mesh_links(self) -> list[tuple[int, int]]:
        """All directed inter-router links ``(src, dst)``."""
        links = []
        for r in range(self.num_routers):
            links.extend((r, n) for n in self.neighbors(r).values())
        return links

    def grid_graph(self):
        """The router graph as a ``networkx.DiGraph``.

        A cross-check for the tests; networkx is a ``dev`` extra, so it is
        imported only here.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_routers))
        g.add_edges_from(self.mesh_links())
        return g

    # -- routing --------------------------------------------------------

    def min_port(self, cur: int, dst: int) -> int:
        """Deterministic minimal-route next port from ``cur`` toward ``dst``.

        Returns an ``int(Port)`` value, or ``int(Port.LOCAL)`` when
        ``cur == dst`` (ejection).  Every route this function induces must
        terminate and be minimal under :meth:`manhattan`; it is the table
        tie-breaker, the mesh-only adaptive fallback, and — when
        :attr:`minimal_escape_deadlock_free` — the escape VC route.
        """
        raise NotImplementedError

    def distance_matrix(self) -> np.ndarray:
        """APSP hop-count matrix over the provider graph (int32).

        The seed matrix of shortcut selection.  The base implementation
        runs one BFS per router over :meth:`neighbors`, correct for any
        connected provider; grid providers with a closed form override it.
        """
        n = self.num_routers
        dist = np.zeros((n, n), dtype=np.int32)
        for src in range(n):
            row = [-1] * n
            row[src] = 0
            queue = deque([src])
            while queue:
                v = queue.popleft()
                for nbr in self.neighbors(v).values():
                    if row[nbr] < 0:
                        row[nbr] = row[v] + 1
                        queue.append(nbr)
            if min(row) < 0:
                raise ValueError(f"provider graph is disconnected at {src}")
            dist[src] = row
        return dist

    # -- RF-enabled router placement ------------------------------------

    def rf_enabled_routers(self, count: int) -> list[int]:
        """A staggered set of ``count`` RF-enabled routers.

        The paper places RF access points "in a staggered fashion to minimize
        the distance any given component would need to travel to reach the
        RF-I".  Half the routers (50 on 10x10) form a checkerboard; a quarter
        (25) form a sparser stagger ``(2x + y) % 4 == 0``.  Other counts take
        a prefix of the checkerboard ordered to stay spread out.
        """
        n = self.num_routers
        if not 0 < count <= n:
            raise ValueError(f"count must be in 1..{n}")
        if count == n:
            return list(range(n))
        if 4 * count == n:
            chosen = [
                self.router_id(x, y)
                for y in range(self.height)
                for x in range(self.width)
                if (2 * x + y) % 4 == 0
            ]
            if len(chosen) == count:
                return sorted(chosen)
        checker = [
            self.router_id(x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x + y) % 2 == 0
        ]
        if count <= len(checker):
            # Keep the stagger spread: order by (x + y) mod 4 bands, then id.
            checker.sort(key=lambda r: (sum(self.coord(r)) % 4, r))
            return sorted(checker[:count])
        rest = [r for r in range(n) if r not in set(checker)]
        return sorted(checker + rest[: count - len(checker)])

    def render(self, rf_routers: set[int] | None = None) -> str:
        """ASCII floorplan: C core, $ cache, M memory; '*' marks RF-enabled."""
        rf = rf_routers or set()
        symbol = {NodeKind.CORE: "C", NodeKind.CACHE: "$", NodeKind.MEMORY: "M"}
        rows = []
        for y in reversed(range(self.height)):
            cells = []
            for x in range(self.width):
                r = self.router_id(x, y)
                mark = "*" if r in rf else " "
                cells.append(f"{symbol[self._kinds[r]]}{mark}")
            rows.append(" ".join(cells))
        return "\n".join(rows)
