"""Campus waypoint graph.

The campus is modelled as a planar graph: nodes are buildings / points of
interest with 2-D coordinates, edges are walkable paths weighted by their
Euclidean length.  Trajectory mobility walks shortest paths on this graph,
producing the spatially-correlated movement (and hence channel dynamics)
that free-space random waypoint lacks.  The graph never changes after it
is built, so each route is computed once, with its legs' deltas and
lengths, and shared by every walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np


#: Chance that each non-tree edge, shortest first, is added as a footpath.
EXTRA_EDGE_PROBABILITY = 0.15


@dataclass
class CampusConfig:
    """Shape of the synthetic campus: its area and its number of buildings.

    :class:`~repro.sim.config.SimulationConfig` carries one, so these are
    the one home and the one check of the campus area and building count.
    """

    width_m: float = 1000.0
    height_m: float = 800.0
    num_buildings: int = 18

    def __post_init__(self) -> None:
        if not (0 < self.width_m < math.inf and 0 < self.height_m < math.inf):
            raise ValueError("campus dimensions must be positive and finite")
        if self.num_buildings < 2:
            raise ValueError("num_buildings must be at least 2")


class CampusMap:
    """A connected waypoint graph with 2-D node positions.

    The graph is treated as fixed once the map is built: the node list and
    every route asked for (its points, leg deltas and leg lengths) are
    cached.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() < 2:
            raise ValueError("campus graph needs at least two nodes")
        if not nx.is_connected(graph):
            raise ValueError("campus graph must be connected")
        for node, data in graph.nodes(data=True):
            if "pos" not in data:
                raise ValueError(f"node {node!r} is missing a 'pos' attribute")
        self.graph = graph
        self._nodes = tuple(graph.nodes)
        self._routes: Dict[
            Tuple[Hashable, Hashable], Tuple[np.ndarray, np.ndarray, Tuple[float, ...]]
        ] = {}

    # ------------------------------------------------------------ accessors
    @property
    def nodes(self) -> List:
        return list(self._nodes)

    def position(self, node) -> np.ndarray:
        """2-D coordinates of ``node`` in metres."""
        return np.asarray(self.graph.nodes[node]["pos"], dtype=np.float64)

    def random_node(self, rng: np.random.Generator):
        return self._nodes[int(rng.integers(len(self._nodes)))]

    def shortest_path(self, source, target) -> List:
        """Shortest path (by edge length) between two nodes."""
        return nx.shortest_path(self.graph, source, target, weight="length")

    def route_legs(
        self, source, target
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[float, ...]]:
        """The shortest ``source`` → ``target`` route as ``(points, deltas, lengths)``.

        ``points`` are the node positions along the path, ``deltas`` the
        step from each point to the next, and ``lengths`` each step's
        length, one 1-D ``np.linalg.norm`` per leg (the batched ``axis=1``
        norm can differ in the last bit).  Computed once per ordered node
        pair; both arrays are read-only, so the walks that share a route
        cannot change it.
        """
        legs = self._routes.get((source, target))
        if legs is None:
            points = self.path_positions(self.shortest_path(source, target))
            deltas = points[1:] - points[:-1]
            lengths = tuple(float(np.linalg.norm(delta)) for delta in deltas)
            points.flags.writeable = False
            deltas.flags.writeable = False
            legs = (points, deltas, lengths)
            self._routes[(source, target)] = legs
        return legs

    def path_positions(self, path: Sequence) -> np.ndarray:
        """Stack of node positions along ``path`` (shape ``(len(path), 2)``)."""
        return np.array([self.position(node) for node in path])

    def path_length(self, path: Sequence) -> float:
        positions = self.path_positions(path)
        if len(positions) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(cls, config: Optional[CampusConfig] = None, seed: int = 0) -> "CampusMap":
        """Generate a random connected campus graph from ``seed``.

        Buildings are scattered uniformly over the campus rectangle; the
        graph starts as a Euclidean minimum spanning tree (so it is always
        connected) and a few extra short edges are added to create loops,
        like real campus footpaths.
        """
        config = config if config is not None else CampusConfig()
        # Imported lazily: repro.sim.shard imports this module at load time.
        from repro.sim.rng import legacy_stream

        rng = legacy_stream(seed)
        positions = np.column_stack(
            [
                rng.uniform(0.0, config.width_m, size=config.num_buildings),
                rng.uniform(0.0, config.height_m, size=config.num_buildings),
            ]
        )
        complete = nx.Graph()
        for i in range(config.num_buildings):
            complete.add_node(i, pos=positions[i])
        for i in range(config.num_buildings):
            for j in range(i + 1, config.num_buildings):
                length = float(np.linalg.norm(positions[i] - positions[j]))
                complete.add_edge(i, j, length=length)
        mst = nx.minimum_spanning_tree(complete, weight="length")
        graph = nx.Graph()
        graph.add_nodes_from(complete.nodes(data=True))
        graph.add_edges_from(mst.edges(data=True))
        # Sprinkle extra edges, preferring short ones, to create alternative routes.
        non_tree_edges = [
            (u, v, data)
            for u, v, data in complete.edges(data=True)
            if not graph.has_edge(u, v)
        ]
        non_tree_edges.sort(key=lambda edge: edge[2]["length"])
        for u, v, data in non_tree_edges:
            if rng.random() < EXTRA_EDGE_PROBABILITY:
                graph.add_edge(u, v, **data)
        return cls(graph)
