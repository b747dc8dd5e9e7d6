"""Discrete Borsuk partitions via diameter graphs.

The diameter graph of a finite lattice set joins the pairs realizing the
lattice diameter. Partitioning the set into parts of strictly smaller diameter
is exactly proper coloring of that graph, its max degree is at most 2^d - 1,
so greedy coloring needs at most 2^d parts; the exact minimum is the chromatic
number, found here by a budgeted branch and bound.

build_borsuk_graph is the one function here that reads a point set and
charges the oracle's pair budget. Both readers, greedy_partition and
exact_borsuk_number, take the BorsukGraph it builds.

The edges are the few diameter pairs, so every reader walks the graph's one
neighbour map, over edge endpoints only: a point on no edge is its own
component, and the greedy coloring gives it color 0. The Python-level work
is O(edges); what touches every point (labels of color 0, the part of color
0, the one-point components) is C-level dict and filter work.
"""

from __future__ import annotations

from itertools import chain, filterfalse
from typing import Optional, Sequence

from .core import Point, PointSet
from .errors import BudgetError, ValidationError
from .frozen import Frozen
from .oracle import DEFAULT_PAIR_BUDGET, brute_force_diameter

__all__ = [
    "BorsukGraph",
    "BorsukPartition",
    "build_borsuk_graph",
    "greedy_partition",
    "exact_borsuk_number",
]

DEFAULT_NODE_BUDGET = 1_000_000


class BorsukGraph(Frozen):
    """Diameter graph: vertices are the points, edges the diameter pairs.

    neighbours maps each edge endpoint, in lexicographic order, to the set of
    its neighbours; a point on no edge is no key. It is built once, from the
    edges, and is not a field: eq, hash and repr read the three fields only.
    Every reader shares it, so it must not be mutated.
    """

    _fields = ("vertices", "edges", "diam")

    def __init__(
        self, vertices: PointSet, edges: tuple[tuple[Point, Point], ...], diam: int
    ):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "diam", diam)
        nbrs: dict[Point, set[Point]] = {}
        for p, q in edges:
            nbrs.setdefault(p, set()).add(q)
            nbrs.setdefault(q, set()).add(p)
        object.__setattr__(self, "neighbours", {p: nbrs[p] for p in sorted(nbrs)})

    def max_degree(self) -> int:
        return max(map(len, self.neighbours.values()), default=0)


class BorsukPartition(Frozen):
    """Parts of strictly smaller lattice diameter, with a label for every
    vertex, in lexicographic order."""

    _fields = ("parts", "labels")

    def __init__(self, parts: tuple[PointSet, ...], labels: dict[Point, int]):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "labels", labels)


def build_borsuk_graph(
    S: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> BorsukGraph:
    """Diameter graph of S (needs >= 2 points; inherits the oracle pair budget)."""
    if len(S) < 2:
        raise ValidationError("a diameter graph needs at least 2 points")
    report = brute_force_diameter(S, max_pairs)
    return BorsukGraph(vertices=S, edges=report.segments, diam=report.ldiam)


def _greedy_labels(
    points: Sequence[Point], nbrs: dict[Point, set[Point]]
) -> dict[Point, int]:
    """Greedy coloring in lexicographic point order: each point takes the
    smallest color free among its neighbours before it.

    points are all vertices in lexicographic order and nbrs the neighbour
    sets of the edge endpoints, in the same order. A point on no edge always
    takes color 0, so every point starts at 0 (dict.fromkeys, which also
    fixes the key order) and only the endpoints are colored, each after its
    smaller neighbours.
    """
    labels = dict.fromkeys(points, 0)
    for p, adj in nbrs.items():
        taken = {labels[nb] for nb in adj if nb < p}
        color = 0
        while color in taken:
            color += 1
        labels[p] = color
    return labels


def greedy_partition(graph: BorsukGraph) -> BorsukPartition:
    """Greedy proper coloring of the diameter graph in lexicographic point order.

    Always uses at most max_degree + 1 <= 2^d colors. Parts are returned in
    color order; properness (equivalently, every part has strictly smaller
    lattice diameter) is verified before returning. Only edge endpoints are
    walked in Python: the part of color 0 is the vertices less the endpoints
    of other colors, filtered at C level.
    """
    nbrs = graph.neighbours
    points = graph.vertices.points
    labels = _greedy_labels(points, nbrs)
    for p, q in graph.edges:
        if labels[p] == labels[q]:  # pragma: no cover - greedy is always proper
            raise ValidationError("greedy coloring produced an improper part")
    n_colors = 1 + max((labels[p] for p in nbrs), default=0)
    if n_colors > 2 ** graph.vertices.dim:
        raise ValidationError(
            "more parts than the degree bound allows; not a diameter graph?"
        )  # pragma: no cover - contradicts the degree bound
    buckets: list[list[Point]] = [[] for _ in range(n_colors)]
    for p in nbrs:
        buckets[labels[p]].append(p)
    moved = set(chain.from_iterable(buckets[1:]))
    buckets[0] = list(filterfalse(moved.__contains__, points))
    parts = tuple(PointSet._sorted(b) for b in buckets)
    return BorsukPartition(parts=parts, labels=labels)


def _components(adj: dict[Point, set[Point]]) -> list[list[Point]]:
    """Connected components, each sorted, in the order of their first key."""
    seen: set[Point] = set()
    comps: list[list[Point]] = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for nb in adj[v]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _greedy_clique(adj: dict[Point, set[Point]], order: list[Point]) -> list[Point]:
    best: list[Point] = []
    for seed in order:
        clique = [seed]
        candidates = set(adj[seed])
        while candidates:
            v = max(candidates, key=lambda x: (len(adj[x] & candidates), x))
            clique.append(v)
            candidates &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _k_colorable(
    order: list[Point],
    adj: dict[Point, set[Point]],
    k: int,
    budget: list[int],
) -> bool:
    """DSATUR-style backtracking with a new-color symmetry break."""
    colors: dict[Point, int] = {}

    def choose() -> Optional[Point]:
        best_v, best_key = None, None
        for v in order:
            if v in colors:
                continue
            sat = len({colors[nb] for nb in adj[v] if nb in colors})
            key = (sat, len(adj[v]))
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        return best_v

    def rec(used: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetError("exact coloring search exceeded its node budget")
        v = choose()
        if v is None:
            return True
        taken = {colors[nb] for nb in adj[v] if nb in colors}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            colors[v] = c
            if rec(max(used, c + 1)):
                return True
            del colors[v]
        return False

    return rec(0)


def exact_borsuk_number(
    graph: BorsukGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Minimum number of strictly-smaller-diameter parts: the chromatic number
    of the diameter graph, by clique bound plus branch and bound.

    Only components with an edge need a search, so the walk covers the edge
    endpoints alone; a graph with no edge (a single point) needs one part.
    """
    adj = graph.neighbours
    # the greedy colors of the endpoints depend on endpoints alone
    labels = _greedy_labels(adj, adj)
    budget = [node_budget]
    answer = 1
    for comp in _components(adj):
        lower = len(_greedy_clique(adj, comp))
        # neighbours share a component, so the global greedy coloring restricted
        # to comp is the greedy coloring of comp alone
        upper = max(labels[v] for v in comp) + 1
        best = upper
        for k in range(lower, upper):
            if _k_colorable(comp, adj, k, budget):
                best = k
                break
        answer = max(answer, best)
    return answer
