"""Partitioning a lattice set into parts of strictly smaller diameter."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticediam import (
    BorsukGraph,
    BudgetError,
    PointSet,
    ValidationError,
    brute_force_diameter,
    build_borsuk_graph,
    borsuk,
    enumerate_lattice_points,
    exact_borsuk_number,
    greedy_partition,
)

from helpers import (
    adjacency_oracle,
    components_oracle,
    exact_borsuk_oracle,
    greedy_labels_oracle,
    random_point_set,
    random_polygon,
)


def cube(d: int, side: int = 1) -> PointSet:
    return PointSet([p for p in product(range(side + 1), repeat=d)])


class TestBorsukGraph:
    def test_unit_square_is_complete(self):
        g = build_borsuk_graph(cube(2))
        assert g.diam == 1
        assert len(g.edges) == 6
        assert g.max_degree() == 3

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            build_borsuk_graph(PointSet([(0, 0)]))

    def test_pair_budget(self):
        with pytest.raises(BudgetError):
            build_borsuk_graph(cube(2), max_pairs=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_degree_bound(self, seed):
        rng = random.Random(seed)
        d = rng.choice((1, 2, 3))
        S = random_point_set(rng, d, coord=6, n_lo=2, n_hi=15)
        assert build_borsuk_graph(S).max_degree() <= 2**d - 1


class TestGreedyPartition:
    def test_unit_cubes_need_all_parts(self):
        for d in (1, 2, 3):
            part = greedy_partition(build_borsuk_graph(cube(d)))
            assert len(part.parts) == 2**d

    def test_labels_match_parts(self):
        part = greedy_partition(build_borsuk_graph(cube(2)))
        for color, block in enumerate(part.parts):
            assert all(part.labels[p] == color for p in block)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_parts_shrink_the_diameter(self, seed):
        rng = random.Random(seed)
        d = rng.choice((1, 2, 3))
        S = random_point_set(rng, d, coord=6, n_lo=2, n_hi=15)
        diam = brute_force_diameter(S).ldiam
        part = greedy_partition(build_borsuk_graph(S))
        assert len(part.parts) <= 2**d
        assert sum(len(b) for b in part.parts) == len(S)
        for block in part.parts:
            if len(block) >= 2:
                assert brute_force_diameter(block).ldiam < diam


class TestExactNumber:
    def test_unit_cubes_are_tight(self):
        for d in (1, 2, 3):
            assert exact_borsuk_number(build_borsuk_graph(cube(d))) == 2**d

    def test_larger_cube_stays_complete(self):
        # [0,2]^2 has diameter 2, realized only between opposite boundary
        # points; the four corner pairs plus center pairs still force 4 parts
        assert exact_borsuk_number(build_borsuk_graph(cube(2, side=2))) == 4

    def test_collinear_run(self):
        S = PointSet([(i, 0) for i in range(4)])
        assert exact_borsuk_number(build_borsuk_graph(S)) == 2

    def test_clique_bound_suffices_without_search_budget(self):
        # on cubes the clique bound meets the greedy bound, so node_budget
        # is never consumed
        assert exact_borsuk_number(build_borsuk_graph(cube(3)), node_budget=0) == 8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_exact_at_most_greedy(self, seed):
        rng = random.Random(seed)
        d = rng.choice((1, 2, 3))
        S = random_point_set(rng, d, coord=5, n_lo=2, n_hi=12)
        g = build_borsuk_graph(S)
        chi = exact_borsuk_number(g)
        assert 2 <= chi <= len(greedy_partition(g).parts)


def _graph(points, edges) -> BorsukGraph:
    return BorsukGraph(vertices=PointSet(points), edges=tuple(edges), diam=1)


def _ring(n: int, isolated=()) -> BorsukGraph:
    pts = [(i, 0) for i in range(n)]
    return _graph(pts + list(isolated), [(pts[i], pts[(i + 1) % n]) for i in range(n)])


def _complete(n: int, isolated=()) -> BorsukGraph:
    # n points of Z^3, every pair joined; K_n needs n <= 8 colors
    pts = [(i, i * i, 0) for i in range(n)]
    edges = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]]
    return _graph(pts + list(isolated), edges)


class TestComponentShapes:
    """The component shapes the degree bound 2^d - 1 and the part counts
    tell apart: complete, odd cycle, path, and points on no edge."""

    def test_complete_component(self):
        g = build_borsuk_graph(cube(2))
        (comp,) = borsuk._components(g.neighbours)
        assert comp == list(g.vertices.points)
        # every degree meets the bound 2^d - 1: K_4, tight
        assert {len(g.neighbours[v]) for v in comp} == {3}
        assert exact_borsuk_number(g) == len(greedy_partition(g).parts) == 4

    def test_odd_cycle_component(self):
        ring = _ring(5)
        (comp,) = borsuk._components(ring.neighbours)
        assert comp == [(i, 0) for i in range(5)]
        assert {len(ring.neighbours[v]) for v in comp} == {2}
        assert ring.max_degree() == 2
        # an odd cycle needs one color more than its degree
        assert exact_borsuk_number(ring) == len(greedy_partition(ring).parts) == 3

    def test_path_is_not_tight(self):
        pts = ((0, 0), (1, 0), (2, 0))
        path = _graph(pts, [(pts[0], pts[1]), (pts[1], pts[2])])
        assert borsuk._components(path.neighbours) == [list(pts)]
        assert path.max_degree() == 2 < 2**path.vertices.dim - 1
        assert exact_borsuk_number(path) == len(greedy_partition(path).parts) == 2

    def test_isolated_points_split_off(self):
        pts = ((0, 0), (1, 0), (5, 5))
        g = _graph(pts, [(pts[0], pts[1])])
        # a point on no edge is its own component, which needs no search
        assert borsuk._components(g.neighbours) == [[(0, 0), (1, 0)]]
        assert sorted(map(len, components_oracle(adjacency_oracle(g)))) == [1, 2]
        part = greedy_partition(g)
        assert part.labels == {(0, 0): 0, (1, 0): 1, (5, 5): 0}
        assert part.parts == (PointSet([(0, 0), (5, 5)]), PointSet([(1, 0)]))
        assert exact_borsuk_number(g) == 2


class TestCubeShapes:
    """2^d parts are needed when the diameter graph holds a clique on the
    2^d corners of a cube; other boxes and cut cubes need fewer."""

    def test_full_box(self):
        # the points of [0, 2]^3 with even coordinates are 8 corners, each
        # pair at diameter 2
        g = build_borsuk_graph(cube(3, side=2))
        assert g.diam == 2
        assert exact_borsuk_number(g) == len(greedy_partition(g).parts) == 8

    def test_corners_only(self):
        g = build_borsuk_graph(PointSet(list(product((5, 7), repeat=3))))
        assert g.diam == 2 and len(g.edges) == 28
        assert exact_borsuk_number(g, node_budget=0) == 8

    def test_rectangle_is_not(self):
        # diameter 2 only along x: the pairs (0, y), (2, y) are a matching
        g = build_borsuk_graph(PointSet([(x, y) for x in range(3) for y in range(2)]))
        assert g.edges == (((0, 0), (2, 0)), ((0, 1), (2, 1)))
        assert exact_borsuk_number(g) == len(greedy_partition(g).parts) == 2

    def test_missing_corner(self):
        g = build_borsuk_graph(PointSet([p for p in product((0, 1), repeat=2) if p != (1, 1)]))
        assert len(g.edges) == 3
        assert exact_borsuk_number(g) == len(greedy_partition(g).parts) == 3

    def test_single_point_has_no_side(self):
        g = BorsukGraph(PointSet([(3, 3)]), (), 0)
        assert exact_borsuk_number(g) == 1
        assert greedy_partition(g).parts == (PointSet([(3, 3)]),)


def reference_graphs() -> list[BorsukGraph]:
    """Diameter graphs of seeded sparse sets in d = 2..4 and of dense
    polygons, plus hand-built odd cycles and complete components, with and
    without points on no edge."""
    rng = random.Random(1010)
    graphs = []
    for d in (2, 3, 4):
        for _ in range(12):
            S = random_point_set(rng, d, coord=rng.choice((3, 6, 20)), n_lo=2, n_hi=80)
            if len(S) >= 2:
                graphs.append(build_borsuk_graph(S))
    for _ in range(12):
        S = enumerate_lattice_points(random_polygon(rng, span_hi=rng.choice((4, 8, 16))))
        graphs.append(build_borsuk_graph(S, max_pairs=10**6))
    far = [(50, 50), (-7, 9), (3, 40)]
    graphs += [_ring(5), _ring(7, far), _ring(6, far[:1]), _ring(3)]
    far3 = [(50, 50, 50), (-7, 9, 1)]
    graphs += [_complete(4), _complete(5, far3), _complete(8, far3[:1])]
    graphs.append(_graph([(0, 0), (1, 0), (5, 5), (9, 9)], [((0, 0), (1, 0))]))
    return graphs


class TestEdgeWalkMatchesAllPoints:
    """Labels, parts, components and chi of the edge-endpoint walk against
    the all-points walk it replaced (tests/helpers.py)."""

    GRAPHS = reference_graphs()

    def test_cases_cover_isolated_points_cycles_and_cliques(self):
        # the degrees of each component, points on no edge included
        components = []
        for g in self.GRAPHS:
            adj = adjacency_oracle(g)
            components += [[len(adj[v]) for v in c] for c in components_oracle(adj)]
        assert any(len(degrees) == 1 for degrees in components)
        # an odd cycle longer than a triangle, which is complete
        assert any(
            len(degrees) >= 5 and len(degrees) % 2 == 1 and set(degrees) == {2}
            for degrees in components
        )
        assert any(
            len(degrees) >= 4 and set(degrees) == {len(degrees) - 1}
            for degrees in components
        )
        assert {g.vertices.dim for g in self.GRAPHS} == {2, 3, 4}

    def test_labels_and_parts(self):
        for g in self.GRAPHS:
            want = greedy_labels_oracle(g.vertices, adjacency_oracle(g))
            part = greedy_partition(g)
            assert list(part.labels.items()) == list(want.items())
            n_colors = max(want.values()) + 1
            assert part.parts == tuple(
                PointSet([p for p, c in want.items() if c == color])
                for color in range(n_colors)
            )

    def test_components(self):
        for g in self.GRAPHS:
            want = components_oracle(adjacency_oracle(g))
            assert borsuk._components(g.neighbours) == [c for c in want if len(c) > 1]

    def test_chi(self):
        for g in self.GRAPHS:
            assert exact_borsuk_number(g) == exact_borsuk_oracle(g)

    def test_adjacency_lists_every_point(self):
        # the neighbour map is the adjacency of every point, less the points
        # on no edge, in the same lexicographic key order
        for g in self.GRAPHS:
            adj = adjacency_oracle(g)
            assert list(adj) == list(g.vertices.points)
            endpoints = {p: n for p, n in adj.items() if n}
            assert list(g.neighbours.items()) == list(endpoints.items())
            assert g.max_degree() == max(map(len, adj.values()))


class CountingDict(dict):
    """A dict that counts key reads and iteration steps."""

    reads = 0

    def __getitem__(self, key):
        CountingDict.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        for key in super().__iter__():
            CountingDict.reads += 1
            yield key

    def items(self):
        for item in super().items():
            CountingDict.reads += 1
            yield item


def test_coloring_work_grows_with_edges_not_points():
    # 10^4 points, one triangle of edges: the neighbour map holds the three
    # endpoints only, and the greedy labels, the parts and the exact number
    # read it O(edges) times
    pts = [(x, y) for x in range(100) for y in range(100)]
    tri = [((0, 0), (3, 0)), ((0, 0), (0, 3)), ((0, 3), (3, 0))]
    g = _graph(pts, tri)
    assert list(g.neighbours) == [(0, 0), (0, 3), (3, 0)]
    object.__setattr__(g, "neighbours", CountingDict(g.neighbours))
    CountingDict.reads = 0
    part = greedy_partition(g)
    chi = exact_borsuk_number(g)
    assert CountingDict.reads <= 20 * len(tri)
    assert chi == len(part.parts) == 3
    assert len(part.labels) == 10**4
    assert [len(b) for b in part.parts] == [10**4 - 2, 1, 1]
