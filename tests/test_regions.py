import numpy as np
import pytest

from flipnet import (
    AdjacencyGraph,
    LineSegment,
    build_adjacency,
    connected_components,
    count_crossings,
    region_report,
)
from flipnet.errors import InvalidInputError, InvalidParameterError
from conftest import make_bump_net, make_linear_net


def transitive_closure_components(n, edges):
    """Boolean matrix powering oracle."""
    A = np.eye(n, dtype=bool)
    for u, v in edges:
        A[u, v] = A[v, u] = True
    for _ in range(n):
        A = A | (A @ A)
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        comp = set(np.nonzero(A[i])[0].tolist())
        seen |= comp
        comps.append(comp)
    return comps


class TestBuildAdjacency:
    def test_single_point(self, rng):
        net = make_linear_net(rng, 3)
        x = rng.standard_normal(3)
        cls = int(np.argmax(net.layers[0].weights @ x + net.layers[0].bias))
        graph = build_adjacency(net, x[None, :], cls)
        assert graph.n_nodes == 1
        assert graph.edges == []

    def test_halfspace_points_connected(self, rng):
        net = make_linear_net(rng, 3)
        W, b = net.layers[0].weights, net.layers[0].bias
        pts = []
        while len(pts) < 4:
            p = rng.standard_normal(3)
            if np.argmax(W @ p + b) == 0:
                pts.append(p)
        graph = build_adjacency(net, np.array(pts), 0)
        assert len(graph.edges) == 6  # complete graph on 4 nodes

    def test_concave_region_non_edge(self):
        # class-1 region is split by the bump slab: points across the
        # slab see each other only through it
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([[-3.0, 0.0], [-2.0, 0.5], [3.0, 0.0]])
        graph = build_adjacency(net, pts, 1)
        assert (0, 1) in graph.edges
        assert (0, 2) not in graph.edges
        assert (1, 2) not in graph.edges

    def test_wrong_class_rejected(self, rng):
        net = make_linear_net(rng, 3)
        W, b = net.layers[0].weights, net.layers[0].bias
        p = rng.standard_normal(3)
        cls = int(np.argmax(W @ p + b))
        with pytest.raises(InvalidInputError):
            build_adjacency(net, p[None, :], 1 - cls)

    def test_segment_reversal_symmetry(self, rng):
        net = make_bump_net(width=0.8, sharpness=0.2)
        for _ in range(200):
            x1 = rng.uniform(-3, 3, 2)
            x2 = rng.uniform(-3, 3, 2)
            if np.array_equal(x1, x2):
                continue
            fwd = len(count_crossings(net, LineSegment(x1, x2)))
            rev = len(count_crossings(net, LineSegment(x2, x1)))
            assert fwd == rev


class TestConnectedComponents:
    def test_complete_graph(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        graph = AdjacencyGraph(5, edges, 0, 0.01)
        count, sizes, _ = connected_components(graph)
        assert count == 1
        assert sizes == [5]

    def test_two_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = AdjacencyGraph(6, edges, 0, 0.01)
        count, sizes, labels = connected_components(graph)
        assert count == 2
        assert sorted(sizes) == [3, 3]
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]

    def test_matches_transitive_closure_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 50))
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.05:
                        edges.append((u, v))
            graph = AdjacencyGraph(n, edges, 0, 0.01)
            count, sizes, labels = connected_components(graph)
            oracle = transitive_closure_components(n, edges)
            assert count == len(oracle)
            assert sorted(sizes) == sorted(len(c) for c in oracle)
            assert sum(sizes) == n

    def test_adding_edge_never_splits(self, rng):
        n = 12
        edges = [(0, 1), (2, 3), (4, 5)]
        graph = AdjacencyGraph(n, list(edges), 0, 0.01)
        prev_count, _, _ = connected_components(graph)
        for extra in [(1, 2), (3, 4), (6, 7), (0, 11)]:
            edges.append(extra)
            count, _, _ = connected_components(AdjacencyGraph(n, list(edges), 0, 0.01))
            assert count <= prev_count
            prev_count = count


class TestRegionReport:
    def test_halfspace_fully_direct(self, rng):
        net = make_linear_net(rng, 3)
        W, b = net.layers[0].weights, net.layers[0].bias
        pts, labels = [], []
        while len(pts) < 6:
            p = rng.standard_normal(3)
            if np.argmax(W @ p + b) == 0:
                pts.append(p)
                labels.append(0)
        report = region_report(net, np.array(pts), np.array(labels), 0)
        assert report.fraction_direct == 1.0
        assert report.component_count == 1
        assert report.all_pairs_connected

    def test_fraction_matches_edge_recount(self):
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([
            [-3.0, 0.0], [-2.5, 1.0], [-2.0, -1.0],
            [3.0, 0.0], [2.5, 1.0],
        ])
        labels = np.ones(5, dtype=int)
        report = region_report(net, pts, labels, 1)
        n = report.n_points
        assert report.fraction_direct == len(report.edges) / (n * (n - 1) / 2)
        # the slab separates left and right clusters
        assert report.component_count == 2

    def test_too_few_points(self, rng):
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidInputError):
            region_report(net, np.zeros((1, 3)), np.zeros(1, dtype=int), 0)

    @pytest.mark.parametrize("max_points", [-1, 0, 1])
    def test_max_points_below_two(self, max_points):
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([[3.0, 0.0], [2.5, 1.0], [2.0, -1.0]])
        with pytest.raises(InvalidParameterError):
            region_report(net, pts, np.ones(3, dtype=int), 1, max_points=max_points)

    def test_subsampling_deterministic(self):
        net = make_bump_net(width=1.0, sharpness=0.1)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(1.5, 4, 20), rng.uniform(-2, 2, 20)])
        labels = np.ones(20, dtype=int)
        a = region_report(net, pts, labels, 1, max_points=8, seed=3)
        b = region_report(net, pts, labels, 1, max_points=8, seed=3)
        assert a.edges == b.edges
        assert a.fraction_direct == b.fraction_direct
