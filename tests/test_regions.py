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
from flipnet import regions
from flipnet.errors import InvalidInputError, InvalidParameterError
from flipnet.network import logits_batch
from conftest import dense_crossing_count, make_bump_net, make_linear_net, make_random_net


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

    def test_equal_points_adjacent(self):
        # a repeated point joins its copy, and the copy keeps the original's edges
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([[-3.0, 0.0], [-2.0, 0.5], [3.0, 0.0], [-3.0, 0.0]])
        graph = build_adjacency(net, pts, 1)
        assert graph.edges == [(0, 1), (0, 3), (1, 3)]

    def test_wrong_class_rejected(self, rng):
        net = make_linear_net(rng, 3)
        W, b = net.layers[0].weights, net.layers[0].bias
        p = rng.standard_normal(3)
        cls = int(np.argmax(W @ p + b))
        with pytest.raises(InvalidInputError):
            build_adjacency(net, p[None, :], 1 - cls)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_matches_dense_labelling_of_every_pair(self, rng, classes):
        # a 2-D net's pairs, many more than one stack of segments, with one
        # repeated point; an edge wherever a dense labelling sees no change
        net = make_random_net(rng, [2, 8, classes], scale=1.5)
        pts = rng.uniform(-2, 2, (200, 2))
        cls = np.argmax(logits_batch(net, pts), axis=1)
        pts = pts[cls == np.bincount(cls).argmax()][:14]
        pts = np.vstack([pts, pts[3]])
        graph = build_adjacency(net, pts, np.bincount(cls).argmax())
        n = len(pts)
        want = [(u, v) for u in range(n) for v in range(u + 1, n)
                if dense_crossing_count(net, pts[u], pts[v], step=1e-4) == 0]
        assert graph.edges == want
        assert (3, n - 1) in graph.edges and 0 < len(want) < n * (n - 1) // 2

    def test_one_crossing_call_for_all_pairs(self, monkeypatch):
        calls = []

        def recorded(net, segs):
            calls.append(len(segs))
            return count_crossings(net, segs)

        monkeypatch.setattr(regions, "count_crossings", recorded)
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([[-3.0, 0.0], [-2.0, 0.5], [3.0, 0.0], [-3.0, 0.0], [2.5, 1.0]])
        graph = build_adjacency(net, pts, 1)
        assert calls == [9]  # 10 pairs, one of them equal points
        assert graph.edges == [(0, 1), (0, 3), (1, 3), (2, 4)]

    def test_segment_reversal_symmetry(self, rng):
        net = make_bump_net(width=0.8, sharpness=0.2)
        for _ in range(200):
            x1 = rng.uniform(-3, 3, 2)
            x2 = rng.uniform(-3, 3, 2)
            if np.array_equal(x1, x2):
                continue
            fwd = len(count_crossings(net, [LineSegment(x1, x2)])[0])
            rev = len(count_crossings(net, [LineSegment(x2, x1)])[0])
            assert fwd == rev


class TestConnectedComponents:
    def test_complete_graph(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        graph = AdjacencyGraph(5, edges)
        count, sizes, _ = connected_components(graph)
        assert count == 1
        assert sizes == [5]

    def test_two_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = AdjacencyGraph(6, edges)
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
            graph = AdjacencyGraph(n, edges)
            count, sizes, labels = connected_components(graph)
            oracle = transitive_closure_components(n, edges)
            assert count == len(oracle)
            assert sorted(sizes) == sorted(len(c) for c in oracle)
            assert sum(sizes) == n

    def test_adding_edge_never_splits(self, rng):
        n = 12
        edges = [(0, 1), (2, 3), (4, 5)]
        graph = AdjacencyGraph(n, list(edges))
        prev_count, _, _ = connected_components(graph)
        for extra in [(1, 2), (3, 4), (6, 7), (0, 11)]:
            edges.append(extra)
            count, _, _ = connected_components(AdjacencyGraph(n, list(edges)))
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
        degrees = [sum(node in edge for edge in report.edges) for node in range(n)]
        assert report.min_degree_node == (degrees.index(min(degrees)), min(degrees))
        # the slab separates left and right clusters
        assert report.component_count == 2

    def test_too_few_points(self, rng):
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidInputError):
            region_report(net, np.zeros((1, 3)), np.zeros(1, dtype=int), 0)

    @pytest.mark.parametrize("max_points", [-1, 1])
    def test_max_points_below_two(self, max_points):
        net = make_bump_net(width=1.0, sharpness=0.1)
        pts = np.array([[3.0, 0.0], [2.5, 1.0], [2.0, -1.0]])
        with pytest.raises(InvalidParameterError):
            region_report(net, pts, np.ones(3, dtype=int), 1, max_points=max_points)

    def test_max_points_zero_keeps_every_point(self):
        net = make_bump_net(width=1.0, sharpness=0.1)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-4, 4, 30), rng.uniform(-2, 2, 30)])
        labels = np.ones(30, dtype=int)
        labels[:4] = 0  # wrong label: never kept
        kept = np.flatnonzero((np.argmax(logits_batch(net, pts), axis=1) == 1) & (labels == 1))
        assert 8 < kept.size < 26
        every = region_report(net, pts, labels, 1, max_points=0, seed=3)
        assert every.n_points == kept.size
        assert every == region_report(net, pts, labels, 1, max_points=kept.size + 1, seed=3)
        assert every == region_report(net, pts, labels, 1)
        assert region_report(net, pts, labels, 1, max_points=8, seed=3).n_points == 8

    def test_subsampling_deterministic(self):
        net = make_bump_net(width=1.0, sharpness=0.1)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(1.5, 4, 20), rng.uniform(-2, 2, 20)])
        labels = np.ones(20, dtype=int)
        a = region_report(net, pts, labels, 1, max_points=8, seed=3)
        b = region_report(net, pts, labels, 1, max_points=8, seed=3)
        assert a.edges == b.edges
        assert a.fraction_direct == b.fraction_direct
