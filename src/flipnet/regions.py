"""Within-class adjacency of images and decision-region connectivity.

Two points of the same predicted class are adjacent when the straight
segment between them never crosses a decision boundary. The resulting
graph's connectivity is the evidence for connected / star-shaped
decision regions.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from .errors import InvalidInputError, InvalidParameterError, check_count
from .network import forward_batch
from .paths import LineSegment, count_crossings


@dataclass
class AdjacencyGraph:
    n_nodes: int
    edges: list  # (u, v) with u < v


@dataclass
class RegionReport:
    fraction_direct: float
    component_count: int
    component_sizes: list
    min_degree_node: tuple  # (node id, degree)
    all_pairs_connected: bool
    n_points: int = 0
    edges: list = field(default_factory=list)


def build_adjacency(net, points, class_id):
    """Edge (u, v) iff the segment between points u and v has no crossing;
    equal points are joined, their segment being a single point."""
    points = np.asarray(points, dtype=np.float64)
    logits, _ = forward_batch(net, points)
    preds = np.argmax(logits, axis=1)
    bad = np.nonzero(preds != class_id)[0]
    if bad.size:
        raise InvalidInputError(f"point {bad[0]} is classified as {preds[bad[0]]}, not {class_id}")
    n = points.shape[0]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    apart = [(u, v) for u, v in pairs if not np.array_equal(points[u], points[v])]
    found = count_crossings(net, [LineSegment(points[u], points[v]) for u, v in apart])
    crossed = {pair for pair, alphas in zip(apart, found) if alphas}
    return AdjacencyGraph(n_nodes=n, edges=[pair for pair in pairs if pair not in crossed])


def connected_components(graph):
    """Components, labelled in order of their lowest node. Returns (count, sizes, labels)."""
    n = graph.n_nodes
    u, v = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
    adjacency = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    count, labels = csgraph.connected_components(adjacency, directed=False)
    return count, np.bincount(labels, minlength=count).tolist(), labels.tolist()


def region_report(net, features, labels, class_id, max_points=0, seed=0):
    """Connectivity report for the correctly-classified points of a class.

    fraction_direct is the share of pairs joined by a crossing-free
    segment. Star-shape / connectedness is reported as evidence
    (fraction + single-component flag), not asserted. max_points caps
    the points by a seeded sample; 0 keeps every correctly classified
    point, and any other value must be at least 2.
    """
    check_count("max_points", max_points, 0)
    check_count("seed", seed, 0)
    if max_points == 1:
        raise InvalidParameterError(f"max_points must be 0 or >= 2, got {max_points}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    logits, _ = forward_batch(net, features)
    preds = np.argmax(logits, axis=1)
    keep = np.nonzero((preds == class_id) & (labels == class_id))[0]
    if 0 < max_points < keep.size:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(keep, size=max_points, replace=False))
    if keep.size < 2:
        raise InvalidInputError(
            f"need at least 2 correctly-classified points of class {class_id}, got {keep.size}"
        )
    graph = build_adjacency(net, features[keep], class_id)
    n = graph.n_nodes
    count, sizes, _ = connected_components(graph)
    degrees = np.bincount(np.array(graph.edges, dtype=np.int64).ravel(), minlength=n)
    min_node = int(np.argmin(degrees))
    return RegionReport(
        fraction_direct=len(graph.edges) / (n * (n - 1) // 2),
        component_count=count,
        component_sizes=sizes,
        min_degree_node=(min_node, int(degrees[min_node])),
        all_pairs_connected=(count == 1),
        n_points=n,
        edges=graph.edges,
    )
