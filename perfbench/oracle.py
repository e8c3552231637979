"""Computations made apart from the program, and the output checks built on them.

The network is read straight from the FLIPNET1 checkpoint bytes; the
forward pass, the input gradient (VJP), the Lipschitz bounds (from
SVD spectral norms) and every bisection are written here again, so a
fault in the program's own versions cannot hide itself.

Each check_* function returns a list of failure messages per operation
(empty when the operation passed); the run counts an operation with
any message as failed.
"""

import csv
import math
import struct

import numpy as np
from scipy.special import erf

_SLOPE = 2.0 / math.sqrt(math.pi)  # max of d/du erf(u)
_CHUNK = 8192  # rows per forward pass, to bound memory on long grids


class Net:
    """Erf network read from a FLIPNET1 checkpoint."""

    def __init__(self, path):
        with open(path, "rb") as f:
            data = f.read()
        if data[:8] != b"FLIPNET1":
            raise ValueError(f"{path}: not a FLIPNET1 checkpoint")
        (n_layers,) = struct.unpack_from("<I", data, 8)
        dims = struct.unpack_from(f"<{n_layers + 1}I", data, 12)
        off = 12 + 4 * (n_layers + 1) + 4
        self.layers = []
        for n_in, n_out in zip(dims, dims[1:]):
            W = np.frombuffer(data, "<f8", n_out * n_in, off).reshape(n_out, n_in)
            off += 8 * n_out * n_in
            b = np.frombuffer(data, "<f8", n_out, off)
            off += 8 * n_out
            (sigma,) = struct.unpack_from("<d", data, off)
            off += 8
            self.layers.append((W.copy(), b.copy(), sigma))
        if off != len(data):
            raise ValueError(f"{path}: {len(data) - off} trailing bytes")

    def logits(self, X):
        """Logits for the rows of X."""
        X = np.atleast_2d(X)
        return np.concatenate([self._logits(X[s:s + _CHUNK]) for s in range(0, len(X), _CHUNK)])

    def _logits(self, a):
        for li, (W, b, sigma) in enumerate(self.layers):
            y = a @ W.T + b
            a = erf(y / sigma) if li < len(self.layers) - 1 else y
        return a

    def gap(self, X):
        """z_0 - z_1, the binary logit gap."""
        z = self.logits(X)
        return z[:, 0] - z[:, 1]

    def gap_grad(self, x):
        """Gradient of z_0 - z_1 at a single input, by a reverse sweep."""
        a, ys = x, []
        for li, (W, b, sigma) in enumerate(self.layers):
            y = a @ W.T + b
            ys.append(y)
            a = erf(y / sigma) if li < len(self.layers) - 1 else y
        g = np.array([1.0, -1.0])
        for li in range(len(self.layers) - 1, -1, -1):
            W, _, sigma = self.layers[li]
            if li < len(self.layers) - 1:
                u = ys[li] / sigma
                g = g * (_SLOPE / sigma) * np.exp(-u * u)
            g = g @ W
        return g

    def _hidden_bound(self):
        bound = 1.0
        for W, _, sigma in self.layers[:-1]:
            bound *= np.linalg.norm(W, 2) * _SLOPE / sigma
        return bound

    def lipschitz(self):
        """Bound on the Lipschitz constant of the whole logit map."""
        return self._hidden_bound() * np.linalg.norm(self.layers[-1][0], 2)

    def gap_lipschitz(self):
        """Bound on the Lipschitz constant of z_0 - z_1 alone."""
        W_out = self.layers[-1][0]
        return self._hidden_bound() * np.linalg.norm(W_out[0] - W_out[1])


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_features(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:], data[:, 0].astype(np.int64)


def ray_crossing(net, x, d, t_start):
    """A t with a sign change of the gap between x and x + t d (d unit).

    Doubles from t_start until the gap's sign differs from its sign at
    x, then bisects; returns the far end of the final bracket, so a
    boundary point lies at distance at most the returned t. None when
    no sign change is found before t = 1e6.
    """
    g0 = np.sign(net.gap(x)[0])
    lo, hi = 0.0, t_start
    while np.sign(net.gap(x + hi * d)[0]) == g0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return None
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if np.sign(net.gap(x + mid * d)[0]) == g0:
            lo = mid
        else:
            hi = mid
    return hi


def has_crossing(net, x1, x2, n_samples):
    """Does the argmax change between consecutive points of an n-sample grid?"""
    alphas = np.linspace(0.0, 1.0, n_samples)
    prev = None
    for start in range(0, n_samples, _CHUNK):
        a = alphas[start:start + _CHUNK]
        tops = np.argmax(net._logits((1.0 - a)[:, None] * x1 + a[:, None] * x2), axis=1)
        if np.any(tops[1:] != tops[:-1]) or (prev is not None and tops[0] != prev):
            return True
        prev = tops[-1]
    return False


def certified_samples(lipschitz, x1, x2, score_tol):
    """Grid size at which the logits move at most score_tol per step."""
    return int(math.ceil(lipschitz * np.linalg.norm(x2 - x1) / score_tol)) + 1


# ---------------------------------------------------------------- setup


def check_setup(net, out_dir, k, train_labels, test_labels):
    """Messages for the prepare/train outputs; empty when all hold."""
    msgs = []
    train_X, train_y = read_features(f"{out_dir}/train_features.csv")
    test_X, test_y = read_features(f"{out_dir}/test_features.csv")
    if not np.array_equal(train_y, train_labels) or not np.array_equal(test_y, test_labels):
        msgs.append("feature labels differ from the generated labels")
    with open(f"{out_dir}/selector.txt") as f:
        sel = [int(line) for line in f if line.strip()]
    if len(sel) != k or len(set(sel)) != k or not all(0 <= i < 4096 for i in sel):
        msgs.append(f"selector is not {k} distinct indices in [0, 4096)")
    if train_X.shape[1] != k or test_X.shape[1] != k:
        msgs.append(f"feature files do not have {k} columns")
    acc = read_csv(f"{out_dir}/accuracy.csv")[0]
    for name, X, y in (("train", train_X, train_y), ("test", test_X, test_y)):
        z = net.logits(X)
        ties = np.abs(z[:, 0] - z[:, 1]) < 1e-9
        mine = np.argmax(z, axis=1) == y
        reported = float(acc[f"{name}_accuracy"])
        if abs(reported * len(y) - mine.sum()) > ties.sum() + 1e-6:
            msgs.append(f"{name} accuracy {reported} != {mine.mean()} from the checkpoint")
    if float(acc["test_accuracy"]) < 0.7:
        msgs.append(f"test accuracy {acc['test_accuracy']} is not well above chance")
    return msgs


# ---------------------------------------------------------------- flip


def check_flips(net, X, rows):
    """One message list per query row of flips.csv."""
    L_gap = net.gap_lipschitz()
    out = []
    for q, row in enumerate(rows):
        msgs = []
        x = X[q]
        if int(row["id"]) != q or row["class_pair"] != "0|1":
            msgs.append(f"row {q}: id/class_pair {row['id']}/{row['class_pair']}")
        if row["status"] != "converged":
            msgs.append(f"row {q}: status {row['status']}")
            out.append(msgs)
            continue
        if row["legitimate"] not in ("yes", "no"):
            msgs.append(f"row {q}: legitimate-image check not run ({row['legitimate']})")
        dist, tay, beta = (float(row[c]) for c in ("distance", "taylor_distance", "beta"))
        g = net.gap(x)[0]
        grad = net.gap_grad(x)
        my_tay = abs(g) / np.linalg.norm(grad)
        if not abs(tay - my_tay) <= 1e-9 * my_tay:
            msgs.append(f"row {q}: taylor_distance {tay!r} != |g|/|grad g| {float(my_tay)!r}")
        if not math.isclose(beta, dist / tay, rel_tol=1e-15):
            msgs.append(f"row {q}: beta {beta!r} != distance/taylor_distance")
        if not dist >= abs(g) / L_gap * (1.0 - 1e-9):
            msgs.append(f"row {q}: distance {dist!r} below the Lipschitz floor {float(abs(g) / L_gap)!r}")
        d = -np.sign(g) * grad / np.linalg.norm(grad)
        t = ray_crossing(net, x, d, 0.5 * my_tay)
        if t is None or not dist <= t * (1.0 + 1e-9):
            msgs.append(f"row {q}: distance {dist!r} above the crossing on the Taylor ray {t}")
        out.append(msgs)
    return out


# ---------------------------------------------------------------- regions


def _components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(i) for i in range(n)})


def check_regions(net, X, edges, summary, score_tol, n_edge_checks, seed):
    """Per-segment message lists (in (u, v) order), plus summary messages.

    Every non-edge must show an argmax change on a grid that refines up
    to the certified spacing. No edge may show one on a 4097-point grid,
    nor, for a seeded sample of n_edge_checks edges, at the certified
    spacing.
    """
    n = len(X)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_set = set(edges)
    per_pair = {p: [] for p in pairs}
    if len(edge_set) != len(edges) or not edge_set <= set(pairs):
        return [[] for _ in pairs], ["edge list has duplicates or invalid pairs"]
    L = net.lipschitz()
    for u, v in pairs:
        if (u, v) in edge_set:
            continue
        full = certified_samples(L, X[u], X[v], score_tol)
        sizes = [m for m in (257, 4097) if m < full] + [full]
        if not any(has_crossing(net, X[u], X[v], m) for m in sizes):
            per_pair[(u, v)].append(f"non-edge {u}-{v}: no argmax change at {full} samples")
    picked = set(np.random.default_rng(seed).permutation(len(edges))[:n_edge_checks])
    for e, (u, v) in enumerate(edges):
        full = certified_samples(L, X[u], X[v], score_tol)
        m = full if e in picked else min(full, 4097)
        if has_crossing(net, X[u], X[v], m):
            per_pair[(u, v)].append(f"edge {u}-{v}: argmax changes at {m} samples")
    msgs = []
    s = summary
    if int(s["n_points"]) != n:
        msgs.append(f"n_points {s['n_points']} != {n}")
    if float(s["fraction_direct"]) != len(edges) / len(pairs):
        msgs.append(f"fraction_direct {s['fraction_direct']} != {len(edges)}/{len(pairs)}")
    count = _components(n, edges)
    if int(s["component_count"]) != count or int(s["all_pairs_connected"]) != int(count == 1):
        msgs.append(f"component_count {s['component_count']} != {count} from the edge list")
    return [per_pair[p] for p in pairs], msgs


# ---------------------------------------------------------------- attack


def check_attacks(net, X, rows, epsilons):
    """One message list per query; rows come from attacks.csv."""
    L_gap = net.gap_lipschitz()
    k = len(epsilons)
    out = []
    for q in range(len(rows) // k):
        msgs = []
        group = rows[q * k:(q + 1) * k]
        flip_d = float(group[0]["flip_distance"])
        g = net.gap(X[q])[0]
        if not flip_d >= abs(g) / L_gap * (1.0 - 1e-9):
            msgs.append(f"query {q}: flip_distance {flip_d!r} below the Lipschitz floor")
        for eps, row in zip(epsilons, group):
            if int(row["id"]) != q or float(row["epsilon"]) != eps:
                msgs.append(f"query {q}: row id/epsilon {row['id']}/{row['epsilon']}")
                continue
            if float(row["flip_distance"]) != flip_d:
                msgs.append(f"query {q}: flip_distance differs between radii")
            att = float(row["attack_distance"])
            if not att <= eps * (1.0 + 1e-12):
                msgs.append(f"query {q} eps {eps}: attack_distance {att!r} outside the ball")
            if row["succeeded"] != "1":
                continue
            if eps < flip_d * (1.0 - 1e-9):
                msgs.append(f"query {q}: success at eps {eps} below flip_distance {flip_d!r}")
            first = float(row["first_crossing_distance"])
            if not flip_d * (1.0 - 1e-9) <= first <= att * (1.0 + 1e-9):
                msgs.append(f"query {q} eps {eps}: first crossing {first!r} not in "
                            f"[flip {flip_d!r}, attack {att!r}]")
        out.append(msgs)
    return out
