"""Command-line pipeline: prepare, train, recon, flip, path, regions, attack.

Every command writes CSV outputs plus a run manifest (its options, their
hash, output digests) so reruns with the same seed are byte-identical
and verifiable. build_parser is the one place that knows the options.
"""

import argparse
import concurrent.futures
import glob
import hashlib
import os
import sys

import numpy as np

from . import features as feat
from . import flips, paths, regions, attacks, training, network
from .errors import (
    DegenerateGradientError,
    DependencyError,
    FlipnetError,
    InvalidInputError,
    InvalidParameterError,
)


def _fmt(x):
    """Full-precision decimal for exact reanalysis."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def int_list(text):
    """Comma-separated ints, e.g. `0,8`; the empty string is the empty list."""
    return [int(v) for v in text.split(",")] if text else []


def float_list(text):
    """Comma-separated floats, e.g. `0.1,0.5,2.0`."""
    return [float(v) for v in text.split(",")]


def derived_seed(global_seed, stage):
    """Per-stage seed fan-out by hashing, so stages rerun independently."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# Options that change no output: where outputs go and how many processes
# compute them. Every other option of a command is in its config hash.
UNHASHED_OPTIONS = ("command", "config", "out_dir", "threads")


def write_manifest(args, outputs, results=None):
    """manifest_<command>.txt in args.out_dir: the config (every parsed
    option outside UNHASHED_OPTIONS, lists comma-separated as on the
    command line) and its hash, `result.*` lines that the hash leaves
    out, and each output's digest."""
    config = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
              for k, v in sorted(vars(args).items()) if k not in UNHASHED_OPTIONS}
    cfg_text = "\n".join(f"{k} = {v}" for k, v in config.items())
    lines = [f"command = {args.command}",
             f"config_hash = {hashlib.sha256(cfg_text.encode()).hexdigest()}"]
    lines += [f"config.{k} = {v}" for k, v in config.items()]
    lines += [f"result.{k} = {v}" for k, v in sorted((results or {}).items())]
    lines += [f"output {os.path.basename(p)} sha256={_sha256(p)}" for p in outputs]
    manifest = os.path.join(args.out_dir, f"manifest_{args.command}.txt")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    return manifest


def read_config(path):
    cfg = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _require(path, producing_command):
    if not os.path.exists(path):
        raise DependencyError(path, producing_command)
    return path


def _load_features_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    labels = data[:, 0].astype(np.int64)
    return data[:, 1:], labels


def _save_features_csv(path, X, labels):
    header = ["label"] + [f"c{k}" for k in range(X.shape[1])]
    rows = ([int(l)] + [float(v) for v in row] for l, row in zip(labels, X))
    write_csv(path, header, rows)


def _load_batch(path, keep_classes):
    with open(_require(path, "download CIFAR-10 binary batches"), "rb") as f:
        return feat.load_cifar_batch(f.read(), keep_classes)


def _load_train_batches(data_dir, keep_classes):
    paths = sorted(glob.glob(os.path.join(data_dir, "data_batch_*.bin")))
    if not paths:
        raise DependencyError(os.path.join(data_dir, "data_batch_*.bin"),
                              "download CIFAR-10 binary batches")
    batches = [_load_batch(p, keep_classes) for p in paths]
    return (np.concatenate([imgs for imgs, _ in batches]),
            np.concatenate([labs for _, labs in batches]))


def _coeff_matrix(images):
    return np.stack([feat.haar3d_forward(img) for img in images])


def cmd_prepare(args):
    train_imgs, train_labels = _load_train_batches(args.data_dir, args.classes)
    train_coeffs = _coeff_matrix(train_imgs)
    test_imgs, test_labels = _load_batch(os.path.join(args.data_dir, "test_batch.bin"),
                                         args.classes)
    test_coeffs = _coeff_matrix(test_imgs)
    sel = feat.select_coefficients(train_coeffs, args.k)

    os.makedirs(args.out_dir, exist_ok=True)
    sel_path = os.path.join(args.out_dir, "selector.txt")
    feat.save_selector(sel, sel_path)
    train_path = os.path.join(args.out_dir, "train_features.csv")
    test_path = os.path.join(args.out_dir, "test_features.csv")
    _save_features_csv(train_path, train_coeffs[:, sel.indices], train_labels)
    _save_features_csv(test_path, test_coeffs[:, sel.indices], test_labels)
    write_manifest(args, [sel_path, train_path, test_path])


def cmd_train(args):
    X, y = _load_features_csv(_require(args.features, "flipnet prepare"))
    test_X = test_y = None
    if args.test_features:
        test_X, test_y = _load_features_csv(args.test_features)
    sizes = [X.shape[1]] + args.hidden + [int(y.max()) + 1]
    seed = derived_seed(args.seed, "train")
    net = training.init_network(sizes, seed=seed)
    cfg = training.TrainConfig(
        learning_rate=args.learning_rate,
        dropout_rate=args.dropout,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=seed,
    )
    net, report = training.train(net, X, y, cfg, test_X, test_y)

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = os.path.join(args.out_dir, "checkpoint.bin")
    network.save_checkpoint(net, ckpt)
    report_path = os.path.join(args.out_dir, "train_report.csv")
    write_csv(report_path, ["epoch", "mean_loss"],
              [(e, l) for e, l in enumerate(report.epoch_losses)])
    acc_path = os.path.join(args.out_dir, "accuracy.csv")
    write_csv(acc_path, ["train_accuracy", "test_accuracy"],
              [(report.train_accuracy, report.test_accuracy)])
    write_manifest(args, [ckpt, report_path, acc_path])


def cmd_recon(args):
    train_imgs, _ = _load_train_batches(args.data_dir, args.classes)
    if not 0 <= args.index < len(train_imgs):
        raise InvalidParameterError(
            f"--index {args.index} is outside the {len(train_imgs)} training images"
        )
    image = train_imgs[args.index]
    # rank by the shared training selector when given, else by this
    # image's own coefficient magnitudes
    if args.selector:
        order = feat.load_selector(_require(args.selector, "flipnet prepare")).indices
    else:
        order = np.argsort(-np.abs(feat.haar3d_forward(image)), kind="stable")
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    outputs = []
    for k in args.k_list:
        sel = feat.CoefficientSelector(order[:k])
        recon = feat.reconstruct_from_subset(image, sel)
        err = float(np.linalg.norm(recon - image))
        rows.append((k, err))
        pix_path = os.path.join(args.out_dir, f"recon_k{k}.csv")
        write_csv(pix_path, ["pixel"], [(float(v),) for v in recon.ravel()])
        outputs.append(pix_path)
    err_path = os.path.join(args.out_dir, "recon_errors.csv")
    write_csv(err_path, ["k", "l2_error"], rows)
    write_manifest(args, [err_path] + outputs)


def _flip_one(task):
    net, x, pair, opts = task
    try:
        return flips.compare(net, x, pair, opts)
    except DegenerateGradientError:
        # Taylor baseline is undefined on a logit plateau (compare raises
        # before solving); still report the solver result with NaN
        # comparison metrics.
        nan = float("nan")
        flip = flips.closest_flip(net, x, pair, opts)
        return flips.ComparisonMetrics(
            beta=nan, directional_ratio=nan, angle_deg=nan, flip=flip,
            taylor=flips.TaylorEstimate(distance=nan, direction=None),
        )


def _query_count(count, rows):
    """The first `count` rows are queried, all of them when count is 0."""
    if count < 0:
        raise InvalidParameterError(f"--count must be >= 0 (0 = all rows), got {count}")
    return min(count, rows) if count else rows


def _paired_test_coeffs(X, count, sel, data_dir, keep):
    """Haar coefficients of test images 0..count-1, checked against X.

    Feature row q must be the selected coefficients of test image q;
    a features file from another split or selector fails here.
    """
    images, _ = _load_batch(os.path.join(data_dir, "test_batch.bin"), keep)
    if len(images) < count:
        raise InvalidInputError(
            f"features have {count} rows but the test batch has {len(images)} images"
        )
    coeffs = _coeff_matrix(images[:count])
    for q in range(count):
        expected = coeffs[q, sel.indices]
        if np.linalg.norm(X[q] - expected) > 1e-12 * np.linalg.norm(expected):
            raise InvalidInputError(
                f"feature row {q} is not test image {q} under the selector"
            )
    return coeffs


def cmd_flip(args):
    net = network.load_checkpoint(_require(args.checkpoint, "flipnet train"))
    X, y = _load_features_csv(_require(args.features, "flipnet prepare"))
    count = _query_count(args.count, X.shape[0])
    sel = base_coeffs = None
    if args.selector and args.data_dir:
        sel = feat.load_selector(args.selector)
        base_coeffs = _paired_test_coeffs(X, count, sel, args.data_dir, args.classes)

    opts = flips.SolveOptions(restarts=args.restarts,
                              seed=derived_seed(args.seed, "flip"))
    pair = (0, 1)
    tasks = [(net, X[q], pair, opts) for q in range(count)]
    if args.threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.threads) as ex:
            results = list(ex.map(_flip_one, tasks))
    else:
        results = [_flip_one(t) for t in tasks]

    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    n_converged = 0
    for q, metrics in enumerate(results):
        flip = metrics.flip
        legit = "not-checked"
        if sel is not None and flip.converged:
            ok, _ = flips.check_legitimate_image(flip.point, sel, base_coeffs[q])
            legit = "yes" if ok else "no"
        n_converged += flip.converged
        rows.append((
            q, f"{pair[0]}|{pair[1]}", flip.distance, metrics.taylor.distance,
            metrics.beta, metrics.directional_ratio, metrics.angle_deg,
            flip.status, legit,
        ))
    out_path = os.path.join(args.out_dir, "flips.csv")
    write_csv(out_path,
              ["id", "class_pair", "distance", "taylor_distance", "beta",
               "directional_ratio", "angle_deg", "status", "legitimate"],
              rows)
    write_manifest(args, [out_path], {"converged_fraction": n_converged / max(count, 1)})


def cmd_path(args):
    net = network.load_checkpoint(_require(args.checkpoint, "flipnet train"))
    X, _ = _load_features_csv(_require(args.features, "flipnet prepare"))
    for flag, row in (("--id1", args.id1), ("--id2", args.id2)):
        if not 0 <= row < len(X):
            raise InvalidParameterError(f"{flag} {row} is outside the {len(X)} feature rows")
    seg = paths.LineSegment(X[args.id1], X[args.id2], args.alpha_min, args.alpha_max)
    profile = paths.sample_line(net, seg, args.score_tol)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "path_profile.csv")
    header = ["alpha"] + [f"score_class{c}" for c in range(net.class_count)]
    write_csv(out_path, header,
              [(a, *row) for a, row in zip(profile.alphas, profile.softmax_scores)])
    cross_path = os.path.join(args.out_dir, "path_crossings.csv")
    write_csv(cross_path, ["alpha"], [(c,) for c in profile.crossings])
    write_manifest(args, [out_path, cross_path])


def cmd_regions(args):
    net = network.load_checkpoint(_require(args.checkpoint, "flipnet train"))
    X, y = _load_features_csv(_require(args.features, "flipnet prepare"))
    report = regions.region_report(
        net, X, y, args.class_id, max_points=args.max_points,
        seed=derived_seed(args.seed, "regions"),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    edge_path = os.path.join(args.out_dir, "adjacency_edges.txt")
    with open(edge_path, "w") as f:
        for u, v in report.edges:
            f.write(f"{u} {v}\n")
    summary_path = os.path.join(args.out_dir, "region_summary.csv")
    write_csv(summary_path,
              ["n_points", "fraction_direct", "component_count",
               "min_degree_node", "min_degree", "all_pairs_connected"],
              [(report.n_points, report.fraction_direct, report.component_count,
                report.min_degree_node[0], report.min_degree_node[1],
                int(report.all_pairs_connected))])
    write_manifest(args, [edge_path, summary_path])


def cmd_attack(args):
    net = network.load_checkpoint(_require(args.checkpoint, "flipnet train"))
    if net.class_count != 2:
        raise InvalidInputError(
            f"attack targets the other class of a binary model; "
            f"checkpoint has {net.class_count} classes"
        )
    X, y = _load_features_csv(_require(args.features, "flipnet prepare"))
    count = _query_count(args.count, X.shape[0])
    opts = flips.SolveOptions(restarts=args.restarts,
                              seed=derived_seed(args.seed, "attack"))
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for q in range(count):
        x = X[q]
        pred = int(np.argmax(network.forward(net, x).logits))
        target = 1 - pred  # binary pipeline
        flip = flips.closest_flip(net, x, (pred, target), opts)
        for eps in args.epsilons:
            cfg = attacks.AttackConfig(epsilon=eps, seed=derived_seed(args.seed, f"attack:{q}"))
            res = attacks.constrained_loss_attack(net, x, target, cfg)
            comp = attacks.compare_attack_vs_flip(net, x, res, flip)
            rows.append((q, eps, int(res.succeeded), comp.attack_distance,
                         comp.flip_distance, comp.segment_first_crossing_distance,
                         comp.angle_deg))
    out_path = os.path.join(args.out_dir, "attacks.csv")
    write_csv(out_path,
              ["id", "epsilon", "succeeded", "attack_distance", "flip_distance",
               "first_crossing_distance", "angle_deg"],
              rows)
    write_manifest(args, [out_path])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flipnet",
        description="Train small classifiers and analyze their decision boundaries.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *required):
        """Subparser with the shared options and the required input flags."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--out-dir", default="out")
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("prepare", "wavelet features + coefficient selection", "--data-dir")
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--classes", type=int_list, default="0,8",
                   help="CIFAR label ids, plane=0 ship=8")

    p = command("train", "train the classifier", "--features")
    p.add_argument("--test-features")
    p.add_argument("--hidden", type=int_list, default="40",
                   help='comma-separated hidden sizes; "" for none')
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=64)

    p = command("recon", "reconstructions from coefficient subsets", "--data-dir")
    p.add_argument("--classes", type=int_list, default="0,8")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--k-list", type=int_list, default="200,500,1000,2200")
    p.add_argument("--selector")

    p = command("flip", "closest flip points for a feature set", "--checkpoint", "--features")
    p.add_argument("--count", type=int, default=0, help="0 = all rows")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--selector", help="enables the legitimate-image check")
    p.add_argument("--data-dir", help="images for the legitimate-image check")
    p.add_argument("--classes", type=int_list, default="0,8")

    p = command("path", "softmax profile along a segment", "--checkpoint", "--features")
    p.add_argument("--id1", type=int, required=True)
    p.add_argument("--id2", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=1.0)
    p.add_argument("--score-tol", type=float, default=0.01)

    p = command("regions", "within-class adjacency and connectivity",
                "--checkpoint", "--features")
    p.add_argument("--class-id", type=int, default=1)
    p.add_argument("--max-points", type=int, default=60)

    p = command("attack", "constrained-loss attack vs flip points", "--checkpoint", "--features")
    p.add_argument("--count", type=int, default=20, help="0 = all rows")
    p.add_argument("--epsilons", type=float_list, default="0.1,0.5,2.0")
    p.add_argument("--restarts", type=int, default=4)

    return parser, sub.choices


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "recon": cmd_recon,
    "flip": cmd_flip,
    "path": cmd_path,
    "regions": cmd_regions,
    "attack": cmd_attack,
}


def apply_config(parser, subcommands, argv, args):
    """Parse argv again with the config file's values as the subcommand's
    defaults, so flags given on the command line win and argparse converts
    each value with its option's type. A key that names no option of the
    subcommand fails."""
    if not os.path.isfile(args.config):
        raise InvalidParameterError(f"config file {args.config!r} does not exist")
    cfg = {key.replace("-", "_"): value for key, value in read_config(args.config).items()}
    options = set(vars(args)) - {"command", "config"}
    unknown = sorted(set(cfg) - options)
    if unknown:
        raise InvalidParameterError(
            f"config key(s) {', '.join(unknown)} name no option of {args.command}"
        )
    subcommands[args.command].set_defaults(**cfg)
    return parser.parse_args(argv)


def main(argv=None):
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = apply_config(parser, subcommands, argv, args)
        _COMMANDS[args.command](args)
    except FlipnetError as exc:
        sys.stderr.write(f"error: kind={type(exc).__name__} message={exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
