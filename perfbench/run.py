"""Desk-scale benchmark of the flipnet CLI: one command, checked outputs, named metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload flip|regions|attack --seed N --seconds S --trace 0|1

A run writes seeded synthetic CIFAR-format batches (2000 train and 400
test images, classes 0 and 8), runs ``flipnet prepare`` (k=200) and
``flipnet train`` (200-512-2 erf network), then the workload's measured
stage. Every stage is its own ``python -m flipnet.cli`` process with
``--threads 1`` and one BLAS thread, started one at a time. The stage's
outputs are checked against computations in ``oracle.py``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the setup and the stage
run under the span recorder of ``spans.py`` and the object carries the
per-layer metrics and the tracing overhead. See README.md.
"""

import os

# Pin BLAS before numpy loads; the children inherit the environment.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_ROOT = ".perfbench_run"
K = 200
HIDDEN = 512
EPOCHS = 20
SCORE_TOL = 0.01  # the CLI's regions default
EPSILONS = (0.1, 0.5, 2.0)  # the CLI's attack default
REGION_EDGE_CHECKS = 8
DEADLINE_S = 170.0
# Operations per second of --seconds, set so a stage lasts about
# --seconds on the reference host (see README.md).
OPS_PER_SECOND = {"flip": 5.5, "regions": 3.0, "attack": 1.0}


class StageFailed(Exception):
    pass


Child = collections.namedtuple("Child", "wall_s cpu_s peak_rss_mb spans")


def stage_size(workload, seconds):
    """The stage's --count (flip, attack) or number of points (regions)."""
    target = OPS_PER_SECOND[workload] * seconds
    if workload != "regions":
        return max(1, round(target))
    n = 2
    while operations(workload, n) < target:
        n += 1
    return n


def operations(workload, size):
    """Operations a stage of this size attempts: queries, or segments for regions."""
    return size * (size - 1) // 2 if workload == "regions" else size


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy: same library, same state
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def host_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": PINNED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
    }


class Runner:
    """Starts one CLI process at a time and reads its wall time and peak RSS."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def __call__(self, label, cli_args, trace=False):
        """Run one stage to its end; return a Child (spans is None untraced)."""
        span_path = os.path.join(self.run_dir, f"{label}.spans.json") if trace else None
        if trace:
            argv = [sys.executable, os.path.join(BENCH_DIR, "spans.py"), span_path]
        else:
            argv = [sys.executable, "-m", "flipnet.cli"]
        argv += [str(a) for a in cli_args] + ["--threads", "1"]
        log_path = os.path.join(self.run_dir, f"{label}.log")
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise StageFailed(f"{label} exited with {proc.returncode}; see {log_path}")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, span_path)


def write_features(path, X, labels):
    """Features CSV in the program's format, every value round-tripping exactly."""
    with open(path, "w") as f:
        f.write(",".join(["label"] + [f"c{k}" for k in range(X.shape[1])]) + "\n")
        for label, row in zip(labels, X):
            f.write(",".join([str(int(label))] + [format(v, ".17g") for v in row]) + "\n")


def stage_args(workload, size, seed, prep, data_dir, out_dir, run_dir, net):
    """CLI arguments of the measured stage; writes its inputs when needed."""
    common = ["--seed", seed, "--checkpoint", os.path.join(prep, "checkpoint.bin"),
              "--out-dir", out_dir]
    test_csv = os.path.join(prep, "test_features.csv")
    if workload == "flip":
        return ["flip", *common, "--features", test_csv, "--count", size,
                "--selector", os.path.join(prep, "selector.txt"), "--data-dir", data_dir]
    if workload == "attack":
        return ["attack", *common, "--features", test_csv, "--count", size]
    X, y = oracle.read_features(test_csv)
    rows = typical_rows(net, X, y, size)
    write_features(os.path.join(run_dir, "regions_features.csv"), X[rows], y[rows])
    return ["regions", *common, "--features", os.path.join(run_dir, "regions_features.csv"),
            "--class-id", 1, "--max-points", size]


def typical_rows(net, X, y, size):
    """Rows, in order, of typical class-1 images for the regions stage.

    Among the rows the benchmark's forward pass classifies correctly as
    class 1 (logit gap above 1e-6), the `size` whose distance from their
    centroid is nearest the median distance.
    """
    z = net.logits(X)
    ok = np.nonzero((np.argmax(z, axis=1) == 1) & (y == 1) & (np.abs(z[:, 0] - z[:, 1]) > 1e-6))[0]
    if len(ok) < size:
        raise StageFailed(f"only {len(ok)} test rows are correctly classified as class 1")
    radius = np.linalg.norm(X[ok] - X[ok].mean(axis=0), axis=1)
    return np.sort(ok[np.argsort(np.abs(radius - np.median(radius)), kind="stable")[:size]])


def check_stage(workload, size, seed, prep, out_dir, run_dir, net):
    """(per-op failure messages, output-level messages) for the stage outputs."""
    if workload == "flip":
        X, _ = oracle.read_features(os.path.join(prep, "test_features.csv"))
        rows = oracle.read_csv(os.path.join(out_dir, "flips.csv"))
        if len(rows) != size:
            return [], [f"flips.csv has {len(rows)} rows, expected {size}"]
        return oracle.check_flips(net, X, rows), []
    if workload == "attack":
        X, _ = oracle.read_features(os.path.join(prep, "test_features.csv"))
        rows = oracle.read_csv(os.path.join(out_dir, "attacks.csv"))
        if len(rows) != size * len(EPSILONS):
            return [], [f"attacks.csv has {len(rows)} rows, expected {size * len(EPSILONS)}"]
        return oracle.check_attacks(net, X, rows, EPSILONS), []
    X, _ = oracle.read_features(os.path.join(run_dir, "regions_features.csv"))
    with open(os.path.join(out_dir, "adjacency_edges.txt")) as f:
        edges = [tuple(int(t) for t in line.split()) for line in f if line.strip()]
    summary = oracle.read_csv(os.path.join(out_dir, "region_summary.csv"))[0]
    return oracle.check_regions(net, X, edges, summary, SCORE_TOL, REGION_EDGE_CHECKS, seed)


def stage_outputs(out_dir):
    """Output bytes of a stage, manifest excluded (it names the out dir)."""
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("manifest_"):
            with open(os.path.join(out_dir, name), "rb") as f:
                outputs[name] = f.read()
    return outputs


def load_spans(path):
    with open(path) as f:
        return json.load(f)


def run(args):
    started = time.monotonic()
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    data_dir, prep, out_dir = (os.path.join(run_dir, d) for d in ("data", "prep", "stage"))
    child = Runner(run_dir, started + DEADLINE_S)
    trace = bool(args.trace)
    size = stage_size(args.workload, args.seconds)
    n_ops = operations(args.workload, size)

    host = host_info()
    print("# host " + json.dumps(host), flush=True)

    # ---- setup: data synthesis, prepare, train
    t0 = time.perf_counter()
    train_labels, test_labels = synth.write_dataset(data_dir, args.seed)
    synth_s = time.perf_counter() - t0
    prepare = child(
        "prepare", ["prepare", "--seed", synth.TRAIN_SEED, "--data-dir", data_dir,
                    "--out-dir", prep, "--k", K], trace)
    train = child(
        "train", ["train", "--seed", synth.TRAIN_SEED, "--out-dir", prep,
                  "--features", os.path.join(prep, "train_features.csv"),
                  "--test-features", os.path.join(prep, "test_features.csv"),
                  "--hidden", HIDDEN, "--epochs", EPOCHS], trace)
    setup_s = synth_s + prepare.wall_s + train.wall_s
    print(f"# setup synth_s={synth_s:.3f} prepare_s={prepare.wall_s:.3f} "
          f"train_s={train.wall_s:.3f}", flush=True)

    net = oracle.Net(os.path.join(prep, "checkpoint.bin"))
    output_msgs = oracle.check_setup(net, prep, K, train_labels, test_labels)

    # ---- measured stage, untraced
    cli_args = stage_args(args.workload, size, args.seed, prep, data_dir, out_dir, run_dir, net)
    stage = child("stage", cli_args)
    print(f"# stage {args.workload} ops={n_ops} wall_s={stage.wall_s:.3f} "
          f"cpu_s={stage.cpu_s:.3f} peak_rss_mb={stage.peak_rss_mb:.1f}", flush=True)

    per_op, msgs = check_stage(args.workload, size, args.seed, prep, out_dir, run_dir, net)
    output_msgs += msgs
    if len(per_op) != n_ops:
        output_msgs.append(f"{len(per_op)} operations checked, expected {n_ops}")
    failed = sum(1 for m in per_op if m)

    if trace:
        traced_dir = os.path.join(run_dir, "stage_traced")
        traced_args = [traced_dir if a == out_dir else a for a in cli_args]
        traced = child("stage_traced", traced_args, trace=True)
        if stage_outputs(traced_dir) != stage_outputs(out_dir):
            output_msgs.append("traced stage outputs differ from the untraced ones")
        layer = spans.layer_metrics([load_spans(prepare.spans), load_spans(train.spans)],
                                    load_spans(traced.spans), n_ops, EPOCHS)
        layer["trace.overhead_pct"] = (100.0 * (traced.wall_s / stage.wall_s - 1.0), "%")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "setup_peak_rss_mb": {"value": max(prepare.peak_rss_mb, train.peak_rss_mb),
                                  "unit": "MB"},
            "ops_per_s": {"value": n_ops / stage.wall_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": stage.peak_rss_mb, "unit": "MB"},
        }

    for m in [m for op in per_op for m in op][:20] + output_msgs:
        print("# check failed: " + m, file=sys.stderr)
    for name in os.listdir(run_dir):  # keep only the span files
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif not name.endswith(".spans.json"):
            os.remove(path)
    return {"correct": not output_msgs, "attempted": n_ops, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "flipnet", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a flipnet checkout "
                         "(src/flipnet/cli.py not found)\n")
        return 2
    try:
        result = run(args)
    except StageFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
