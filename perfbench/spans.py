"""Timing wrappers around flipnet's layers, and the per-layer metrics from them.

Run as a script, this file is a drop-in for ``python -m flipnet.cli``
that records spans:

    python perfbench/spans.py SPANS_JSON prepare --data-dir ... (any CLI args)

It wraps every public function of each layer module, and the name bound
to it in every flipnet module that imported it (for example both
``flipnet.network.logits_batch`` and ``flipnet.flips.logits_batch``),
plus scipy's ``minimize`` as bound in ``flipnet.flips``. A span records
its name, its parent span, start and end, and a few counts read from
the call's arguments or result. Spans stay in memory and are written
to SPANS_JSON when the command ends.

``layer_metrics`` turns the span files of one run into the per-layer
metrics. Busy times are self times: a span's duration minus the time
covered by its child spans.
"""

import functools
import json
import sys
import time

# layer module -> public functions to wrap; each span is named "<layer>.<function>"
WRAPPED = {
    "cli": ["cmd_prepare", "cmd_train", "cmd_flip", "cmd_regions", "cmd_attack",
            "write_csv", "write_manifest"],
    "features": ["load_cifar_batch", "haar3d_forward", "haar3d_inverse", "select_coefficients"],
    "training": ["train", "evaluate_accuracy"],
    "network": ["forward_batch", "forward", "logits_batch", "grad_scalar_wrt_input",
                "grad_scalar_wrt_input_batch", "lipschitz_bound", "spectral_norm"],
    "flips": ["closest_flip", "compare", "minimize", "taylor_estimate", "flip_along_direction",
              "check_legitimate_image"],
    "paths": ["sample_line", "count_crossings"],
    "regions": ["build_adjacency"],
    "attacks": ["constrained_loss_attack", "compare_attack_vs_flip"],
}
STAGE_COMMANDS = ("cli.cmd_flip", "cli.cmd_regions", "cli.cmd_attack")
FORWARD = ("network.forward_batch", "network.forward", "network.logits_batch")
VJP = ("network.grad_scalar_wrt_input", "network.grad_scalar_wrt_input_batch")


def _counts(name, args, kwargs, result):
    """Counts a span carries, read from its call."""
    if name == "network.forward_batch":
        return {"rows": len(args[1])}
    if name == "flips.minimize":
        return {"nit": int(result.nit), "nfev": int(result.nfev)}
    if name == "flips.closest_flip":
        return {"converged": int(result.converged)}
    if name == "paths.sample_line":
        return {"samples": len(result.alphas), "crossings": len(result.crossings)}
    if name == "regions.build_adjacency":
        return {"edges": len(result.edges)}
    if name == "attacks.constrained_loss_attack":
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        return {"steps": cfg.steps * (1 + cfg.restarts), "succeeded": int(result.succeeded)}
    return None


class Recorder:
    """Spans kept in memory: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = [name, parent, start, end, None]
            self.spans[sid][4] = _counts(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap each listed function wherever a flipnet module binds it."""
        import flipnet.cli as cli  # imports every layer module

        modules = [m for n, m in sys.modules.items() if n == "flipnet" or n.startswith("flipnet.")]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"flipnet.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for command, fn in cli._COMMANDS.items():
            cli._COMMANDS[command] = getattr(cli, fn.__name__)
        return cli

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def self_times(spans):
    """Duration of each span minus the time its children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def _inside(spans, idx, name):
    """Is span idx nested, at any depth, in a span called name?"""
    p = spans[idx][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def layer_metrics(setup_spans, stage_spans, ops, epochs):
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    setup_spans is the list of span lists of the setup processes, and
    stage_spans the span list of the measured stage. The cli and
    features metrics sum over all of them; the other layers are read
    from the stage alone, so per-op ratios divide by the stage's ops.
    """
    busy, calls, counts = {}, {}, {}

    def add(spans, layers):
        for s, own in zip(spans, self_times(spans)):
            if s[0].split(".")[0] not in layers:
                continue
            busy[s[0]] = busy.get(s[0], 0.0) + own
            calls[s[0]] = calls.get(s[0], 0) + 1
            for k, v in (s[4] or {}).items():
                counts[k] = counts.get(k, 0) + v

    for spans in setup_spans:
        add(spans, {"cli", "features", "training"})
    add(stage_spans, {"cli", "features", "network", "flips", "paths", "regions", "attacks"})

    def t(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def per(x, base):
        return x / base if base else 0.0

    def in_pgd(names):
        return sum(1 for i, s in enumerate(stage_spans)
                   if s[0] in names and _inside(stage_spans, i, "attacks.constrained_loss_attack"))

    n = counts.get
    steps = n("steps", 0)
    segments = c("paths.sample_line")
    return {
        "cli.prepare_s": (t("cli.cmd_prepare"), "s"),
        "cli.train_s": (t("cli.cmd_train"), "s"),
        "cli.stage_s": (t(*STAGE_COMMANDS), "s"),
        "cli.csv_write_s": (t("cli.write_csv"), "s"),
        "cli.manifest_s": (t("cli.write_manifest"), "s"),
        "features.parse_s": (t("features.load_cifar_batch"), "s"),
        "features.haar_calls": (c("features.haar3d_forward", "features.haar3d_inverse"), "count"),
        "features.haar_s": (t("features.haar3d_forward", "features.haar3d_inverse"), "s"),
        "features.select_s": (t("features.select_coefficients"), "s"),
        "training.train_s": (t("training.train", "training.evaluate_accuracy"), "s"),
        "training.epoch_s": (t("training.train") / epochs, "s"),
        "network.forward_calls": (c("network.forward_batch"), "count"),
        "network.forward_rows": (n("rows", 0), "count"),
        "network.forward_s": (t(*FORWARD), "s"),
        "network.vjp_calls": (c(*VJP), "count"),
        "network.vjp_s": (t(*VJP), "s"),
        "network.forward_calls_per_op": (per(c("network.forward_batch"), ops), "count/op"),
        "network.vjp_calls_per_op": (per(c(*VJP), ops), "count/op"),
        "network.lipschitz_calls": (c("network.lipschitz_bound"), "count"),
        "network.lipschitz_s": (t("network.lipschitz_bound", "network.spectral_norm"), "s"),
        "flips.solve_s": (t("flips.closest_flip", "flips.compare"), "s"),
        "flips.lbfgs_calls": (c("flips.minimize"), "count"),
        "flips.lbfgs_iters": (n("nit", 0), "count"),
        "flips.lbfgs_fevals": (n("nfev", 0), "count"),
        "flips.fevals_per_op": (per(n("nfev", 0), ops), "count/op"),
        "flips.lbfgs_s": (t("flips.minimize"), "s"),
        "flips.taylor_s": (t("flips.taylor_estimate"), "s"),
        "flips.directional_s": (t("flips.flip_along_direction"), "s"),
        "flips.legit_check_s": (t("flips.check_legitimate_image"), "s"),
        "flips.converged_per_op": (per(n("converged", 0), ops), "fraction"),
        "paths.segments": (segments, "count"),
        "paths.samples": (n("samples", 0), "count"),
        "paths.samples_per_segment": (per(n("samples", 0), segments), "count/segment"),
        "paths.crossings": (n("crossings", 0), "count"),
        "paths.sample_line_s": (t("paths.sample_line", "paths.count_crossings"), "s"),
        "regions.adjacency_s": (t("regions.build_adjacency"), "s"),
        "regions.edges": (n("edges", 0), "count"),
        "attacks.pgd_calls": (c("attacks.constrained_loss_attack"), "count"),
        "attacks.pgd_steps": (steps, "count"),
        "attacks.pgd_s": (t("attacks.constrained_loss_attack"), "s"),
        "attacks.forward_calls_per_step": (per(in_pgd({"network.forward_batch"}), steps), "count/step"),
        "attacks.vjp_calls_per_step": (per(in_pgd(set(VJP)), steps), "count/step"),
        "attacks.compare_s": (t("attacks.compare_attack_vs_flip"), "s"),
        "attacks.successes": (n("succeeded", 0), "count"),
    }


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    cli = recorder.install()
    try:
        code = cli.main(cli_args)
    finally:
        recorder.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
