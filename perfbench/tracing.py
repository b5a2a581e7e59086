"""Span tracing of xraynet from outside the program.

`install(tracer)` replaces public functions and methods of the xraynet
modules with wrappers that record spans; it returns an undo function. No
program file changes, and the wrappers call the originals with the same
arguments, so the arithmetic is untouched.

A span is `[name, start_ns, end_ns, parent, step, block]`: `parent` is the
index of the enclosing span (-1 at top level), `step` names the training
step or eval batch the span belongs to (e.g. ``train.step:12``), and
`block` is the model block (``stem``, ``stage2``, ``dense1``, ...) whose
forward pass was running when the span, or for a backward span the graph
node it differentiates, was created. Spans stay in memory until
`Tracer.dump` writes them out.

Backward time is attributed by wrapping each vector-Jacobian product when
its graph node is created (`autodiff._op`), so every VJP span carries the
op and block that produced the node.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, STEP, BLOCK = range(6)

# public autodiff op -> metric group
OP_GROUPS = {
    "conv2d": "conv2d",
    "batch_norm": "batch_norm",
    "concat_channels": "concat_channels",
    "avg_pool2d": "pool",
    "global_avg_pool": "pool",
    "max_pool2d": "pool",
    "relu": "pointwise",
    "add": "pointwise",
    "linear": "linear",
}
BLOCKS = ("stem", "stage1", "stage2", "stage3", "dense1", "dense2", "dense3",
          "transition1", "transition2", "final", "head")
_CONV_EDGE_KINDS = ("dx", "dk", "db")  # conv2d's edges, in the order it lists them


class Tracer:
    """In-memory span recorder plus counters keyed by (scope, name)."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "other"       # set by the workload: setup, warmup, train, eval, check
        self.step: str | None = None
        self.block: str | None = None
        self.owner: str | None = None  # op group whose graph nodes are being built
        self._loop_span: int | None = None
        self._loop_kind: str | None = None  # "step" inside train_epoch, "eval" inside evaluate
        self._block_span: int | None = None
        self._param_names: dict[int, str] = {}
        self._serial = 0

    # -- spans ------------------------------------------------------------
    def begin(self, name: str, block: str | None = None) -> int:
        idx = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.step, block])
        self.open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        top = self.open.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order "
                               f"(innermost open span is {self.spans[top][NAME]})")

    @property
    def scope(self) -> str:
        """Where counters land: ``train.step``, ``eval.eval``, or the bare phase."""
        return f"{self.phase}.{self._loop_kind}" if self._loop_span is not None else self.phase

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.scope, name)] += value

    # -- training-loop iterations ----------------------------------------
    def open_loop(self) -> None:
        self.close_loop()
        self._serial += 1
        self.step = f"{self.phase}.{self._loop_kind}:{self._serial}"
        self._loop_span = self.begin("training.step" if self._loop_kind == "step"
                                     else "training.eval_batch")

    def close_loop(self) -> None:
        if self._loop_span is not None:
            self.end(self._loop_span)
            self._loop_span = None
            self.step = None

    # -- model blocks ------------------------------------------------------
    def enter_block(self, param) -> None:
        if self._block_span is None:  # layer called outside Model.forward
            return
        name = self._param_names.get(id(param), "")
        block = name.split(".", 1)[0]
        if block != self.block:
            self.end(self._block_span)
            self.block = block
            self._block_span = self.begin(f"nn.{block}", block)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "step", "block"],
            "spans": self.spans,
            "counts": [[s, n, v] for (s, n), v in sorted(self.counts.items())],
        }), encoding="utf-8")


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _spanned(tr: Tracer, name: str, fn, after=None, owner: str | None = None):
    """Wrap `fn` in a span; `after(args, out)` records counts, and `owner`
    names the op group that owns the graph nodes built inside the call."""
    def traced(*args, **kwargs):
        prev = tr.owner
        if owner is not None:
            tr.owner = owner
        idx = tr.begin(name, tr.block)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end(idx)
            tr.owner = prev
        if after is not None:
            after(args, out)
        return out
    return traced


def install(tr: Tracer):
    """Wrap xraynet's public functions; returns a function that undoes it."""
    from xraynet import autodiff, checkpoint, dataset, images, nn, rng, synth, training

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # autodiff: node creation, public ops, backward walk
    orig_op = autodiff._op

    def timed_vjp(fn, name, block):
        def vjp(g):
            idx = tr.begin(name, block)
            try:
                return fn(g)
            finally:
                tr.end(idx)
        return vjp

    def traced_op(data, edges):
        group = tr.owner
        prefix = "losses" if group == "losses" else f"autodiff.{group or 'other'}"
        edges = list(edges)
        kinds = _CONV_EDGE_KINDS if group == "conv2d" else ("bwd",) * len(edges)
        wrapped = [(v, timed_vjp(f, f"{prefix}.{kind}", tr.block)) for (v, f), kind in zip(edges, kinds)]
        tr.count("autodiff.graph_nodes")
        tr.count("autodiff.output_bytes", data.nbytes)
        return orig_op(data, wrapped)

    patch(autodiff, "_op", traced_op)

    def count_flops(args, out):
        k = args[1].data
        tr.count("autodiff.conv2d.flop", 2.0 * out.data.size * k.shape[1] * k.shape[2] * k.shape[3])

    for op, group in OP_GROUPS.items():
        patch(autodiff, op, _spanned(tr, f"autodiff.{group}.fwd", getattr(autodiff, op),
                                     count_flops if op == "conv2d" else None, owner=group))
    patch(autodiff, "backward", _spanned(tr, "autodiff.backward", autodiff.backward))

    # nn: model forward opens block spans as layers are entered
    orig_forward = nn.Model.forward

    def forward(self, x, train=False, update_stats=None):
        tr._param_names = {id(v): n for n, v in self.store.params.items()}
        idx = tr.begin("training.forward")
        tr.block = "stem"
        tr._block_span = tr.begin("nn.stem", "stem")
        try:
            return orig_forward(self, x, train, update_stats)
        finally:
            tr.end(tr._block_span)
            tr._block_span = None
            tr.block = None
            tr.end(idx)

    patch(nn.Model, "forward", forward)
    for cls, attr in ((nn.Conv2d, "kernel"), (nn.BatchNorm2d, "gamma"), (nn.Linear, "weight")):
        orig_call = cls.__call__

        def layer_call(self, *args, _orig=orig_call, _attr=attr, **kwargs):
            tr.enter_block(getattr(self, _attr))
            return _orig(self, *args, **kwargs)
        patch(cls, "__call__", layer_call)
    patch(nn, "build_model", _spanned(tr, "nn.build", nn.build_model))
    patch(nn, "replace_head", _spanned(tr, "nn.replace_head", nn.replace_head))
    patch(nn, "freeze_backbone", _spanned(tr, "nn.freeze_backbone", nn.freeze_backbone))

    # losses, as the training loop reaches them
    for loss in ("focal_loss", "cross_entropy"):
        patch(training, loss, _spanned(tr, "losses.fwd", getattr(training, loss), owner="losses"))

    # training loop: each make_batch call inside train_epoch/evaluate starts an iteration
    def loop_wrapper(fn, name, kind):
        def traced(*args, **kwargs):
            tr.close_loop()
            prev_kind, tr._loop_kind = tr._loop_kind, kind
            idx = tr.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close_loop()
                tr.end(idx)
                tr._loop_kind = prev_kind
        return traced

    patch(training, "train_epoch", loop_wrapper(training.train_epoch, "training.train_epoch", "step"))
    patch(training, "evaluate", loop_wrapper(training.evaluate, "training.evaluate", "eval"))
    patch(training.Adam, "step", _spanned(tr, "training.optimizer", training.Adam.step))

    orig_make_batch = training.make_batch

    def make_batch(*args, **kwargs):
        if tr._loop_kind is not None:
            tr.open_loop()
        idx = tr.begin("dataset.make_batch")
        try:
            return orig_make_batch(*args, **kwargs)
        finally:
            tr.end(idx)

    patch(training, "make_batch", make_batch)

    # dataset and images
    patch(dataset, "from_manifest", _spanned(tr, "dataset.from_manifest", dataset.from_manifest))

    def count_decoded(args, img):
        tr.count("images.load_image_calls")
        tr.count("images.decoded_bytes", img.pixels.nbytes)

    def count_rotated(args, img):
        tr.count("images.rotate_calls")
        tr.count("images.rotated_pixels", img.pixels.size)

    patch(dataset, "load_image", _spanned(tr, "images.load_image", dataset.load_image, count_decoded))
    patch(dataset, "augment", _spanned(tr, "images.augment", dataset.augment))
    patch(images, "rotate", _spanned(tr, "images.rotate", images.rotate, count_rotated))
    patch(dataset, "to_unit_float", _spanned(tr, "images.to_unit_float", dataset.to_unit_float))
    patch(dataset, "resize_bilinear", _spanned(tr, "images.resize", dataset.resize_bilinear))

    # rng, synth, checkpoint
    orig_derive = rng.derive_stream

    def derive_stream(*args, **kwargs):
        tr.count("rng.derive_stream_calls")
        return orig_derive(*args, **kwargs)

    for module in (rng, training, dataset, synth):  # every module that imported it by name
        patch(module, "derive_stream", derive_stream)
    orig_uniform = rng.Pcg32.uniform

    def uniform(self, low=0.0, high=1.0):
        tr.count("rng.uniform_draws")
        return orig_uniform(self, low, high)

    def count_draws(args, out):
        tr.count("rng.uniform_draws", len(out))

    patch(rng.Pcg32, "uniform", uniform)
    patch(rng.Pcg32, "uniforms", _spanned(tr, "rng.uniforms", rng.Pcg32.uniforms, count_draws))
    patch(synth, "synthetic_bundle", _spanned(tr, "synth.bundle", synth.synthetic_bundle))
    patch(checkpoint, "load_checkpoint", _spanned(tr, "checkpoint.load", checkpoint.load_checkpoint))

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
    return undo


# ---------------------------------------------------------------------------
# span arithmetic and the per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def check_nesting(spans: list[list]) -> None:
    """Raise if a span is unclosed or lies outside its parent's interval."""
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            raise ValueError(f"span {i} ({s[NAME]}) ends before it starts")
        p = s[PARENT]
        if p >= 0:
            if p >= i:
                raise ValueError(f"span {i} ({s[NAME]}) names a later span as parent")
            ps = spans[p]
            if s[START] < ps[START] or s[END] > ps[END]:
                raise ValueError(f"span {i} ({s[NAME]}) is not inside its parent {ps[NAME]}")


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_layer_metrics(tr: Tracer, setups: int) -> dict[str, float]:
    """Aggregate the recorded spans into the benchmark's per-layer metrics.

    Layer-entry metrics (``training.*``, ``nn.<block>.*``, ``nn.build_ms``,
    ``dataset.*``, ``synth.bundle_ms``, ``checkpoint.load_ms``) are inclusive
    times of that call; ``autodiff.*``, ``losses.*`` and ``images.*`` are self
    times. Values are per training step of the measured epochs, except
    ``training.eval_batch_ms`` (median per eval batch of the eval phase) and
    the set-up metrics (per set-up).
    """
    spans = tr.spans
    check_nesting(spans)
    own = self_times(spans)
    ms = 1e-6
    step_tot: dict[str, float] = defaultdict(float)   # self time inside measured train steps
    incl_tot: dict[str, float] = defaultdict(float)   # inclusive time inside measured train steps
    setup_tot: dict[str, float] = defaultdict(float)  # inclusive time during set-ups
    step_ms, eval_ms = [], []
    for i, s in enumerate(spans):
        name, step, block = s[NAME], s[STEP] or "", s[BLOCK]
        dur = (s[END] - s[START]) * ms
        if step.startswith("train.step:"):
            if name == "training.step":
                step_ms.append(dur)
            step_tot[name] += own[i] * ms
            incl_tot[name] += dur
            if name.startswith("nn.") and block:
                incl_tot[f"{block}.fwd"] += dur
            elif block and not name.endswith(".fwd"):  # a VJP of a node the block created
                incl_tot[f"{block}.bwd"] += dur
        elif step.startswith("eval.eval:") and name == "training.eval_batch":
            eval_ms.append(dur)
        elif step.startswith("setup:"):
            setup_tot[name] += dur
    steps = max(len(step_ms), 1)
    counts = {n: v for (scope, n), v in tr.counts.items() if scope == "train.step"}
    setup_counts = {n: v for (scope, n), v in tr.counts.items() if scope == "setup"}

    m: dict[str, float] = {}
    for group in ("conv2d", "batch_norm", "concat_channels", "pool", "pointwise"):
        m[f"autodiff.{group}.fwd_ms"] = step_tot[f"autodiff.{group}.fwd"] / steps
        if group != "conv2d":
            m[f"autodiff.{group}.bwd_ms"] = step_tot[f"autodiff.{group}.bwd"] / steps
    m["autodiff.conv2d.dx_ms"] = step_tot["autodiff.conv2d.dx"] / steps
    m["autodiff.conv2d.dk_ms"] = step_tot["autodiff.conv2d.dk"] / steps
    conv_s = step_tot["autodiff.conv2d.fwd"] / 1e3
    m["autodiff.conv2d.fwd_gflops"] = counts.get("autodiff.conv2d.flop", 0.0) / conv_s / 1e9 if conv_s else 0.0
    m["autodiff.backward.walk_ms"] = step_tot["autodiff.backward"] / steps
    m["autodiff.graph_nodes"] = counts.get("autodiff.graph_nodes", 0.0) / steps
    m["autodiff.output_mb"] = counts.get("autodiff.output_bytes", 0.0) / steps / 2**20
    for block in BLOCKS:
        m[f"nn.{block}.fwd_ms"] = incl_tot[f"{block}.fwd"] / steps
        m[f"nn.{block}.bwd_ms"] = incl_tot[f"{block}.bwd"] / steps
    m["nn.build_ms"] = setup_tot["nn.build"] / setups
    m["losses.fwd_ms"] = step_tot["losses.fwd"] / steps
    m["losses.bwd_ms"] = step_tot["losses.bwd"] / steps
    m["training.step_ms"] = statistics.median(step_ms) if step_ms else 0.0
    m["training.step_p90_ms"] = _quantile(step_ms, 0.9)
    m["training.forward_ms"] = incl_tot["training.forward"] / steps
    m["training.backward_ms"] = incl_tot["autodiff.backward"] / steps
    m["training.optimizer_ms"] = incl_tot["training.optimizer"] / steps
    m["training.eval_batch_ms"] = statistics.median(eval_ms) if eval_ms else 0.0
    m["dataset.make_batch_ms"] = incl_tot["dataset.make_batch"] / steps
    m["dataset.from_manifest_ms"] = setup_tot["dataset.from_manifest"] / setups
    m["images.rotate_calls"] = counts.get("images.rotate_calls", 0.0) / steps
    m["images.rotate_ms"] = step_tot["images.rotate"] / steps
    m["images.rotated_mpix"] = counts.get("images.rotated_pixels", 0.0) / steps / 1e6
    m["images.load_image_calls"] = counts.get("images.load_image_calls", 0.0) / steps
    m["images.load_image_ms"] = step_tot["images.load_image"] / steps
    m["images.decoded_mb"] = counts.get("images.decoded_bytes", 0.0) / steps / 2**20
    m["images.to_unit_float_ms"] = step_tot["images.to_unit_float"] / steps
    m["images.resize_ms"] = step_tot["images.resize"] / steps
    m["rng.uniform_draws"] = setup_counts.get("rng.uniform_draws", 0.0) / setups
    m["rng.derive_stream_calls"] = setup_counts.get("rng.derive_stream_calls", 0.0) / setups
    m["rng.uniforms_ms"] = setup_tot["rng.uniforms"] / setups
    m["synth.bundle_ms"] = setup_tot["synth.bundle"] / setups
    m["checkpoint.load_ms"] = setup_tot["checkpoint.load"] / setups
    return m
