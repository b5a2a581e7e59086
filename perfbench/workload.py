"""One benchmark workload, run in a fresh process by `run.py`.

    python3 perfbench/workload.py --workload resnet_scratch --seed 1 \
        --seconds 25 --trace 0 --out perfbench/.out/resnet_scratch-s1/plain \
        [--fixtures DIR --checkpoint FILE]

The process pins the BLAS thread pool before numpy loads, calls xraynet's
public entry points in the order `training.fit` does (data, model build,
checkpoint load, head replacement, freezing, `train_epoch`, `evaluate`,
`export_metrics`), times them, checks the outputs, and writes
`result.json` (plus `metrics.csv`/`run.json`, and `trace.json` when traced)
into `--out`.

`--seed` picks the data: the synthetic set of the scratch workloads, and the
pixels and pretraining checkpoint of `transfer_hires`. The trainer's own
streams (init, val split, sampler, augmentation coins) use the fixed seed
`TRAIN_SEED`, so every run does the same work: on `transfer_hires` the
count of full-resolution rotations would otherwise swing the train time by
about a tenth from seed to seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported; run.py sets these already
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE.parent / "src"))
from xraynet import (autodiff, checkpoint, dataset, metrics, nn, rng,  # noqa: E402
                     synth, training)

import checks  # noqa: E402
import fixtures  # noqa: E402
import tracing  # noqa: E402

TRAIN_SEED = 0
INPUT_SIZE = 64
BATCH = 8
# CoronaHack train counts 1575:2778:1494:82 (Normal:Bacteria:Virus:Covid19) scaled
# by about 1/87, keeping Covid19 a small minority; the test pool keeps the
# same order of shares at half the size.
SCRATCH_TRAIN = (18, 32, 17, 2)
SCRATCH_TEST = (8, 14, 8, 2)
TRAIN_SHARE = 0.55  # of --seconds planned for train_epoch; eval chunks fill the rest


@dataclass(frozen=True)
class Spec:
    preset: str
    base_lr: float
    setups: int          # set-ups per run; setup_s is their median
    epoch_s: float       # nominal seconds per train_epoch, sizes the epoch count
    eval_pass_s: float   # nominal seconds per evaluate() over the test split
    checked_convs: tuple[str, ...]  # one conv per (kernel, stride) class, stem included


SPECS = {
    "resnet_scratch": Spec("RFL", 1e-3, 7, 1.55, 0.21, (
        "stem.conv", "stage1.block0.proj", "stage2.block0.conv1", "stage3.block1.conv2")),
    "densenet_scratch": Spec("DCE", 1e-3, 7, 8.0, 0.9, (
        "stem.conv", "dense2.layer3.conv", "transition2.conv")),
    # head-only training: at the default 1e-3 a freshly drawn head hardly moves
    # from its random start within the run's few dozen steps
    "transfer_hires": Spec("PRCEW", 1e-2, 9, 3.4, 0.09, (
        "stem.conv", "stage1.block0.proj", "stage2.block0.conv1", "stage3.block1.conv2")),
}


def setup(name: str, seed: int, fixtures_dir: Path | None, ckpt: Path | None):
    """What a user waits for before the first step: data, model, transfer surgery."""
    if name == "transfer_hires":
        bundle = dataset.from_manifest(fixtures_dir / "manifest.csv", fixtures_dir,
                                       input_size=INPUT_SIZE, seed=TRAIN_SEED, binary=(0, 3))
        model = nn.build_model(nn.mini_resnet(num_classes=4, input_size=INPUT_SIZE),
                               rng.derive_stream(TRAIN_SEED, "init"))
        checkpoint.load_checkpoint(model, ckpt)
        nn.replace_head(model, 2, rng.derive_stream(TRAIN_SEED, "head"))
        nn.freeze_backbone(model)
        return bundle, model
    bundle = synth.synthetic_bundle(SCRATCH_TRAIN, size=INPUT_SIZE, seed=seed,
                                    test_per_class=SCRATCH_TEST)
    arch = nn.mini_resnet if name == "resnet_scratch" else nn.mini_densenet
    model = nn.build_model(arch(num_classes=4, input_size=INPUT_SIZE),
                           rng.derive_stream(TRAIN_SEED, "init"))
    return bundle, model


def every_class_first(records, n: int):
    """Up to n records taken round-robin over the classes, so each class appears."""
    by_label: dict[int, list] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    out = []
    while len(out) < n and any(by_label.values()):
        for label in sorted(by_label):
            if by_label[label] and len(out) < n:
                out.append(by_label[label].pop(0))
    return out


def drawn_majority_share(bundle, config, epoch: int) -> float:
    """Share of the most frequent class among the samples `train_epoch` drew."""
    n = len(bundle.train)
    stream = rng.derive_stream(config.seed, "sampler", epoch)
    if config.spec.sampler == "weighted":
        weights = dataset.sample_weights(
            bundle.train, dataset.compute_class_weights(bundle.train_class_counts()))
        idx = dataset.weighted_sample(weights, n, stream)
    else:
        idx = np.arange(n)  # a permutation: every record once
    labels = np.array([bundle.train[i].label for i in idx])
    return float(np.bincount(labels).max() / n)


def param_copy(model, head: bool) -> dict[str, np.ndarray]:
    return {n: v.data.copy() for n, v in model.store.params.items()
            if n.startswith(nn.HEAD_PREFIX) == head}


def check_convs(spec: Spec, model, bundle, loss_fn) -> dict[str, float]:
    """conv2d forward output and kernel gradient on a real training batch
    against float64 direct windowed sums."""
    x, labels = dataset.make_batch(bundle.train, range(min(BATCH, len(bundle.train))),
                                   bundle.images, INPUT_SIZE)
    names = {id(v): n.rsplit(".", 1)[0] for n, v in model.store.params.items()}
    captured: dict[str, dict] = {}
    inner_conv = autodiff.conv2d  # the tracer's wrapper in a traced run

    def capture(xv, kernel, bias, stride=1, padding=0):
        out = inner_conv(xv, kernel, bias, stride=stride, padding=padding)
        layer = names.get(id(kernel))
        if layer in spec.checked_convs:
            rec = captured[layer] = {"x": xv.data.copy(), "kernel": kernel, "stride": stride,
                                     "padding": padding, "out": out.data.copy()}
            # keep the upstream gradient that reaches this conv's kernel VJP
            edges = list(out._edges)
            for i, (var, vjp) in enumerate(edges):
                if var is kernel:
                    def grab(g, vjp=vjp, rec=rec):
                        rec["g"] = g.copy()
                        return vjp(g)
                    edges[i] = (var, grab)
            out._edges = tuple(edges)
        return out

    autodiff.conv2d = capture
    try:
        model.store.zero_grads()
        logits = model.forward(x, train=True)
        autodiff.backward(loss_fn(logits, dataset.one_hot(labels, bundle.num_classes)))
    finally:
        autodiff.conv2d = inner_conv
    errors = {}
    for layer in spec.checked_convs:
        rec = captured.get(layer)
        if rec is None:
            raise checks.CheckFailed(f"conv {layer} was not called in the forward pass")
        errors[f"{layer}.fwd"] = checks.check_conv_forward(
            layer, rec["x"], rec["kernel"].data, rec["stride"], rec["padding"], rec["out"])
        if rec["kernel"].requires_grad:
            errors[f"{layer}.dk"] = checks.check_conv_kernel_grad(
                layer, rec["x"], rec["g"], rec["stride"], rec["padding"], rec["kernel"].grad)
    model.store.zero_grads()
    return errors


def environment(threads: str) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def run(args) -> dict:
    spec = SPECS[args.workload]
    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tracing.install(tr)

    def phase(name: str) -> None:
        if tr is not None:
            tr.phase = name
            tr.step = None

    transfer = args.workload == "transfer_hires"
    setup_s: list[float] = []

    def timed_setup(k: int):
        phase("setup")
        if tr is not None:
            tr.step = f"setup:{k}"
        t0 = time.perf_counter()
        built = setup(args.workload, args.seed, args.fixtures, args.checkpoint)
        setup_s.append(time.perf_counter() - t0)
        phase("other")
        return built

    # -- two set-ups up front: the first warms up, the second is trained; the
    #    other repeats are spread over the measured rounds below
    warm_bundle, warm_model = timed_setup(0)
    bundle, model = timed_setup(1)

    epochs = max(2, round(TRAIN_SHARE * args.seconds / spec.epoch_s))
    passes_per_chunk = max(1, round(1.0 / spec.eval_pass_s))
    chunks = max(epochs, round((1 - TRAIN_SHARE) * args.seconds / (passes_per_chunk * spec.eval_pass_s)))
    config = training.TrainConfig(
        preset=spec.preset, num_classes=bundle.num_classes, epochs=epochs, base_lr=spec.base_lr,
        batch_size=BATCH,
        seed=TRAIN_SEED, input_size=INPUT_SIZE, freeze=transfer, augment=True,
        checkpoint=str(args.checkpoint) if transfer else None)
    loss_fn = training.make_loss(config)

    checked: dict[str, object] = {}
    if transfer:  # before any training moves the buffers
        with np.load(str(args.checkpoint) + ".npz") as z:
            written = {n: z[n] for n in z.files if not n.startswith(nn.HEAD_PREFIX)}
        checks.check_bit_identical("loaded backbone vs checkpoint writer", written,
                                   model.store.state_tensors())
        checked["checkpoint_bit_exact_tensors"] = len(written)
    frozen_before = param_copy(model, head=False) if transfer else {}
    head_before = param_copy(model, head=True)
    buffers_before = {n: b.copy() for n, b in model.store.buffers.items()}

    # -- warm-up on a throwaway model: two batches with every class, one eval batch
    phase("warmup")
    warm = replace(warm_bundle, train=every_class_first(warm_bundle.train, 2 * BATCH),
                   val=warm_bundle.val[:2])
    training.train_epoch(warm_model, warm, config, training.Adam(), 0, loss_fn)
    training.evaluate(warm_model, warm_bundle.test[:BATCH], warm_bundle, loss_fn, BATCH)
    del warm, warm_model, warm_bundle

    # -- measured: one round per epoch, each followed by its share of the eval
    #    chunks and of the remaining set-ups. Spreading all three over the whole
    #    run keeps a slow or fast spell of the machine from landing on one metric.
    chunk_rounds = np.array_split(np.arange(chunks), epochs)
    extra = spec.setups - 2
    setup_rounds = [[k + 2 for k in range(extra) if (k + 0.5) * epochs // extra == r]
                    for r in range(epochs)]
    optimizer = training.Adam()
    history, epoch_rates, chunk_rates = [], [], []
    start = time.perf_counter()
    for epoch in range(epochs):
        phase("train")
        t0 = time.perf_counter()
        history.append(training.train_epoch(model, bundle, config, optimizer, epoch, loss_fn))
        epoch_rates.append(len(bundle.train) / (time.perf_counter() - t0))
        phase("eval")
        for _ in chunk_rounds[epoch]:
            t0 = time.perf_counter()
            for _ in range(passes_per_chunk):
                test_loss, test_acc, test_conf = training.evaluate(
                    model, bundle.test, bundle, loss_fn, BATCH)
            chunk_rates.append(passes_per_chunk * len(bundle.test) / (time.perf_counter() - t0))
        for k in setup_rounds[epoch]:
            timed_setup(k)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = training.RunRecord(
        config=config.to_dict(), epoch_metrics=history, test_loss=test_loss,
        test_accuracy=test_acc,
        train_acc_avg=metrics.epoch_average_accuracy([m.train_acc for m in history]),
        val_acc_avg=metrics.epoch_average_accuracy([m.val_acc for m in history]),
        wall_clock=wall, seed=TRAIN_SEED, test_confusion=test_conf)
    training.export_metrics(record, args.out)

    # -- checks on this run's outputs
    phase("check")
    steps_per_epoch = -(-len(bundle.train) // BATCH)
    batches_per_pass = -(-len(bundle.test) // BATCH)
    checks.check_learning([m.train_loss for m in history], history[-1].train_acc,
                          drawn_majority_share(bundle, config, epochs - 1))
    checks.check_confusion(test_conf, [r.label for r in bundle.test], bundle.num_classes)
    first = range(min(BATCH, len(bundle.test)))
    x, labels = dataset.make_batch(bundle.test, first, bundle.images, INPUT_SIZE)
    if transfer:
        by_ref = {f"images/{name}": (idx, label) for idx, _, label, name in fixtures.image_list()}
        sources = []
        for i in first:
            ref = bundle.test[i].image_ref
            pixels = fixtures.source_pixels(args.seed, *by_ref[ref])
            checks.check_pixels(ref, pixels, bundle.images(ref).pixels)
            sources.append(pixels)
        checked["load_image_exact"] = len(sources)
    else:
        sources = [bundle.images(bundle.test[i].image_ref).pixels for i in first]
    checks.check_make_batch(x, labels, sources, [bundle.test[i].label for i in first])
    batch_logits = model.forward(x, train=False).data
    checks.check_batch_matches_single(
        batch_logits, [model.forward(x[i:i + 1], train=False).data for i in range(len(x))])
    if transfer:
        checks.check_bit_identical("frozen backbone after training", frozen_before,
                                   param_copy(model, head=False))
        checks.check_changed("head after training", head_before, param_copy(model, head=True))
    drifted = sum(not np.array_equal(b, model.store.buffers[n]) for n, b in buffers_before.items())
    checked["conv_rel_err"] = check_convs(spec, model, bundle, loss_fn)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "correct": True,
        "attempted": spec.setups + epochs * steps_per_epoch
                     + chunks * passes_per_chunk * batches_per_pass,
        "failed": 0,
        "metrics": {
            "train_images_per_s": statistics.median(epoch_rates),
            "eval_images_per_s": statistics.median(chunk_rates),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        },
        "detail": {
            "epochs": epochs, "train_images_per_epoch": len(bundle.train),
            "eval_chunks": chunks, "passes_per_chunk": passes_per_chunk,
            "test_images": len(bundle.test), "epoch_rates": epoch_rates,
            "chunk_rates": chunk_rates, "setup_s": setup_s,
            "train_loss": [m.train_loss for m in history],
            "train_acc": [m.train_acc for m in history], "test_accuracy": test_acc,
            "bn_buffers_changed": f"{drifted}/{len(buffers_before)}",
            "checks": checked,
        },
        "env": environment(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    if tr is not None:
        result["per_layer"] = tracing.per_layer_metrics(tr, spec.setups)
        tr.dump(args.out / "trace.json")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one xraynet benchmark workload.")
    ap.add_argument("--workload", choices=sorted(SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--fixtures", type=Path)
    ap.add_argument("--checkpoint", type=Path)
    args = ap.parse_args()
    if args.workload == "transfer_hires" and (args.fixtures is None or args.checkpoint is None):
        ap.error("transfer_hires needs --fixtures and --checkpoint")
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args)
    except checks.CheckFailed as e:
        result = {"workload": args.workload, "seed": args.seed, "correct": False,
                  "failure": str(e)}
    (args.out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
