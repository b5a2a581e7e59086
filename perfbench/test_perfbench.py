"""Tests of the benchmark itself: every correctness check rejects a wrong
output, and the traced run's span arithmetic holds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import tracing  # noqa: E402
from xraynet import autodiff, dataset, nn, rng, synth, training  # noqa: E402

R = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# each check accepts the right output and rejects a wrong one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 1, 3), (2, 0, 1), (1, 0, 1)])
def test_conv_checks_accept_xraynet_and_reject_wrong_outputs(stride, padding, k):
    x = autodiff.Variable(R.standard_normal((2, 3, 9, 9)).astype(np.float32))
    kern = autodiff.Variable(R.standard_normal((4, 3, k, k)).astype(np.float32), requires_grad=True)
    bias = autodiff.Variable(np.zeros(4, np.float32))
    out = autodiff.conv2d(x, kern, bias, stride=stride, padding=padding)
    g = R.standard_normal(out.shape).astype(np.float32)
    autodiff.backward(autodiff.sum_axes(autodiff.bmul(out, autodiff.constant(g))))
    checks.check_conv_forward("t", x.data, kern.data, stride, padding, out.data)
    checks.check_conv_kernel_grad("t", x.data, g, stride, padding, kern.grad)

    wrong = out.data.copy()
    wrong.flat[5] += 1e-3 * np.abs(wrong).max()
    with pytest.raises(checks.CheckFailed):
        checks.check_conv_forward("t", x.data, kern.data, stride, padding, wrong)
    with pytest.raises(checks.CheckFailed):  # input channels swapped (a flipped 1x1 kernel is itself)
        swapped = checks.conv_reference(x.data, kern.data[:, ::-1, ::-1, ::-1], stride, padding)
        checks.check_conv_forward("t", x.data, kern.data, stride, padding, swapped)
    with pytest.raises(checks.CheckFailed):
        checks.check_conv_kernel_grad("t", x.data, g, stride, padding, kern.grad * 1.001)
    with pytest.raises(checks.CheckFailed):
        checks.check_conv_kernel_grad("t", x.data, g, stride, padding, kern.grad[:, ::-1].copy())
    with pytest.raises(checks.CheckFailed):  # wrong shape
        checks.check_conv_forward("t", x.data, kern.data, stride, padding, out.data[:, :3])


def test_pixel_check_against_written_fixture(tmp_path):
    out = tmp_path / "fx"
    fixtures.write_fixtures(out, seed=5)
    assert fixtures.is_current(out, 5) and not fixtures.is_current(out, 6)
    idx, _, label, name = fixtures.image_list()[-1]
    written = fixtures.source_pixels(5, idx, label)
    loaded = dataset.load_image(out / "images" / name).pixels
    checks.check_pixels(name, written, loaded)
    wrong = loaded.copy()
    wrong[512, 3] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_pixels(name, written, wrong)
    with pytest.raises(checks.CheckFailed):
        checks.check_pixels(name, written, loaded.astype(np.int16))
    (out / "images" / name).write_bytes(b"P5\n1 1\n255\n\0")
    assert not fixtures.is_current(out, 5)


def test_make_batch_check_against_xraynet_resize():
    pixels = [fixtures.source_pixels(1, i, 0 if i % 2 else 3) for i in range(2)]
    records = [dataset.SampleRecord(f"r{i}", i % 2, "Train") for i in range(2)]
    lookup = {f"r{i}": dataset.GrayImage(p) for i, p in enumerate(pixels)}
    x, labels = dataset.make_batch(records, [0, 1], lookup.__getitem__, 64)
    checks.check_make_batch(x, labels, pixels, [0, 1])
    with pytest.raises(checks.CheckFailed):  # off by one output pixel
        checks.check_make_batch(np.roll(x, 1, axis=3), labels, pixels, [0, 1])
    with pytest.raises(checks.CheckFailed):  # pixel-centre instead of half-pixel sampling
        ys = np.linspace(0, 1023, 64).round().astype(int)
        nearest = np.stack([p[np.ix_(ys, ys)] / 255.0 for p in pixels])[:, None].astype(np.float32)
        checks.check_make_batch(nearest, labels, pixels, [0, 1])
    with pytest.raises(checks.CheckFailed):
        checks.check_make_batch(x, labels[::-1], pixels, [0, 1])
    with pytest.raises(checks.CheckFailed):
        checks.check_make_batch(x.astype(np.float64), labels, pixels, [0, 1])


def test_batch_vs_single_check():
    logits = R.standard_normal((4, 3)).astype(np.float32)
    singles = [logits[i:i + 1] for i in range(4)]
    checks.check_batch_matches_single(logits, singles)
    wrong = [s.copy() for s in singles]
    wrong[2] = wrong[2] + 0.01
    with pytest.raises(checks.CheckFailed):
        checks.check_batch_matches_single(logits, wrong)


def test_confusion_check():
    labels = [0, 0, 1, 2, 2, 2]
    conf = np.array([[2, 0, 0], [1, 0, 0], [0, 1, 2]])
    checks.check_confusion(conf, labels, 3)
    moved = conf.copy()
    moved[0, 0] -= 1
    moved[1, 0] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_confusion(moved, labels, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_confusion(conf[:2, :2], labels, 3)


def test_learning_check():
    checks.check_learning([1.0, 0.5, 0.4], 0.9, 0.5)
    for losses, acc in (([1.0, 1.2], 0.9), ([1.0, float("nan")], 0.9), ([1.0, 0.5], 0.5)):
        with pytest.raises(checks.CheckFailed):
            checks.check_learning(losses, acc, 0.5)


def test_bit_identity_and_change_checks():
    a = {"w": np.array([1.0, 2.0], np.float32)}
    checks.check_bit_identical("t", a, {"w": a["w"].copy()})
    one_ulp = {"w": np.nextafter(a["w"], np.float32(3))}
    for got in (one_ulp, {"w": a["w"].astype(np.float64)}, {}):
        with pytest.raises(checks.CheckFailed):
            checks.check_bit_identical("t", a, got)
    checks.check_changed("t", a, one_ulp)
    with pytest.raises(checks.CheckFailed):
        checks.check_changed("t", a, {"w": a["w"].copy()})


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [["a", 0, 100, -1, None, None],
             ["b", 10, 30, 0, None, None],
             ["c", 20, 40, 0, None, None],   # overlaps b: union 10..40
             ["d", 50, 60, 0, None, None],
             ["e", 52, 58, 3, None, None]]
    tracing.check_nesting(spans)
    assert tracing.self_times(spans) == [60, 20, 20, 4, 6]


def test_nesting_violations_are_reported():
    with pytest.raises(ValueError):
        tracing.check_nesting([["a", 0, 10, -1, None, None], ["b", 5, 11, 0, None, None]])
    with pytest.raises(ValueError):
        tracing.check_nesting([["a", 0, 10, -1, None, None], ["b", 5, 4, 0, None, None]])


def _tiny_run(family: str, preset: str):
    bundle = synth.synthetic_bundle((3, 3, 3, 2), size=16, seed=1, test_per_class=1)
    arch = (nn.mini_resnet if family == "resnet" else nn.mini_densenet)(num_classes=4, input_size=16)
    model = nn.build_model(arch, rng.derive_stream(0, "init"))
    config = training.TrainConfig(preset=preset, batch_size=4, input_size=16)
    opt = training.Adam()
    history = [training.train_epoch(model, bundle, config, opt, e) for e in range(2)]
    return bundle, history, training.evaluate(model, bundle.test, bundle, training.make_loss(config), 4)


@pytest.mark.parametrize("family,preset", [("resnet", "RFL"), ("densenet", "DCE")])
def test_traced_run_nests_spans_and_keeps_arithmetic(family, preset):
    _, plain_history, plain_eval = _tiny_run(family, preset)
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        tr.phase = "setup"
        tr.step = "setup:0"
        nn.build_model(nn.mini_resnet(input_size=16), rng.derive_stream(0, "x"))
        tr.phase, tr.step = "train", None
        bundle, history, ev = _tiny_run(family, preset)
    finally:
        undo()
    assert autodiff.conv2d.__name__ == "conv2d" and training.make_batch is dataset.make_batch
    assert history == plain_history
    assert ev[0] == plain_eval[0] and np.array_equal(ev[2], plain_eval[2])

    assert not tr.open
    tracing.check_nesting(tr.spans)
    own = tracing.self_times(tr.spans)
    assert min(own) >= 0
    for i, s in enumerate(tr.spans):  # children lie inside their parent and share its step
        if s[tracing.PARENT] >= 0 and s[tracing.NAME] not in ("training.step", "training.eval_batch"):
            assert s[tracing.STEP] == tr.spans[s[tracing.PARENT]][tracing.STEP]
    steps = [s for s in tr.spans if s[tracing.NAME] == "training.step"
             and s[tracing.STEP].startswith("train.step:")]
    assert len(steps) == 2 * -(-len(bundle.train) // 4)  # two epochs at batch 4

    m = tracing.per_layer_metrics(tr, setups=1)
    assert m["autodiff.conv2d.fwd_ms"] > 0 and m["autodiff.conv2d.dk_ms"] > 0
    assert m["autodiff.graph_nodes"] > 0 and m["nn.build_ms"] > 0 and m["nn.head.bwd_ms"] > 0
    assert m["training.step_ms"] <= m["training.step_p90_ms"]
    blocks = ("stage1", "stage3") if family == "resnet" else ("dense1", "transition2", "final")
    for b in blocks:
        assert m[f"nn.{b}.fwd_ms"] > 0 and m[f"nn.{b}.bwd_ms"] > 0
    assert (m["autodiff.concat_channels.fwd_ms"] > 0) == (family == "densenet")
