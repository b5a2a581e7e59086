"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a `[acceptance] criterion N PASS/FAIL` line (run pytest
with -s or -rA to see them for passing tests). Expected values follow the
independent oracles exercised in the unit-test modules.
"""

import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from xraynet.autodiff import Variable, backward
from xraynet.checkpoint import load_checkpoint, save_checkpoint
from xraynet.cli import main
from xraynet.dataset import compute_class_weights, make_batch, one_hot, weighted_sample
from xraynet.losses import FOCAL_ALPHA, cross_entropy, focal_loss
from xraynet.nn import ArchitectureConfig, build_model, freeze_backbone, mini_resnet
from xraynet.rng import Pcg32, derive_stream
from xraynet.synth import synthetic_bundle
from xraynet.training import Adam, TrainConfig, fit, lr_at_epoch, make_loss, train_epoch
from xraynet.verification import check_all, settings


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n:2d} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {n:2d} PASS: {description}")


def test_01_focal_over_alpha_equals_cross_entropy_at_gamma0():
    # dividing by FOCAL_ALPHA = 0.25 is exact, so this is as strict as alpha = 1
    with criterion(1, "FL(gamma=0) / FOCAL_ALPHA == CE within 1e-6 value / 1e-5 gradient, "
                      "1000 random pairs, C in {2, 4}"):
        rng = Pcg32(101, 0)
        for c in (2, 4):
            for _ in range(500):
                logits_data = rng.uniform_array((1, c), -5.0, 5.0).astype(np.float32)
                t = one_hot(np.array([rng.randint_below(c)]), c)
                a = Variable(logits_data.copy(), requires_grad=True)
                b = Variable(logits_data.copy(), requires_grad=True)
                ce = cross_entropy(a, t)
                fl = focal_loss(b, t, gamma=0.0)
                assert abs(ce.item() - fl.item() / FOCAL_ALPHA) <= 1e-6
                backward(ce)
                backward(fl)
                assert np.abs(a.grad - b.grad / FOCAL_ALPHA).max() <= 1e-5


def test_02_focal_point_value():
    with criterion(2, "single-sample FL at p_t=0.9, gamma=2, alpha=0.25 equals 2.634e-4 +- 1e-7"):
        logits = Variable(np.array([[math.log(0.9), math.log(0.1)]], dtype=np.float32))
        loss = focal_loss(logits, one_hot(np.array([0]), 2), gamma=2.0)
        assert abs(loss.item() - 2.634e-4) <= 1e-7


def test_03_gradient_suite_all_ops_and_architectures():
    (_, f32_threshold), (_, f64_threshold) = settings(False), settings(True)
    with criterion(3, "FD checks: every op and both Mini architectures "
                      f"(< {f32_threshold:g} f32, < {f64_threshold:g} f64 verification mode)"):
        for f64, threshold in ((False, f32_threshold), (True, f64_threshold)):
            for name, err in check_all(f64).items():
                assert err < threshold, f"{name} {'f64' if f64 else 'f32'} error {err:.3e}"


def test_04_sampler_balance_on_paper_counts():
    with criterion(4, "reciprocal weights for (1575, 2778, 1494, 82) give per-class "
                      "frequency 0.25 +- 0.01 over 100,000 draws"):
        counts = [1575, 2778, 1494, 82]
        weights = compute_class_weights(counts)
        labels = np.repeat(np.arange(4), counts)
        idx = weighted_sample(weights[labels], 100_000, derive_stream(104, "sampler"))
        freq = np.bincount(labels[idx], minlength=4) / 100_000
        npt.assert_allclose(freq, 0.25, atol=0.01)


def test_05_schedule_exactness():
    with criterion(5, "lr is exactly 0.001 for epochs 0-9 and 0.0005 for 10-19"):
        config = TrainConfig(preset="RCE", epochs=20)
        for e in range(20):
            expected = 0.001 if e < 10 else 0.0005
            assert lr_at_epoch(e, config) == expected


def test_06_transfer_mechanics(tmp_path):
    with criterion(6, "pretrain -> save -> load -> freeze -> 100 steps keeps the backbone "
                      "bit-identical while the head trains; round trip bit-exact incl. CRC"):
        # simulated pretraining at desk scale
        pre_bundle = synthetic_bundle(3, size=32, seed=106)
        pre_config = TrainConfig(preset="RCE", epochs=2, batch_size=4, seed=106, input_size=32)
        pre = fit(pre_config, pre_bundle)
        ckpt = tmp_path / "backbone.xrnc"
        save_checkpoint(pre.model, ckpt, epoch=2, seed=106)

        # CRC integrity of the written file
        blob = ckpt.read_bytes()
        assert zlib.crc32(blob[:-4]) == struct.unpack("<I", blob[-4:])[0]

        # bit-exact round trip: load into a fresh model, save again, compare bytes
        clone = build_model(mini_resnet(4, 32), derive_stream(9999, "init"))
        load_checkpoint(clone, ckpt)
        again = tmp_path / "again.xrnc"
        save_checkpoint(clone, again, epoch=2, seed=106)
        assert again.read_bytes() == blob

        # freeze and push 100 optimizer steps through the head
        freeze_backbone(clone)
        snapshot = {n: p.data.copy() for n, p in clone.store.params.items()}
        bundle = synthetic_bundle(3, size=32, seed=107)
        loss_fn = make_loss(pre_config)
        optimizer = Adam()
        x, labels = make_batch(bundle.train, range(4), bundle.images, 32)
        targets = one_hot(labels, 4)
        for _ in range(100):
            logits = clone.forward(x, train=True)
            loss = loss_fn(logits, targets)
            clone.store.zero_grads()
            backward(loss)
            optimizer.step(clone.store.params, lr=0.001)
        assert optimizer.t == 100
        for name, before in snapshot.items():
            if name.startswith("head."):
                assert not np.array_equal(clone.store.params[name].data, before), \
                    f"{name} did not train"
            else:
                npt.assert_array_equal(clone.store.params[name].data, before,
                                       err_msg=f"{name} changed despite freeze")


def test_07_learnability_overfits_synthetic_set():
    with criterion(7, "RCE (MiniResNet, no transfer) reaches >= 95% train accuracy on the "
                      "20-image synthetic set within 200 epochs at 64x64"):
        bundle = synthetic_bundle(5, size=64, seed=7)
        config = TrainConfig(preset="RCE", epochs=200, batch_size=8, seed=7)
        # fit's set-up and epoch loop, stopped once the claim is shown: the
        # schedule does not read config.epochs, so each epoch is the one fit runs
        model = build_model(ArchitectureConfig(config.spec.family, config.input_size,
                                               config.num_classes),
                            derive_stream(config.seed, "init"))
        optimizer, loss_fn = Adam(), make_loss(config)
        history = []
        for epoch in range(config.epochs):
            history.append(train_epoch(model, bundle, config, optimizer, epoch, loss_fn))
            if history[-1].train_acc >= 0.95:
                break
        best = max(m.train_acc for m in history)
        assert best >= 0.95, f"best train accuracy {best:.3f} after {len(history)} epochs"
        shown = history[:2]
        assert fit(replace(config, epochs=len(shown)), bundle).epoch_metrics == shown


def test_08_imbalance_benefit_directional(tmp_path):
    with criterion(8, "PRCEW and PRFL reach minority recall >= PRCE at equal seed/epochs "
                      "on a 10:1 binary task, majority vote over 3 seeds"):
        votes = {"PRCEW": 0, "PRFL": 0}
        for seed in (1, 2, 3):
            pre_bundle = synthetic_bundle(8, size=64, seed=seed + 1000)
            pre = fit(TrainConfig(preset="RCE", epochs=3, batch_size=8, seed=seed + 1000),
                      pre_bundle)
            ckpt = tmp_path / f"backbone_{seed}.xrnc"
            save_checkpoint(pre.model, ckpt, epoch=3, seed=seed)

            bundle = synthetic_bundle((100, 0, 10, 0), size=64, seed=seed,
                                      test_per_class=(30, 0, 30, 0), binary=(0, 2))
            recall = {}
            for preset in ("PRCE", "PRCEW", "PRFL"):
                config = TrainConfig(preset=preset, num_classes=2, epochs=8, batch_size=8,
                                     seed=seed, checkpoint=str(ckpt))
                rec = fit(config, bundle)
                conf = rec.test_confusion
                recall[preset] = conf[1, 1] / conf[1].sum()
            for contender in votes:
                votes[contender] += int(recall[contender] >= recall["PRCE"])
        assert votes["PRCEW"] >= 2, f"PRCEW won only {votes['PRCEW']}/3 seeds"
        assert votes["PRFL"] >= 2, f"PRFL won only {votes['PRFL']}/3 seeds"


def test_09_cli_train_determinism(tmp_path):
    with criterion(9, "the same resolved train invocation produces byte-identical metrics.csv"):
        args = ["train", "--preset", "RCE", "--synthetic", "5", "--epochs", "3",
                "--seed", "7", "--batch-size", "8"]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(r1)]) == 0
        assert main(args + ["--out", str(r2)]) == 0
        assert (r1 / "metrics.csv").read_bytes() == (r2 / "metrics.csv").read_bytes()


def test_10_data_statistics(tmp_path):
    with criterion(10, "cmd_stats reproduces class counts (1575, 2778, 1494, 82) exactly"):
        real = os.environ.get("XRAYNET_CORONAHACK_METADATA")
        if real and Path(real).exists():
            manifest = Path(real)
        else:
            # CoronaHack-shaped manifest constructed with the reported counts
            from test_dataset import coronahack_like_manifest
            manifest = tmp_path / "metadata.csv"
            manifest.write_text(coronahack_like_manifest(), encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        lines = (out / "class_distribution.csv").read_text().strip().splitlines()[1:]
        totals = {}
        for line in lines:
            name, _, count = line.split(",")
            totals[name] = totals.get(name, 0) + int(count)
        assert totals == {"Normal": 1575, "Bacteria": 2778, "Virus": 1494, "Covid19": 82}
