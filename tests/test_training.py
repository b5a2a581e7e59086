import dataclasses
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraynet import autodiff as ad
from xraynet import training
from xraynet.autodiff import Variable
from xraynet.checkpoint import CheckpointError, read_checkpoint, save_checkpoint
from xraynet.dataset import DataBundle, SampleRecord, make_batch, one_hot
from xraynet.metrics import accuracy, confusion
from xraynet.nn import build_model, mini_densenet, mini_resnet
from xraynet.rng import Pcg32, derive_stream
from xraynet.synth import synthetic_bundle
from xraynet.training import (Adam, EpochMetrics, PRESETS, RunRecord, TrainConfig,
                              TrainingAborted, canonical_preset, evaluate, export_metrics, fit,
                              LR_FACTOR, LR_STEP, lr_at_epoch, make_loss, parse_metrics_csv,
                              train_epoch, _epoch_indices)


def cfg(preset="RCE", **kw):
    kw.setdefault("input_size", 32)
    kw.setdefault("batch_size", 4)
    kw.setdefault("epochs", 1)
    return TrainConfig(preset=preset, **kw)


class TestSchedule:
    def test_paper_values_exact(self):
        c = cfg(epochs=20)
        for e in range(10):
            assert lr_at_epoch(e, c) == 0.001
        for e in range(10, 20):
            assert lr_at_epoch(e, c) == 0.0005

    def test_epoch_zero_is_base(self):
        assert lr_at_epoch(0, cfg(base_lr=0.037)) == 0.037

    def test_closed_form_e25(self):
        assert lr_at_epoch(25, cfg()) == 0.001 * 0.5 ** 2 == 0.00025

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 500), st.floats(1e-6, 1.0))
    def test_closed_form_everywhere(self, epoch, base_lr):
        c = cfg(base_lr=base_lr)
        assert lr_at_epoch(epoch, c) == base_lr * LR_FACTOR ** (epoch // LR_STEP)
        if epoch > 0:
            assert lr_at_epoch(epoch, c) <= lr_at_epoch(epoch - 1, c)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(-1, cfg())


class TestAdam:
    def test_single_scalar_bias_corrected_step(self):
        p = Variable(np.array([1.0], dtype=np.float64), requires_grad=True)
        p._grad = np.array([2.0], dtype=np.float64)
        adam = Adam()
        adam.step({"p": p}, lr=0.001)
        # hand evaluation: mhat = 2, vhat = 4 -> delta = 0.001 * 2 / (2 + 1e-8)
        expected_delta = 0.001 * 2.0 / (2.0 + 1e-8)
        assert p.data[0] == pytest.approx(1.0 - expected_delta, abs=1e-15)
        assert expected_delta == pytest.approx(0.0009999999950, abs=1e-12)

    def test_zero_gradient_fresh_state_is_identity(self):
        p = Variable(np.array([3.0, -2.0], dtype=np.float32), requires_grad=True)
        p._grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        Adam().step({"p": p}, lr=0.1)
        npt.assert_array_equal(p.data, before)

    def test_frozen_parameter_untouched(self):
        p = Variable(np.array([1.0], dtype=np.float32), requires_grad=False)
        p._grad = np.array([5.0], dtype=np.float32)
        before = p.data.copy()
        Adam().step({"p": p}, lr=0.1)
        npt.assert_array_equal(p.data, before)

    def test_non_finite_gradient_aborts(self):
        p = Variable(np.array([1.0], dtype=np.float32), requires_grad=True)
        p._grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingAborted, match="'p'"):
            Adam().step({"p": p}, lr=0.1)

    def test_aborted_step_changes_nothing(self):
        # a finite gradient listed before the bad one must not be applied
        adam = Adam()
        a = Variable(np.array([1.0], dtype=np.float32), requires_grad=True)
        b = Variable(np.array([1.0], dtype=np.float32), requires_grad=True)
        a._grad = np.array([1.0], dtype=np.float32)
        b._grad = np.array([1.0], dtype=np.float32)
        adam.step({"a": a, "b": b}, lr=0.1)
        state = (a.data.copy(), adam.t, {k: v.copy() for k, v in adam.m.items()},
                 {k: v.copy() for k, v in adam.v.items()})
        b._grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingAborted, match="'b'"):
            adam.step({"a": a, "b": b}, lr=0.1)
        npt.assert_array_equal(a.data, state[0])
        assert adam.t == state[1]
        for got, want in ((adam.m, state[2]), (adam.v, state[3])):
            assert got.keys() == want.keys()
            for k in want:
                npt.assert_array_equal(got[k], want[k])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-5, 0.1))
    def test_first_step_bounded_by_lr(self, seed, lr):
        rng = Pcg32(seed, 0)
        p = Variable(rng.uniform_array((10,), -1, 1).astype(np.float32), requires_grad=True)
        p._grad = rng.uniform_array((10,), -5, 5).astype(np.float32)
        before = p.data.astype(np.float64)
        Adam().step({"p": p}, lr=lr)
        moved = np.abs(p.data.astype(np.float64) - before)
        # slack: the bias-corrected ratio bound plus float32 storage rounding
        storage_ulp = np.finfo(np.float32).eps * np.abs(before).max()
        assert moved.max() <= lr * (1.0 + 1e-6) + storage_ulp + 1e-12

    def test_step_counter_increments(self):
        adam = Adam()
        p = Variable(np.array([1.0], dtype=np.float32), requires_grad=True)
        for t in range(1, 4):
            p._grad = np.array([1.0], dtype=np.float32)
            adam.step({"p": p}, lr=0.01)
            assert adam.t == t


class TestPresets:
    def test_table_resolution(self):
        spec = PRESETS["PDCXFL"]
        assert (spec.family, spec.pretrained, spec.loss, spec.sampler) == \
            ("densenet", True, "focal", "plain")
        spec = PRESETS["PRCEW"]
        assert (spec.family, spec.pretrained, spec.loss, spec.sampler) == \
            ("resnet", True, "ce", "weighted")
        spec = PRESETS["RCE"]
        assert (spec.family, spec.pretrained, spec.loss, spec.sampler) == \
            ("resnet", False, "ce", "plain")

    def test_codes_fold_case_and_have_no_aliases(self):
        assert canonical_preset("prfl") == "PRFL"
        with pytest.raises(ValueError, match="'PRCW'; valid codes: DCE, PDCXCE, PDCXFL, "
                                             "PRCE, PRCEW, PRFL, RCE, RFL$"):
            canonical_preset("PRCW")

    def test_unknown_preset_lists_valid_codes(self):
        with pytest.raises(ValueError, match="PDCXCE"):
            canonical_preset("NOPE")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(preset="RCE", epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(preset="RCE", base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(preset="RCE", num_classes=1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        # NaN <= 0 is False, and an infinite rate makes every Adam update non-finite
        with pytest.raises(ValueError, match="base_lr"):
            TrainConfig(preset="RCE", base_lr=lr)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_make_loss_is_the_modules_loss_function(self, preset, monkeypatch):
        # focal gamma is the constant losses.FOCAL_GAMMA, so no closure binds a
        # setting; a function installed on the module before the call is returned
        name = "focal_loss" if PRESETS[preset].loss == "focal" else "cross_entropy"
        assert make_loss(cfg(preset)) is getattr(training, name)
        monkeypatch.setattr(training, name, lambda logits, targets: None)
        assert make_loss(cfg(preset)) is getattr(training, name)

    def test_no_focal_gamma_field(self):
        assert "focal_gamma" not in TrainConfig(preset="RFL").to_dict()

    @pytest.mark.parametrize("preset", [p for p, spec in PRESETS.items() if not spec.pretrained])
    def test_scratch_preset_rejects_checkpoint(self, preset):
        # a scratch preset never loads one, so the run would silently ignore it
        with pytest.raises(ValueError, match="checkpoint"):
            TrainConfig(preset=preset, checkpoint="backbone.xrnc")

    @pytest.mark.parametrize("preset", [p for p, spec in PRESETS.items() if not spec.pretrained])
    def test_scratch_preset_rejects_freeze(self, preset):
        # freezing a random backbone would train only the head over random features
        with pytest.raises(ValueError, match="frozen"):
            TrainConfig(preset=preset, freeze=True)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the streams and the checkpoint both keep a seed mod 2**64, so these
        # would run as, and be recorded as, a different seed
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(preset="RCE", seed=seed)

    def test_largest_seed_accepted_and_recorded_exactly(self, tmp_path):
        config = TrainConfig(preset="RCE", seed=2 ** 64 - 1)
        path = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=16), derive_stream(0, "init")),
                        path, seed=config.seed)
        assert read_checkpoint(path)[1]["seed"] == 2 ** 64 - 1


class TestEpochLoop:
    def test_vanishing_lr_leaves_parameters_bit_identical(self):
        bundle = synthetic_bundle(2, size=32, seed=3)
        # smallest subnormal: every Adam update underflows to exactly zero
        config = cfg(epochs=1, seed=3, base_lr=5e-324)
        model = build_model(mini_resnet(4, 32), derive_stream(3, "init"))
        before = {n: p.data.copy() for n, p in model.store.params.items()}
        metrics = train_epoch(model, bundle, config, Adam(), epoch=0)
        for name, data in before.items():
            npt.assert_array_equal(model.store.params[name].data, data)
        assert 0.0 <= metrics.train_acc <= 1.0
        assert np.isfinite(metrics.train_loss)

    def test_all_one_class_predictor_scores_prevalence(self):
        bundle = synthetic_bundle((6, 2, 0, 0), size=32, seed=4,
                                  test_per_class=(6, 2, 0, 0), binary=(0, 1))
        model = build_model(mini_resnet(2, 32), derive_stream(4, "init"))
        model.store.params["head.weight"].data[...] = 0.0
        model.store.params["head.bias"].data[...] = np.array([10.0, 0.0], dtype=np.float32)
        loss_fn = make_loss(cfg(num_classes=2))
        loss, acc, conf = evaluate(model, bundle.test, bundle, loss_fn, batch_size=4)
        assert acc == pytest.approx(6 / 8)
        assert conf[:, 1].sum() == 0  # nothing predicted as class 1

    def test_empty_split_rejected(self):
        bundle = synthetic_bundle(2, size=32, seed=5)
        model = build_model(mini_resnet(4, 32), derive_stream(5, "init"))
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [], bundle, make_loss(cfg()), 4)

    @pytest.mark.parametrize("loop", ["train_epoch", "evaluate"])
    def test_non_finite_logits_abort(self, loop):
        # an infinite head bias makes every logit row non-finite without a
        # floating-point warning; both loops stop before the loss sees them
        bundle = synthetic_bundle(2, size=16, seed=5)
        model = build_model(mini_resnet(4, 16), derive_stream(5, "init"))
        model.store.params["head.bias"].data[0] = np.inf
        config = cfg(input_size=16)
        with pytest.raises(TrainingAborted, match="non-finite logits"):
            if loop == "train_epoch":
                train_epoch(model, bundle, config, Adam(), epoch=0)
            else:
                evaluate(model, bundle.test, bundle, make_loss(config), 4)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluate_rejects_batch_size_below_one(self, batch_size):
        bundle = synthetic_bundle(2, size=32, seed=5)
        model = build_model(mini_resnet(4, 32), derive_stream(5, "init"))
        with pytest.raises(ValueError, match="batch_size must be positive"):
            evaluate(model, bundle.test, bundle, make_loss(cfg()), batch_size)

    def test_epoch_metrics_deterministic(self):
        def run():
            bundle = synthetic_bundle(2, size=32, seed=6)
            model = build_model(mini_resnet(4, 32), derive_stream(6, "init"))
            return train_epoch(model, bundle, cfg(seed=6), Adam(), epoch=0)

        assert run() == run()

    def test_weighted_sampler_equalizes_exposure(self):
        # 50 batches x 400 samples: class exposure within +-5% of uniform
        counts = [1600, 200, 150, 50]
        labels = np.repeat(np.arange(4), counts)
        records = [SampleRecord(f"r{i}", int(l), "Train") for i, l in enumerate(labels)]
        bundle = DataBundle(train=records * 10, val=[], test=[],
                            images=lambda ref: None, num_classes=4, input_size=32)
        config = cfg(preset="PRCEW", num_classes=4, seed=7)
        idx = _epoch_indices(bundle, config, epoch=0)
        assert len(idx) == 20000  # covers well over 50 batches at any batch size
        got = np.bincount([bundle.train[i].label for i in idx], minlength=4) / len(idx)
        npt.assert_allclose(got, 0.25, atol=0.05 * 0.25)

    def test_plain_sampler_is_permutation(self):
        bundle = synthetic_bundle(3, size=32, seed=8)
        idx = _epoch_indices(bundle, cfg(seed=8), epoch=0)
        assert sorted(idx.tolist()) == list(range(len(bundle.train)))


class TestEvaluateBuildsNoGraph:
    @staticmethod
    def _setup():
        bundle = synthetic_bundle(3, size=16, seed=12)
        model = build_model(mini_densenet(4, 16), derive_stream(12, "init"))
        return bundle, model, make_loss(cfg(preset="DCE", input_size=16))

    def test_no_node_has_edges(self, monkeypatch):
        bundle, model, loss_fn = self._setup()
        made = []
        real = ad._op

        def counting(data, edges):
            out = real(data, edges)
            made.append(bool(out._edges))
            return out

        monkeypatch.setattr(ad, "_op", counting)
        evaluate(model, bundle.test, bundle, loss_fn, 4)
        assert made and not any(made)
        # the same ops build edges outside evaluate
        model.forward(np.zeros((2, 1, 16, 16), np.float32), train=True, update_stats=False)
        assert any(made)

    def test_results_equal_a_graph_building_pass(self):
        bundle, model, loss_fn = self._setup()
        loss, acc, conf = evaluate(model, bundle.test, bundle, loss_fn, 4)
        total, all_logits, all_labels = 0.0, [], []
        for lo in range(0, len(bundle.test), 4):
            idx = range(lo, min(lo + 4, len(bundle.test)))
            x, labels = make_batch(bundle.test, idx, bundle.images, 16)
            logits = model.forward(x, train=False)
            batch_loss = loss_fn(logits, one_hot(labels, 4))
            assert batch_loss._edges  # this pass does build a graph
            total += batch_loss.item() * len(idx)
            all_logits.append(logits.data)
            all_labels.append(labels)
        logits, labels = np.concatenate(all_logits), np.concatenate(all_labels)
        assert loss == total / len(bundle.test)
        assert acc == accuracy(logits, labels)
        npt.assert_array_equal(conf, confusion(logits, labels, 4))

    def test_scope_restored_when_the_loss_raises(self):
        bundle, model, _ = self._setup()

        def failing_loss(logits, targets):
            raise RuntimeError("loss failed")

        with pytest.raises(RuntimeError, match="loss failed"):
            evaluate(model, bundle.test, bundle, failing_loss, 4)
        x = Variable(np.ones((2, 3), np.float32), requires_grad=True)
        assert ad.relu(x)._edges

    def test_train_epoch_after_evaluate_fills_every_gradient(self):
        bundle, model, loss_fn = self._setup()
        evaluate(model, bundle.test, bundle, loss_fn, 4)
        train_epoch(model, bundle, cfg(preset="DCE", input_size=16), Adam(), epoch=0)
        for name, p in model.trainable_params().items():
            assert p._grad is not None and np.any(p._grad != 0), name


@pytest.mark.parametrize("build", [mini_resnet, mini_densenet])
def test_backward_peak_stays_near_the_forward_live_set(build):
    # backward frees each node's saved arrays as it walks, so a step's peak in
    # backward is the forward's live set plus the gradients in flight: 1.2 MiB
    # over it for MiniResNet and 0.3 MiB for MiniDenseNet at 32 px, batch 8.
    # A walk that keeps the whole graph alive to its end adds 2.7 and 6.9 MiB.
    model = build_model(build(4, 32), derive_stream(0, "init"))
    x = derive_stream(1, "x").uniform_array((8, 1, 32, 32), 0.0, 1.0).astype(np.float32)
    loss_fn = make_loss(cfg(preset="RCE"))
    tracemalloc.start()
    try:
        loss = loss_fn(model.forward(x, train=True), one_hot(np.arange(8) % 4, 4))
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 2 * 2**20, f"backward peaks {(peak - live) / 2**20:.2f} MiB over the forward"


class TestFit:
    def test_missing_checkpoint_rejected_before_training(self, tmp_path):
        bundle = synthetic_bundle(2, size=32, seed=9)
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="checkpoint"):
            fit(cfg(preset="PRCE", seed=9), bundle, run_dir=run_dir)
        # the read that opens the file reports it, before the run directory is made
        missing = str(tmp_path / "nonexistent.xrnc")
        with pytest.raises(FileNotFoundError) as exc:
            fit(cfg(preset="PRCE", seed=9, checkpoint=missing), bundle, run_dir=run_dir)
        assert exc.value.filename == missing
        assert not run_dir.exists()

    def test_input_size_mismatch_rejected_before_writing(self, tmp_path):
        # the model, config.json and the checkpoint would record 16 px while
        # the batches are assembled at the data's 32 px
        bundle = synthetic_bundle(2, size=32, seed=9)
        with pytest.raises(ValueError, match="px"):
            fit(cfg(seed=9, input_size=16), bundle, run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_rejected_checkpoint_leaves_no_run_dir(self, tmp_path):
        ckpt = tmp_path / "dense.xrnc"
        save_checkpoint(build_model(mini_densenet(input_size=32), derive_stream(0, "init")), ckpt)
        bundle = synthetic_bundle(2, size=32, seed=9)
        with pytest.raises(CheckpointError, match="holds a densenet backbone"):
            fit(cfg(preset="PRCE", seed=9, checkpoint=str(ckpt)), bundle, run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("preset,size", [("RCE", 8), ("DCE", 4), ("PRCE", 8)])
    def test_batch_of_one_at_a_1x1_map_rejected_before_writing(self, tmp_path, preset, size):
        # the last train batch holds one image, and the smallest train-mode
        # feature map is 1x1: batch norm would see 1 value per channel
        bundle = dataclasses.replace(synthetic_bundle(3, size=16, seed=0), input_size=size)
        batch_size = len(bundle.train) - 1
        ckpt = tmp_path / "backbone.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=size), derive_stream(0, "init")), ckpt)
        kw = dict(input_size=size, batch_size=batch_size, seed=0)
        if preset == "PRCE":
            kw["checkpoint"] = str(ckpt)
        with pytest.raises(ValueError, match="at least 2 .choose another batch size"):
            fit(cfg(preset, **kw), bundle, run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()
        if preset == "PRCE":
            # a frozen backbone's batch norms read the running statistics
            fit(cfg(preset, freeze=True, **kw), bundle, run_dir=tmp_path / "frozen")
            assert (tmp_path / "frozen" / "metrics.csv").exists()

    def test_run_artifacts_written(self, tmp_path):
        bundle = synthetic_bundle(2, size=32, seed=10)
        record = fit(cfg(epochs=2, seed=10), bundle, run_dir=tmp_path)
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "model.xrnc").exists()
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert echoed["seed"] == 10 and echoed["preset"] == "RCE"
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["epochs"] == 2
        assert summary["epoch_metrics"] == "metrics.csv"
        assert summary["test_accuracy"] == pytest.approx(record.test_accuracy)
        conf = record.test_confusion
        assert summary["test_confusion"] == conf.tolist()
        assert summary["test_recall"] == [conf[c, c] / conf[c].sum() for c in range(len(conf))]

    def test_freeze_keeps_backbone_fixed_through_training(self, tmp_path):
        pre_bundle = synthetic_bundle(2, size=32, seed=11)
        pre = fit(cfg(epochs=1, seed=11), pre_bundle)
        ckpt = tmp_path / "b.xrnc"
        save_checkpoint(pre.model, ckpt)

        bundle = synthetic_bundle(2, size=32, seed=12)
        record = fit(cfg(preset="PRCE", epochs=2, seed=12, checkpoint=str(ckpt), freeze=True),
                     bundle)
        trained = record.model
        for name, p in trained.store.params.items():
            if name.startswith("head."):
                continue
            npt.assert_array_equal(p.data, pre.model.store.params[name].data)
        for name, buf in trained.store.buffers.items():
            npt.assert_array_equal(buf, pre.model.store.buffers[name])
        assert not np.array_equal(trained.store.params["head.weight"].data,
                                  pre.model.store.params["head.weight"].data)

    def test_pretrained_run_ignores_the_checkpoint_head(self, tmp_path):
        # same class count in file and run: the head still comes from the run's
        # "init" stream, so checkpoints that differ only in head.* train alike
        source = build_model(mini_resnet(4, 16), derive_stream(20, "init"))
        save_checkpoint(source, tmp_path / "a.xrnc")
        source.store.params["head.weight"].data += 1.0
        source.store.params["head.bias"].data += 1.0
        save_checkpoint(source, tmp_path / "b.xrnc")
        bundle = synthetic_bundle(2, size=16, seed=21)
        for name in ("a", "b"):
            fit(cfg(preset="PRCE", input_size=16, epochs=2, seed=21,
                    checkpoint=str(tmp_path / f"{name}.xrnc")), bundle, run_dir=tmp_path / name)
        for artifact in ("metrics.csv", "model.xrnc"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                (tmp_path / "b" / artifact).read_bytes()

    def test_paired_runs_weighted_sampler_lifts_minority_recall(self, tmp_path):
        # frozen configuration where the weighted sampler strictly beats the
        # plain run on minority recall at an equal seed and epoch budget
        seed = 1
        pre_bundle = synthetic_bundle(8, size=64, seed=seed + 1000)
        pre = fit(TrainConfig(preset="RCE", epochs=3, batch_size=8, seed=seed + 1000), pre_bundle)
        ckpt = tmp_path / "backbone.xrnc"
        save_checkpoint(pre.model, ckpt, epoch=3, seed=seed)

        bundle = synthetic_bundle((100, 0, 10, 0), size=64, seed=seed,
                                  test_per_class=(30, 0, 30, 0), binary=(0, 2))
        recalls = {}
        for preset in ("PRCE", "PRCEW"):
            config = TrainConfig(preset=preset, num_classes=2, epochs=1, batch_size=8,
                                 seed=seed, checkpoint=str(ckpt))
            rec = fit(config, bundle)
            conf = rec.test_confusion
            recalls[preset] = conf[1, 1] / conf[1].sum()
        assert recalls["PRCEW"] > recalls["PRCE"]


class TestExport:
    def _fake_record(self, epochs=20):
        rng = Pcg32(13, 0)
        metrics = [EpochMetrics(e, 0.001 * 0.5 ** (e // 10), rng.uniform(), rng.uniform(),
                                rng.uniform(), rng.uniform()) for e in range(epochs)]
        return RunRecord(config={"preset": "RCE"}, epoch_metrics=metrics, test_loss=0.5,
                         test_accuracy=0.75,
                         train_acc_avg=float(np.mean([m.train_acc for m in metrics])),
                         val_acc_avg=float(np.mean([m.val_acc for m in metrics])),
                         wall_clock=1.0, seed=13)

    def test_twenty_rows_plus_header(self, tmp_path):
        csv_path, _ = export_metrics(self._fake_record(20), tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 21
        assert lines[0] == "epoch,lr,train_loss,train_acc,val_loss,val_acc"

    def test_round_trip_equals_in_memory(self, tmp_path):
        record = self._fake_record(7)
        csv_path, _ = export_metrics(record, tmp_path)
        assert parse_metrics_csv(csv_path) == record.epoch_metrics

    def test_summary_average_matches_csv_recomputation(self, tmp_path):
        record = self._fake_record(9)
        csv_path, json_path = export_metrics(record, tmp_path)
        rows = parse_metrics_csv(csv_path)
        summary = json.loads(json_path.read_text())
        assert summary["val_acc_avg"] == pytest.approx(np.mean([m.val_acc for m in rows]))
        assert summary["train_acc_avg"] == pytest.approx(np.mean([m.train_acc for m in rows]))
        assert "test_confusion" not in summary and "test_recall" not in summary

    def test_class_without_test_samples_has_null_recall(self, tmp_path):
        record = self._fake_record(1)
        record.test_confusion = np.array([[3, 1], [0, 0]], dtype=np.int64)
        _, json_path = export_metrics(record, tmp_path)
        text = json_path.read_text()
        assert "NaN" not in text
        summary = json.loads(text)
        assert summary["test_confusion"] == [[3, 1], [0, 0]]
        assert summary["test_recall"] == [0.75, None]
