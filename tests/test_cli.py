import json

import pytest

from xraynet.checkpoint import save_checkpoint
from xraynet.cli import main
from xraynet.nn import build_model, mini_resnet
from xraynet.rng import derive_stream
from xraynet.training import parse_metrics_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--per-class", "3", "--size", "32", "--seed", "1",
               "--out", str(out)) == 0
    return out


class TestStats:
    def test_counts_csv(self, synth_dir, tmp_path):
        out = tmp_path / "stats"
        assert run("stats", "--manifest", str(synth_dir / "manifest.csv"),
                   "--images-root", str(synth_dir), "--out", str(out)) == 0
        lines = (out / "class_distribution.csv").read_text().strip().splitlines()
        assert lines[0] == "class,split,count"
        got = {tuple(l.split(",")[:2]): int(l.split(",")[2]) for l in lines[1:]}
        assert got[("Normal", "Train")] == 3
        assert got[("Covid19", "Train")] == 3
        assert got[("Normal", "Test")] == 3  # written datasets carry a test pool
        hists = sorted(out.glob("hist_*.csv"))
        assert len(hists) == 8  # two samples per class
        rows = hists[0].read_text().strip().splitlines()
        assert rows[0] == "class,bin,count"
        assert len(rows) == 257
        assert sum(int(r.split(",")[2]) for r in rows[1:]) == 32 * 32

    def test_empty_manifest_zero_counts_exit0(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("X_ray_image_name,Label,Dataset_type,"
                            "Label_1_Virus_category,Label_2_Virus_category\n")
        out = tmp_path / "stats"
        assert run("stats", "--manifest", str(manifest), "--out", str(out)) == 0
        lines = (out / "class_distribution.csv").read_text().strip().splitlines()
        assert all(l.endswith(",0") for l in lines[1:])

    def test_missing_manifest_exit2(self, tmp_path):
        assert run("stats", "--manifest", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")) == 2


class TestTrain:
    def test_unknown_preset_exit2(self, tmp_path, capsys):
        assert run("train", "--preset", "BOGUS", "--synthetic", "2",
                   "--out", str(tmp_path / "r")) == 2
        assert "PDCXCE" in capsys.readouterr().err  # lists valid codes

    def test_transfer_preset_without_checkpoint_exit2(self, tmp_path):
        assert run("train", "--preset", "PDCXCE", "--synthetic", "2",
                   "--out", str(tmp_path / "r")) == 2

    def test_scratch_preset_with_checkpoint_exit2_and_writes_nothing(self, tmp_path, capsys):
        ckpt = tmp_path / "backbone.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=32), derive_stream(0, "init")), ckpt)
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--checkpoint", str(ckpt), "--synthetic", "2",
                   "--size", "32", "--out", str(out)) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_outside_64_bits_exit2(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "2", "--size", "32",
                   "--seed", "-1", "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 5)])
    def test_synth_seed_outside_64_bits_exit2_and_writes_nothing(self, tmp_path, capsys, seed):
        out = tmp_path / "data"
        assert run("synth", "--per-class", "1", "--size", "16", "--seed", seed,
                   "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_data_source_exit2(self, tmp_path):
        assert run("train", "--preset", "RCE", "--out", str(tmp_path / "r")) == 2

    def test_train_writes_artifacts_and_is_deterministic(self, tmp_path):
        args = ("train", "--preset", "RCE", "--synthetic", "2", "--size", "32",
                "--epochs", "2", "--batch-size", "4", "--seed", "7")
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert run(*args, "--out", str(r1)) == 0
        assert run(*args, "--out", str(r2)) == 0
        assert (r1 / "metrics.csv").read_bytes() == (r2 / "metrics.csv").read_bytes()
        config = json.loads((r1 / "config.json").read_text())
        assert config["preset"] == "RCE" and config["seed"] == 7
        assert len(parse_metrics_csv(r1 / "metrics.csv")) == 2

    def test_binary_flag(self, tmp_path):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "3", "--size", "32",
                   "--epochs", "1", "--batch-size", "4", "--seed", "3",
                   "--binary", "Bacteria,Virus", "--out", str(out)) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["num_classes"] == 2


class TestTransferFlow:
    def test_pretrain_then_transfer_then_eval(self, tmp_path):
        ckpt = tmp_path / "backbone.xrnc"
        assert run("pretrain", "--arch", "densenet", "--per-class", "2", "--size", "32",
                   "--epochs", "1", "--seed", "5", "--out", str(ckpt)) == 0
        assert ckpt.exists()
        out = tmp_path / "run"
        assert run("train", "--preset", "PDCXCE", "--synthetic", "2", "--size", "32",
                   "--epochs", "1", "--batch-size", "4", "--seed", "5",
                   "--checkpoint", str(ckpt), "--out", str(out)) == 0
        assert run("eval", "--checkpoint", str(out / "model.xrnc"),
                   "--synthetic", "2", "--seed", "5", "--split", "test",
                   "--batch-size", "4") == 0

    @pytest.mark.parametrize("source", ["synthetic", "manifest"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 5)])
    def test_eval_seed_outside_64_bits_exit2(self, synth_dir, tmp_path, capsys, seed, source):
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=32), derive_stream(0, "init")), ckpt)
        data = (["--synthetic", "2"] if source == "synthetic" else
                ["--manifest", str(synth_dir / "manifest.csv"), "--images-root", str(synth_dir)])
        assert run("eval", "--checkpoint", str(ckpt), *data, "--seed", seed) == 2
        assert "seed" in capsys.readouterr().err

    def test_eval_missing_checkpoint_exit2(self, tmp_path):
        assert run("eval", "--checkpoint", str(tmp_path / "nope.xrnc"),
                   "--synthetic", "2") == 2


class TestGradcheckCommand:
    def test_losses_scope_passes(self):
        assert run("gradcheck", "--scope", "losses") == 0

    def test_impossible_threshold_fails_nonzero(self, capsys):
        assert run("gradcheck", "--scope", "losses", "--threshold", "1e-12") == 1
        assert "FAIL" in capsys.readouterr().out


class TestExportCurves:
    def test_curves_match_metrics(self, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--preset", "RCE", "--synthetic", "2", "--size", "32",
                   "--epochs", "2", "--batch-size", "4", "--seed", "11",
                   "--out", str(out)) == 0
        assert run("export-curves", "--run", str(out)) == 0
        hist = parse_metrics_csv(out / "metrics.csv")
        acc_rows = (out / "curves_accuracy.csv").read_text().strip().splitlines()[1:]
        for m, row in zip(hist, acc_rows):
            e, tr, va = row.split(",")
            assert int(e) == m.epoch
            assert float(tr) == m.train_acc and float(va) == m.val_acc

    def test_missing_run_dir_exit2(self, tmp_path):
        assert run("export-curves", "--run", str(tmp_path / "void")) == 2
