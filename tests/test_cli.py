import argparse
import dataclasses
import json
import re
import shlex
import zlib
from pathlib import Path

import numpy as np
import pytest

import xraynet
from xraynet import training, verification
from xraynet.checkpoint import read_checkpoint, save_checkpoint
from xraynet.cli import build_parser, main
from xraynet.dataset import default_mapping, parse_manifest
from xraynet.nn import build_model, mini_resnet
from xraynet.rng import derive_stream
from xraynet.training import TrainConfig, parse_metrics_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--counts", "3", "--size", "32", "--seed", "1",
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

    def test_unloadable_image_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--counts", "2", "--size", "16", "--out", str(data)) == 0
        (data / "images" / "train_c1_0000.pgm").unlink()
        out = tmp_path / "stats"
        assert run("stats", "--manifest", str(data / "manifest.csv"),
                   "--images-root", str(data), "--out", str(out)) == 2
        assert "train_c1_0000.pgm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mapping", [
        {"image_column": "X_ray_image_name", "split_column": "Dataset_type",
         "split_values": {"TRAIN": "Train", "TEST": "Test"}},
        [{"label_rules": []}],
        {"image_column": ["X_ray_image_name"], "split_column": "Dataset_type",
         "split_values": {"TRAIN": "Train", "TEST": "Test"},
         "label_rules": [{"when": {"Label": "Normal"}, "label": "Normal"}]},
        # with a split column the manifest lacks, an int would meet the
        # missing-column sort
        {"image_column": 5, "split_column": "Split",
         "split_values": {"TRAIN": "Train", "TEST": "Test"},
         "label_rules": [{"when": {"Label": "Normal"}, "label": "Normal"}]}],
        ids=["no_label_rules", "json_list", "list_image_column", "int_image_column"])
    def test_malformed_mapping_exit2(self, tmp_path, capsys, mapping):
        manifest = tmp_path / "m.csv"
        manifest.write_text("X_ray_image_name,Label,Dataset_type\n")
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(mapping))
        assert run("stats", "--manifest", str(manifest), "--mapping", str(path),
                   "--out", str(tmp_path / "o")) == 2
        assert "malformed mapping" in capsys.readouterr().err


@pytest.mark.parametrize("bom_on", ["manifest", "mapping"])
def test_byte_order_mark_is_ignored(synth_dir, tmp_path, bom_on):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte order mark
    files = {"manifest": synth_dir / "manifest.csv",
             "mapping": Path(xraynet.__file__).parent / "configs" / "coronahack_mapping.json"}
    bom = tmp_path / files[bom_on].name
    bom.write_bytes(b"\xef\xbb\xbf" + files[bom_on].read_bytes())
    for tag, data in (("plain", files), ("bom", {**files, bom_on: bom})):
        source = ("--manifest", str(data["manifest"]), "--mapping", str(data["mapping"]),
                  "--images-root", str(synth_dir))
        assert run("stats", *source, "--out", str(tmp_path / f"stats_{tag}")) == 0
        assert run("train", "--preset", "RCE", *source, "--size", "16", "--epochs", "1",
                   "--out", str(tmp_path / f"train_{tag}")) == 0
    for name in ("stats_{}/class_distribution.csv", "train_{}/metrics.csv"):
        assert (tmp_path / name.format("bom")).read_bytes() == \
            (tmp_path / name.format("plain")).read_bytes()


_MANIFEST = ["--manifest", "{data}/manifest.csv", "--images-root", "{data}"]


@pytest.mark.parametrize("argv", [
    ["stats", "--manifest", "{missing}", "--out", "{out}"],
    ["stats", *_MANIFEST, "--mapping", "{missing}", "--out", "{out}"],
    ["train", "--preset", "RCE", "--manifest", "{missing}", "--images-root", "{data}",
     "--out", "{out}"],
    ["train", "--preset", "RCE", *_MANIFEST, "--mapping", "{missing}", "--out", "{out}"],
    ["train", "--preset", "RCE", *_MANIFEST, "--extra-manifest", "{missing}", "--out", "{out}"],
    ["train", "--preset", "PRCE", "--checkpoint", "{missing}", "--synthetic", "2",
     "--out", "{out}"],
    ["eval", "--checkpoint", "{missing}", "--synthetic", "2"],
], ids=["stats-manifest", "stats-mapping", "train-manifest", "train-mapping",
        "train-extra-manifest", "train-checkpoint", "eval-checkpoint"])
def test_missing_input_file_exit2_names_it_and_writes_nothing(synth_dir, tmp_path, capsys,
                                                              argv):
    # the read that opens the file reports it; nothing checks for it beforehand
    missing, out = tmp_path / "missing", tmp_path / "out"
    assert run(*(a.format(data=synth_dir, missing=missing, out=out) for a in argv)) == 2
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
    assert not out.exists()


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

    def test_weighted_preset_with_empty_train_class_exit2_and_writes_nothing(self, tmp_path,
                                                                               capsys):
        ckpt = tmp_path / "backbone.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=16), derive_stream(0, "init")), ckpt)
        out = tmp_path / "r"
        assert run("train", "--preset", "PRCEW", "--checkpoint", str(ckpt),
                   "--synthetic", "3,0,3,3", "--size", "16", "--epochs", "1",
                   "--batch-size", "4", "--out", str(out)) == 2
        assert "class 1 has count 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_outside_64_bits_exit2(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "2", "--size", "32",
                   "--seed", "-1", "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("preset,flag,value,named", [
        ("RCE", "--lr", "nan", "base_lr"), ("RCE", "--lr", "inf", "base_lr"),
    ])
    def test_non_finite_setting_exit2_and_writes_nothing(self, tmp_path, capsys,
                                                         preset, flag, value, named):
        # left unchecked these fail only after training starts, with a run directory written
        out = tmp_path / "r"
        assert run("train", "--preset", preset, flag, value, "--synthetic", "2", "--size", "16",
                   "--epochs", "2", "--batch-size", "4", "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # focal alpha and gamma are the constants losses.FOCAL_ALPHA and FOCAL_GAMMA
        ["train", "--preset", "RFL", "--alpha", "0.5", "--synthetic", "2"],
        ["train", "--preset", "RFL", "--gamma", "0.5", "--synthetic", "2"],
        # --counts N is the one way to give every class the same count
        ["synth", "--per-class", "2"],
    ])
    def test_removed_option_exit2_and_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 5)])
    def test_synth_seed_outside_64_bits_exit2_and_writes_nothing(self, tmp_path, capsys, seed):
        out = tmp_path / "data"
        assert run("synth", "--counts", "1", "--size", "16", "--seed", seed,
                   "--out", str(out)) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_data_source_exit2(self, tmp_path):
        assert run("train", "--preset", "RCE", "--out", str(tmp_path / "r")) == 2

    def test_manifest_without_images_root_exit2_and_writes_nothing(self, synth_dir, tmp_path,
                                                                   capsys):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--manifest", str(synth_dir / "manifest.csv"),
                   "--size", "32", "--out", str(out)) == 2
        assert "--images-root is required with --manifest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["synth", "--counts", "2.5"],
                                      ["train", "--preset", "RCE", "--synthetic", "2,x,2,2"]])
    def test_non_integer_counts_exit2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert "expected N or a,b,c,d counts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--preset", "RCE", "--synthetic", "2", "--manifest", "m.csv",
         "--images-root", "d", "--out", "{out}"],
        # the synthetic source ignores every manifest flag
        ["train", "--preset", "RCE", "--synthetic", "2", "--size", "16", "--epochs", "1",
         "--batch-size", "4", "--extra-manifest", "/nonexistent.csv",
         "--extra-images-root", "/nowhere", "--mapping", "/nomap.json",
         "--images-root", "/noroot", "--out", "{out}"],
        ["eval", "--checkpoint", "{ckpt}", "--synthetic", "2", "--mapping", "/nomap.json"],
        # an image root for a supplementary manifest that is not there
        ["train", "--preset", "RCE", "--manifest", "{data}/manifest.csv",
         "--images-root", "{data}", "--extra-images-root", "{data}", "--size", "32",
         "--epochs", "1", "--batch-size", "4", "--out", "{out}"],
    ])
    def test_conflicting_sources_exit2_and_write_nothing(self, synth_dir, tmp_path, argv):
        # one of each pair would otherwise be ignored without a word
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=16), derive_stream(0, "init")), ckpt)
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(out=tmp_path / "o", ckpt=ckpt, data=synth_dir) for a in argv]
        try:
            code = run(*argv)
        except SystemExit as exc:  # rejected by the parser
            code = exc.code
        assert code == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_image_exit2_before_training(self, synth_dir, tmp_path, capsys):
        manifest = synth_dir / "manifest.csv"
        records = parse_manifest(manifest.read_bytes(), default_mapping()).records
        gone = next(r.image_ref for r in records if r.split == "Test")
        (synth_dir / gone).unlink()
        out = tmp_path / "run"
        assert run("train", "--preset", "RCE", "--manifest", str(manifest),
                   "--images-root", str(synth_dir), "--size", "32", "--epochs", "1",
                   "--out", str(out)) == 2
        assert gone in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("counts", ["3", "4,1,3,2"])
    def test_synth_writes_the_synthetic_training_set(self, tmp_path, counts):
        data = tmp_path / "data"
        assert run("synth", "--counts", counts, "--size", "16", "--seed", "5",
                   "--out", str(data)) == 0
        for task in ((), ("--binary", "Bacteria,Virus")):
            args = ("train", "--preset", "RCE", "--size", "16", "--seed", "5",
                    "--epochs", "2", "--batch-size", "4", *task)
            disk, memory = tmp_path / f"disk{len(task)}", tmp_path / f"memory{len(task)}"
            assert run(*args, "--manifest", str(data / "manifest.csv"),
                       "--images-root", str(data), "--out", str(disk)) == 0
            assert run(*args, "--synthetic", counts, "--out", str(memory)) == 0
            assert (disk / "metrics.csv").read_bytes() == (memory / "metrics.csv").read_bytes()

    def test_binary_flag(self, tmp_path):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "3", "--size", "32",
                   "--epochs", "1", "--batch-size", "4", "--seed", "3",
                   "--binary", "Bacteria,Virus", "--out", str(out)) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["num_classes"] == 2

    @pytest.mark.parametrize("augment", [True, False])
    def test_no_augment_builds_every_batch_without_augmentation_streams(
            self, tmp_path, monkeypatch, augment):
        batch_rngs, tags = [], []  # each train batch's streams, each stream's tag
        real_make_batch, real_derive_stream = training.make_batch, training.derive_stream

        def make_batch(*args):
            if len(args) == 5:  # a train batch; an eval batch passes no streams
                batch_rngs.append(args[4])
            return real_make_batch(*args)

        def derive_stream(seed, tag, *rest):
            tags.append(tag)
            return real_derive_stream(seed, tag, *rest)

        monkeypatch.setattr(training, "make_batch", make_batch)
        monkeypatch.setattr(training, "derive_stream", derive_stream)
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "3", "--size", "16",
                   "--epochs", "2", "--batch-size", "4", "--seed", "3", "--out", str(out),
                   *(() if augment else ("--no-augment",))) == 0
        assert json.loads((out / "config.json").read_text())["augment"] is augment
        assert len(batch_rngs) == 4  # 2 epochs of 2 batches
        assert all((rngs is not None) is augment for rngs in batch_rngs)
        assert ("augment" in tags) is augment

    def test_binary_by_index_matches_binary_by_name(self, tmp_path):
        args = ("train", "--preset", "RCE", "--synthetic", "3", "--size", "16",
                "--epochs", "1", "--batch-size", "4", "--seed", "3")
        by_name, by_index = tmp_path / "name", tmp_path / "index"
        assert run(*args, "--binary", "Normal,Covid19", "--out", str(by_name)) == 0
        assert run(*args, "--binary", "0,3", "--out", str(by_index)) == 0
        assert (by_name / "metrics.csv").read_bytes() == (by_index / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("binary, message", [
        ("4,0", "class index 4 out of range 0..3"),
        ("0,7", "class index 7 out of range 0..3"),
        ("0,-1", "unknown class '-1'"),
        ("Normal,Flu", "unknown class 'Flu'"),
        ("2,Virus", "two distinct classes"),
        ("1", "expects two classes"),
    ])
    def test_bad_binary_exit2_and_writes_nothing(self, tmp_path, capsys, binary, message):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", "3", "--size", "16",
                   "--epochs", "1", "--binary", binary, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("counts, missing", [("6,6,0,0", "3 (Covid19)"),
                                                 ("0,6,6,6", "0 (Normal)")])
    def test_binary_class_absent_exit2_and_writes_nothing(self, tmp_path, capsys, counts, missing):
        out = tmp_path / "r"
        assert run("train", "--preset", "RCE", "--synthetic", counts, "--size", "16",
                   "--epochs", "1", "--binary", "Normal,Covid19", "--out", str(out)) == 2
        assert f"error: no records of class {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_class_absent_from_manifest_exit2(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "r"
        assert run("synth", "--counts", "3,3,3,0", "--size", "16", "--out", str(data)) == 0
        assert run("train", "--preset", "RCE", "--manifest", str(data / "manifest.csv"),
                   "--images-root", str(data), "--size", "16", "--epochs", "1",
                   "--binary", "Normal,Covid19", "--out", str(out)) == 2
        assert "error: no records of class 3 (Covid19)" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_class_without_train_records_exit2(self, tmp_path, capsys):
        # Covid19 keeps its Test rows only, so training would see one class
        data, out = tmp_path / "data", tmp_path / "r"
        assert run("synth", "--counts", "4", "--size", "16", "--out", str(data)) == 0
        manifest = data / "manifest.csv"
        rows = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(r for r in rows if "train_c3_" not in r))
        assert run("train", "--preset", "RCE", "--manifest", str(manifest),
                   "--images-root", str(data), "--size", "16", "--epochs", "1",
                   "--binary", "Normal,Covid19", "--out", str(out)) == 2
        assert ("error: no records of class 3 (Covid19) in the Train split"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_diverging_run_aborts_exit1(self, tmp_path, capsys):
        # the numpy overflow warnings of a diverging run are silenced for this
        # test alone: the suite turns them into errors, which would end the
        # run as an internal error before the abort
        out = tmp_path / "r"
        with np.errstate(all="ignore"):
            assert run("train", "--preset", "RCE", "--synthetic", "3", "--size", "16",
                       "--epochs", "3", "--lr", "1e30", "--out", str(out)) == 1
        assert "training aborted:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.json"]


# CRC32 of metrics.csv and of the saved state tensors (names and f32 bytes in
# file order) for short CLI runs: RFL, DCE, and an RCE backbone transferred
# to a frozen PRFL. A change to any op's arithmetic or float sum order, the
# sampler, augmentation, initialisation or Adam fails here; a change meant to
# move the trajectory updates these values and says which and why.
TRAJECTORY_PINS = {
    "RFL": (0xFC1BD33C, 0xC02D3B20),
    "DCE": (0xD2BED907, 0x964DC9D3),
    "RCE": (0xFB5EABA8, 0x9149C046),
    "PRFL": (0x4E056389, 0xFA8774B4),
}


def test_pinned_training_trajectories(tmp_path):
    def train(preset, size, *extra):
        out = tmp_path / preset
        assert run("train", "--preset", preset, "--size", size, "--synthetic", "3",
                   "--epochs", "2", "--batch-size", "4", "--seed", "3", *extra,
                   "--out", str(out)) == 0
        crc = 0
        for name, arr in read_checkpoint(out / "model.xrnc")[0].items():
            crc = zlib.crc32(arr.tobytes(), zlib.crc32(name.encode(), crc))
        return zlib.crc32((out / "metrics.csv").read_bytes()), crc

    got = {"RFL": train("RFL", "16"), "DCE": train("DCE", "24"), "RCE": train("RCE", "32")}
    got["PRFL"] = train("PRFL", "32", "--freeze",
                        "--checkpoint", str(tmp_path / "RCE" / "model.xrnc"))
    assert got == TRAJECTORY_PINS


class TestTransferFlow:
    def test_pretrain_then_transfer_then_eval(self, tmp_path):
        backbone = tmp_path / "backbone"
        assert run("train", "--preset", "DCE", "--synthetic", "2", "--size", "32",
                   "--epochs", "1", "--seed", "5", "--out", str(backbone)) == 0
        ckpt = backbone / "model.xrnc"
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

    def test_eval_class_count_mismatch_exit2(self, tmp_path, capsys):
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=16), derive_stream(0, "init")), ckpt)
        assert run("eval", "--checkpoint", str(ckpt), "--synthetic", "2",
                   "--binary", "Normal,Covid19") == 2
        assert "checkpoint has 4 classes but the data source has 2" in capsys.readouterr().err

    def test_eval_rejects_size_flag(self, tmp_path):
        # the checkpoint fixes the input size; a --size here could never take effect
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=32), derive_stream(0, "init")), ckpt)
        with pytest.raises(SystemExit) as exc:
            run("eval", "--checkpoint", str(ckpt), "--synthetic", "2", "--size", "128")
        assert exc.value.code == 2

    @pytest.mark.parametrize("batch_size", ["0", "-1"])
    def test_eval_batch_size_below_one_exit2(self, tmp_path, capsys, batch_size):
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(build_model(mini_resnet(input_size=16), derive_stream(0, "init")), ckpt)
        assert run("eval", "--checkpoint", str(ckpt), "--synthetic", "2",
                   "--batch-size", batch_size) == 2
        assert "batch_size must be positive" in capsys.readouterr().err

    def test_non_finite_eval_aborts_exit1(self, tmp_path, capsys):
        # numpy warnings silenced for this test alone, as for the diverging run
        model = build_model(mini_resnet(input_size=16), derive_stream(0, "init"))
        model.store.params["head.bias"].data[...] = np.inf
        ckpt = tmp_path / "m.xrnc"
        save_checkpoint(model, ckpt)
        with np.errstate(all="ignore"):
            assert run("eval", "--checkpoint", str(ckpt), "--synthetic", "2") == 1
        err = capsys.readouterr().err
        assert "evaluation aborted: non-finite logits" in err and "training" not in err


class TestGradcheckCommand:
    def test_prints_every_op_loss_and_architecture_in_order(self, capsys):
        assert run("gradcheck") == 0
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == [*verification.OP_PROBES, *verification.LOSS_PROBES,
                         "mini_resnet", "mini_densenet"]

    def test_impossible_threshold_fails_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "F32_THRESHOLD", 1e-12)
        assert run("gradcheck") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_scope_option_is_gone(self):
        # the command always runs the whole suite
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", "--scope", "all")
        assert exc.value.code == 2


def _subcommand_options() -> set[str]:
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subparsers.choices.values()
            for action in sub._actions for opt in action.option_strings}


@pytest.mark.parametrize("command,required", [
    ("train", ["--preset", "RCE", "--out", "r"]), ("eval", ["--checkpoint", "m.xrnc"])])
def test_option_defaults_are_train_config_defaults(command, required):
    # TrainConfig owns each run setting's default; the CLI takes its defaults from there
    args = build_parser().parse_args([command, *required])
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    options = {"epochs": "epochs", "lr": "base_lr", "size": "input_size",
               "seed": "seed", "batch_size": "batch_size"}
    given = {opt: field for opt, field in options.items() if hasattr(args, opt)}
    assert len(given) == (5 if command == "train" else 2)
    for opt, field in given.items():
        assert getattr(args, opt) == defaults[field], opt
    assert defaults["batch_size"] == 8  # the value README and the benchmark's BATCH use


def test_readme_cli_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_text = text.split("## CLI", 1)[1]
    block = cli_text.split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.replace("\\\n", " ").splitlines() if l.startswith("xraynet ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    # every option the prose names must exist on some subcommand
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cli_text))
    assert named - _subcommand_options() == set()
