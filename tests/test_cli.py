"""Command-line interface: subcommands, config files, exit codes, determinism."""

import os
import struct
import warnings

import numpy as np
import pytest

from diffclass import cli, train
from diffclass.data import load_dataset
from diffclass.errors import NumericalError
from diffclass.mlp import MlpScorer

TINY_TRAIN = ["--epochs", "2", "--batch-size", "64", "--hidden-dim", "32", "--blocks", "2"]
SMALL_RUN = {"eval": ["--steps", "2"], "sweep": ["--n-eval", "8"],
             "ablate": ["--steps", "2", "--n-eval", "8"], "trace": ["--steps", "2"]}


def _gen(tmp_path, name, n, seed=0, k=4, sep=3.0):
    stem = str(tmp_path / name)
    rc = cli.main(["gen-data", "--k", str(k), "--n", str(n), "--separation", str(sep),
                   "--seed", str(seed), "--stem", stem])
    assert rc == 0
    return stem


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path):
        stem = _gen(tmp_path, "train", 200, seed=3)
        y, labels, task, corruption, seed = load_dataset(stem)
        assert y.shape == (200, 2) and labels.shape == (200,)
        assert task.k == 4 and corruption.kind == "none" and seed == 3

    def test_same_seed_same_bytes(self, tmp_path):
        a = _gen(tmp_path, "a", 100, seed=5)
        b = _gen(tmp_path, "b", 100, seed=5)
        assert open(a + ".bin", "rb").read() == open(b + ".bin", "rb").read()


class TestTrainEval:
    def test_train_then_eval_runs(self, tmp_path):
        train = _gen(tmp_path, "train", 512, seed=0)
        test = _gen(tmp_path, "test", 256, seed=1)
        ckpt = str(tmp_path / "model.ckpt")
        metrics = str(tmp_path / "metrics.csv")
        rc = cli.main(["train", "--data", train, "--eval-data", test, "--seed", "0",
                       "--checkpoint", ckpt, "--out", metrics] + TINY_TRAIN)
        assert rc == 0
        header = open(metrics).readline().strip()
        assert header == "epoch,loss,tv,top1,wall_ms"
        out = str(tmp_path / "eval.csv")
        rc = cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--method", "cp",
                       "--steps", "4", "--seed", "0", "--out", out])
        assert rc == 0
        assert open(out).readline().startswith("method,steps")

    def test_fixed_seed_byte_identical_outputs(self, tmp_path):
        """Same seed, two full train+eval runs: all CSV artifacts match bytewise."""
        train = _gen(tmp_path, "train", 512, seed=0)
        test = _gen(tmp_path, "test", 256, seed=1)
        artifacts = []
        for run in range(2):
            ckpt = str(tmp_path / f"m{run}.ckpt")
            metrics = str(tmp_path / f"metrics{run}.csv")
            evalcsv = str(tmp_path / f"eval{run}.csv")
            assert cli.main(["train", "--data", train, "--eval-data", test, "--seed", "7",
                             "--checkpoint", ckpt, "--out", metrics] + TINY_TRAIN) == 0
            assert cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--steps", "4",
                             "--seed", "7", "--out", evalcsv]) == 0
            artifacts.append((open(metrics, "rb").read(), open(evalcsv, "rb").read(),
                              open(ckpt, "rb").read()))
        assert artifacts[0] == artifacts[1]

    def test_cl_and_full_methods_run(self, tmp_path):
        train = _gen(tmp_path, "train", 256, seed=0, k=3)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train, "--seed", "0",
                         "--checkpoint", ckpt] + TINY_TRAIN) == 0
        for method, extra in (("cl", ["--n-samples", "50"]), ("full", [])):
            out = str(tmp_path / f"{method}.csv")
            rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--method",
                           method, "--steps", "2", "--out", out] + extra)
            assert rc == 0


class TestOtherCommands:
    @pytest.fixture()
    def trained(self, tmp_path):
        train = _gen(tmp_path, "train", 512, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train, "--seed", "0",
                         "--checkpoint", ckpt] + TINY_TRAIN) == 0
        return train, ckpt, tmp_path

    def test_sweep(self, trained):
        train, ckpt, tmp_path = trained
        out = str(tmp_path / "sweep.csv")
        assert cli.main(["sweep", "--data", train, "--checkpoint", ckpt,
                         "--n-eval", "50", "--seed", "0", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "method,steps,n_samples,nfe,top1,top5,tv"
        assert len(lines) > 5

    def test_ablate(self, trained):
        train, ckpt, tmp_path = trained
        out = str(tmp_path / "ablate.csv")
        assert cli.main(["ablate", "--data", train, "--checkpoint", ckpt, "--steps", "4",
                         "--n-eval", "50", "--seed", "0", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 4  # header + 3 strategies

    def test_trace(self, trained):
        train, ckpt, tmp_path = trained
        out = str(tmp_path / "trace.csv")
        assert cli.main(["trace", "--data", train, "--checkpoint", ckpt, "--steps", "8",
                         "--topk", "3", "--input-id", "2", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "input_id,step,t,class,prob"
        assert len(lines) == 1 + 9 * 3

    def test_compare_small_grid(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["compare", "--k", "3", "--levels", "0,1.0", "--ratios", "1.0",
                       "--n-train", "300", "--n-eval", "200", "--epochs", "1",
                       "--steps", "2", "--seed", "0", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 3


class TestConfigFile:
    def test_config_provides_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=5\nn=64\nseed=9\n")
        stem = str(tmp_path / "d")
        rc = cli.main(["gen-data", "--config", str(cfg), "--n", "32", "--stem", stem])
        assert rc == 0
        y, labels, task, _, seed = load_dataset(stem)
        assert task.k == 5      # from config
        assert y.shape[0] == 32  # explicit flag wins over config
        assert seed == 9


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        train = _gen(tmp_path, "train", 64, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train, "--seed", "0",
                         "--checkpoint", ckpt] + TINY_TRAIN) == 0
        rc = cli.main(["trace", "--data", train, "--checkpoint", ckpt,
                       "--input-id", "9999", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_missing_file_is_2(self, tmp_path):
        rc = cli.main(["eval", "--data", str(tmp_path / "nope"),
                       "--checkpoint", str(tmp_path / "nope.ckpt")])
        assert rc == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["eval", "--method", "bogus", "--data", "x", "--checkpoint", "y"])
        assert err.value.code == 2

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        train = _gen(tmp_path, "train", 128, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train, "--seed", "0", "--epochs", "1",
                         "--hidden-dim", "16", "--blocks", "1", "--checkpoint", ckpt]) == 0
        return train, ckpt

    @pytest.mark.parametrize("keep", [20, -9])
    def test_truncated_checkpoint_is_2(self, tmp_path, checkpoint, keep, capsys):
        train, ckpt = checkpoint
        blob = open(ckpt, "rb").read()
        with open(ckpt, "wb") as fh:
            fh.write(blob[:keep])
        rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--steps", "2"])
        assert rc == 2 and "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sweep", "ablate", "trace"])
    @pytest.mark.parametrize("k, dim", [(6, 2), (4, 3)])
    def test_checkpoint_dataset_mismatch_is_2(self, tmp_path, checkpoint, command, k, dim,
                                              capsys):
        _, ckpt = checkpoint
        other = str(tmp_path / "other")
        assert cli.main(["gen-data", "--k", str(k), "--dim", str(dim), "--n", "32",
                         "--stem", other]) == 0
        rc = cli.main([command, "--data", other, "--checkpoint", ckpt] + SMALL_RUN[command])
        assert rc == 2 and "n_classes=4, feature_dim=2" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, monkeypatch):
        def boom(args):
            raise NumericalError("synthetic failure")
        monkeypatch.setitem(cli._RUNNERS, "sweep", boom)
        rc = cli.main(["sweep", "--data", "x", "--checkpoint", "y"])
        assert rc == 3

    # Header fields after the 8-byte magic, as "<9I": version, K, F, d, H, B, dt, groups, mode.
    @pytest.mark.parametrize("field, offset, value", [
        ("n_blocks", 28, 3), ("n_blocks", 28, 1), ("hidden_dim", 24, 64),
        ("embed_dim", 20, 32), ("n_classes", 12, 5)])
    def test_header_disagreeing_with_arrays_is_2(self, tmp_path, field, offset, value, capsys):
        train_stem = _gen(tmp_path, "train", 128, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train_stem, "--seed", "0", "--epochs", "1",
                         "--hidden-dim", "32", "--blocks", "2", "--checkpoint", ckpt]) == 0
        blob = bytearray(open(ckpt, "rb").read())
        assert struct.unpack_from("<I", blob, offset)[0] != value
        struct.pack_into("<I", blob, offset, value)
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train_stem, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and ckpt in err and "the header implies" in err, field


    # Header fields no array shape depends on: groups and the time-input mode
    # ("<I" at 36 and 40) and the schedule's decay ("<d" at 52, after sigma_bar_max).
    @pytest.mark.parametrize("field, fmt, offset, value, message", [
        ("groups", "<I", 36, 4, "header groups=4 disagrees with the .meta sidecar (groups=8)"),
        ("groups", "<I", 36, 5, "hidden_dim must be divisible by groups"),
        ("time_input", "<I", 40, 1, "header time_input=raw disagrees with the .meta sidecar"),
        ("schedule_decay", "<d", 52, 0.5,
         "header schedule_decay=0.5 disagrees with the .meta sidecar (schedule_decay=0.7)")])
    def test_header_disagreeing_with_sidecar_is_2(self, tmp_path, field, fmt, offset, value,
                                                  message, capsys):
        train_stem = _gen(tmp_path, "train", 128, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", train_stem, "--seed", "0", "--epochs", "1",
                         "--hidden-dim", "32", "--blocks", "2", "--checkpoint", ckpt]) == 0
        blob = bytearray(open(ckpt, "rb").read())
        assert struct.unpack_from(fmt, blob, offset)[0] != value
        struct.pack_into(fmt, blob, offset, value)
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train_stem, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {ckpt}: ") and message in err, field

    def test_missing_sidecar_is_2(self, tmp_path, checkpoint, capsys):
        train, ckpt = checkpoint
        os.remove(ckpt + ".meta")
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and ckpt in err and ".meta sidecar is missing" in err


class TestDivergence:
    @pytest.mark.parametrize("with_out", [False, True])
    def test_diverged_train_exits_3_and_keeps_the_initial_checkpoint(self, tmp_path, with_out,
                                                                     capsys):
        stem = _gen(tmp_path, "train", 256, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        out = str(tmp_path / "metrics.csv")
        argv = ["train", "--data", stem, "--seed", "0", "--lr", "1e6", "--grad-clip", "1e9",
                "--checkpoint", ckpt] + TINY_TRAIN + (["--out", out] if with_out else [])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow warning may leak
            rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and err.startswith("numerical failure: ")
        assert "epoch 0" in err
        assert not os.path.exists(out)          # no epoch finished: no rows
        assert MlpScorer.load(ckpt).params.keys()

    def test_finished_epochs_keep_their_rows_and_parameters(self, tmp_path, monkeypatch, capsys):
        stem = _gen(tmp_path, "train", 256, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        out = str(tmp_path / "metrics.csv")
        steps_per_epoch = 256 // 64
        calls = []
        finished = {}                           # parameters after the last good step
        real_step = train.train_step

        def failing_step(scorer, *args, **kwargs):
            calls.append(1)
            if len(calls) > steps_per_epoch:
                raise NumericalError("synthetic divergence")
            result = real_step(scorer, *args, **kwargs)
            finished.clear()
            finished.update({k: v.copy() for k, v in scorer.params.items()})
            return result

        monkeypatch.setattr(train, "train_step", failing_step)
        capsys.readouterr()
        rc = cli.main(["train", "--data", stem, "--seed", "0", "--checkpoint", ckpt,
                       "--out", out] + TINY_TRAIN)
        err = capsys.readouterr().err
        assert rc == 3 and "epoch 1" in err and "kept the parameters from epoch 0" in err
        lines = open(out).read().splitlines()
        assert lines[0] == "epoch,loss,tv,top1,wall_ms" and len(lines) == 2
        assert lines[1].startswith("0,")
        saved = MlpScorer.load(ckpt).params
        for name, value in finished.items():
            assert np.array_equal(saved[name], value.astype(np.float32)), name
