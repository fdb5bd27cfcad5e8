"""Command-line interface: subcommands, config files, exit codes, determinism."""

import numpy as np
import pytest

from diffclass import cli
from diffclass.data import load_dataset
from diffclass.errors import NumericalError

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
