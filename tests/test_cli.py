"""Command-line interface: subcommands, config files, exit codes, determinism."""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffclass import cli, harness, mlp, sampler, train
from diffclass.data import CorruptionSpec, MixtureTask, generate, load_dataset, save_dataset
from diffclass.errors import NumericalError
from diffclass.mlp import MlpConfig, MlpScorer

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
        assert Path(a + ".bin").read_bytes() == Path(b + ".bin").read_bytes()


class TestTrainEval:
    def test_train_then_eval_runs(self, tmp_path):
        train = _gen(tmp_path, "train", 512, seed=0)
        test = _gen(tmp_path, "test", 256, seed=1)
        ckpt = str(tmp_path / "model.ckpt")
        metrics = str(tmp_path / "metrics.csv")
        rc = cli.main(["train", "--data", train, "--eval-data", test, "--seed", "0",
                       "--checkpoint", ckpt, "--out", metrics] + TINY_TRAIN)
        assert rc == 0
        header = Path(metrics).read_text().splitlines()[0]
        assert header == "epoch,loss,tv,top1,wall_ms"
        out = str(tmp_path / "eval.csv")
        rc = cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--method", "cp",
                       "--steps", "4", "--seed", "0", "--out", out])
        assert rc == 0
        assert Path(out).read_text().startswith("method,steps")

    def test_validation_equals_eval_of_the_checkpoint(self, tmp_path):
        """train --eval-data's last tv and top1 are eval's cp@EVAL_STEPS of the
        checkpoint on the same 512 rows: the trained scorer is the saved one."""
        train_stem = _gen(tmp_path, "train", 1024, seed=0)
        test = _gen(tmp_path, "test", train.EVAL_SUBSET, seed=1)
        ckpt, metrics, out = (str(tmp_path / name) for name in ("m.ckpt", "fit.csv", "eval.csv"))
        assert cli.main(["train", "--data", train_stem, "--eval-data", test, "--seed", "0",
                         "--checkpoint", ckpt, "--out", metrics] + TINY_TRAIN) == 0
        assert cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--method", "cp",
                         "--steps", str(train.EVAL_STEPS), "--out", out]) == 0
        header, *_, final = Path(metrics).read_text().splitlines()
        last = dict(zip(header.split(","), final.split(",")))
        header, row = Path(out).read_text().splitlines()
        report = dict(zip(header.split(","), row.split(",")))
        assert (last["tv"], last["top1"]) == (report["mean_tv"], report["top1"])

    def test_fixed_seed_byte_identical_outputs(self, tmp_path, monkeypatch):
        """Same seed, full train+eval runs on 1, 2 and 3 scorer workers: all CSV
        artifacts and checkpoints match bytewise.

        Scorer tiles of 7 rows make every validation and eval call span many
        tiles, and so share them over the workers (tests/test_acceptance.py's
        criterion 10 runs the default tiling).
        """
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        train = _gen(tmp_path, "train", 512, seed=0)
        test = _gen(tmp_path, "test", 256, seed=1)
        artifacts = []
        for run, workers in enumerate((1, 2, 3)):
            monkeypatch.setattr(mlp, "WORKERS", workers)
            ckpt = str(tmp_path / f"m{run}.ckpt")
            metrics = str(tmp_path / f"metrics{run}.csv")
            evalcsv = str(tmp_path / f"eval{run}.csv")
            assert cli.main(["train", "--data", train, "--eval-data", test, "--seed", "7",
                             "--checkpoint", ckpt, "--out", metrics] + TINY_TRAIN) == 0
            assert cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--steps", "4",
                             "--seed", "7", "--out", evalcsv]) == 0
            artifacts.append((Path(metrics).read_bytes(), Path(evalcsv).read_bytes(),
                              Path(ckpt).read_bytes()))
        assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]

    def test_default_held_out_draws_leave_the_training_unchanged(self, tmp_path):
        """Without --eval-data, train validates on draws of a stream of its own: at one
        seed it writes the checkpoint and loss column that --eval-data gives."""
        stem = _gen(tmp_path, "train", 512, seed=0)
        test = _gen(tmp_path, "test", 256, seed=1)
        runs = []
        for name, extra in (("drawn", []), ("file", ["--eval-data", test])):
            ckpt, out = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.csv"
            assert cli.main(["train", "--data", stem, "--seed", "4", "--checkpoint", str(ckpt),
                             "--out", str(out)] + extra + TINY_TRAIN) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert all(row[2] for row in rows)      # each epoch validated
            runs.append((ckpt.read_bytes(), [row[1] for row in rows]))
        assert runs[0] == runs[1]

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

    def test_a_checkpoint_with_a_large_logit_gap_evaluates_with_every_method(self, tmp_path):
        """A head bias of 800 nats on label 0 takes every other label's read below
        float64's range: eval still exits 0 with cp, cl and full, on finite rows."""
        stem = _gen(tmp_path, "train", 128, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", stem, "--checkpoint", ckpt] + TINY_TRAIN) == 0
        scorer = MlpScorer.load(ckpt)
        scorer.params["out_b"][0] = 800.0
        scorer.save(ckpt)
        for method in ("cp", "cl", "full"):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["eval", "--data", stem, "--checkpoint", ckpt, "--method", method,
                             "--steps", "4", "--n-samples", "4", "--out", str(out)]) == 0, method
            header, row = out.read_text().splitlines()
            cells = dict(zip(header.split(","), row.split(",")))
            assert all(np.isfinite(float(cells[key])) for key in ("top1", "mean_tv", "nll"))

    def test_only_cp_fills_the_strategy_cell(self, tmp_path):
        """--strategy is cp's anchor rule: cl and full take none and leave the
        eval CSV's strategy cell empty; every method keeps the seed."""
        stem = _gen(tmp_path, "train", 128, seed=0, k=3)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", stem, "--checkpoint", ckpt] + TINY_TRAIN) == 0
        for method, strategy in (("cp", "argmax"), ("cl", ""), ("full", "")):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["eval", "--data", stem, "--checkpoint", ckpt, "--method", method,
                             "--steps", "2", "--n-samples", "2", "--strategy", "argmax",
                             "--seed", "5", "--out", str(out)]) == 0
            header, row = out.read_text().splitlines()
            cells = dict(zip(header.split(","), row.split(",")))
            assert (cells["strategy"], cells["seed"]) == (strategy, "5"), method


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
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "method,steps,n_samples,nfe,top1,top5,tv"
        assert len(lines) > 5

    def test_ablate(self, trained):
        train, ckpt, tmp_path = trained
        out = str(tmp_path / "ablate.csv")
        assert cli.main(["ablate", "--data", train, "--checkpoint", ckpt, "--steps", "4",
                         "--n-eval", "50", "--seed", "0", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["strategy", "argmax", "argmin"]

    def test_trace(self, trained):
        train, ckpt, tmp_path = trained
        out = str(tmp_path / "trace.csv")
        assert cli.main(["trace", "--data", train, "--checkpoint", ckpt, "--steps", "8",
                         "--topk", "3", "--input-id", "2", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "input_id,step,t,class,prob"
        assert len(lines) == 1 + 9 * 3

    def test_compare_small_grid(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["compare", "--k", "3", "--levels", "0,1.0", "--ratios", "1.0",
                       "--n-train", "300", "--n-eval", "200", "--epochs", "1",
                       "--steps", "2", "--seed", "0", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3

    def test_compare_runs_one_reverse_process_per_cell(self, tmp_path, monkeypatch):
        """compare trains its scorers without fit's per-epoch validation: a 1-cell,
        2-epoch grid runs one reverse process, the cell's cp evaluation."""
        calls = []
        real = sampler._reverse
        monkeypatch.setattr(sampler, "_reverse",
                            lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
        assert cli.main(["compare", "--k", "3", "--levels", "0", "--ratios", "1",
                         "--n-train", "100", "--n-eval", "50", "--epochs", "2", "--steps", "2",
                         "--out", str(tmp_path / "grid.csv")]) == 0
        assert calls == ["cp"]

    @pytest.mark.parametrize("kind, levels", [("mask-coordinates", ["0.0", "1.0", "2.0"]),
                                              ("additive-noise", ["0.0", "0.5", "1.0"]),
                                              ("quantize", ["0.0", "0.5", "1.0"])])
    def test_compare_runs_each_kind_at_its_default_levels(self, tmp_path, kind, levels):
        """mask-coordinates masks a whole number of coordinates, so its default levels
        are 0, 1 and 2; the ring task has at least 2."""
        out = tmp_path / "grid.csv"
        assert cli.main(["compare", "--corruption-kind", kind, "--k", "3", "--ratios", "1",
                         "--n-train", "64", "--n-eval", "50", "--epochs", "1", "--steps", "2",
                         "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == levels


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


class TestOneParserPerProcess:
    """main builds its parser once per process, and a command leaves nothing in it."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_rejected_flag_leaves_the_parser_usable(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["gen-data", "--k", "many", "--stem", str(tmp_path / "x")])
        assert err.value.code == 2
        _, _, task, _, seed = load_dataset(_gen(tmp_path, "d", 32, seed=4))
        assert task.k == 4 and seed == 4

    def test_config_values_reach_only_their_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=5\nseed=9\nvariance=2\n")
        configured, plain = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["gen-data", "--config", str(cfg), "--n", "32", "--stem", configured]) == 0
        assert cli.main(["gen-data", "--n", "32", "--stem", plain]) == 0
        _, _, task, _, seed = load_dataset(configured)
        assert (task.k, task.variance, seed) == (5, 2.0, 9)
        _, _, task, _, seed = load_dataset(plain)
        assert (task.k, task.variance, seed) == (8, 1.0, 0)

    def test_outputs_do_not_depend_on_the_commands_before(self, tmp_path, monkeypatch):
        """gen-data, train and eval write the same bytes as the first command of a new
        process and as the fifth, sixth and seventh of this one, after a rejected
        flag and commands with other flags and a config file."""
        commands = [["gen-data", "--k", "3", "--n", "256", "--seed", "2", "--stem", "d"],
                    ["train", "--data", "d", "--seed", "3", "--checkpoint", "m.ckpt",
                     "--out", "fit.csv"] + TINY_TRAIN,
                    ["eval", "--data", "d", "--checkpoint", "m.ckpt", "--steps", "2",
                     "--seed", "3", "--out", "eval.csv"]]
        outputs = ["d.bin", "d.meta", "m.ckpt", "m.ckpt.meta", "fit.csv", "eval.csv"]
        first = tmp_path / "first"
        first.mkdir()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        for argv in commands:
            subprocess.run([sys.executable, "-m", "diffclass.cli", *argv], cwd=first, env=env,
                           check=True, stdout=subprocess.DEVNULL)
        later = tmp_path / "later"
        later.mkdir()
        cfg = later / "run.cfg"
        cfg.write_text("k=5\nvariance=2\n")
        monkeypatch.chdir(later)
        with pytest.raises(SystemExit):
            cli.main(["eval", "--method", "bogus", "--data", "x", "--checkpoint", "y"])
        assert cli.main(["gen-data", "--config", str(cfg), "--n", "64", "--stem", "o"]) == 0
        assert cli.main(["train", "--data", "o", "--epochs", "1", "--hidden-dim", "16",
                         "--blocks", "1", "--timing", "--checkpoint", "o.ckpt"]) == 0
        assert cli.main(["eval", "--data", "o", "--checkpoint", "o.ckpt", "--method", "cl",
                         "--steps", "2", "--n-samples", "2"]) == 0
        for argv in commands:
            assert cli.main(argv) == 0
        for name in outputs:
            assert (later / name).read_bytes() == (first / name).read_bytes(), name


@pytest.fixture(scope="module")
def wide_checkpoint(tmp_path_factory):
    """(dataset stem, checkpoint path) of a 1-epoch hidden-32, 2-block scorer on 4 classes."""
    tmp_path = tmp_path_factory.mktemp("wide")
    train_stem = _gen(tmp_path, "train", 128, seed=0)
    ckpt = str(tmp_path / "m.ckpt")
    assert cli.main(["train", "--data", train_stem, "--seed", "0", "--epochs", "1",
                     "--hidden-dim", "32", "--blocks", "2", "--checkpoint", ckpt]) == 0
    return train_stem, ckpt


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
        blob = Path(ckpt).read_bytes()
        with open(ckpt, "wb") as fh:
            fh.write(blob[:keep])
        rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {ckpt}: {len(blob[:keep])} bytes, where the "
                                          f".meta header describes {len(blob)} bytes"), err

    @pytest.mark.parametrize("damage, message", [
        ("padded", "bytes, where the .meta header describes"),
        ("non-finite", ": holds non-finite values"),
        ("meta-not-utf8", ".meta: not UTF-8 text"),
        ("version-1", ".meta: format=None, format_version=1; this program reads "
                      "format=scorer-checkpoint, format_version=2")],
        ids=["padded", "non-finite", "meta-not-utf8", "version-1"])
    def test_damaged_checkpoint_is_2_naming_the_file(self, checkpoint, damage, message, capsys):
        train, ckpt = checkpoint
        blob, meta = Path(ckpt).read_bytes(), Path(ckpt + ".meta").read_bytes()
        if damage == "padded":
            blob += bytes(4)
        elif damage == "non-finite":
            blob = blob[:8] + np.float32(np.nan).tobytes() + blob[12:]
        elif damage == "meta-not-utf8":
            meta = b"\xff" + meta
        else:
            v1 = Path(__file__).parent / "checkpoints" / "v1.ckpt"
            blob, meta = v1.read_bytes(), Path(f"{v1}.meta").read_bytes()
        Path(ckpt).write_bytes(blob)
        Path(ckpt + ".meta").write_bytes(meta)
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {ckpt}") and err.count("\n") == 1, err
        assert message in err, err

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

    @pytest.mark.parametrize("entry", ["n_blocks=3", "n_blocks=1", "n_blocks=1000000000",
                                       "hidden_dim=64", "embed_dim=32", "n_classes=5",
                                       "groups=4", "groups=5", "groups=16"])
    def test_meta_describing_another_model_is_2(self, tmp_path, wide_checkpoint, entry, capsys):
        """The .meta is the checkpoint's only description: one naming another model
        exits 2, naming the file and, where the model is valid, both byte counts.  A
        group count other than the one the width derives (8 at 32) exits 2 too, though
        it leaves the byte count as it was."""
        message = (f"{entry}, where hidden_dim=32 has 8 GroupNorm groups"
                   if entry.startswith("groups=") else "bytes, where the .meta header describes")
        train_stem, saved = wide_checkpoint
        ckpt = str(tmp_path / "m.ckpt")
        shutil.copy(saved, ckpt)
        key = entry.partition("=")[0]
        lines = Path(saved + ".meta").read_text(encoding="utf-8").splitlines()
        assert entry not in lines
        Path(ckpt + ".meta").write_text(
            "".join(f"{entry if line.startswith(key + '=') else line}\n" for line in lines),
            encoding="utf-8")
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train_stem, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {ckpt}") and err.count("\n") == 1, err
        assert message in err, err

    def test_missing_sidecar_is_2(self, tmp_path, checkpoint, capsys):
        train, ckpt = checkpoint
        os.remove(ckpt + ".meta")
        capsys.readouterr()
        rc = cli.main(["eval", "--data", train, "--checkpoint", ckpt, "--steps", "2"])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {ckpt}.meta: the header file is missing\n"


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
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "epoch,loss,tv,top1,wall_ms" and len(lines) == 2
        assert lines[1].startswith("0,")
        saved = MlpScorer.load(ckpt).params
        for name, value in finished.items():
            assert np.array_equal(saved[name], value.astype(np.float32)), name


class TestErrorContract:
    def _train_with_eval_data(self, tmp_path, capsys, train_flags, eval_stem):
        """Run train on a k=4, dim=2 ring file with eval_stem held out; returns
        (exit code, stderr, whether a checkpoint was written)."""
        train = str(tmp_path / "train")
        assert cli.main(["gen-data", "--k", "4", "--n", "128", "--seed", "0", "--stem", train]
                        + train_flags) == 0
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        rc = cli.main(["train", "--data", train, "--eval-data", eval_stem, "--seed", "0",
                       "--checkpoint", str(ckpt)] + TINY_TRAIN)
        return rc, capsys.readouterr().err, ckpt.exists()

    @pytest.mark.parametrize("fields, train_flags, eval_flags", [
        ("k, means, priors", [], ["--k", "3"]),
        ("k, means, priors", [], ["--k", "6"]),
        ("dim, means", [], ["--dim", "3"]),
        ("means", [], ["--separation", "4"]),
        ("variance", [], ["--variance", "2"]),
        ("corruption", [], ["--corruption", "additive-noise", "--level", "0.5"]),
        ("corruption", ["--corruption", "additive-noise", "--level", "0.5"],
         ["--corruption", "additive-noise", "--level", "0.7"]),
    ])
    def test_eval_data_of_another_task_is_2(self, tmp_path, capsys, fields, train_flags,
                                            eval_flags):
        """The per-epoch metrics score held-out rows against the training task's
        posterior, so a held-out file of another task stops train before training."""
        held_out = str(tmp_path / "held_out")
        assert cli.main(["gen-data", "--k", "4", "--n", "64", "--seed", "1",
                         "--stem", held_out] + eval_flags) == 0
        rc, err, wrote = self._train_with_eval_data(tmp_path, capsys, train_flags, held_out)
        assert rc == 2 and not wrote
        assert err == (f"error: {held_out}: the held-out data's {fields} differ from "
                       f"the training data {tmp_path / 'train'}'s\n")

    def test_eval_data_with_other_priors_is_2(self, tmp_path, capsys):
        ring = MixtureTask.ring(4, 2)
        task = MixtureTask(ring.means, priors=np.array([0.4, 0.3, 0.2, 0.1]))
        held_out = str(tmp_path / "held_out")
        y, labels = generate(task, 64, CorruptionSpec(), np.random.default_rng(1))
        save_dataset(held_out, y, labels, task, CorruptionSpec(), 1)
        rc, err, wrote = self._train_with_eval_data(tmp_path, capsys, [], held_out)
        assert rc == 2 and not wrote and "held-out data's priors differ" in err

    @pytest.mark.parametrize("argv", [
        ["compare", "--levels", "0,x"],
        ["compare", "--ratios", "0.5,abc"],
        ["compare", "--levels", ""],
        ["compare", "--ratios", "2"],
        ["compare", "--ratios", "0"],
        ["compare", "--ratios", "-1"],
        ["gen-data", "--stem", "d", "--seed", "-1"],
        ["gen-data", "--stem", "d", "--config"],
    ])
    def test_bad_values_exit_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("hidden", ["0", "-8"])
    def test_model_width_below_one_exits_2(self, tmp_path, capsys, hidden):
        stem = _gen(tmp_path, "d", 16, seed=0)
        capsys.readouterr()
        rc = cli.main(["train", "--data", stem, "--hidden-dim", hidden, "--blocks", "1",
                       "--checkpoint", str(tmp_path / "m.ckpt")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err

    def test_group_count_follows_the_width(self, tmp_path, capsys):
        """--hidden-dim 8 trains on 2 groups of 4 units, and 36, which 8 groups would not
        divide, on 6 of 6; a width under 4 exits 2."""
        stem = _gen(tmp_path, "d", 64, seed=0)
        ckpt = tmp_path / "m.ckpt"
        for width, groups in (("8", 2), ("36", 6)):
            assert cli.main(["train", "--data", stem, "--hidden-dim", width, "--blocks", "1",
                             "--epochs", "1", "--checkpoint", str(ckpt)]) == 0
            assert f"groups={groups}\n" in Path(str(ckpt) + ".meta").read_text()
        capsys.readouterr()
        rc = cli.main(["train", "--data", stem, "--hidden-dim", "3", "--blocks", "1",
                       "--checkpoint", str(tmp_path / "n.ckpt")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "hidden_dim" in err, err
        assert not (tmp_path / "n.ckpt").exists()

    def test_width_help_states_the_group_rule_of_mlp(self, monkeypatch):
        """--hidden-dim's help is built from mlp.MIN_GROUP_UNITS and mlp.MAX_GROUPS,
        the values MlpConfig.groups uses, not from copies of them."""
        monkeypatch.setattr(mlp, "MIN_GROUP_UNITS", 6)
        monkeypatch.setattr(mlp, "MAX_GROUPS", 5)
        cli.build_parser.cache_clear()
        try:
            sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
            help_text = next(a.help for a in sub.choices["train"]._actions
                             if a.dest == "hidden_dim")
        finally:
            cli.build_parser.cache_clear()
        assert MlpConfig(n_classes=2, feature_dim=1, hidden_dim=30).groups == 5
        assert "at least 6;" in help_text and "min(5, width // 6)" in help_text, help_text

    @pytest.mark.parametrize("argv, name, value", [
        (["gen-data", "--separation", "inf"], "separation", "inf"),
        (["gen-data", "--separation=-inf"], "separation", "-inf"),
        (["gen-data", "--layout", "random", "--separation", "nan"], "spread", "nan"),
        (["compare", "--separation", "inf"], "separation", "inf"),
    ])
    def test_non_finite_layout_scale_exits_2_naming_it(self, tmp_path, capsys, argv, name,
                                                       value):
        """A non-finite separation would reach the means as inf * 0 = NaN, warning on
        the way; it is rejected first, with no warning."""
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + ["--stem", str(tmp_path / "d")] if argv[0] == "gen-data"
                          else argv)
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {name} must be finite, got {value}\n"
        assert not (tmp_path / "d.bin").exists()

    def test_schedule_the_validation_cannot_sample_exits_2_before_training(self, tmp_path,
                                                                            capsys):
        """At K=8, sigma_bar_max 25 leaves the 8-step validation's first step e ~ 6e-10
        of the label signal: train exits 2 naming the schedule, and writes nothing."""
        stem = _gen(tmp_path, "d", 64, seed=0, k=8)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "fit.csv"
        capsys.readouterr()
        rc = cli.main(["train", "--data", stem, "--sigma-bar-max", "25", "--epochs", "3",
                       "--checkpoint", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "sigma_bar_max=25.0" in err and "schedule_decay=0.7" in err and "t=1" in err
        assert not ckpt.exists() and not out.exists()

    @pytest.fixture(scope="class")
    def noisy_schedule(self, tmp_path_factory):
        """A K=4 checkpoint at sigma_bar_max 5: its 8-step validation samples, but one
        step from t=1 keeps e = exp(-20) ~ 2e-9 of the label signal."""
        tmp_path = tmp_path_factory.mktemp("noisy")
        stem = _gen(tmp_path, "d", 128, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        assert cli.main(["train", "--data", stem, "--sigma-bar-max", "5", "--checkpoint",
                         ckpt] + TINY_TRAIN) == 0
        return stem, ckpt

    @pytest.mark.parametrize("command, argv", [
        ("eval", ["--steps", "1"]), ("sweep", ["--n-eval", "8"]),
        ("ablate", ["--steps", "1", "--n-eval", "8"]), ("trace", ["--steps", "1"])])
    def test_a_step_grid_the_schedule_cannot_sample_exits_2(self, noisy_schedule, tmp_path,
                                                           capsys, command, argv):
        """Every command that samples exits 2 naming the schedule, as train and compare
        do, on a step grid the checkpoint's schedule cannot sample (sweep's grid starts
        at 1 step), and writes nothing."""
        stem, ckpt = noisy_schedule
        out = tmp_path / "out.csv"
        capsys.readouterr()
        rc = cli.main([command, "--data", stem, "--checkpoint", ckpt, "--out", str(out)] + argv)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "sigma_bar_max=5.0" in err and "schedule_decay=0.7" in err and "1-step" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--grad-clip", "nan"), ("--grad-clip", "inf")])
    def test_non_finite_training_flag_exits_2(self, tmp_path, capsys, flag, value):
        """A NaN grad_clip would never clip and a non-finite rate diverges: both are bad
        flags, not numerical failures."""
        stem = _gen(tmp_path, "d", 16, seed=0)
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        rc = cli.main(["train", "--data", stem, flag, value, "--checkpoint", str(ckpt)]
                      + TINY_TRAIN)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and not ckpt.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k=5\n\xff\xfe=1\n")
        capsys.readouterr()
        rc = cli.main(["gen-data", "--config", str(cfg), "--stem", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {cfg}: config file is not UTF-8 text\n"

    @pytest.mark.parametrize("topk", ["-2", "0"])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_trace_topk_below_one_exits_2(self, tmp_path, capsys, topk, with_out):
        stem = _gen(tmp_path, "d", 16, seed=0)
        out = ["--out", str(tmp_path / "t.csv")] if with_out else []
        capsys.readouterr()
        rc = cli.main(["trace", "--data", stem, "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--topk", topk] + out)
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: --topk must be >= 1\n"
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("argv, message", [
        (["--steps", "0"], "n_steps must be >= 1"),
        (["--k", "40", "--steps", "1"], "1-step evaluation: the step from t=1 keeps e="),
        (["--corruption-kind", "mask-coordinates", "--levels", "0,0.5"],
         "needs a whole-number level, got 0.5"),
        (["--corruption-kind", "mask-coordinates", "--levels", "0,3"], "cannot mask 3 of 2"),
    ])
    def test_compare_rejects_bad_flags_before_training(self, tmp_path, monkeypatch, capsys,
                                                       argv, message):
        """A flag combination no cell can run exits 2 before the first cell trains."""
        calls = []
        real = train.train_step
        monkeypatch.setattr(train, "train_step",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = cli.main(["compare", "--out", "grid.csv"] + argv)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and calls == []
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("command, flag, directory", [
        pytest.param(command, flag, directory, id=f"{command}-{flag}" + (
            "" if directory is None else f"-is-a-directory{directory}"))
        for command, flag, directory in [
            ("train", "--checkpoint", None), ("train", "--out", None), ("compare", "--out", None),
            ("gen-data", "--stem", None), ("gen-data", "--out", None),
            ("train", "--checkpoint", ""), ("train", "--checkpoint", ".meta"),
            ("train", "--out", ""), ("compare", "--out", ""), ("eval", "--out", ""),
            ("gen-data", "--stem", ".bin"), ("gen-data", "--stem", ".meta"),
            ("gen-data", "--out", "")]])
    def test_an_output_in_a_missing_directory_exits_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, command, flag, directory):
        """An output in a directory that does not exist (directory None), or whose path
        plus the suffix `directory` is an existing directory, exits 2 before the data is
        drawn, the model trained, or the grid or posterior run, and creates no file."""
        stem = _gen(tmp_path, "d", 64, seed=0)

        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        for module, name in ((cli, "fit"), (harness, "compare_grid"), (cli, "generate"),
                             (harness, "evaluate_on")):
            monkeypatch.setattr(module, name, no_work)
        if directory is None:
            path = str(tmp_path / "missing" / "x")
            message = f"directory {tmp_path / 'missing'} does not exist"
        else:
            path = str(tmp_path / "adir")
            os.mkdir(path + directory)
            message = f"{path + directory} is a directory"
        argv = {"train": ["train", "--data", stem, "--checkpoint", str(tmp_path / "m.ckpt")],
                "compare": ["compare"], "gen-data": ["gen-data", "--stem", str(tmp_path / "e")],
                "eval": ["eval", "--data", stem, "--checkpoint", str(tmp_path / "none.ckpt")]}
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        rc = cli.main(argv[command] + [flag, path])
        err = capsys.readouterr().err
        assert rc == 2 and err == f"error: {flag} {path}: {message}\n", err
        assert sorted(os.listdir(tmp_path)) == before

    def test_fractional_mask_level_exits_2(self, tmp_path, capsys):
        """A mask level of 0.5 would mask int(0.5) = 0 coordinates, silently."""
        stem = tmp_path / "d"
        capsys.readouterr()
        rc = cli.main(["gen-data", "--corruption", "mask-coordinates", "--level", "0.5",
                       "--stem", str(stem)])
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: mask-coordinates needs a whole-number level, got 0.5\n"
        assert not os.path.exists(str(stem) + ".bin")

    @pytest.mark.parametrize("via_config", [False, True])
    def test_stratified_time_flag_is_gone(self, tmp_path, capsys, via_config):
        """The stratified time draw was deleted: an old script's flag or config line
        fails loudly, not trains with the iid draw."""
        stem = _gen(tmp_path, "d", 16, seed=0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stratified_t=1\n")
        flag = ["--config", str(cfg)] if via_config else ["--stratified-t"]
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", stem, "--checkpoint", str(ckpt)] + flag + TINY_TRAIN)
        assert exc.value.code == 2
        assert "unrecognized arguments: --stratified-t" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_sampling_strategy_is_gone(self, tmp_path, capsys):
        """The random anchor rule was deleted: an old script's --strategy sampling
        exits 2 through argparse's choices."""
        stem = _gen(tmp_path, "d", 16, seed=0)
        out = tmp_path / "e.csv"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--data", stem, "--checkpoint", str(tmp_path / "none.ckpt"),
                      "--strategy", "sampling", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'sampling'" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_reports_the_rows_it_trained_on(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert cli.main(["compare", "--k", "3", "--levels", "0", "--ratios", "1,0.5",
                         "--n-train", "100", "--n-eval", "50", "--epochs", "1", "--steps", "2",
                         "--out", out]) == 0
        # 100 rows: ratio 1 uses all of them, and 0.5 rounds up to one 128-row batch, capped at 100
        n_train = [line.split(",")[2] for line in Path(out).read_text().splitlines()[1:]]
        assert n_train == ["100", "100"]


# Values a mutated flag takes: small, since a flag may size a dataset or a model.
FLAG_VALUES = ["-2", "-1", "0", "1", "2", "3", "0.5", "1e-300", "nan", "inf", "-inf", "x", "",
               "0,1", "1,0.5", "0,x"]


def _options(command):
    """Each optional flag of a subcommand: (flag, whether it takes a value)."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[command]
    return [(a.option_strings[-1], a.nargs != 0) for a in sub._actions
            if a.option_strings and a.dest != "help"]


class TestCliProperties:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """A valid, small invocation of every subcommand."""
        root = tmp_path_factory.mktemp("cli_props")
        stem = _gen(root, "d", 64, seed=0, k=3)
        ckpt = str(root / "m.ckpt")
        assert cli.main(["train", "--data", stem, "--epochs", "1", "--batch-size", "32",
                         "--hidden-dim", "16", "--blocks", "1", "--checkpoint", ckpt]) == 0
        model = {"--data": stem, "--checkpoint": ckpt}
        return root, {
            "gen-data": {"--k": "3", "--n": "16", "--stem": "g"},
            "train": {"--data": stem, "--epochs": "1", "--batch-size": "32",
                      "--hidden-dim": "16", "--blocks": "1", "--checkpoint": "t.ckpt"},
            "eval": {**model, "--steps": "2", "--n-samples": "2"},
            "sweep": {**model, "--n-eval": "4"},
            "ablate": {**model, "--steps": "2", "--n-eval": "4"},
            "trace": {**model, "--steps": "2"},
            "compare": {"--k": "3", "--levels": "0", "--ratios": "1", "--n-train": "48",
                        "--n-eval": "16", "--epochs": "1", "--steps": "2"},
        }

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutated_flags_exit_0_2_or_3(self, base, data):
        """Every subcommand, with its flags set to odd values, dropped or
        duplicated, exits 0, 2 or 3 and never raises."""
        root, invocations = base
        command = data.draw(st.sampled_from(sorted(invocations)))
        flags = dict(invocations[command])
        options = _options(command)
        for _ in range(data.draw(st.integers(1, 3))):
            flag, takes_value = data.draw(st.sampled_from(options))
            if data.draw(st.booleans()) and flag in flags:
                del flags[flag]
            else:
                flags[flag] = data.draw(st.sampled_from(FLAG_VALUES)) if takes_value else None
        argv = [command] + [f if v is None else f"{f}={v}" for f, v in flags.items()]
        cwd = os.getcwd()
        os.chdir(root)              # relative output paths land in the scratch directory
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects a flag
            rc = exc.code
        finally:
            os.chdir(cwd)
        assert rc in (0, 2, 3), argv
