"""The benchmark's workloads: set-up, the timed command, and output checks.

Every workload drives ``diffclass.cli.main`` in-process, one command at a
time, with the command's stdout and stderr captured (a closed loop with one
client).  The workload seed seeds the generated datasets and the
checkpoints; the program sees only the resulting files and flags.

All three use the reference model: the K=8 ring task in 2 dimensions, hidden
size 128, 3 blocks, batch size 128.

* ``train``   ``train --eval-data``: backward, clipping and Adam run only here.
* ``eval-cp`` ``eval --method cp --steps 8`` on a large held-out set: the
  scorer forward at large batch, the main inference path.
* ``sweep``   ``sweep`` with the default grid on a few hundred inputs: many
  small scorer calls, one or a few inputs at a time.

A run cycles over ``replicas`` replicas, each with its own checkpoint seed:
it sets up the replica, then runs the timed command on it.  Quality metrics are means over
the replicas, except final_loss, which is their median: the epoch-mean
score-entropy loss is heavy-tailed (a small t with an off-label anchor gives a
huge true ratio), so one unlucky training run would move a mean.  Where the
timed command reports no quality of its own (``train``: top1, mean_tv and nll;
``sweep``: nll), an untimed ``eval --method cp --steps 8`` of each replica's
checkpoint on the held-out set supplies it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("train", "eval-cp", "sweep")
STEPS = 8               # cp steps of eval-cp and of every quality probe
VALIDATION_ROWS = 512   # held-out inputs the per-epoch validation of `train` scores
BATCH = 128
EPOCHS = 1              # one long epoch: its mean loss is steadier than a short last epoch's
TASK_FLAGS = ["--k", "8", "--dim", "2", "--layout", "ring"]
MODEL_FLAGS = ["--hidden-dim", "128", "--blocks", "3", "--batch-size", str(BATCH)]

TEXT_COLUMNS = {"method", "strategy"}
MAY_BE_EMPTY = {"n_samples", "top5", "wall_ms"}   # blank for cp, K <= 5, or no --timing


@dataclass(frozen=True)
class Sizes:
    n_train: int = 32000    # training rows
    n_valid: int = 2048     # held-out rows for `train` and `sweep`
    n_eval: int = 8000      # held-out rows that `eval-cp` scores
    n_sweep: int = 200      # inputs per sweep grid cell
    replicas: int = 5       # checkpoints per run
    cycle_setup_s: float = 0.3  # set up repeatedly before each command until this long,
                                # so a fast set-up has many samples


TINY = Sizes(n_train=256, n_valid=64, n_eval=64, n_sweep=4, replicas=2, cycle_setup_s=0.0)


class Ledger:
    """Operations attempted and failed: every command and every output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return bool(ok)


class HashStore:
    """Digests of deterministic outputs, kept across runs at one seed.

    Keyed by the program's source digest, workload, seed and sizes, so a
    changed program or size starts a fresh entry.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}
        self.entry = self.data.setdefault(key, {})

    def matches(self, label: str, digest: str) -> bool:
        return self.entry.setdefault(label, digest) == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def read_dataset(stem: str):
    """Features, labels and meta of a gen-data file, read without the program."""
    meta = dict(line.split("=", 1) for line in Path(stem + ".meta").read_text().splitlines())
    k, dim = int(meta["k"]), int(meta["dim"])
    records = np.fromfile(stem + ".bin", dtype=np.dtype([("y", "<f4", (dim,)), ("c", "<i4")]))
    return records["y"].astype(np.float64), records["c"], meta, k


def bayes_accuracy(stem: str, rows: int | None = None) -> float:
    """Top-1 of the exact posterior on a dataset's first rows (no corruption).

    An oracle of its own: Gaussian classes with shared isotropic variance,
    so the posterior argmax is the largest log prior minus squared distance.
    """
    y, labels, meta, k = read_dataset(stem)
    if meta["corruption"] != "none":
        raise ValueError("the oracle covers uncorrupted datasets only")
    y, labels = y[:rows], labels[:rows]
    means = np.array(meta["means"].split(","), dtype=np.float64).reshape(k, -1)
    priors = np.array(meta["priors"].split(","), dtype=np.float64)
    logp = np.log(priors) - ((y[:, None, :] - means[None]) ** 2).sum(axis=2) / (
        2.0 * float(meta["variance"]))
    return float((logp.argmax(axis=1) == labels).mean())


def ceiling(bayes: float, *counts: int) -> float:
    """Exact-posterior accuracy plus 3 standard errors over the given sample sizes."""
    return bayes + 3.0 * math.sqrt(bayes * (1.0 - bayes) * sum(1.0 / n for n in counts))


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def finite_fields(rows: list[dict]) -> bool:
    """Every numeric field parses as a finite float; blanks only where documented."""
    for row in rows:
        for column, value in row.items():
            if column in TEXT_COLUMNS:
                continue
            if value == "":
                if column not in MAY_BE_EMPTY:
                    return False
                continue
            try:
                if not math.isfinite(float(value)):
                    return False
            except (TypeError, ValueError):
                return False
    return True


def cell_nfe(row: dict, k: int) -> int:
    steps = int(row["steps"])
    return {"cp": steps, "cl": int(row["n_samples"] or 0) * steps, "full": k * steps}[row["method"]]


class Workload:
    """One workload at one seed, with its files in ``workdir``."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: Path,
                 ledger: Ledger, store: HashStore, cli_main) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.dir = workdir
        self.ledger = ledger
        self.store = store
        self.cli_main = cli_main
        self.n_heldout = sizes.n_eval if name == "eval-cp" else sizes.n_valid
        self.train_stem = self._path("train")
        self.heldout_stem = self._path("heldout")
        self.k = 0
        self.bayes: dict[int | None, float] = {}
        self.quality: dict[int, dict[str, float]] = {}
        self.cli_nfe = 0        # rows x nfe the CLI reported, summed over commands
        self.train_runs = 0     # train commands issued

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    # --- commands ----------------------------------------------------------

    def cli(self, *argv: str) -> bool:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(list(argv))
        except Exception:  # a crash is a failed operation, reported with its traceback
            code, err = None, io.StringIO(traceback.format_exc())
        return self.ledger.check(code == 0, f"`{' '.join(argv[:1])}` exited {code}: "
                                            f"{err.getvalue().strip()[-400:]}")

    def _train(self, r: int) -> bool:
        self.train_runs += 1
        return self.cli("train", "--data", self.train_stem, "--eval-data", self.heldout_stem,
                        "--epochs", str(EPOCHS), *MODEL_FLAGS,
                        "--seed", str(1000 * self.seed + r), "--checkpoint",
                        self._path(f"ckpt{r}"), "--out", self._path(f"fit{r}.csv"))

    def setup(self, r: int) -> bool:
        """Inputs for replica r: both datasets and, for eval-cp and sweep, the checkpoint."""
        ok = (self.cli("gen-data", *TASK_FLAGS, "--n", str(self.sizes.n_train),
                       "--seed", str(2 * self.seed), "--stem", self.train_stem)
              and self.cli("gen-data", *TASK_FLAGS, "--n", str(self.n_heldout),
                           "--seed", str(2 * self.seed + 1), "--stem", self.heldout_stem))
        if ok and self.name != "train":
            ok = self._train(r)
        return ok

    def command(self, r: int) -> bool:
        """The timed command on replica r."""
        if self.name == "train":
            return self._train(r)
        if self.name == "eval-cp":
            return self.cli("eval", "--data", self.heldout_stem, "--checkpoint",
                            self._path(f"ckpt{r}"), "--method", "cp", "--steps", str(STEPS),
                            "--seed", str(self.seed), "--out", self._path(f"eval{r}.csv"))
        return self.cli("sweep", "--data", self.heldout_stem, "--checkpoint",
                        self._path(f"ckpt{r}"), "--n-eval", str(self.sizes.n_sweep),
                        "--seed", str(self.seed), "--out", self._path(f"sweep{r}.csv"))

    def rows(self, r: int) -> int:
        """Rows the timed command processed: examples, inputs, or inputs x cells."""
        if self.name == "train":
            return EPOCHS * self.sizes.n_train
        if self.name == "eval-cp":
            return self.n_heldout
        return self.sizes.n_sweep * len(read_csv(self._path(f"sweep{r}.csv")))

    # --- checks ------------------------------------------------------------

    def _same_bytes(self, *names: str) -> None:
        for name in names:
            digest = hashlib.sha256(Path(self._path(name)).read_bytes()).hexdigest()
            self.ledger.check(self.store.matches(name, digest),
                              f"{name} differs from an earlier run at seed {self.seed}")

    def _bayes(self, rows: int | None) -> float:
        if rows not in self.bayes:
            self.bayes[rows] = bayes_accuracy(self.heldout_stem, rows)
        return self.bayes[rows]

    def _csv(self, name: str) -> list[dict]:
        rows = read_csv(self._path(name))
        self.ledger.check(bool(rows) and finite_fields(rows), f"{name}: a field is not finite")
        return rows

    def check_setup(self, r: int) -> None:
        self._same_bytes("train.bin", "train.meta", "heldout.bin", "heldout.meta")
        self.k = read_dataset(self.heldout_stem)[3]
        if self.name != "train":
            self._check_fit(r)

    def _check_fit(self, r: int) -> None:
        name = f"fit{r}.csv"
        rows = self._csv(name)
        self._same_bytes(name, f"ckpt{r}", f"ckpt{r}.meta")
        self.ledger.check(len(rows) == EPOCHS, f"{name}: {len(rows)} epochs logged, {EPOCHS} run")
        last = rows[-1]
        n_valid = min(VALIDATION_ROWS, self.n_heldout)
        self.ledger.check(float(last["top1"]) <= ceiling(self._bayes(n_valid), n_valid),
                          f"{name}: validation top1 above the exact-posterior ceiling")
        self.quality.setdefault(r, {})["final_loss"] = float(last["loss"])

    def _check_eval(self, name: str) -> dict:
        rows = self._csv(name)
        row = rows[0]
        self._same_bytes(name)
        self.ledger.check(len(rows) == 1 and int(row["nfe"]) == STEPS,
                          f"{name}: nfe {row['nfe']}, expected {STEPS}")
        self.ledger.check(float(row["top1"]) <= ceiling(self._bayes(None), self.n_heldout),
                          f"{name}: top1 above the exact-posterior ceiling")
        self.cli_nfe += int(row["nfe"]) * self.n_heldout
        return row

    def check_command(self, r: int) -> None:
        if self.name == "train":
            self._check_fit(r)
        elif self.name == "eval-cp":
            row = self._check_eval(f"eval{r}.csv")
            self.quality.setdefault(r, {}).update(
                top1=float(row["top1"]), mean_tv=float(row["mean_tv"]), nll=float(row["nll"]))
        else:
            name = f"sweep{r}.csv"
            rows = self._csv(name)
            self._same_bytes(name)
            bound = ceiling(self._bayes(None), self.sizes.n_sweep, self.n_heldout)
            for row in rows:
                cell = f"{name}: {row['method']}@{row['steps']}"
                self.ledger.check(int(row["nfe"]) == cell_nfe(row, self.k),
                                  f"{cell}: nfe {row['nfe']}, expected {cell_nfe(row, self.k)}")
                self.ledger.check(float(row["top1"]) <= bound,
                                  f"{cell}: top1 above the exact-posterior ceiling")
                self.cli_nfe += int(row["nfe"]) * self.sizes.n_sweep
            self.quality.setdefault(r, {}).update(
                top1=float(np.mean([float(row["top1"]) for row in rows])),
                mean_tv=float(np.mean([float(row["tv"]) for row in rows])))

    def check_trace(self, tracer_metrics: dict) -> None:
        """Cross-check the tracer's counts against what the CLI reported."""
        steps = self.train_runs * EPOCHS * math.ceil(self.sizes.n_train / BATCH)
        self.ledger.check(tracer_metrics["train.steps"] == steps,
                          f"train.steps {tracer_metrics['train.steps']}, expected {steps}")
        self.ledger.check(tracer_metrics["sampler.nfe"] == self.cli_nfe,
                          f"sampler.nfe {tracer_metrics['sampler.nfe']}, CLI reported {self.cli_nfe}")

    def probe(self) -> None:
        """Quality the timed command does not report: an untimed cp eval per replica."""
        if self.name == "eval-cp":
            return
        for r in range(self.sizes.replicas):
            name = f"probe{r}.csv"
            if self.cli("eval", "--data", self.heldout_stem, "--checkpoint",
                        self._path(f"ckpt{r}"), "--method", "cp", "--steps", str(STEPS),
                        "--seed", str(self.seed), "--out", self._path(name)):
                row = self._check_eval(name)
                self.quality[r]["nll"] = float(row["nll"])
                if self.name == "train":
                    self.quality[r].update(top1=float(row["top1"]), mean_tv=float(row["mean_tv"]))

    def quality_metrics(self) -> dict[str, float]:
        per_replica = [self.quality[r] for r in range(self.sizes.replicas)]
        out = {m: float(np.mean([q[m] for q in per_replica])) for m in ("top1", "mean_tv", "nll")}
        out["final_loss"] = float(np.median([q["final_loss"] for q in per_replica]))
        return out


def store_key(digest: str, workload: str, seed: int, sizes: Sizes) -> str:
    return f"{digest}/{workload}/{seed}/" + ",".join(f"{k}={v}" for k, v in asdict(sizes).items())
