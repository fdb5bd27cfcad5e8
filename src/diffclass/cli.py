"""Command-line entry points.

Subcommands: gen-data, train, eval, sweep, ablate, trace, compare.
A plain key=value config file can seed any flag of the chosen subcommand;
explicit flags win.  Exit codes: 0 success, 2 validation error, 3
numerical failure.

main can run any number of commands in one process.  They share one
parser (build_parser), built by the first, and carry nothing else from one
command to the next: a config file's entries reach only the argv of the
command that names it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, mlp
from .data import (CORRUPTION_KINDS, CorruptionSpec, MixtureTask, generate,
                   load_dataset, save_dataset)
from .errors import NumericalError, ValidationError
from .mlp import MlpScorer
from .sampler import METHOD_SAMPLERS, STRATEGIES, SamplerConfig
from .train import EVAL_SUBSET, TrainConfig, TrainingDiverged, fit

FRESH_DRAWS = ("Scores --n-eval fresh draws of the dataset's task and corruption, seeded by "
               "--seed, through harness.evaluate; unlike eval and trace, not the rows of --data.")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="key=value file providing flag defaults")
    parser.add_argument("--out", help="output CSV path")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Building it makes one HelpFormatter per flag, ~3 ms; parse_args does
    not change the parser, and a --config file only rewrites argv
    (_apply_config), so one parser serves every command of a process.
    """
    parser = argparse.ArgumentParser(prog="diffclass",
                                     description="Diffusion-based posterior estimation "
                                                 "for classification tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled mixture dataset")
    _add_common(p)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--layout", choices=("ring", "random"), default="ring")
    p.add_argument("--separation", type=float, default=3.0,
                   help="nearest-neighbor mean distance (ring) or spread (random)")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--corruption", choices=CORRUPTION_KINDS, default="none")
    p.add_argument("--level", type=float, default=0.0)
    p.add_argument("--stem", required=True, help="output path stem (.bin/.meta)")

    p = sub.add_parser("train", help="train a scorer on a dataset",
                       description="Train a scorer by score entropy; each example of a "
                                   "batch draws one noise time, iid uniform on [0, 1).")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset stem from gen-data")
    p.add_argument("--eval-data", help="held-out dataset stem for per-epoch metrics (default: "
                                       f"{EVAL_SUBSET} fresh draws of the dataset's task, "
                                       "on a stream of their own)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--sigma-bar-max", type=float, default=TrainConfig.sigma_bar_max)
    p.add_argument("--schedule-decay", type=float, default=TrainConfig.schedule_decay)
    p.add_argument("--grad-clip", type=float, default=TrainConfig.grad_clip)
    p.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim,
                   help=f"scorer width, at least {mlp.MIN_GROUP_UNITS}; its GroupNorm groups "
                        f"number the largest divisor of the width up to "
                        f"min({mlp.MAX_GROUPS}, width // {mlp.MIN_GROUP_UNITS})")
    p.add_argument("--blocks", type=int, default=TrainConfig.n_blocks)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock columns (breaks byte-level determinism)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset",
                       description="Evaluate a checkpoint on a dataset.  --seed keys only "
                                   "cl's trajectories, the only random draws.")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", choices=sorted(METHOD_SAMPLERS), default="cp")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--n-samples", type=int, default=SamplerConfig.n_samples)
    p.add_argument("--strategy", choices=STRATEGIES, default=SamplerConfig.strategy,
                   help="cp's anchor rule; applies only to cp, so cl and full leave "
                        "the CSV's strategy cell empty")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("sweep", help="accuracy vs scorer-call budget", description=FRESH_DRAWS)
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset stem: its task and corruption")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-eval", type=int, default=2000, help="fresh draws to score")

    p = sub.add_parser("ablate", help="cp under each anchor rule (argmax, argmin)",
                       description=FRESH_DRAWS)
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset stem: its task and corruption")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--n-eval", type=int, default=2000, help="fresh draws to score")

    p = sub.add_parser("trace", help="per-step top-k probabilities for one input")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input-id", type=int, default=0)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--topk", type=int, default=5)

    p = sub.add_parser("compare", help="diffusion vs cross-entropy uncertainty grid")
    _add_common(p)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--corruption-kind", choices=CORRUPTION_KINDS[1:], default="additive-noise")
    p.add_argument("--levels", help="comma-separated corruption levels (default: 0,1,2 "
                                    "for mask-coordinates, else 0,0.5,1.0)")
    p.add_argument("--ratios", default="0.25,0.5,1.0", help="comma-separated training ratios")
    p.add_argument("--n-train", type=int, default=4000)
    p.add_argument("--n-eval", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--steps", type=int, default=8)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Insert key=value file entries as flags after the subcommand; argv wins."""
    if "--config" not in argv and not any(a.startswith("--config=") for a in argv):
        return argv
    expanded: list[str] = []
    path = None
    skip = False
    for i, a in enumerate(argv):
        if skip:
            skip = False
            continue
        if a == "--config":
            if i + 1 == len(argv):
                raise ValidationError("--config needs a file path")
            path = argv[i + 1]
            skip = True
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
        else:
            expanded.append(a)
    flags: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: config file is not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    # subcommand first, then config defaults, then explicit flags (last wins)
    return expanded[:1] + flags + expanded[1:]


def _check_output_dirs(args) -> None:
    """Raise ValidationError naming the flag and path when a file the command writes
    (--out, gen-data's <stem>.bin and .meta, train's --checkpoint and its .meta)
    would go in a directory that does not exist, or is a directory, before any
    work; creates nothing."""
    written = {"gen-data": [("stem", ".bin"), ("stem", ".meta")],
               "train": [("checkpoint", ""), ("checkpoint", ".meta")]}.get(args.command, [])
    for name, suffix in [("out", ""), *written]:
        path = getattr(args, name)
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"--{name} {path}: directory {os.path.dirname(path)} "
                                  f"does not exist")
        if path is not None and os.path.isdir(path + suffix):
            raise ValidationError(f"--{name} {path}: {path + suffix} is a directory")


def _run_gen_data(args) -> int:
    if args.layout == "ring":
        task = MixtureTask.ring(args.k, args.dim, args.separation, args.variance, args.seed)
    else:
        task = MixtureTask.random(args.k, args.dim, args.separation, args.variance, args.seed)
    corruption = CorruptionSpec(args.corruption, args.level)
    y, labels = generate(task, args.n, corruption, np.random.default_rng(args.seed))
    save_dataset(args.stem, y, labels, task, corruption, args.seed)
    print(f"wrote {args.n} records to {args.stem}.bin")
    return 0


def _run_train(args) -> int:
    y, labels, task, corruption, _ = load_dataset(args.data)
    if args.eval_data:
        ey, ec, eval_task, eval_corruption, _ = load_dataset(args.eval_data)
        _check_same_task(args.data, task, corruption, args.eval_data, eval_task,
                         eval_corruption)
        eval_data = (ey, ec)
    else:
        # Its own stream: fit's default_rng(seed) then trains as it does with --eval-data.
        eval_data = generate(task, EVAL_SUBSET, corruption, np.random.default_rng([args.seed, 1]))
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        seed=args.seed, sigma_bar_max=args.sigma_bar_max,
        schedule_decay=args.schedule_decay, grad_clip=args.grad_clip,
        hidden_dim=args.hidden_dim, n_blocks=args.blocks)
    try:
        scorer, metrics = fit(config, task, (y, labels), eval_data, corruption)
    except TrainingDiverged as exc:
        # Keep what the finished epochs made; main reports the failure and exits 3.
        _save_training(args, exc.scorer, exc.metrics)
        raise
    _save_training(args, scorer, metrics)
    final = metrics[-1]
    print(f"trained {args.epochs} epochs: loss={final.loss:.5f} "
          f"tv={final.tv:.4f} top1={final.top1:.4f}")
    return 0


def _check_same_task(stem: str, task: MixtureTask, corruption: CorruptionSpec, eval_stem: str,
                     eval_task: MixtureTask, eval_corruption: CorruptionSpec) -> None:
    """Raise ValidationError unless the held-out file, scored against the training
    task's posterior, is of that task; only the seed, which records the draw, may differ."""
    differ = [name for name in ("k", "dim", "means", "variance", "priors")
              if not np.array_equal(getattr(task, name), getattr(eval_task, name))]
    differ += ["corruption"] if corruption != eval_corruption else []
    if differ:
        raise ValidationError(f"{eval_stem}: the held-out data's {', '.join(differ)} "
                              f"differ from the training data {stem}'s")


def _save_training(args, scorer: MlpScorer, metrics: list) -> None:
    """Write the checkpoint and, when any epoch finished, the per-epoch CSV."""
    scorer.save(args.checkpoint)
    if args.out and metrics:
        rows = [{"epoch": m.epoch, "loss": m.loss, "tv": m.tv, "top1": m.top1,
                 "wall_ms": m.wall_ms if args.timing else float("nan")} for m in metrics]
        harness.write_csv(args.out, rows, ["epoch", "loss", "tv", "top1", "wall_ms"])


def _load_scorer(path: str, task: MixtureTask) -> MlpScorer:
    """Load a checkpoint and check it was trained for the dataset's K and feature dim."""
    scorer = MlpScorer.load(path)
    if (scorer.cfg.n_classes, scorer.cfg.feature_dim) != (task.k, task.dim):
        raise ValidationError(
            f"{path}: checkpoint has n_classes={scorer.cfg.n_classes}, "
            f"feature_dim={scorer.cfg.feature_dim}; the dataset has k={task.k}, dim={task.dim}")
    return scorer


def _run_eval(args) -> int:
    y, labels, task, corruption, _ = load_dataset(args.data)
    scorer = _load_scorer(args.checkpoint, task)
    cfg = SamplerConfig(n_steps=args.steps, strategy=args.strategy,
                        n_samples=args.n_samples, seed=args.seed)
    report = harness.evaluate_on(scorer, task, corruption, y, labels, cfg,
                                 scorer.schedule, method=args.method, timing=args.timing)
    row = {"method": args.method, "steps": args.steps,
           "n_samples": args.n_samples if args.method == "cl" else "",
           "strategy": args.strategy if args.method == "cp" else "", "seed": args.seed,
           "top1": report.top1, "top5": report.top5, "mean_tv": report.mean_tv,
           "nll": report.nll, "nfe": report.nfe, "wall_ms": report.wall_ms}
    if args.out:
        harness.write_csv(args.out, [row])
    print(f"{args.method}@{args.steps}: top1={report.top1:.4f} tv={report.mean_tv:.4f} "
          f"nll={report.nll:.4f} nfe={report.nfe}")
    return 0


def _run_sweep(args) -> int:
    _, _, task, corruption, _ = load_dataset(args.data)
    scorer = _load_scorer(args.checkpoint, task)
    rows = harness.nfe_sweep(scorer, task, corruption, scorer.schedule,
                             args.n_eval, args.seed)
    if args.out:
        harness.write_csv(args.out, rows)
    for row in rows:
        print(row)
    return 0


def _run_ablate(args) -> int:
    _, _, task, corruption, _ = load_dataset(args.data)
    scorer = _load_scorer(args.checkpoint, task)
    rows = harness.selection_ablation(scorer, task, corruption, scorer.schedule,
                                      args.steps, args.n_eval, args.seed)
    if args.out:
        harness.write_csv(args.out, rows)
    for row in rows:
        print(row)
    return 0


def _run_trace(args) -> int:
    if args.topk < 1:
        raise ValidationError("--topk must be >= 1")
    y, _, task, _, _ = load_dataset(args.data)
    if not (0 <= args.input_id < y.shape[0]):
        raise ValidationError(f"input-id {args.input_id} out of range")
    scorer = _load_scorer(args.checkpoint, task)
    cfg = SamplerConfig(n_steps=args.steps, seed=args.seed)
    rows = harness.trace_topk(scorer, y[args.input_id], scorer.schedule, cfg,
                              args.topk, input_id=args.input_id)
    if args.out:
        harness.write_csv(args.out, rows, ["input_id", "step", "t", "class", "prob"])
    print(f"traced input {args.input_id} over {args.steps} steps")
    return 0


def _run_compare(args) -> int:
    task = MixtureTask.ring(args.k, args.dim, args.separation, args.variance, args.seed)
    if args.levels is None:
        args.levels = "0,1,2" if args.corruption_kind == "mask-coordinates" else "0,0.5,1.0"
    try:
        levels = [float(v) for v in args.levels.split(",")]
        ratios = [float(v) for v in args.ratios.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--levels/--ratios take comma-separated numbers: {exc}") from None
    config = TrainConfig(epochs=args.epochs, seed=args.seed)
    rows = harness.compare_grid(task, levels, ratios, config, args.n_train,
                                args.n_eval, args.steps, args.seed,
                                corruption_kind=args.corruption_kind)
    if args.out:
        harness.write_csv(args.out, rows)
    for row in rows:
        print(f"level={row['corruption_level']} ratio={row['train_ratio']}: "
              f"diffusion={row['diffusion_top1']:.4f} baseline={row['baseline_top1']:.4f} "
              f"gain={row['gain']:+.4f} (bayes={row['bayes_top1']:.4f})")
    return 0


_RUNNERS = {
    "gen-data": _run_gen_data,
    "train": _run_train,
    "eval": _run_eval,
    "sweep": _run_sweep,
    "ablate": _run_ablate,
    "trace": _run_trace,
    "compare": _run_compare,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0")
        _check_output_dirs(args)
        return _RUNNERS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
