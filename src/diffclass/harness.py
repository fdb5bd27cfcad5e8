"""Evaluation metrics, sweeps, and the comparison grid.

Everything here reduces to: draw evaluation inputs from the task, run a
configured posterior estimator over all of them at once, and score the
estimates against the exact posterior.  Results are emitted as long-format
CSV rows so the downstream plotting story stays language-neutral.  The
comparison grid's cross-entropy baseline is the scorer's network at one
fixed (anchor, t); the grid trains it and the diffusion scorer with
train.fit on the same rows, passing no held-out data, so neither runs
fit's per-epoch validation.

With a fixed seed every function here is deterministic with one BLAS
thread, whatever the sampler's worker count (sampler.WORKERS); wall-clock
fields are left empty unless timing is requested so CSV outputs stay
byte-identical across runs.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from .errors import ValidationError
from .sampler import (METHOD_SAMPLERS, STRATEGIES, SamplerConfig, check_samplable,
                      posterior_cl, posterior_cp, posterior_cp_batch, posterior_full,
                      step_times)
from .schedule import LogLinearSchedule
from .score import PROB_FLOOR, Scorer
from .train import TrainConfig, ce_baseline_proba, fit

# (method, steps, n_samples) cells of the quality-efficiency sweep (nfe_sweep).
SWEEP_GRID = (("cp", 1, 1), ("cp", 2, 1), ("cp", 4, 1), ("cp", 8, 1), ("cp", 16, 1),
              ("cl", 2, 16), ("cl", 4, 16), ("cl", 8, 16), ("cl", 2, 64),
              ("full", 2, 1), ("full", 4, 1))


@dataclass(frozen=True)
class EvalReport:
    top1: float
    top5: float          # NaN when the task has 5 or fewer classes
    mean_tv: float
    nll: float
    nfe: int
    wall_ms: float


def label_ranks(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each true label's place among its row's classes by falling probability, 0 at
    the top, ties broken by lowest class index: one stable sort per row."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return np.argmax(order == labels[:, None], axis=1)


def topk_hits(probs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Whether the true label ranks in the top k; ties broken by lowest class index."""
    return label_ranks(probs, labels) < k


def _run_method(method: str, features: np.ndarray, scorer: Scorer,
                schedule: LogLinearSchedule, cfg: SamplerConfig):
    """Posterior estimates for rows of inputs; returns (probs, nfe per input)."""
    # The estimator is looked up by its name here at call time, not through
    # METHOD_SAMPLERS, so a wrapper installed on these module bindings (the
    # benchmark's tracer) sees the call.
    estimator = {"cp": posterior_cp, "cl": posterior_cl, "full": posterior_full}[method]
    est = estimator(features, scorer, schedule, cfg)
    return est.probs, est.nfe


def evaluate_on(scorer: Scorer, task: MixtureTask, corruption: CorruptionSpec,
                features: np.ndarray, labels: np.ndarray, sampler_cfg: SamplerConfig,
                schedule: LogLinearSchedule, method: str = "cp",
                timing: bool = False) -> EvalReport:
    """Score a posterior estimator against the exact posterior on given data."""
    if method not in METHOD_SAMPLERS:
        raise ValidationError(f"method must be one of {tuple(METHOD_SAMPLERS)}")
    n_eval = features.shape[0]
    t0 = time.perf_counter()
    probs, nfe = _run_method(method, features, scorer, schedule, sampler_cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3 if timing else float("nan")
    ranks = label_ranks(probs, labels)
    top1 = float((ranks < 1).mean())
    top5 = float((ranks < 5).mean()) if task.k > 5 else float("nan")
    # The exact posteriors are taken after the estimator, so they do not add to its peak memory.
    q_true = true_posterior_batch(task, features, corruption)
    mean_tv = float(0.5 * np.abs(probs - q_true).sum(axis=1).mean())
    nll = float(-np.log(np.maximum(probs[np.arange(n_eval), labels], PROB_FLOOR)).mean())
    return EvalReport(top1, top5, mean_tv, nll, nfe, wall_ms)


def evaluate(scorer: Scorer, task: MixtureTask, corruption: CorruptionSpec,
             sampler_cfg: SamplerConfig, n_eval: int, rng: np.random.Generator,
             schedule: LogLinearSchedule, method: str = "cp") -> EvalReport:
    """Score a posterior estimator against the exact posterior on fresh draws, untimed."""
    if n_eval < 1:
        raise ValidationError("n_eval must be >= 1")
    features, labels = generate(task, n_eval, corruption, rng)
    return evaluate_on(scorer, task, corruption, features, labels, sampler_cfg,
                       schedule, method=method)


def nfe_sweep(scorer: Scorer, task: MixtureTask, corruption: CorruptionSpec,
              schedule: LogLinearSchedule, n_eval: int, seed: int) -> list[dict]:
    """Accuracy versus scorer-evaluation budget: one row per SWEEP_GRID cell, each
    scored on the same n_eval fresh draws of default_rng(seed)."""
    rows = []
    for method, steps, n_samples in SWEEP_GRID:
        cfg = SamplerConfig(n_steps=steps, n_samples=n_samples, seed=seed)
        report = evaluate(scorer, task, corruption, cfg, n_eval,
                          np.random.default_rng(seed), schedule, method=method)
        rows.append({
            "method": method, "steps": steps, "n_samples": n_samples if method == "cl" else "",
            "nfe": report.nfe, "top1": report.top1, "top5": report.top5,
            "tv": report.mean_tv,
        })
    return rows


def selection_ablation(scorer: Scorer, task: MixtureTask, corruption: CorruptionSpec,
                       schedule: LogLinearSchedule, steps: int, n_eval: int,
                       seed: int) -> list[dict]:
    """Class-probability sampler under each anchor-selection strategy.

    Strategies can only differ for imperfect scorers; every row that ties
    the highest top1 is flagged best, nothing is asserted about which wins.
    """
    rows = []
    for strategy in STRATEGIES:
        cfg = SamplerConfig(n_steps=steps, strategy=strategy)
        report = evaluate(scorer, task, corruption, cfg, n_eval,
                          np.random.default_rng(seed), schedule, method="cp")
        rows.append({"strategy": strategy, "top1": report.top1, "top5": report.top5,
                     "nfe": report.nfe})
    best = max(row["top1"] for row in rows)
    for row in rows:
        row["best"] = int(row["top1"] == best)
    return rows


def trace_topk(scorer: Scorer, y: np.ndarray, schedule: LogLinearSchedule,
               sampler_cfg: SamplerConfig, k: int, input_id: int = 0) -> list[dict]:
    """Per-step top-k probabilities of one class-probability run (long format)."""
    cfg = replace(sampler_cfg, record_trajectory=True)
    est = posterior_cp(y, scorer, schedule, cfg)
    assert est.trajectory is not None
    # Snapshot 0 is the start at t=1; snapshot s is the state after step s.
    times = [t for t, _ in step_times(cfg.n_steps)] + [0.0]
    rows = []
    for step, (p, t) in enumerate(zip(est.trajectory, times)):
        order = np.argsort(-p, kind="stable")[:k]
        for cls in order:
            rows.append({"input_id": input_id, "step": step, "t": t,
                         "class": int(cls), "prob": float(p[cls])})
    return rows


def compare_grid(task: MixtureTask, corruption_levels: list[float], ratios: list[float],
                 config: TrainConfig, n_train: int, n_eval: int, steps: int,
                 seed: int, corruption_kind: str = "additive-noise") -> list[dict]:
    """Diffusion-classifier vs cross-entropy top-1 across an uncertainty grid.

    Each cell subsamples the training set to the given ratio, trains both
    models from the same data, and reports top-1 plus the exact-posterior
    ceiling; the gain column carries no sign requirement.  A cell trains on
    at least one batch of rows, and never on more than n_train; n_train
    reports the rows it used.  Every argument is checked before a cell trains.
    """
    if not all(0.0 < ratio <= 1.0 for ratio in ratios):
        raise ValidationError(f"training ratios must be in (0, 1], got {ratios}")
    cp_cfg = SamplerConfig(n_steps=steps)
    cell_cfg = replace(config, seed=seed)
    check_samplable(cell_cfg.schedule(), task.k, steps, "evaluation")
    levels = []
    for level in corruption_levels:
        corruption = (CorruptionSpec("none", 0.0) if level == 0.0
                      else CorruptionSpec(corruption_kind, level))
        data_rng = np.random.default_rng([seed, int(level * 1e6)])
        levels.append((level, corruption, generate(task, n_train, corruption, data_rng),
                       generate(task, n_eval, corruption, data_rng)))
    rows = []
    for level, corruption, full_train, (eval_y, eval_c) in levels:
        bayes_pred = np.argmax(true_posterior_batch(task, eval_y, corruption), axis=1)
        bayes_top1 = float((bayes_pred == eval_c).mean())
        for ratio in ratios:
            n_sub = min(n_train, max(config.batch_size, int(round(n_train * ratio))))
            sub = (full_train[0][:n_sub], full_train[1][:n_sub])
            scorer, _ = fit(cell_cfg, task, sub)
            probs, _ = posterior_cp_batch(eval_y, scorer, cell_cfg.schedule(), cp_cfg)
            diff_top1 = float(topk_hits(probs, eval_c, 1).mean())
            baseline, _ = fit(cell_cfg, task, sub, cross_entropy=True)
            base_top1 = float(topk_hits(ce_baseline_proba(baseline, eval_y), eval_c, 1).mean())
            rows.append({
                "corruption_level": level, "train_ratio": ratio, "n_train": n_sub,
                "diffusion_top1": diff_top1, "baseline_top1": base_top1,
                "gain": diff_top1 - base_top1, "bayes_top1": bayes_top1,
                "bayes_se": float(np.sqrt(bayes_top1 * (1 - bayes_top1) / n_eval)),
            })
    return rows


def write_csv(path: str, rows: list[dict], columns: list[str] | None = None) -> None:
    """Long-format CSV: header row, UTF-8, LF line endings."""
    if not rows:
        raise ValidationError("no rows to write")
    columns = list(rows[0].keys()) if columns is None else columns
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(row.get(k, "")) for k in columns})


def _format_cell(value) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            return ""
        return repr(float(value))
    return str(value)
