"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Reference constants were computed by independent oracles before the build
(hand arithmetic, series expansions, and a 1e6-draw Monte-Carlo run).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.harness import compare_grid, topk_hits, write_csv
from diffclass.loss import loss_grad_wrt_logits, score_entropy_terms
from diffclass.sampler import (SamplerConfig, posterior_cl, posterior_cp,
                               posterior_cp_batch, posterior_full, reverse_step_full)
from diffclass.schedule import LogLinearSchedule
from diffclass.train import TrainConfig, fit
from diffclass.transition import forward_marginal
from oracles import (ExactScorer, ScoreColumn, apply_rate, fit_data, matrix_exponential_oracle,
                     score_entropy_grad, score_entropy_loss)

NONE = CorruptionSpec()

# Pinned 8-class reference task: ring at 3-sigma nearest-neighbor separation.
# Exact-posterior accuracy from a 1e6-draw Monte-Carlo oracle (seed 12345),
# frozen before the build: 0.866563 +- 0.00034.
PINNED_BAYES = 0.866563
REFERENCE_TASK = MixtureTask.ring(8, 2, separation=3.0)
REFERENCE_TRAIN = TrainConfig(epochs=15, batch_size=128, learning_rate=2e-3,
                              sigma_bar_max=0.6, schedule_decay=0.7)

# Mild 10-class task and schedule for the exact-scorer convergence criteria:
# chosen so the Euler kernel stays well-behaved at the tested step counts.
TV_TASK = MixtureTask.ring(10, 2, separation=2.0)
TV_SCHEDULE = LogLinearSchedule(1.0, 0.9)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _exact_scorer(task, schedule):
    return ExactScorer(lambda y: true_posterior_batch(task, y), task.k, schedule)


@pytest.fixture(scope="module")
def trained_reference():
    """Scorers trained on the pinned task for seeds 0..2, with a shared test set."""
    scorers = {}
    for seed in (0, 1, 2):
        config = TrainConfig(**{**REFERENCE_TRAIN.__dict__, "seed": seed})
        scorer, _ = fit(config, REFERENCE_TASK, *fit_data(REFERENCE_TASK, 20_000, 2_000, seed))
        scorers[seed] = scorer
    test_y, test_c = generate(REFERENCE_TASK, 10_000, NONE, np.random.default_rng(999))
    return scorers, test_y, test_c


def test_criterion_1_worked_numeric_examples():
    """Generator application and reverse Euler kernel against hand arithmetic."""
    t0 = time.perf_counter()
    np.testing.assert_allclose(apply_rate(0.2, np.array([0.8, 0.1, 0.1])),
                               [-0.28, 0.14, 0.14], atol=1e-12)
    np.testing.assert_allclose(apply_rate(2.5, np.array([0.8, 0.1, 0.1])),
                               [-3.5, 1.75, 1.75], atol=1e-12)
    p = np.array([0.8, 0.1, 0.1])
    # kernel entries for all-ones scores: off-diagonal sigma*dt, diagonal the remainder
    low = np.full((3, 3), 0.02)
    np.fill_diagonal(low, 0.96)
    high = np.full((3, 3), 0.25)
    np.fill_diagonal(high, 0.5)
    out_low, _ = reverse_step_full(np.ones((3, 3)), p, 0.2, 0.1)
    out_high, _ = reverse_step_full(np.ones((3, 3)), p, 2.5, 0.1)
    np.testing.assert_allclose(out_low, low @ p, atol=1e-12)
    np.testing.assert_allclose(out_high, high @ p, atol=1e-12)
    np.testing.assert_allclose(out_low, [0.772, 0.114, 0.114], atol=1e-12)
    np.testing.assert_allclose(out_high, [0.45, 0.275, 0.275], atol=1e-12)
    elapsed = time.perf_counter() - t0
    _verdict(1, elapsed < 1.0,
             f"worked examples reproduced to 1e-12 in {elapsed:.3f}s "
             f"(note: two source vectors corrected for arithmetic slips; see ledger)")


def test_criterion_2_closed_form_vs_series_oracle():
    """Analytic forward marginal equals the series matrix exponential."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in (2, 3, 5, 16):
        for sbar in (0.0, 0.1, 1.0, 5.0, 20.0):
            kernel = matrix_exponential_oracle(k, sbar)
            q0 = rng.dirichlet(np.ones(k), size=100)
            worst = max(worst, np.abs(forward_marginal(q0, sbar) - q0 @ kernel.T).max())
    elapsed = time.perf_counter() - t0
    _verdict(2, worst < 1e-9 and elapsed < 10.0,
             f"max entrywise gap {worst:.2e} over K x noise grid in {elapsed:.2f}s")


def test_criterion_3_euler_first_order():
    """Explicit Euler error halves when the step halves (constant rate segment)."""
    k, sigma = 3, 1.0
    q0 = np.array([0.7, 0.2, 0.1])
    exact = forward_marginal(q0, sigma)
    errors = []
    for log2n in range(4, 11):
        n = 2 ** log2n
        q = q0.copy()
        for _ in range(n):
            q = q + (1.0 / n) * apply_rate(sigma, q)
        errors.append(np.abs(q - exact).max())
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    _verdict(3, ok, "error ratios under step halving: "
             + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_4_loss_optimum_and_gradients():
    """Zero at the optimum, positive elsewhere, gradient matches differences."""
    rng = np.random.default_rng(7)

    def column(k, j, values=None):
        v = np.exp(rng.standard_normal(k)) if values is None else values
        v[j] = 1.0
        return ScoreColumn(v, j)

    zero_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 8))
        col = column(k, int(rng.integers(k)))
        zero_ok &= score_entropy_loss(col, col, 1.0 + rng.random()).total <= 1e-12

    s = np.exp(rng.standard_normal((10_000, 6)))
    perturbed = s * np.exp(0.05 + 0.3 * np.abs(rng.standard_normal(s.shape)))
    per, _ = score_entropy_terms(s, perturbed)
    positive_ok = per.sum(axis=1).min() > 0.0

    worst_grad = 0.0
    h = 1e-6
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        j = int(rng.integers(k))
        s_true, s_pred = column(k, j), column(k, j)
        sigma_t = 0.2 + rng.random()
        grad = score_entropy_grad(s_true, s_pred, sigma_t)
        i = int(rng.integers(k))
        if i == j:
            continue
        vp, vm = s_pred.values.copy(), s_pred.values.copy()
        vp[i] += h
        vm[i] -= h
        fd = (score_entropy_loss(s_true, ScoreColumn(vp, j), sigma_t).total
              - score_entropy_loss(s_true, ScoreColumn(vm, j), sigma_t).total) / (2 * h)
        worst_grad = max(worst_grad, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))

    # through the anchored-exponential head
    k, n = 6, 24
    z = rng.standard_normal((n, k))
    anchors = rng.integers(0, k, n)
    rows = np.arange(n)
    s_true_b = np.exp(rng.standard_normal((n, k)))
    s_true_b[rows, anchors] = 1.0
    sigma_b = 0.2 + rng.random(n)

    def loss_of(zz):
        sp = np.exp(zz - zz[rows, anchors][:, None])
        per_b, _ = score_entropy_terms(s_true_b, sp)
        return float((sigma_b / k * per_b.sum(axis=1)).sum())

    s_pred_b = np.exp(z - z[rows, anchors][:, None])
    analytic = loss_grad_wrt_logits(s_true_b, s_pred_b, anchors, sigma_b, k)
    worst_head = 0.0
    for _ in range(80):
        r, c = int(rng.integers(n)), int(rng.integers(k))
        zp, zm = z.copy(), z.copy()
        zp[r, c] += h
        zm[r, c] -= h
        fd = (loss_of(zp) - loss_of(zm)) / (2 * h)
        worst_head = max(worst_head, abs(fd - analytic[r, c])
                         / max(abs(fd), abs(analytic[r, c]), 1e-8))

    ok = zero_ok and positive_ok and worst_grad < 1e-4 and worst_head < 1e-4
    _verdict(4, ok, f"optimum exact, 1e4 perturbed pairs positive, grad rel err "
             f"{worst_grad:.2e}, through-head rel err {worst_head:.2e}")


def test_criterion_5_posterior_recovery():
    """Exact-scorer class-probability reversal converges to the true posterior."""
    t0 = time.perf_counter()
    scorer = _exact_scorer(TV_TASK, TV_SCHEDULE)
    y, _ = generate(TV_TASK, 1000, NONE, np.random.default_rng(777))
    q_true = true_posterior_batch(TV_TASK, y)
    tvs = {}
    clamp_at_256 = None
    for steps in (2, 4, 8, 16, 32, 64, 128, 256):
        probs, clamp = posterior_cp_batch(y, scorer, TV_SCHEDULE,
                                          SamplerConfig(n_steps=steps))
        tvs[steps] = float(0.5 * np.abs(probs - q_true).sum(axis=1).mean())
        if steps == 256:
            clamp_at_256 = float(clamp.mean())
    elapsed = time.perf_counter() - t0
    seq = [tvs[s] for s in (2, 4, 8, 16, 32, 64, 128, 256)]
    monotone = all(seq[i + 1] <= seq[i] + 1e-3 for i in range(len(seq) - 1))
    ok = tvs[256] < 1e-2 and monotone and elapsed < 60.0 and clamp_at_256 < 1e-3
    _verdict(5, ok, f"mean TV at 256 steps {tvs[256]:.4f}, sequence "
             + " > ".join(f"{v:.3f}" for v in seq)
             + f", mean clamped mass {clamp_at_256:.1e}, {elapsed:.1f}s")


def test_criterion_6_estimator_consistency():
    """Full-matrix equals rank-one path; label sampling matches at the MC rate."""
    scorer = _exact_scorer(TV_TASK, TV_SCHEDULE)
    y, _ = generate(TV_TASK, 3, NONE, np.random.default_rng(31))
    worst_full = 0.0
    for i in range(3):
        cfg = SamplerConfig(n_steps=8)
        full = posterior_full(y[i], scorer, TV_SCHEDULE, cfg)
        cp = posterior_cp(y[i], scorer, TV_SCHEDULE, cfg)
        worst_full = max(worst_full, float(np.abs(full.probs - cp.probs).max()))
        assert full.nfe == 10 * 8 and cp.nfe == 8

    n_samples = 20_000
    worst_margin = -1.0
    for i in range(3):
        cp = posterior_cp(y[i], scorer, TV_SCHEDULE, SamplerConfig(n_steps=8))
        cl = posterior_cl(y[i], scorer, TV_SCHEDULE,
                          SamplerConfig(n_steps=8, n_samples=n_samples, seed=100 + i))
        assert cl.nfe == n_samples * 8
        tv = float(0.5 * np.abs(cp.probs - cl.probs).sum())
        bound = 0.02 + 3 * float(0.5 * np.sqrt(cp.probs * (1 - cp.probs) / n_samples).sum())
        worst_margin = max(worst_margin, tv - bound)
    ok = worst_full < 1e-10 and worst_margin < 0.0
    _verdict(6, ok, f"full-vs-cp max gap {worst_full:.1e}; label-sampling TV within "
             f"bound by {-worst_margin:.4f}; call counts 8 / {n_samples * 8} / 80 as expected")


def test_criterion_7_trained_accuracy_reaches_reference(trained_reference):
    """Trained scorer at 8 reverse steps sits within 2 points of the frozen ceiling."""
    t0 = time.perf_counter()
    scorers, test_y, test_c = trained_reference
    accs = {}
    for seed, scorer in scorers.items():
        probs, _ = posterior_cp_batch(test_y, scorer, scorer.schedule,
                                      SamplerConfig(n_steps=8, seed=seed))
        accs[seed] = float(topk_hits(probs, test_c, 1).mean())
    elapsed = time.perf_counter() - t0
    se = np.sqrt(PINNED_BAYES * (1 - PINNED_BAYES) / len(test_c))
    ok = all(acc >= PINNED_BAYES - 0.02 and acc <= PINNED_BAYES + 3 * se + 0.005
             for acc in accs.values())
    detail = ", ".join(f"seed {s}: {a:.4f}" for s, a in accs.items())
    _verdict(7, ok, f"top-1 vs frozen ceiling {PINNED_BAYES}: {detail} "
             f"(eval wall {elapsed:.0f}s; fixture includes training)")


def test_criterion_8_uncertainty_grid(tmp_path):
    """3x3 corruption-by-ratio grid: deterministic CSV, every cell Bayes-bounded."""
    config = TrainConfig(epochs=5, batch_size=128, seed=0, hidden_dim=64, n_blocks=2,
                         embed_dim=32, time_embed_dim=32,
                         sigma_bar_max=0.6, schedule_decay=0.7)
    rows = compare_grid(REFERENCE_TASK, [0.0, 0.8, 1.6], [0.25, 0.5, 1.0], config,
                        n_train=2000, n_eval=1000, steps=8, seed=0)
    columns = list(rows[0].keys())
    write_csv(str(tmp_path / "grid.csv"), rows, columns)
    sanity = all(row[column] <= row["bayes_top1"] + 3 * row["bayes_se"]
                 for row in rows for column in ("diffusion_top1", "baseline_top1"))
    # determinism: repeat one cell end-to-end and compare bytes
    cell_args = dict(corruption_levels=[0.8], ratios=[0.5], config=config,
                     n_train=1000, n_eval=400, steps=4, seed=0)
    blobs = []
    for run in range(2):
        path = tmp_path / f"cell{run}.csv"
        write_csv(str(path), compare_grid(REFERENCE_TASK, **cell_args), columns)
        blobs.append(path.read_bytes())
    gains = [row["gain"] for row in rows]
    ok = len(rows) == 9 and sanity and blobs[0] == blobs[1]
    _verdict(8, ok, f"9 cells produced, gains range [{min(gains):+.3f}, {max(gains):+.3f}], "
             f"all cells within Bayes bound, repeated cell byte-identical")


def test_criterion_9_few_step_efficiency(trained_reference):
    """Trained class-probability sampler: 2 steps within half a point of 64."""
    scorers, test_y, test_c = trained_reference
    scorer = scorers[0]
    accs = {}
    for steps in (2, 64):
        probs, _ = posterior_cp_batch(test_y, scorer, scorer.schedule,
                                      SamplerConfig(n_steps=steps, seed=0))
        accs[steps] = float(topk_hits(probs, test_c, 1).mean())
    gap = abs(accs[2] - accs[64])
    _verdict(9, gap <= 0.005,
             f"top-1 at 2 steps {accs[2]:.4f} vs 64 steps {accs[64]:.4f} (gap {gap:.4f})")


def test_criterion_10_cli_determinism(tmp_path):
    """Full train + eval command pipeline is byte-identical across two runs."""
    from diffclass import cli

    train = str(tmp_path / "train")
    test = str(tmp_path / "test")
    assert cli.main(["gen-data", "--k", "4", "--n", "1024", "--seed", "0",
                     "--stem", train]) == 0
    assert cli.main(["gen-data", "--k", "4", "--n", "512", "--seed", "1",
                     "--stem", test]) == 0
    artifacts = []
    for run in range(2):
        ckpt = str(tmp_path / f"model{run}.ckpt")
        metrics = str(tmp_path / f"metrics{run}.csv")
        evalcsv = str(tmp_path / f"eval{run}.csv")
        assert cli.main(["train", "--data", train, "--eval-data", test, "--seed", "11",
                         "--epochs", "3", "--batch-size", "128", "--hidden-dim", "32",
                         "--blocks", "2", "--checkpoint", ckpt, "--out", metrics]) == 0
        assert cli.main(["eval", "--data", test, "--checkpoint", ckpt, "--method", "cp",
                         "--steps", "8", "--seed", "11", "--out", evalcsv]) == 0
        artifacts.append((Path(metrics).read_bytes(), Path(evalcsv).read_bytes()))
    ok = artifacts[0] == artifacts[1]
    _verdict(10, ok, "train and eval CSV outputs byte-identical across two seeded runs")
