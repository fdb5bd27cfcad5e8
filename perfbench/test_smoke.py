"""Smoke test of the benchmark: every workload at tiny sizes, timed and traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace_hooks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(work_root: Path, workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace)], sizes=workloads.TINY, work_root=work_root)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_spec_lists_the_metrics_the_benchmark_reports():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", trace_hooks.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == [
            (name, unit, better) for name, (unit, better) in table.items()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_its_checks_and_reports_every_metric(tmp_path, workload, trace):
    code, result = bench(tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    self_s = [value for name, value in metrics.items() if name.endswith(".self_s")]
    self_s += [metrics[f"{name}_s"] for name in trace_hooks.LEAVES]
    assert min(self_s) >= 0.0 and metrics["trace.unattributed_s"] >= 0.0
    assert sum(self_s) + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.absent_hooks"] == 0


def test_second_run_at_one_seed_reproduces_the_outputs(tmp_path):
    assert bench(tmp_path, "eval-cp", 0)[0] == 0
    assert bench(tmp_path, "eval-cp", 1)[0] == 0
    store = json.loads((tmp_path / "hashes.json").read_text())
    assert len(store) == 1 and "eval0.csv" in next(iter(store.values()))


def test_failed_output_check_exits_nonzero(tmp_path, monkeypatch):
    run.load_cli()
    from diffclass import harness
    monkeypatch.setattr(harness, "_format_cell",
                        lambda value: "inf" if isinstance(value, float) else str(value))
    code, result = bench(tmp_path, "eval-cp", 0)
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_tracer_patches_every_binding_and_restores_them():
    run.load_cli()
    from diffclass import data, harness, mlp, sampler, transition
    cp_batch, ensure, score_batch = (sampler.posterior_cp_batch, transition.ensure_distribution,
                                     mlp.MlpScorer.score_batch)
    with trace_hooks.Tracer() as tracer:
        assert harness.posterior_cp_batch is sampler.posterior_cp_batch is not cp_batch
        assert data.ensure_distribution is sampler.ensure_distribution is not ensure
        assert mlp.MlpScorer.score_batch is not score_batch
    assert tracer.absent == []
    assert harness.posterior_cp_batch is sampler.posterior_cp_batch is cp_batch
    assert data.ensure_distribution is sampler.ensure_distribution is ensure
    assert mlp.MlpScorer.score_batch is score_batch


def test_missing_hook_points_are_reported_absent():
    run.load_cli()
    gone = ("diffclass.sampler:_removed_kernel", "diffclass.removed_module:f",
            "diffclass.mlp:RemovedClass.method")
    hooks = trace_hooks.HOOKS + tuple(trace_hooks.Hook(t, "sampler.kernel") for t in gone)
    with trace_hooks.Tracer(hooks) as tracer:
        pass
    assert tracer.absent == list(gone)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
