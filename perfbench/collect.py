"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py [--workloads train,eval-cp,sweep] [--seeds 1-10]
                                 [--seconds S] [--history PATH]

For each workload, runs ``run.py`` once per seed untraced, then once traced
at the first seed, each in its own process, one after another.  Prints each
end-to-end metric's median, quartiles and spread (interquartile range over
the median) next to its bound from BENCHMARK.json, then the traced run's
per-layer metrics.  ``--history`` also writes the summary, the raw values
and the environment as JSON.  Exits 1 if any run fails or reports
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, str, float]:
    """One run in a child process; (result or None, env line, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    env = next((line[4:] for line in lines if line.startswith("env ")), "{}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}\n")
        return None, env, wall
    return result, env, wall


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--history", type=Path)
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report: dict = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            result, env, wall = bench(workload, seed, args.seconds, 0)
            ok &= result is not None
            walls.append(wall)
            if result:
                runs.append(result)
        traced, _, traced_wall = bench(workload, seeds[0], args.seconds, 1)
        ok &= traced is not None
        report["env"] = json.loads(env)
        entry = {"run_wall_s": walls, "traced_wall_s": traced_wall, "end_to_end": {},
                 "per_layer": {k: v["value"] for k, v in (traced or {}).get("metrics", {}).items()}}
        print(f"== {workload}: {len(runs)}/{len(seeds)} runs correct, "
              f"{sum(walls):.0f} s untraced + {traced_wall:.0f} s traced")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = summarise(values)
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"{name:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:7.4f}  bound {bound}{flag}")
        for name, value in entry["per_layer"].items():
            print(f"  {name:40s} {value:14.6g}")
        report["workloads"][workload] = entry
    if args.history:
        args.history.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
