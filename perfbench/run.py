"""Benchmark of the diffclass CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,eval-cp,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` of
the same checkout and its files go to ``.bench_work/`` there.

``--trace 0`` cycles over the replicas for ``--seconds`` seconds (and at
least once per replica) with no instrumentation: each cycle sets up a
replica, repeating the set-up until it has taken 0.3 s, then runs the
workload's command on it.  It reports the end-to-end metrics: rows_per_s
is the median over the commands, setup_s the mean over the set-ups (the
VM's speed moves between two levels for a second or two at a time, so a
median of short set-ups jumps between them), and peak memory is read
before the untimed quality probe.  ``--trace 1`` runs one set-up plus one command untraced
twice, then the same again under the tracer, and reports the per-layer
metrics; ``--seconds`` does not apply.

Every command's exit code and outputs are checked.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a check fails, 2 when the program is missing.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: faster training on small
# machines, and the single-threaded determinism the CLI documents.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from trace_hooks import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (unit, better); the order BENCHMARK.json lists them in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "top1": ("frac", "higher"),
    "mean_tv": ("tv", "lower"),
    "nll": ("nats", "lower"),
    "final_loss": ("loss", "lower"),
}


def load_cli():
    """diffclass.cli.main from this checkout's src/, or None if it is not there."""
    if not (SRC / "diffclass" / "cli.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from diffclass import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return None
    return cli.main


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def guarded(ledger, what, fn, *args):
    """Run an output check; a crash inside it counts as a failed check."""
    try:
        return fn(*args)
    except Exception:
        ledger.check(False, f"{what}: {traceback.format_exc(limit=3)}")
        return None


def timed_run(wl, seconds: float) -> dict | None:
    setup_s, rates = [], []
    began = time.perf_counter()
    i = 0
    while i < wl.sizes.replicas or time.perf_counter() - began < seconds:
        r = i % wl.sizes.replicas
        first = len(setup_s)
        while len(setup_s) == first or sum(setup_s[first:]) < wl.sizes.cycle_setup_s:
            start = time.perf_counter()
            ok = wl.setup(r)
            setup_s.append(time.perf_counter() - start)
            if not ok:
                return None
            guarded(wl.ledger, "set-up checks", wl.check_setup, r)
        start = time.perf_counter()
        ok = wl.command(r)
        elapsed = time.perf_counter() - start
        if not ok:
            return None
        guarded(wl.ledger, "output checks", wl.check_command, r)
        rates.append(wl.rows(r) / elapsed)
        i += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    guarded(wl.ledger, "quality probe", wl.probe)
    if wl.ledger.failed:
        return None
    print(f"{wl.name}: {len(setup_s)} set-ups, {len(rates)} timed commands "
          f"in {time.perf_counter() - began:.1f} s")
    print("set-up seconds: " + " ".join(f"{t:.4f}" for t in setup_s))
    print("command rows/s: " + " ".join(f"{r:.1f}" for r in rates))
    return {"setup_s": statistics.fmean(setup_s),
            "rows_per_s": statistics.median(rates),
            "peak_rss_mib": peak_rss_mib,
            **wl.quality_metrics()}


def traced_run(wl) -> dict | None:
    def one_pass():
        start = time.perf_counter()
        ok = wl.setup(0) and wl.command(0)
        return ok, time.perf_counter() - start

    def checks():
        guarded(wl.ledger, "set-up checks", wl.check_setup, 0)
        guarded(wl.ledger, "output checks", wl.check_command, 0)

    for _ in range(2):          # the first pass warms caches; the second is the baseline
        ok, untraced_s = one_pass()
        if not ok:
            return None
        checks()
    wl.cli_nfe = wl.train_runs = 0
    with Tracer() as tracer:
        ok, traced_s = one_pass()
    if not ok:
        return None
    checks()
    metrics = tracer.metrics(traced_s, untraced_s)
    guarded(wl.ledger, "trace cross-checks", wl.check_trace, metrics)
    print("\n".join(tracer.table()))
    return None if wl.ledger.failed else metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def main(argv=None, sizes=None, work_root: Path | None = None) -> int:
    args = parse_args(argv)
    cli_main = load_cli()
    if cli_main is None:
        print(f"error: no diffclass package under {SRC}", file=sys.stderr)
        return 2
    sizes = sizes or workloads.Sizes()
    work_root = work_root or ROOT / ".bench_work"
    work_root.mkdir(parents=True, exist_ok=True)
    store = workloads.HashStore(
        work_root / "hashes.json",
        workloads.store_key(workloads.source_digest(SRC), args.workload, args.seed, sizes))
    ledger = workloads.Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = workloads.Workload(args.workload, args.seed, sizes, workdir, ledger, store, cli_main)
        metrics = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = metrics is not None and ledger.failed == 0
    if correct:
        store.save()
    units = PER_LAYER if args.trace else END_TO_END
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    for name, value in (metrics or {}).items():
        unit, better = units[name]
        print(f"{args.workload:8s} {name:40s} {value:>16.6g} {unit:8s} ({better} is better)")
    print(f"{args.workload:8s} {'error_rate':40s} {ledger.failed / max(ledger.attempted, 1):>16.6g} "
          f"({ledger.failed} of {ledger.attempted} commands and checks failed)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in (metrics or {}).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
