"""Outside-in tracing of diffclass layers for the benchmark's per-layer metrics.

The tracer wraps public functions of the package from here, in the
benchmark's own code, and leaves the package source untouched:

* a module-level function is replaced in every ``diffclass.*`` module whose
  namespace binds it (``posterior_cp_batch`` is bound in both ``sampler``
  and ``harness``, ``ensure_distribution`` in four modules), so a call is
  seen whichever module makes it;
* a method is replaced on its class;
* a hook point that no longer exists is listed in ``absent`` instead of
  failing, so a refactor that deletes a function degrades the trace to a
  zero for that layer;
* every patch is undone when the ``with`` block exits.

Spans are aggregated per name as they close: call count, inclusive time and
self time (the span minus the time its child spans cover).  Every span name
is reported as ``<name>.self_s``, or as ``<name>_s`` for a leaf span (see
``LEAVES``), so those times plus ``trace.unattributed_s`` add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Hook:
    target: str                  # "module:qualname"
    span: str
    when: str | None = None      # trace only while a span of this name is open
    observe: Callable | None = None


# --- observers: read counts off arguments and return values -----------------

def _forward_rows(tracer, fn, args, kwargs, out, dur, outer):
    features = kwargs.get("features", args[2] if len(args) > 2 else None)
    tracer.counts["mlp.forward.rows"] += len(features)


def _scorer_call(tracer, fn, args, kwargs, out, dur, outer):
    if tracer.active["sampler"] and not tracer.active["train.fit"]:
        tracer.counts["sampler.scorer_calls"] += 1
        tracer.counts["sampler.nfe"] += len(out)


def _train_step(tracer, fn, args, kwargs, out, dur, outer):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    clip = bound.arguments.get("grad_clip")
    grad_norm = getattr(out[-1], "grad_norm", None)
    if clip is not None and grad_norm is not None and grad_norm > clip:
        tracer.counts["train.clipped"] += 1


def _sampler_call(tracer, fn, args, kwargs, out, dur, outer):
    if not outer:
        return
    if tracer.active["train.fit"]:
        tracer.counts["train.validation_s"] += dur
        return
    tracer.counts["sampler.calls"] += 1
    clamp = getattr(out, "clamp_mass", None)
    if clamp is not None:                      # PosteriorEstimate for one input
        tracer.counts["sampler.clamp_sum"] += float(clamp)
        tracer.counts["sampler.inputs"] += 1
    else:                                      # (probs, clamp per row, trajectory)
        tracer.counts["sampler.clamp_sum"] += float(out[1].sum())
        tracer.counts["sampler.inputs"] += len(out[1])


def _dataset_bytes(tracer, fn, args, kwargs, out, dur, outer):
    stem = kwargs.get("stem", args[0] if args else None)
    tracer.counts["data.bytes_read"] += sum(
        os.path.getsize(stem + ext) for ext in (".bin", ".meta"))


HOOKS = (
    Hook("diffclass.mlp:forward_logits", "mlp.forward", observe=_forward_rows),
    Hook("diffclass.mlp:_gn_forward", "mlp.groupnorm"),
    Hook("diffclass.mlp:silu", "mlp.silu", when="mlp.forward"),
    Hook("diffclass.mlp:MlpScorer.conditioning", "mlp.conditioning"),
    Hook("diffclass.mlp:MlpScorer.score_batch", "mlp.head", observe=_scorer_call),
    Hook("diffclass.mlp:backward_logits", "mlp.backward"),
    Hook("diffclass.mlp:MlpScorer.param_grads", "mlp.backward"),
    Hook("diffclass.mlp:_gn_backward", "mlp.groupnorm_bwd"),
    Hook("diffclass.mlp:save_params", "mlp.checkpoint_save"),
    Hook("diffclass.mlp:load_params", "mlp.checkpoint_load"),
    Hook("diffclass.train:fit", "train.fit"),
    Hook("diffclass.train:train_step", "train.step", observe=_train_step),
    Hook("diffclass.train:batch_loss_and_grads", "train.loss"),
    Hook("diffclass.transition:forward_marginal", "train.noise", when="train.loss"),
    Hook("diffclass.transition:sample_categorical_rows", "train.noise", when="train.loss"),
    Hook("diffclass.train:clip_global_norm", "train.clip"),
    Hook("diffclass.train:adam_update", "train.adam"),
    Hook("diffclass.sampler:posterior_cp_batch", "sampler", observe=_sampler_call),
    Hook("diffclass.sampler:posterior_cp", "sampler", observe=_sampler_call),
    Hook("diffclass.sampler:posterior_cl", "sampler", observe=_sampler_call),
    Hook("diffclass.sampler:posterior_full", "sampler", observe=_sampler_call),
    Hook("diffclass.sampler:_cp_step_batch", "sampler.kernel"),
    Hook("diffclass.sampler:_cl_step_batch", "sampler.kernel"),
    Hook("diffclass.sampler:reverse_step_full", "sampler.kernel"),
    Hook("diffclass.transition:ensure_distribution", "transition.ensure_distribution"),
    Hook("diffclass.data:generate", "data.generate"),
    Hook("diffclass.data:save_dataset", "data.save_dataset"),
    Hook("diffclass.data:load_dataset", "data.load_dataset", observe=_dataset_bytes),
    Hook("diffclass.data:true_posterior_batch", "data.true_posterior"),
    Hook("diffclass.harness:evaluate_on", "harness.evaluate"),
    Hook("diffclass.harness:evaluate", "harness.evaluate"),
    Hook("diffclass.harness:nfe_sweep", "harness.evaluate"),
    Hook("diffclass.harness:_run_method", "harness.evaluate"),
    Hook("diffclass.harness:write_csv", "harness.write_csv"),
)

SPAN_NAMES = tuple(dict.fromkeys(h.span for h in HOOKS))

# Spans of set-up and I/O, reported by inclusive time as ``<span>_s``, the names
# the README's layer table uses.  A leaf span has no hooked callee, so its
# inclusive time is its self time: it gets no ``.self_s`` entry, and its
# ``_s`` value counts in the self-time sum.
INCLUSIVE = ("mlp.checkpoint_save", "mlp.checkpoint_load", "data.generate",
             "data.save_dataset", "data.load_dataset", "data.true_posterior",
             "harness.write_csv")
LEAVES = frozenset(INCLUSIVE) - {"data.load_dataset", "data.true_posterior"}


def _lower(unit):
    return (unit, "lower")


# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = {
    **{f"{name}.self_s": _lower("s") for name in SPAN_NAMES if name not in LEAVES},
    **{f"{name}_s": _lower("s") for name in INCLUSIVE},
    "mlp.forward.calls": _lower("count"),
    "mlp.forward.rows": _lower("rows"),
    "train.steps": _lower("count"),
    "train.clip_frac": _lower("frac"),
    "train.validation_s": _lower("s"),
    "sampler.calls": _lower("count"),
    "sampler.scorer_calls": _lower("count"),
    "sampler.rows_per_scorer_call": ("rows", "higher"),
    "sampler.nfe": _lower("rows"),
    "sampler.clamp_mass": _lower("prob"),
    "transition.ensure_distribution.calls": _lower("count"),
    "data.bytes_read": _lower("B"),
    "trace.wall_s": _lower("s"),
    "trace.unattributed_s": _lower("s"),
    "trace.overhead_frac": _lower("frac"),
    "trace.absent_hooks": _lower("count"),
}


class Tracer:
    """Context manager that installs HOOKS on enter and removes them on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: dict[str, SpanTotals] = {name: SpanTotals() for name in SPAN_NAMES}
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []          # [span name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _close(self, name: str, start: float) -> float:
        dur = time.perf_counter() - start
        _, child = self._stack.pop()
        self.active[name] -= 1
        totals = self.spans[name]
        totals.calls += 1
        if not self.active[name]:      # a span nested in one of its own name is inside its total
            totals.total_s += dur
        totals.self_s += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.when is not None and not tracer.active[hook.when]:
                return fn(*args, **kwargs)
            outer = tracer.active[hook.span] == 0
            tracer._stack.append([hook.span, 0.0])
            tracer.active[hook.span] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(hook.span, start)
            if hook.observe is not None:
                hook.observe(tracer, fn, args, kwargs, out, dur, outer)
            return out

        return traced

    # --- patching ----------------------------------------------------------

    def _resolve(self, target: str):
        """(owner, attribute, original) for a hook target, or None if it is gone."""
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = vars(owner).get(attr)
        return (owner, attr, original) if callable(original) else None

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for hook in self.hooks:
            found = self._resolve(hook.target)
            if found is None:
                self.absent.append(hook.target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, hook)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "diffclass" or name.startswith("diffclass.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        c = self.counts
        scorer_calls = c["sampler.scorer_calls"]
        steps = self.spans["train.step"].calls
        out = {f"{name}.self_s": self.spans[name].self_s
               for name in SPAN_NAMES if name not in LEAVES}
        out.update({f"{name}_s": self.spans[name].total_s for name in INCLUSIVE})
        out.update({
            "mlp.forward.calls": self.spans["mlp.forward"].calls,
            "mlp.forward.rows": c["mlp.forward.rows"],
            "train.steps": steps,
            "train.clip_frac": c["train.clipped"] / steps if steps else 0.0,
            "train.validation_s": c["train.validation_s"],
            "sampler.calls": c["sampler.calls"],
            "sampler.scorer_calls": scorer_calls,
            "sampler.rows_per_scorer_call": c["sampler.nfe"] / scorer_calls if scorer_calls else 0.0,
            "sampler.nfe": c["sampler.nfe"],
            "sampler.clamp_mass": (c["sampler.clamp_sum"] / c["sampler.inputs"]
                                   if c["sampler.inputs"] else 0.0),
            "transition.ensure_distribution.calls":
                self.spans["transition.ensure_distribution"].calls,
            "data.bytes_read": c["data.bytes_read"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(s.self_s for s in self.spans.values()),
            "trace.overhead_frac": wall_s / untraced_s - 1.0,
            "trace.absent_hooks": len(self.absent),
        })
        return out

    def table(self) -> list[str]:
        """One line per span: calls, inclusive and self seconds."""
        lines = [f"{'span':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for name in SPAN_NAMES:
            s = self.spans[name]
            lines.append(f"{name:34s} {s.calls:9d} {s.total_s:10.4f} {s.self_s:10.4f}")
        lines += [f"absent hook: {target}" for target in self.absent]
        return lines
