"""Call counters and timers wrapped around quam's functions from outside.

quam's modules import names directly (`from .models import
mean_train_loss`), so a wrapper replaces the function under every name in
every loaded quam module that refers to it, not only where it is defined.
Functions a later version no longer has are skipped, and their metrics
read 0.

The child records raw totals; `layer_metrics` turns them into the
per-layer metrics in the parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

SEARCH = "search.adversarial_model_search"

# label -> (module, attribute).  "Class.method" attributes are patched on the class.
TARGETS = {
    "models.train": ("quam.models", "train"),
    "models.mean_train_loss": ("quam.models", "mean_train_loss"),
    "models.nll_graph": ("quam.models", "nll_graph"),
    "models.predict": ("quam.models", "predict"),
    "models.adam_step": ("quam.models", "Adam.step"),
    "autodiff.backward": ("quam.autodiff", "Tape.backward"),
    SEARCH: ("quam.search", "adversarial_model_search"),
    "cli.trajectory_to_jsonl": ("quam.search", "trajectory_to_jsonl"),
    "estimator.quam_score": ("quam.estimator", "quam_score"),
    "measures.decompose_a": ("quam.measures", "decompose_a"),
    "measures.decompose_b": ("quam.measures", "decompose_b"),
    "measures.kl_cat": ("quam.measures", "kl_cat"),
    "measures.kl_gauss": ("quam.measures", "kl_gauss"),
    "measures.entropy_cat": ("quam.measures", "entropy_cat"),
    "measures.quad": ("quam.measures", "quad"),
    "samplers.hmc": ("quam.samplers", "hmc"),
    "samplers.hmc_posterior": ("quam.samplers", "hmc_posterior"),
    "samplers.mc_dropout": ("quam.samplers", "mc_dropout"),
    "samplers.predictive_samples": ("quam.samplers", "SamplerOutput.predictive_samples"),
}

# Outermost calls of these are the scoring work a command does; the rest of
# its wall time is command overhead (config, data, checkpoint, output rows).
WORK = {"estimator.quam_score", "cli.trajectory_to_jsonl", "samplers.hmc_posterior", "samplers.mc_dropout", "samplers.predictive_samples", "measures.decompose_a", "measures.decompose_b", "models.predict"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.active = defaultdict(int)
        self.work_depth = 0

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "quam" or name.startswith("quam.")]
        for label, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, name, None)
            if fn is None:
                continue
            wrapped = self._wrap(label, fn)
            if owner_name:
                setattr(owner, name, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def _wrap(self, label, fn):
        hook = getattr(self, "_after_" + label.replace(".", "_"), None)
        before = getattr(self, "_before_" + label.replace(".", "_"), None)
        work = label in WORK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            outer = work and self.work_depth == 0
            self.work_depth += work
            self.active[label] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.active[label] -= 1
                self.work_depth -= work
                self.calls[label] += 1
                self.seconds[label] += dt
                if outer:
                    self.counts["work_s"] += dt
            if hook is not None:
                hook(dt, args, result)
            return result

        return wrapper

    # hooks: counts taken where the work happens

    def _in_search(self, dt, full_eval=False):
        if self.active[SEARCH]:
            self.counts["search.record_s"] += dt
            self.counts["search.full_evals"] += full_eval

    def _after_models_mean_train_loss(self, dt, args, result):
        self._in_search(dt, full_eval=True)

    def _after_measures_kl_cat(self, dt, args, result):
        self._in_search(dt)

    def _after_measures_kl_gauss(self, dt, args, result):
        self._in_search(dt)

    def _after_autodiff_backward(self, dt, args, result):
        records = getattr(args[0], "_records", ())
        self.counts["autodiff.forward_ops"] += sum(1 for r in records if r[0] != "leaf")

    def _after_models_adam_step(self, dt, args, result):
        if self.active[SEARCH]:
            self.counts["search.steps"] += 1

    def _after_search_adversarial_model_search(self, dt, args, traj):
        self.counts["search.records"] += len(traj.records)
        self.counts["search.no_feasible"] += bool(traj.no_feasible)
        self.counts["search.nan_abort"] += bool(traj.nan_abort)

    def _after_estimator_quam_score(self, dt, args, result):
        if isinstance(result, tuple):
            self.counts["estimator.scores"] += 1
            self.counts["estimator.samples"] += sum(len(t.records) for t in result[1])

    def _after_cli_trajectory_to_jsonl(self, dt, args, result):
        self.counts["cli.trajectory_bytes"] += os.path.getsize(args[1])

    def _before_samplers_hmc(self, args):
        log_density, grad, *rest = args

        def timed_grad(v):
            t0 = time.perf_counter()
            g = grad(v)
            self.counts["samplers.hmc.grad_s"] += time.perf_counter() - t0
            self.counts["samplers.hmc.grad_evals"] += 1
            return g

        return (log_density, timed_grad, *rest)

    def _after_samplers_hmc(self, dt, args, result):
        self.counts["samplers.hmc.accept"] += result.diagnostics["acceptance_rate"]

    def raw(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds), "counts": dict(self.counts)}


def layer_metrics(raw: dict, train_raw: dict, import_s: float, points: int, commands_wall_s: float, n_commands: int, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced leg; counts are per attempted point."""
    calls, seconds, counts = defaultdict(int, raw["calls"]), defaultdict(float, raw["seconds"]), defaultdict(float, raw["counts"])

    def per_call(label, scale):
        return scale * seconds[label] / calls[label] if calls[label] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts["search.steps"]
    train_calls = train_raw["calls"].get("models.train", 0)
    return {
        "cli.import_s": (import_s, "s"),
        "cli.command_overhead_ms": (1e3 * ratio(commands_wall_s - counts["work_s"], n_commands), "ms"),
        "cli.trajectory_write_ms": (per_call("cli.trajectory_to_jsonl", 1e3), "ms"),
        "cli.trajectory_kb": (ratio(counts["cli.trajectory_bytes"], 1e3 * calls["cli.trajectory_to_jsonl"]), "kB"),
        "models.train_s": (ratio(train_raw["seconds"].get("models.train", 0.0), train_calls), "s"),
        "models.mean_train_loss.calls": (calls["models.mean_train_loss"] / points, "count"),
        "models.mean_train_loss.us": (per_call("models.mean_train_loss", 1e6), "us"),
        "models.nll_graph.us": (per_call("models.nll_graph", 1e6), "us"),
        "models.predict.calls": (calls["models.predict"] / points, "count"),
        "models.predict.us": (per_call("models.predict", 1e6), "us"),
        "autodiff.backward.calls": (calls["autodiff.backward"] / points, "count"),
        "autodiff.backward.us": (per_call("autodiff.backward", 1e6), "us"),
        "autodiff.forward_ops_per_backward": (ratio(counts["autodiff.forward_ops"], calls["autodiff.backward"]), "count"),
        "search.searches": (calls[SEARCH] / points, "count"),
        "search.steps": (steps / points, "count"),
        "search.step_us": (1e6 * ratio(seconds[SEARCH] - counts["search.record_s"], steps), "us"),
        "search.record_us": (1e6 * ratio(counts["search.record_s"], counts["search.records"]), "us"),
        "search.full_evals_per_step": (ratio(counts["search.full_evals"], steps), "ratio"),
        "search.no_feasible": (counts["search.no_feasible"] / points, "count"),
        "search.nan_abort": (counts["search.nan_abort"] / points, "count"),
        "estimator.quam_score.ms": (per_call("estimator.quam_score", 1e3), "ms"),
        "estimator.samples_per_score": (ratio(counts["estimator.samples"], counts["estimator.scores"]), "count"),
        "measures.decompose_a.calls": (calls["measures.decompose_a"] / points, "count"),
        "measures.decompose_a.ms": (per_call("measures.decompose_a", 1e3), "ms"),
        "measures.decompose_b.ms": (per_call("measures.decompose_b", 1e3), "ms"),
        "measures.kl_cat.calls": (calls["measures.kl_cat"] / points, "count"),
        "measures.entropy_cat.calls": (calls["measures.entropy_cat"] / points, "count"),
        "measures.quad.calls": (calls["measures.quad"] / points, "count"),
        "measures.quad.ms": (per_call("measures.quad", 1e3), "ms"),
        "samplers.hmc.s": (per_call("samplers.hmc_posterior", 1.0), "s"),
        "samplers.hmc.grad_evals": (ratio(counts["samplers.hmc.grad_evals"], calls["samplers.hmc"]), "count"),
        "samplers.hmc.grad_us": (1e6 * ratio(counts["samplers.hmc.grad_s"], counts["samplers.hmc.grad_evals"]), "us"),
        "samplers.hmc.accept": (ratio(counts["samplers.hmc.accept"], calls["samplers.hmc"]), "fraction"),
        "samplers.mc_dropout.ms": (per_call("samplers.mc_dropout", 1e3), "ms"),
        "samplers.predictive_samples.ms": (per_call("samplers.predictive_samples", 1e3), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
