"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces each module-level binding the package calls through
with a wrapper that records a span around the call: calls and self time (the
span's duration minus the time covered by child spans).  Every span
also has the calibration sampler's own time taken out, so spans are measured
on the same footing as the operations.  Bindings are restored on exit.

Layer names are ``<defining module>.<function>``, so ``training.simulate``
and ``cli.simulate`` both count towards ``core_model.simulate``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import import_module

# (module the caller looks the name up in, attribute)
BINDINGS = (
    ("cli", "simulate"),
    ("training", "train"),
    ("training", "repair_variance_ordering"),
    ("training", "simulate"),
    ("training", "unflatten_params"),
    ("core_model", "state_step"),
    ("core_model", "output_map"),
    ("reduction", "simulate"),
    ("reduction", "classify_states"),
    ("reduction", "reduce"),
    ("permutation", "permute_model"),
    ("permutation", "variance_sort_index"),
    ("benchmark", "plant_step"),
    ("benchmark", "generate_dataset"),
    ("benchmark", "dataset_from_csv"),
    ("estimation_control", "plant_step"),
    ("estimation_control", "state_step"),
    ("estimation_control", "output_map"),
    ("estimation_control", "mpc_solve"),
    ("estimation_control", "ekf_step"),
    ("estimation_control", "solve_steady_state"),
)

# layers whose per-call latencies are kept for percentiles
LATENCY_LAYERS = ("estimation_control.mpc_solve", "estimation_control.ekf_step")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    converged: int = 0


def layer_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class Tracer:
    """Context manager that installs the span wrappers.

    ``busy`` returns the calibration sampler's running handler time, which is
    subtracted from every span.
    """

    def __init__(self, package: str, busy):
        self._package = package
        self._busy = busy
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.iterations = 0
        self.outer_passes = 0
        self._stack: list[float] = []  # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, func):
        name = layer_name(func)
        stats = self.layers[name]
        keep_latency = name in LATENCY_LAYERS
        clock, busy, stack = time.perf_counter, self._busy, self._stack

        @functools.wraps(func)
        def span(*args, **kwargs):
            stack.append(0.0)
            b0 = busy()
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - t0 - (busy() - b0)
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - children
                if keep_latency:
                    stats.latencies_s.append(elapsed)
            self._observe(name, stats, result)
            return result

        return span

    def _observe(self, name, stats, result):
        if name == "training.train":
            self.iterations += result.iterations
        elif name == "training.repair_variance_ordering":
            self.outer_passes += result.outer_passes
        elif name == "estimation_control.mpc_solve":
            stats.converged += bool(result.converged)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module_name, attr in BINDINGS:
            module = import_module(f"{self._package}.{module_name}")
            original = getattr(module, attr)
            if original not in wrappers:
                wrappers[original] = self._wrap(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[original])
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False
