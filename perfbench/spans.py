"""Traced runs: spans around the program's layer entry points, and the
per-layer metrics derived from them.

Each traced function is wrapped by attribute replacement on the module where
its caller looks it up, only for the duration of the traced passes. A span
records name, start, end, parent and thread. A span opened on a pool thread
with no open span of its own is parented to the innermost open span of the
main thread, which is the call that handed the work to the pool.

A layer's self time is its spans' duration minus the part of each span that
its child spans cover (on any thread).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _route_attrs(args, kwargs, result) -> dict:
    g, v0, n_intervals, steps_per_sample = args[:4]
    return {
        "dim": int(g.dim),
        "columns": 1 if v0.ndim == 1 else int(v0.shape[1]),
        "intervals": int(n_intervals),
        "steps_per_sample": int(steps_per_sample),
    }


# layer -> ((module, attribute) patched, attrs recorder or None)
PATCHES: dict[str, tuple[tuple[tuple[str, str], ...], Callable | None]] = {
    "rates.rate_table": ((("rates", "rate_table"), ("liouvillian", "rate_table")), None),
    "liouvillian.assemble": ((("liouvillian", "assemble"), ("cli", "assemble")), None),
    "liouvillian.reduce_spin_symmetric": (
        (("liouvillian", "reduce_spin_symmetric"), ("cli", "reduce_spin_symmetric")),
        None,
    ),
    "model.config_params": ((("cli", "config_params"),), None),
    "states.state_by_name": ((("states", "state_by_name"),), None),
    "cli.parse_config": ((("cli", "parse_config"),), None),
    "integrator.evolve_rk4": (
        (("integrator", "evolve_rk4"), ("cli", "evolve_rk4")),
        lambda a, k, r: {"nnz": int(a[0].nnz)},
    ),
    "integrator.step_matrix": ((("integrator", "_rk4_step_matrix"),), None),
    "integrator.sample_loop": ((("integrator", "_evolve_propagator"),), _route_attrs),
    "integrator.stepwise": ((("integrator", "_evolve_stepwise"),), _route_attrs),
    "analysis.fidelity_series": (
        (("analysis", "fidelity_series"),),
        lambda a, k, r: {"samples": len(a[0])},
    ),
    "cli.execute_run": ((("cli", "execute_run"),), None),
    "cli.run_single_csv": ((("cli", "run_single_csv"),), None),
    "cli.run_time_figure": ((("cli", "run_time_figure"),), None),
    "cli.run_eta_figure": ((("cli", "run_eta_figure"),), None),
    "cli.run_grouped": ((("cli", "_run_grouped"),), None),
    "cli.write_figure": ((("cli", "write_figure"),), lambda a, k, r: {"figure": str(a[0])}),
}

MATRIX_POWER = "integrator.matrix_power"


def _matrix_power_attrs(args, kwargs, result) -> dict:
    return {"dim": int(args[0].shape[0]), "power": int(args[1])}


class _Overlay:
    """Attribute view of ``target`` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _open(self, layer: str) -> Span:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else None
            span = Span(next(self._ids), layer, parent, ident, time.perf_counter())
            stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def wrap(self, layer: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                try:
                    span.attrs = attrs(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    span.attrs = {}
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict[str, object]):
        """Wrap every entry point in ``PATCHES`` while the block runs.

        An entry point a later version of the program no longer has is listed
        in ``absent`` and its metrics read 0.
        """
        saved = []
        for layer, (targets, attrs) in PATCHES.items():
            for mod_name, attr in targets:
                mod = modules[mod_name]
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(layer, orig, attrs))
        integrator = modules["integrator"]
        np_mod = getattr(integrator, "np", None)
        if np_mod is None:
            self.absent.append("integrator.np.linalg.matrix_power")
        else:
            power = self.wrap(MATRIX_POWER, np_mod.linalg.matrix_power, _matrix_power_attrs)
            saved.append((integrator, "np", np_mod))
            integrator.np = _Overlay(np_mod, linalg=_Overlay(np_mod.linalg, matrix_power=power))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def matmuls(power: int) -> int:
    """Matrix products numpy's binary matrix_power spends on ``power``."""
    if power <= 1:
        return 0
    return power.bit_length() - 1 + bin(power).count("1") - 1


# name, unit, better; README.md says which end-to-end metric each should move
LAYER_METRICS = (
    ("rates.rate_table_s", "s", "lower"),
    ("liouvillian.assemble_s", "s", "lower"),
    ("liouvillian.reduce_spin_symmetric_s", "s", "lower"),
    ("liouvillian.builds", "count", "lower"),
    ("liouvillian.nnz", "count", "lower"),
    ("model.config_params_s", "s", "lower"),
    ("states.state_by_name_s", "s", "lower"),
    ("cli.parse_config_s", "s", "lower"),
    ("integrator.evolve_rk4_s", "s", "lower"),
    ("integrator.step_matrix_s", "s", "lower"),
    ("integrator.matrix_power_s", "s", "lower"),
    ("integrator.sample_loop_s", "s", "lower"),
    ("integrator.stepwise_s", "s", "lower"),
    ("integrator.route_dense", "count", "lower"),
    ("integrator.route_stepwise", "count", "lower"),
    ("integrator.dense_matmuls", "count", "lower"),
    ("integrator.dense_gflop", "GFLOP-computed", "lower"),
    ("integrator.dense_gflops_rate", "GFLOP/s", "higher"),
    ("integrator.spmv", "count-computed", "lower"),
    ("analysis.fidelity_series_s", "s", "lower"),
    ("analysis.samples", "count", "lower"),
    ("cli.execute_run_s", "s", "lower"),
    ("cli.csv_format_s", "s", "lower"),
    ("cli.run_grouped_s", "s", "lower"),
    ("cli.fig2_s", "s", "lower"),
    ("cli.fig3b_s", "s", "lower"),
    ("cli.fig4a_s", "s", "lower"),
    ("cli.figures_single_thread_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_time_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

# metric -> layers whose self time it sums
_SELF_TIME = {
    "rates.rate_table_s": ("rates.rate_table",),
    "liouvillian.assemble_s": ("liouvillian.assemble",),
    "liouvillian.reduce_spin_symmetric_s": ("liouvillian.reduce_spin_symmetric",),
    "model.config_params_s": ("model.config_params",),
    "states.state_by_name_s": ("states.state_by_name",),
    "cli.parse_config_s": ("cli.parse_config",),
    "integrator.step_matrix_s": ("integrator.step_matrix",),
    "integrator.matrix_power_s": (MATRIX_POWER,),
    "integrator.sample_loop_s": ("integrator.sample_loop",),
    "integrator.stepwise_s": ("integrator.stepwise",),
    "analysis.fidelity_series_s": ("analysis.fidelity_series",),
    "cli.execute_run_s": ("cli.execute_run",),
    "cli.csv_format_s": ("cli.run_single_csv", "cli.run_time_figure", "cli.run_eta_figure"),
    "cli.run_grouped_s": ("cli.run_grouped",),
}


def layer_metrics(spans: list[Span], n_passes: int, traced_wall_s: float) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``n_passes`` traced passes
    that took ``traced_wall_s`` in total.

    Self times except ``integrator.evolve_rk4_s`` and ``cli.fig*_s``, which are
    inclusive call times. FLOP and SpMV counts are computed from dimensions
    and step counts, not measured.
    """
    own = self_times(spans)
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)

    def layer(name):
        return by_layer.get(name, [])

    m: dict[str, float] = {}
    for metric, layers in _SELF_TIME.items():
        m[metric] = sum(own[s.id] for name in layers for s in layer(name))
    m["integrator.evolve_rk4_s"] = sum(s.end - s.start for s in layer("integrator.evolve_rk4"))
    for fig in ("fig2", "fig3b", "fig4a"):
        m[f"cli.{fig}_s"] = sum(
            s.end - s.start for s in layer("cli.write_figure") if s.attrs.get("figure") == fig
        )
    m["liouvillian.builds"] = len(layer("liouvillian.assemble"))
    m["liouvillian.nnz"] = sum(s.attrs.get("nnz", 0) for s in layer("integrator.evolve_rk4"))
    dense = layer("integrator.sample_loop")
    stepwise = layer("integrator.stepwise")
    powers = layer(MATRIX_POWER)
    m["integrator.route_dense"] = len(dense)
    m["integrator.route_stepwise"] = len(stepwise)
    m["integrator.dense_matmuls"] = sum(matmuls(s.attrs.get("power", 0)) for s in powers)
    flop = sum(8.0 * s.attrs.get("dim", 0) ** 3 * matmuls(s.attrs.get("power", 0)) for s in powers)
    flop += sum(
        8.0 * s.attrs.get("dim", 0) ** 2 * s.attrs.get("columns", 0) * s.attrs.get("intervals", 0)
        for s in dense
    )
    m["integrator.dense_gflop"] = flop / 1e9
    dense_s = m["integrator.matrix_power_s"] + m["integrator.sample_loop_s"]
    m["integrator.spmv"] = sum(
        4 * s.attrs.get("columns", 0) * s.attrs.get("intervals", 0) * s.attrs.get("steps_per_sample", 0)
        for s in stepwise
    )
    m["analysis.samples"] = sum(s.attrs.get("samples", 0) for s in layer("analysis.fidelity_series"))
    m["trace.spans"] = len(spans)
    out = {k: v / n_passes for k, v in m.items()}
    out["integrator.dense_gflops_rate"] = flop / 1e9 / dense_s if dense_s > 0 else 0.0
    out["trace.self_time_share"] = sum(own.values()) / traced_wall_s
    return out
