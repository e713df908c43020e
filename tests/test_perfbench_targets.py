"""The benchmark's layer spans wrap program entry points by name; a renamed or
deleted entry point would silently read 0 there, so each target must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_patch_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for targets, _ in spans.PATCHES.values():
        for mod_name, attr in targets:
            if not callable(getattr(importlib.import_module(f"qdfsim.{mod_name}"), attr, None)):
                missing.append(f"{mod_name}.{attr}")
    np_mod = getattr(importlib.import_module("qdfsim.integrator"), "np", None)
    if not callable(getattr(getattr(np_mod, "linalg", None), "matrix_power", None)):
        missing.append("integrator.np.linalg.matrix_power")
    assert missing == []


def _load_perfbench(monkeypatch, name: str):
    """``perfbench/<name>.py`` imported under its own name for one test."""
    spec = importlib.util.spec_from_file_location(name, SPANS.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_workload_calls_run(monkeypatch):
    """The benchmark's operations call the command layer by name and keyword;
    one short operation of each kind runs and passes its own output check."""
    from qdfsim import cli

    _load_perfbench(monkeypatch, "checks")  # workloads imports it by this name
    workloads = _load_perfbench(monkeypatch, "workloads")
    (op,) = workloads.LargeN(1, n_qubits=2, t_end=0.2).make_pass(0)
    op.check(op.call())
    t_end, interval = 0.2, 0.1
    for name, text in (
        ("fig2", cli.run_time_figure("fig2", t_end=t_end, si=interval)),
        ("fig4a", cli.run_eta_figure("fig4a", t_end=t_end)),
    ):
        ref = workloads.figure_reference(name, t_end, interval)
        workloads.check_figure(name, text, ref, t_end, interval)


def test_perfbench_layer_record_of_a_stepwise_run(monkeypatch):
    """The benchmark's per-layer record of one N = 2 run on the stepwise route:
    the route's span covers its integration, and every sample is reduced."""
    from qdfsim import analysis, cli, integrator, liouvillian, rates, states

    spans = _load_perfbench(monkeypatch, "spans")
    layers = (analysis, cli, integrator, liouvillian, rates, states)
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in layers}
    cfg = cli.parse_config(
        '{"n_qubits": 2, "state": "bell-b", "t_end": 1.0, "sample_interval": 0.25}'
    )
    tracer = spans.Tracer()
    with tracer.installed(modules):
        cli.run_single_csv(cfg)
    assert tracer.absent == []
    m = spans.layer_metrics(tracer.spans, 1, 1.0)
    assert m["integrator.route_stepwise"] == 1
    assert m["integrator.spmv"] == 4 * 1 * 4 * 250  # columns x intervals x steps per sample
    assert m["analysis.samples"] == 5
    assert 0 < m["integrator.stepwise_s"] <= m["integrator.evolve_rk4_s"]
    # the integration runs inside the route's span: nearly all of evolve_rk4
    assert m["integrator.stepwise_s"] > 0.5 * m["integrator.evolve_rk4_s"]
