#!/usr/bin/env python3
"""qdfsim benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload figures|sweep|large_n --seed N \
        --seconds S --trace 0|1

Runs passes of the workload for at least ``--seconds`` seconds through the
package's public entry points, checks every operation's output against a
reference computed after the timed passes, and prints one JSON object as the
last line of standard output:

* ``--trace 0``: the end-to-end metrics (``BENCHMARK.json`` ``end_to_end``);
* ``--trace 1``: the per-layer metrics (``per_layer``). The run makes
  untraced passes, then traced passes over the same inputs, so the tracing
  overhead is the difference of the two pass times. On ``figures`` it adds a
  single-threaded reference pass in a child process.

The program is imported from ``src/`` next to this directory; the benchmark
refuses to run without it. Thread settings (``QDF_THREADS`` and the BLAS
thread variables) are cleared so every run sees the program's defaults, and
the machine record printed before the result says what they resolved to.
Run outputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_ENV = ("QDF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SINGLE_THREAD_ENV = {name: "1" for name in THREAD_ENV}
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 90

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_p50_s", "s"),
    ("run_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


def load_program() -> dict:
    """Import the package from ``src/`` and return its modules by name."""
    if not (SRC / "qdfsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'qdfsim'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qdfsim
    from qdfsim import analysis, cli, integrator, liouvillian, rates, states

    if Path(qdfsim.__file__).resolve().parent != SRC / "qdfsim":
        raise SystemExit(f"error: imported qdfsim from {qdfsim.__file__}, not from {SRC}")
    return {
        "analysis": analysis,
        "cli": cli,
        "integrator": integrator,
        "liouvillian": liouvillian,
        "rates": rates,
        "states": states,
    }


def warm_up(cli) -> None:
    """Trigger lazy imports and BLAS start-up on both integration routes."""
    for cfg in ('{"n_qubits": 2, "t_end": 0.01, "sample_interval": 0.01, "state": "bell-b"}',
                '{"n_qubits": 2, "t_end": 3.0, "sample_interval": 3.0, "state": "bell-b"}'):
        cli.run_single_csv(cli.parse_config(cfg))


@dataclass
class OpRecord:
    op: object
    seconds: float
    output: str | None
    error: str | None


@dataclass
class Pass:
    seconds: float
    records: list[OpRecord]


def run_passes(workload, seconds: float, n_passes: int | None = None) -> list[Pass]:
    """Closed loop: run passes 0, 1, ... for ``seconds`` (or ``n_passes`` passes)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        ops = workload.make_pass(len(passes))
        t0 = time.perf_counter()
        records = []
        for op in ops:
            s = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(op, time.perf_counter() - s, out, err))
        passes.append(Pass(time.perf_counter() - t0, records))
        if n_passes is not None:
            if len(passes) == n_passes:
                return passes
        elif time.perf_counter() - start >= seconds:
            return passes


def check_outputs(passes: list[Pass], checks_mod) -> list[str]:
    """Check every operation; return one failure line per failed operation."""
    failures = []
    for p in passes:
        for r in p.records:
            if r.error is not None:
                failures.append(f"{r.op.label}: raised {r.error}")
                continue
            try:
                r.op.check(r.output)
            except checks_mod.CheckFailed as exc:
                failures.append(f"{r.op.label}: {exc}")
            except Exception:  # a broken reference must not stop the benchmark
                failures.append(f"{r.op.label}: check raised\n{traceback.format_exc()}")
    return failures


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env.update(extra)
    return env


def measure_setup() -> float:
    """Median time for a fresh interpreter to import ``qdfsim.cli``.

    One untimed spawn first, so byte-compilation is not counted.
    """
    env = child_env({"PYTHONPATH": str(SRC)})
    cmd = [sys.executable, "-c", "import qdfsim.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list[Pass], setup_s: float, peak_rss_mb: float, failed: int) -> dict:
    latencies = [r.seconds for p in passes for r in p.records]
    total = sum(p.seconds for p in passes)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "runs_per_s": len(latencies) / total,
        "run_p50_s": statistics.median(latencies),
        "run_p90_s": percentile_90(latencies),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / len(latencies),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def figures_single_thread(traced: list[Pass]) -> tuple[float, str | None]:
    """Pass time of ``figures`` in a child with one pool worker and one BLAS
    thread, and a failure line if its CSV bytes differ from the traced pass."""
    out_dir = OUT / "figures_single_thread"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--figures-child", str(out_dir)],
            cwd=ROOT,
            env=child_env(SINGLE_THREAD_ENV),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return 0.0, f"figures_single_thread: no result within {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return 0.0, f"figures_single_thread: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    mine = {r.op.label: _digest(r.output) for r in traced[0].records}
    if result["sha256"] != mine:
        return result["pass_s"], "figures_single_thread: CSV bytes differ from the threaded pass"
    return result["pass_s"], None


def _digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def figures_child(out_dir: Path) -> None:
    program = load_program()
    import workloads

    warm_up(program["cli"])
    (p,) = run_passes(workloads.Figures(out_dir), 0.0, n_passes=1)
    failed = [r.error for r in p.records if r.error]
    if failed:
        raise SystemExit(f"figures child failed: {failed}")
    print(json.dumps({"pass_s": p.seconds, "sha256": {r.op.label: _digest(r.output) for r in p.records}}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("figures", "sweep", "large_n"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--figures-child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.figures_child is not None:
        figures_child(args.figures_child)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    # the program's defaults: no thread overrides, set before numpy loads
    cleared = {name: os.environ.pop(name) for name in THREAD_ENV if name in os.environ}
    program = load_program()
    import machine
    import workloads

    env = machine.describe(ROOT, SRC / "qdfsim", args.workload, args.seed, cleared)
    max_workers = getattr(program["cli"], "_max_workers", None)
    env["pool_workers"] = max_workers() if max_workers else None
    workload = workloads.make(args.workload, args.seed, OUT)
    probe_start = machine.speed_probe()
    result, record = measure(workload, args.seconds, args.trace, program)
    env["speed_probe_s"] = [probe_start, machine.speed_probe()]
    record["env"] = env
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("machine: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def measure(workload, seconds: float, trace: int, program: dict) -> tuple[dict, dict]:
    """Run, check and summarize one workload; return (result line, record)."""
    import checks
    import spans

    warm_up(program["cli"])
    record: dict = {}
    if trace == 0:
        setup_s = measure_setup()
        passes = run_passes(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_outputs(passes, checks)
        attempted = sum(len(p.records) for p in passes)
        metrics = end_to_end(passes, setup_s, peak_rss_mb, len(failures))
    else:
        untraced = run_passes(workload, seconds)
        tracer = spans.Tracer()
        with tracer.installed(program):
            traced = run_passes(workload, 0.0, n_passes=len(untraced))
        traced_wall = sum(p.seconds for p in traced)
        values = spans.layer_metrics(tracer.spans, len(traced), traced_wall)
        values["trace.wall_s"] = statistics.median(p.seconds for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            p.seconds for p in untraced
        )
        passes = untraced + traced
        failures = check_outputs(passes, checks)
        attempted = sum(len(p.records) for p in passes)
        values["cli.figures_single_thread_s"] = 0.0
        if workload.name == "figures":
            values["cli.figures_single_thread_s"], failure = figures_single_thread(traced)
            attempted += 1
            failures += [failure] if failure else []
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS
        }
        record["absent"] = tracer.absent
        record["spans"] = [vars(s) for s in tracer.spans]
        for name in tracer.absent:
            print(f"absent: {name} (its layer metrics read 0)", file=sys.stderr)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, record | {"failures": failures, "result": result}


if __name__ == "__main__":
    sys.exit(main())
