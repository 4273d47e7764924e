"""sodcheck benchmark: seeded workloads, checked outputs, per-layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

  verify-all   ``sodcheck verify-all``, the paper's headline verdict
  euler-sweep  staircase Euler number vs Riemann-Roch on random bundles
  ext-queries  single graded-Ext queries against the seven varieties

Every timed run is a fresh interpreter (``child.py``), started one at a time
by this process until ``--seconds`` have passed, because sodcheck's caches
live as long as the process.  With ``--trace 0`` the end-to-end metrics
come from those runs (see ``end_to_end``); with ``--trace 1`` untraced and
traced runs alternate and the per-layer metrics come from the traced ones.  One metric
per line goes to stdout, the last line is a JSON summary.  Exit status 1
means a run crashed or timed out, 2 a usage error; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs
from tracing import MODULES, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: untraced runs per invocation, at least, however short ``--seconds`` is
MIN_RUNS = 3
#: a run that would end past this many seconds is cut and the whole
#: benchmark fails, keeping one invocation inside three minutes
DEADLINE_S = 170.0
#: modules that must show calls in the traced run of each workload
BUSY = {"verify-all": MODULES,
        "euler-sweep": ("chow", "bbw", "gl_weights"),
        "ext-queries": ("chow", "bbw", "gl_weights", "varieties")}


class RunFailed(Exception):
    pass


def run_child(workload: str, inputs: list, trace: bool, full_check: bool,
              timeout: float) -> dict:
    job = json.dumps({"workload": workload, "inputs": inputs,
                      "trace": trace, "full_check": full_check})
    # a fixed hash seed keeps set and dict orders, and so the traced call
    # counts, identical from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=job,
                              capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"a {workload} run passed {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"a {workload} run exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples
    beyond it, or None with fewer than eleven samples."""
    n = len(latencies_ms)
    if n < 11:
        return None
    ordered = sorted(latencies_ms)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Timings from the least-disturbed run; set-up and memory as medians.

    Other tenants of the host slow this machine for seconds to minutes at
    a time, and interference only ever adds time.  Over ten euler-sweep
    invocations back to back, the fastest run's ``verdict_s`` spread 0.13
    (quartile distance over median) where the median run's spread 0.19.
    """
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "verdict_s": (min(r["verdict_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MB"),
        "ops_per_s": (max(len(r["latencies_s"]) / r["verdict_s"]
                          for r in runs), "1/s"),
        "op_p50_ms": (min(statistics.median(r["latencies_s"]) * 1e3
                          for r in runs), "ms"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Counts from the first traced run, times as medians over them."""
    units = {name: unit for name, unit, _ in metric_names()}
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith("self_s"):
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, units[name])
    overhead = (statistics.median(r["verdict_s"] for r in traced)
                / statistics.median(r["verdict_s"] for r in plain) - 1)
    out["trace.overhead_frac"] = (overhead, units["trace.overhead_frac"])
    return out


def trace_problems(workload: str, traced: list[dict]) -> list[str]:
    problems = []
    exact = [{k: v for k, v in r["layers"].items()
              if not k.endswith("self_s")} for r in traced]
    if any(e != exact[0] for e in exact):
        problems.append("call counts differ between traced runs")
    for module in BUSY[workload]:
        if not any(v for k, v in exact[0].items()
                   if k.startswith(module + ".") and k.endswith(".calls")):
            problems.append(f"no {module} calls recorded")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sodcheck" / "__init__.py").is_file():
        print(f"no sodcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    took: list[float] = []
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            traced_run = bool(args.trace) and len(traced) < len(plain)
            # start another run (a traced pair with --trace 1) only if a
            # typical one still fits in --seconds
            need = statistics.median(took) * (1 + args.trace) if took else 0
            if (not traced_run and len(plain) >= MIN_RUNS
                    and elapsed + need > args.seconds):
                break
            result = run_child(args.workload, inputs, traced_run,
                               full_check=not plain,
                               timeout=max(DEADLINE_S - elapsed, 1.0))
            (traced if traced_run else plain).append(result)
            took.append(time.perf_counter() - started - elapsed)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [msg for r in runs for msg in r["failures"]]
    if len({r["digest"] for r in runs}) != 1:
        problems.append("outputs differ between runs")
    if args.trace:
        problems += trace_problems(args.workload, traced)
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"runs {len(plain)} untraced + {len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    latencies_ms = [x * 1e3 for r in plain for x in r["latencies_s"]]
    got = tail(latencies_ms)
    if got is None:
        print(f"op_tail_ms n/a ({len(latencies_ms)} ops; a tail needs 11)")
    else:
        print(f"op_tail_ms {got[1]:.6g} ms (p{got[0]:.2f} of "
              f"{len(latencies_ms)} ops)")
    print(f"fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    for msg in problems[:10]:
        print(f"problem: {msg}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
