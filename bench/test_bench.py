"""The benchmark's own tests: seeded inputs, tracing, and failure modes.

    python3 -m pytest bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from inputs import LABEL_POOLS, SWEEP_PLAN, make_inputs
from run import run_child, tail
from tracing import MODULES, TAGS

HERE = Path(__file__).resolve().parent
SEEDED = ("euler-sweep", "ext-queries")


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)


@pytest.mark.parametrize("workload", SEEDED)
def test_other_seed_other_inputs(workload):
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_sweep_keeps_the_space_mix():
    bundles = make_inputs("euler-sweep", 3)
    for space, (_, count) in SWEEP_PLAN.items():
        assert sum(1 for name, _ in bundles if name == space) == count


def test_queries_draw_from_the_pools():
    for name, a, b in make_inputs("ext-queries", 3):
        assert a in LABEL_POOLS[name] and b in LABEL_POOLS[name]


def test_tail_leaves_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    pct, value = tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def _child(workload, trace):
    return run_child(workload, make_inputs(workload, 5), trace,
                     full_check=False, timeout=120)


def _exact(layers):
    return {k: v for k, v in layers.items() if not k.endswith("self_s")}


def test_traced_runs_repeat_counts_and_outputs():
    plain = _child("ext-queries", False)
    first, second = (_child("ext-queries", True) for _ in range(2))
    assert plain["failed"] == first["failed"] == 0
    # tracing changes no output
    assert first["digest"] == second["digest"] == plain["digest"]
    assert _exact(first["layers"]) == _exact(second["layers"])
    layers = first["layers"]
    for module in MODULES:
        assert f"{module}.self_s" in layers
    tags = sum(layers[f"varieties.ext.tag.{t}"] for t in TAGS)
    assert tags == first["attempted"]
    for module in ("chow", "bbw", "gl_weights", "varieties"):
        assert any(v for k, v in layers.items()
                   if k.startswith(module + ".") and k.endswith(".calls"))


def test_sweep_trace_sees_both_engines():
    layers = _child("euler-sweep", True)["layers"]
    bundles = sum(count for _, count in SWEEP_PLAN.values())
    assert layers["bbw.cohomology.calls"] == bundles
    assert layers["chow.chi.calls"] == bundles


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ext-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
