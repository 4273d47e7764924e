"""One timed run of one workload, in a fresh interpreter.

sodcheck keeps caches for the life of a process (the variety catalog, each
ring's Chern-character cache, the formal lattices' pairing caches), and a
user who runs the CLI starts with all of them empty.  So ``run.py`` starts
this script once per timed run and feeds it a job on stdin:

    {"workload": ..., "inputs": [...], "trace": false, "full_check": true}

It prints one JSON object on its last stdout line: set-up and body times,
peak memory, per-operation latencies, the outputs' digest, the failures, and
with tracing the per-layer metrics.  Output checks run after the body, out
of the timed region and out of the trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from inputs import SWEEP_PLAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"


def load_program():
    sys.path.insert(0, str(ROOT / "src"))
    from sodcheck import (bbw, chow, cli, gl_weights, kmut, replay,
                          varieties)
    return {"gl_weights": gl_weights, "bbw": bbw, "chow": chow,
            "kmut": kmut, "varieties": varieties, "replay": replay,
            "cli": cli}


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def capture(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def ext_answer(ans) -> list:
    """The recorded form of an Ext answer: [graded, tag, chi]."""
    graded = ([[k, v] for k, v in sorted(ans.graded.items())]
              if ans.determinate else None)
    return [graded, ans.tag, ans.chi]


# --------------------------------------------------------------------------
# workloads: setup(mods, inputs) -> state; body(mods, state) -> (outputs,
# latencies); check(mods, state, outputs, full_check) -> (operations
# checked, failures).  All runs of one benchmark invocation get the same
# inputs and must give the same outputs (run.py compares their digests), so
# the checks that take a second or more (the replays, the second engine on
# ext-queries) run in the first run only.

def setup_verify_all(mods, inputs):
    for name in mods["varieties"].VARIETY_NAMES:
        mods["varieties"].get_variety(name)
    return None


def body_verify_all(mods, state):
    start = time.perf_counter()
    try:
        code, out = capture(mods["cli"], ["verify-all"])
    except Exception as err:  # counts as a failed operation
        code, out = None, f"{type(err).__name__}: {err}"
    return {"code": code, "stdout": out}, [time.perf_counter() - start]


def check_verify_all(mods, state, outputs, full_check):
    """The verdict byte for byte, then every bundled scenario's replay."""
    failures = []
    want = (EXPECTED / "verify_all.txt").read_text()
    if outputs["code"] != 0 or outputs["stdout"] != want:
        failures.append(f"verify-all exit {outputs['code']}, stdout "
                        f"{'differs' if outputs['stdout'] != want else 'ok'}")
    if not full_check:
        return 1, failures
    scenarios = json.loads((EXPECTED / "scenarios.json").read_text())
    replays = 0
    for name, hashes in scenarios.items():
        for mode, argv in (("text", ["replay", name]),
                           ("json", ["--json", "replay", name])):
            try:
                code, out = capture(mods["cli"], argv)
            except Exception as err:
                code, out = None, repr(err)
            got = digest(out)
            replays += 1
            if code != 0 or got != hashes[mode]:
                failures.append(f"replay {name} ({mode}) exit {code}, "
                                f"sha256 {got[:12]}")
    return 1 + replays, failures


def setup_euler_sweep(mods, inputs):
    chow, bbw = mods["chow"], mods["bbw"]
    rings = {"P3": chow.ring_p3(), "Gr23": chow.ring_gr23(),
             "Gr24": chow.ring_gr24(), "Gr24xP3": chow.ring_gr24_p3()}
    factors = {"P3": bbw.P3, "Gr23": bbw.GR23, "Gr24": bbw.GR24}
    return [(rings[name], tuple(factors[f] for f in SWEEP_PLAN[name][0]),
             [(tuple(s), tuple(q)) for s, q in pairs])
            for name, pairs in inputs]


def body_euler_sweep(mods, jobs):
    """Staircase Euler number against Riemann-Roch, one bundle per op."""
    irr, cohomology = mods["bbw"].irr, mods["bbw"].cohomology
    ch_bundle, chi = mods["chow"].ch_bundle, mods["chow"].chi
    clock = time.perf_counter
    outputs, latencies = [], []
    for ring, space, pairs in jobs:
        start = clock()
        try:
            bundle = irr(space, pairs)
            got = [cohomology(bundle).euler(),
                   chi(ring, ch_bundle(ring, bundle))]
        except Exception as err:
            got = [None, f"{type(err).__name__}: {err}"]
        latencies.append(clock() - start)
        outputs.append(got)
    return outputs, latencies


def check_euler_sweep(mods, jobs, outputs, full_check):
    return len(outputs), [f"bundle {i}: staircase {a} != Riemann-Roch {b}"
                          for i, (a, b) in enumerate(outputs) if a != b]


def setup_ext_queries(mods, inputs):
    varieties = {name: mods["varieties"].get_variety(name)
                 for name in mods["varieties"].VARIETY_NAMES}
    return [(varieties[name], a, b) for name, a, b in inputs]


def body_ext_queries(mods, queries):
    """A closed loop with one caller: each query waits for the last."""
    clock = time.perf_counter
    outputs, latencies = [], []
    for variety, a, b in queries:
        start = clock()
        try:
            got = ext_answer(variety.ext(a, b))
        except Exception as err:
            got = [None, "ERROR", f"{type(err).__name__}: {err}"]
        latencies.append(clock() - start)
        outputs.append(got)
    return outputs, latencies


def check_ext_queries(mods, queries, outputs, full_check):
    """Recorded answers, then Euler number against ``Variety.chi``."""
    want = json.loads((EXPECTED / "ext_answers.json").read_text())
    failures = []
    cross: dict[tuple, int] = {}
    for (variety, a, b), got in zip(queries, outputs):
        key = f"{variety.name}|{a}|{b}"
        if want.get(key) != got:
            failures.append(f"{key}: got {got}, recorded {want.get(key)}")
            continue
        graded = got[0]
        if graded is None or not full_check:
            continue
        if (variety.name, a, b) not in cross:
            try:
                cross[variety.name, a, b] = variety.chi(a, b)
            except Exception as err:
                cross[variety.name, a, b] = f"{type(err).__name__}: {err}"
        euler = sum((-1) ** k * d for k, d in graded)
        if euler != cross[variety.name, a, b]:
            failures.append(f"{key}: Euler number {euler} != "
                            f"chi {cross[variety.name, a, b]}")
    return len(outputs), failures


WORKLOADS = {
    "verify-all": (setup_verify_all, body_verify_all, check_verify_all),
    "euler-sweep": (setup_euler_sweep, body_euler_sweep, check_euler_sweep),
    "ext-queries": (setup_ext_queries, body_ext_queries, check_ext_queries),
}


def main() -> int:
    job = json.load(sys.stdin)
    setup, body, check = WORKLOADS[job["workload"]]

    t0 = time.perf_counter()
    mods = load_program()
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, mods)
    state = setup(mods, job["inputs"])
    t1 = time.perf_counter()
    outputs, latencies = body(mods, state)
    t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.snapshot() if tracer else None

    attempted, failures = check(mods, state, outputs, job["full_check"])
    result = {
        "setup_s": t1 - t0,
        "verdict_s": t2 - t1,
        "peak_rss_mb": peak_kb / 1024,
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest(outputs),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
