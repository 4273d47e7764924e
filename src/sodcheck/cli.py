"""Command-line front end: cohomology queries, pairings, mutations, and
scenario replays against the built-in variety catalog.

Exit codes: 0 all checks pass, 1 a check fails, 2 malformed input, 3 an
internal fault, 141 (128 + SIGPIPE) the reader closed standard output
early, as ``sodcheck replay ... | head`` does; then nothing more is printed.
Malformed input is an unknown variety or bundled scenario name, a label
outside the variety's grammar (or a pair of labels its lattice cannot
pair), a node count outside 1..11 on a blowup, or a scenario file that
cannot be read or parsed; each gives one ``error:`` line.  Any other
fault, such as a non-integral Euler characteristic (inconsistent ring
data, which no input can cause), is internal: ``internal error:`` and
exit 3.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import InputError, replay as replay_mod
from .bbw import GR24, P3, irr, line
from .chow import ch_bundle, ring_gr24, ring_p3
from .kmut import (
    AmbientLattice,
    FormalClass,
    gram,
    is_unitriangular,
    mutate_left,
    mutate_right,
)
from .varieties import (
    AXIOMS,
    CHI_ONLY,
    DEFAULT_NODES,
    VARIETY_NAMES,
    Check,
    axiom_statement,
    check_split_certificate,
    double_cover_check,
    get_variety,
    node_count,
    projection_shadow_report,
)


def _node_count(text: str) -> int:
    """argparse type of --nodes: a positive integer."""
    try:
        return node_count(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _variety(args):
    if args.space not in VARIETY_NAMES:
        raise InputError(f"unknown variety {args.space!r}")
    nodes = DEFAULT_NODES if args.nodes is None else args.nodes
    return get_variety(args.space, nodes)


def _print_graded(ans, as_json: bool, strict: bool) -> int:
    if as_json:
        payload = {
            "tag": ans.tag,
            "route": ans.route,
            "chi": ans.chi,
            "graded": (
                {str(k): v for k, v in sorted(ans.graded.items())}
                if ans.determinate else None
            ),
        }
        if ans.axioms:
            payload["imports"] = sorted(ans.axioms)
        if not ans.determinate and ans.table is not None:
            payload["table"] = [list(row) for row in ans.table.entries]
        print(json.dumps(payload, sort_keys=True))
    else:
        if ans.determinate:
            if not ans.graded:
                print("zero")
            for k in sorted(ans.graded):
                print(f"degree {k}: dim {ans.graded[k]}")
        else:
            print(f"indeterminate ({ans.tag}: {ans.route})")
            if ans.chi is not None:
                print(f"chi = {ans.chi}")
        if ans.axioms:
            print("imports: " + ", ".join(sorted(ans.axioms)))
    if strict and (not ans.determinate or ans.tag == CHI_ONLY):
        return 1
    return 0


def cmd_bbw(args) -> int:
    v = _variety(args)
    ans = v.ext("O", args.bundle)
    return _print_graded(ans, args.json, args.strict)


def cmd_hyper(args) -> int:
    v = _variety(args)
    ans = v.ext(args.source, args.target)
    return _print_graded(ans, args.json, args.strict)


def cmd_chi(args) -> int:
    v = _variety(args)
    val = v.chi("O", args.bundle)
    print(json.dumps({"chi": val}) if args.json else f"chi = {val}")
    return 0


def cmd_pair(args) -> int:
    v = _variety(args)
    val = v.chi(args.source, args.target)
    print(json.dumps({"chi": val}) if args.json else f"chi = {val}")
    return 0


def cmd_mutate(args) -> int:
    v = _variety(args)
    e = v.kclass(args.pivot)
    f = v.kclass(args.moved)
    if args.direction == "left":
        out = mutate_left(v.lattice, e, f)
    else:
        out = mutate_right(v.lattice, e, f)
    if isinstance(out, FormalClass):
        shown = dict(sorted((v.format(k), c) for k, c in out.coeffs.items()))
        print(json.dumps(shown, sort_keys=True) if args.json else
              " + ".join(f"{c}*[{k}]" for k, c in shown.items()) or "0")
    else:
        print(repr(out))
    return 0


def cmd_gram(args) -> int:
    v = _variety(args)
    classes = [v.kclass(lbl) for lbl in args.labels]
    mat = gram(v.lattice, classes)
    tri = is_unitriangular(mat)
    if args.json:
        print(json.dumps({"matrix": mat, "unitriangular": tri}))
    else:
        width = max(len(str(x)) for row in mat for x in row)
        for row in mat:
            print("  ".join(str(x).rjust(width) for x in row))
        print(f"unitriangular: {'yes' if tri else 'no'}")
    return 0 if tri or not args.strict else 1


def cmd_catalog(args) -> int:
    if args.json:
        print(json.dumps({
            "varieties": list(VARIETY_NAMES),
            "scenarios": list(replay_mod.SCENARIOS),
            "imports": {k: AXIOMS[k] for k in sorted(AXIOMS)},
        }, sort_keys=True))
        return 0
    print("varieties:")
    for name in VARIETY_NAMES:
        print(f"  {name}")
    print("bundled scenarios:")
    for name in replay_mod.SCENARIOS:
        print(f"  {name}")
    print("importable statements (everything else is computed):")
    for name in sorted(AXIOMS):
        print(f"  {name}: {axiom_statement(name)}")
    return 0


def _load_scenario_arg(arg: str, catalog: str | None):
    path = Path(arg)
    if path.suffix == ".sod" or path.exists():
        return replay_mod.read_scenario(path)
    if catalog:
        return replay_mod.read_scenario(Path(catalog) / f"{arg}.sod")
    return replay_mod.load_scenario(arg)


def cmd_replay(args) -> int:
    sc = _load_scenario_arg(args.scenario, args.catalog)
    if args.nodes is not None:
        sc.nodes = args.nodes
    result = replay_mod.run_scenario(sc)
    if args.json:
        print(json.dumps({
            "name": result.name,
            "passed": result.passed,
            "imports": sorted(result.axioms_used),
            "transcript": result.transcript,
        }))
    else:
        print(result.text())
    return 0 if result.passed else 1


# --------------------------------------------------------------------------
# the numerical mutation-calculus property suite (seeded, deterministic)

def _property_pools():
    lat_p3 = AmbientLattice(ring_p3(), "P3")
    lat_gr = AmbientLattice(ring_gr24(), "Gr24")

    def p3_line(t):
        return ch_bundle(lat_p3.ring, line((P3,), (t,)))

    def gr_line(t):
        return ch_bundle(lat_gr.ring, line((GR24,), (t,)))

    quot = ch_bundle(lat_gr.ring, irr((GR24,), [((0, 0), (0, -1))]))

    def gr_quot(t):
        return quot * gr_line(t)

    beilinson = [p3_line(t) for t in range(4)]
    grass = [gr_line(-2), gr_line(-1), gr_quot(-1), gr_line(0),
             gr_quot(0), gr_line(1)]
    pool_p3 = [p3_line(t) for t in range(-3, 4)]
    pool_gr = [gr_line(t) for t in range(-3, 4)]
    return (lat_p3, beilinson, pool_p3), (lat_gr, grass, pool_gr)


def _random_class(rng, pool, lat):
    out = lat.zero()
    for i in rng.sample(range(len(pool)), rng.randint(1, 3)):
        out = out + pool[i].scale(rng.randint(-3, 3))
    return out


def _move(lat, col, i, direction):
    col = list(col)
    a, b = col[i], col[i + 1]
    if direction == "left":
        col[i], col[i + 1] = mutate_left(lat, a, b), a
    else:
        col[i], col[i + 1] = b, mutate_right(lat, b, a)
    return col


def run_property_suite(rounds: int = 40) -> tuple[Check, ...]:
    """Seeded random checks of the mutation calculus, one ``Check`` each."""
    setups = _property_pools()
    checks = []

    rng = random.Random(101)
    ok = True
    for _ in range(rounds):
        lat, _, pool = setups[rng.randrange(2)]
        e = rng.choice(pool)
        f = _random_class(rng, pool, lat)
        g = mutate_right(lat, e, f)
        ok = ok and lat.pair(g, e) == 0
        ok = ok and mutate_right(lat, e, mutate_left(lat, e, g)) == g
        h = mutate_left(lat, e, f)
        ok = ok and lat.pair(e, h) == 0
        ok = ok and mutate_left(lat, e, mutate_right(lat, e, h)) == h
    checks.append(Check("mutations are involutive on the orthogonals", ok,
                        f"{rounds} random rounds"))

    rng = random.Random(102)
    ok = True
    for _ in range(rounds):
        lat, base, _ = setups[rng.randrange(2)]
        col = list(base)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(col) - 1)
            col = _move(lat, col, i, rng.choice(["left", "right"]))
            ok = ok and is_unitriangular(gram(lat, col))
    checks.append(Check("collection moves keep the gram unitriangular", ok,
                        f"{rounds} random walks"))

    rng = random.Random(103)
    ok = True
    for _ in range(rounds):
        lat, base, _ = setups[rng.randrange(2)]
        col = list(base)
        for _ in range(rng.randint(0, 2)):
            col = _move(lat, col, rng.randrange(len(col) - 1),
                        rng.choice(["left", "right"]))
        k = rng.randrange(len(col) - 2)
        triple = col[k:k + 3]

        def s1(c):
            return _move(lat, c, 0, "left")

        def s2(c):
            return _move(lat, c, 1, "left")

        ok = ok and s1(s2(s1(triple))) == s2(s1(s2(triple)))
    checks.append(Check("adjacent moves satisfy the braid relation", ok,
                        f"{rounds} random triples"))

    rng = random.Random(104)
    ok = True
    for _ in range(rounds):
        idx = rng.randrange(2)
        lat, _, pool = setups[idx]
        lb = pool[rng.randrange(len(pool))]  # a line class: invertible
        e = rng.choice(pool)
        f = _random_class(rng, pool, lat)
        ok = ok and mutate_left(lat, e, f) * lb == \
            mutate_left(lat, e * lb, f * lb)
        ok = ok and mutate_right(lat, e, f) * lb == \
            mutate_right(lat, e * lb, f * lb)
    checks.append(Check("twisting commutes with mutation", ok,
                        f"{rounds} random rounds"))
    return tuple(checks)


def cmd_verify_all(args) -> int:
    nodes = DEFAULT_NODES if args.nodes is None else args.nodes
    axioms_used: set[str] = set()

    if args.catalog:
        root = Path(args.catalog)
        if not root.is_dir():
            raise InputError(f"scenario catalog {root} is not a directory")
        paths = sorted(root.glob("*.sod"), key=lambda p: p.stem)
        if not paths:
            raise InputError(f"scenario catalog {root} holds no .sod file")
        scenarios = []
        for path in paths:
            try:
                scenarios.append(replay_mod.read_scenario(path))
            except replay_mod.MalformedScenario as err:
                raise InputError(f"{path}: {err}") from None
    else:
        scenarios = [replay_mod.load_scenario(n)
                     for n in replay_mod.SCENARIOS]
    checks = []
    for sc in scenarios:
        if args.nodes is not None:
            sc.nodes = args.nodes
        try:
            result = replay_mod.run_scenario(sc)
        except InputError as err:
            raise InputError(f"scenario {sc.name}: {err}") from None
        axioms_used |= result.axioms_used
        checks.append(result.check())
    blowup = ["O(-h)"] + [f"O(-e{i})" for i in range(1, nodes + 1)] + ["O"]
    checks += [
        check_split_certificate(),
        double_cover_check("P3", "O(2h)", ["O(-h)", "O"], nodes),
        double_cover_check("blown_p3", "O(H)", blowup, nodes),
        projection_shadow_report(),
        *run_property_suite(),
    ]

    passed = all(c.passed for c in checks)
    if args.json:
        print(json.dumps({
            "passed": passed,
            "imports_used": sorted(axioms_used),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
        }))
    else:
        for c in checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})")
        print(f"imports used anywhere: "
              f"{', '.join(sorted(axioms_used)) or 'none'}")
        print("VERIFY-ALL: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodcheck",
        description=__doc__,
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--strict", action="store_true",
                        help="fail on evidence below graded certainty")
    parser.add_argument("--nodes", type=_node_count, default=None,
                        help=f"blowup point count (default {DEFAULT_NODES})")
    parser.add_argument("--catalog", default=None,
                        help="directory of scenario files overriding the "
                             "bundled set")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bbw", help="graded cohomology of a bundle")
    p.add_argument("space")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_bbw)

    p = sub.add_parser("hyper",
                       help="graded Ext via structure-complex resolutions")
    p.add_argument("space")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("chi", help="Euler characteristic of a bundle")
    p.add_argument("space")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("pair", help="Euler pairing chi(source, target)")
    p.add_argument("space")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("mutate", help="mutate a class through another")
    p.add_argument("space")
    p.add_argument("direction", choices=["left", "right"])
    p.add_argument("pivot")
    p.add_argument("moved")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("gram", help="chi-gram matrix of catalog classes")
    p.add_argument("space")
    p.add_argument("labels", nargs="+")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("catalog",
                       help="list varieties, scenarios, and imports")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("replay", help="replay a mutation scenario")
    p.add_argument("scenario",
                   help="bundled scenario name or path to a .sod file")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify-all",
                       help="replay every scenario and run every check")
    p.set_defaults(func=cmd_verify_all)
    return parser


def _silence_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's final
    flush of a closed pipe cannot raise again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor behind this stdout
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 141
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - any other fault is internal
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
