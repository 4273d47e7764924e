"""Record the outputs every benchmark run is checked against.

    python3 bench/record.py

writes ``bench/expected/``: the ``verify-all`` stdout, the sha256 of each
bundled scenario's text transcript and ``--json replay`` output, and the
``[graded, tag, chi]`` answer for every ordered label pair of every
``ext-queries`` pool.  The files were recorded once, at the commit that
added the benchmark; re-record only for an intended change of behaviour,
and say so.
"""

from __future__ import annotations

import json
import sys

from child import EXPECTED, capture, digest, ext_answer, load_program
from inputs import LABEL_POOLS


def main() -> int:
    mods = load_program()
    cli, varieties = mods["cli"], mods["varieties"]
    code, out = capture(cli, ["verify-all"])
    if code != 0:
        print("verify-all does not pass; nothing recorded", file=sys.stderr)
        return 1
    scenarios = {}
    for name in mods["replay"].SCENARIOS:
        scenarios[name] = {}
        for mode, argv in (("text", ["replay", name]),
                           ("json", ["--json", "replay", name])):
            code, text = capture(cli, argv)
            if code != 0:
                print(f"replay {name} fails; nothing recorded",
                      file=sys.stderr)
                return 1
            scenarios[name][mode] = digest(text)
    answers = {}
    for name, pool in LABEL_POOLS.items():
        variety = varieties.get_variety(name)
        for a in pool:
            for b in pool:
                answers[f"{name}|{a}|{b}"] = ext_answer(variety.ext(a, b))
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "verify_all.txt").write_text(out)
    (EXPECTED / "scenarios.json").write_text(
        json.dumps(scenarios, indent=1, sort_keys=True) + "\n")
    (EXPECTED / "ext_answers.json").write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(answers.items())
    ) + "\n}\n")
    print(f"recorded verify-all, {2 * len(scenarios)} replay digests, "
          f"{len(answers)} Ext answers in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
