"""Seeded mutations of the bundled scenario files through ``sodcheck replay``.

Each mutant deletes, duplicates or retypes one line of a bundled ``.sod``
file (a retyped line has one token swapped for a token of another line).
Whatever the damage, the replay must end in a verdict or a clean input
error: exit 0, 1 or 2, no escaping exception, and an exit 2 leaves exactly
one ``error:`` line on stderr.  That line names the line at fault, unless
the file as a whole lacks its name or variety.
"""

import random
from importlib import resources

from sodcheck.cli import main
from sodcheck.replay import SCENARIOS

SEED = 1515
MUTANTS = 100


def _sources():
    root = resources.files("sodcheck") / "scenarios"
    return {name: (root / f"{name}.sod").read_text() for name in SCENARIOS}


def _mutants(rng, sources):
    """(description, text) of MUTANTS one-line mutants, fixed by the seed."""
    tokens = sorted({t for text in sources.values() for t in text.split()})
    names = sorted(sources)
    out = []
    while len(out) < MUTANTS:
        name = rng.choice(names)
        lines = sources[name].splitlines(keepends=True)
        i = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "retype"))
        if op == "delete":
            new = lines[:i] + lines[i + 1:]
        elif op == "duplicate":
            new = lines[:i + 1] + lines[i:]
        else:
            words = lines[i].split()
            if not words:
                continue
            k = rng.randrange(len(words))
            words[k] = rng.choice(tokens)
            indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
            new = lines[:i] + [indent + " ".join(words) + "\n"] + lines[i + 1:]
        out.append((f"{op} line {i + 1} of {name}", "".join(new)))
    return out


def test_mutated_scenarios_end_in_a_verdict_or_an_input_error(
        tmp_path, capsys):
    mutants = _mutants(random.Random(SEED), _sources())
    exits = {0: 0, 1: 0, 2: 0}
    for n, (what, text) in enumerate(mutants):
        path = tmp_path / f"mutant{n}.sod"
        path.write_text(text)
        try:
            code = main(["replay", str(path)])
        except Exception as exc:  # noqa: BLE001 - the escape is the failure
            raise AssertionError(f"{what}: {exc!r} escaped") from exc
        err = capsys.readouterr().err
        assert code in exits, f"{what}: exit {code}"
        exits[code] += 1
        if code == 2:
            errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1, f"{what}: stderr {err!r}"
            assert errors[0].startswith("error: line ") or errors[0] == (
                "error: scenario must declare a name and a variety"
            ), f"{what}: {errors[0]}"
    # the mutants reach all three outcomes
    assert all(exits.values()), exits
