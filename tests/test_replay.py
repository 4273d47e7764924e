"""Tests for the mutation-replay engine.

Covers the scenario grammar, step semantics (wrap-around translation,
orthogonal swaps, mutations, relabelling, block insertion), evidence
soundness of the transcripts, determinism against the recorded transcript
digests, and the four bundled walkthroughs with their frozen final states
and import sets.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from sodcheck.cli import main
from sodcheck.replay import (
    SCENARIOS,
    Block,
    Concrete,
    Family,
    ReplayError,
    UnidentifiedResult,
    load_scenario,
    parse_scenario,
    run_all,
    run_scenario,
)


EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def flat_state(state):
    out = []
    for e in state:
        if isinstance(e, Family):
            out.extend(("entry", m.label, m.parity) for m in e.members)
        elif isinstance(e, Block):
            out.append(("block", e.name))
        else:
            out.append(("entry", e.label, e.parity))
    return out


def run_text(text):
    return run_scenario(parse_scenario(text))


def load_scenario_text(name):
    return (Path(__file__).resolve().parents[1] / "src" / "sodcheck"
            / "scenarios" / f"{name}.sod").read_text()


# ------------------------------------------------------- bundled scenarios

def test_bundled_catalog():
    assert SCENARIOS == (
        "blown-p3-doubling",
        "gr-to-clifford",
        "enriques-split",
        "cover-blowup-reorder",
    )
    for name in SCENARIOS:
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.steps


def test_blowup_doubling_replay():
    res = run_scenario("blown-p3-doubling")
    assert res.passed
    assert res.axioms_used == {"orlov_blowup_sod"}
    half = [
        ("entry",
         "O(-2h+" + "+".join(f"e{j}" for j in range(1, 11) if j != i) + ")",
         1)
        for i in range(1, 11)
    ]
    assert flat_state(res.state) == (
        [("entry", "O(-3h+e)", 0)] + half
        + [("entry", "O(-2h+e)", 0), ("entry", "O(-h)", 0)]
        + [("entry", f"O(-e{i})", 1) for i in range(1, 11)]
        + [("entry", "O", 0)]
    )


def test_clifford_replay():
    res = run_scenario("gr-to-clifford")
    assert res.passed
    assert res.axioms_used == {
        "orlov_blowup_sod", "clifford_modules",
        "clifford_pushforward_vanishing",
    }
    assert flat_state(res.state) == [
        ("entry", "Cliff_-1(-g)", 0),
        ("entry", "Cliff_0(-g)", 0),
        ("entry", "Cliff_1(-g)", 0),
        ("entry", "Cliff_2(-g)", 0),
        ("entry", "O(-h)", 0),
        ("entry", "O", 0),
        ("block", "SurfD"),
    ]


def test_enriques_replay():
    res = run_scenario("enriques-split")
    assert res.passed
    assert res.axioms_used == {
        "orlov_blowup_sod", "clifford_modules", "enriques_ten_orthogonal",
        "enriques_image_plane", "quadric_net_sod",
    }
    assert flat_state(res.state) == (
        [("entry", "O(-2h)", 0), ("entry", "O(-h)", 0),
         ("block", "SurfRes"),
         ("entry", "Cliff_-1", 0), ("entry", "Cliff_0", 0),
         ("entry", "Cliff_1", 0), ("entry", "Cliff_2", 0)]
        + [("entry", f"O_Pl{i}", 0) for i in range(1, 11)]
    )


def test_cover_reorder_replay():
    res = run_scenario("cover-blowup-reorder")
    assert res.passed
    assert res.axioms_used == {"orlov_blowup_sod"}
    assert flat_state(res.state) == (
        [("block", "CoverRes")]
        + [("entry", f"O_Q{i}(-1,0)", 0) for i in range(1, 11)]
        + [("entry", "O(-h)", 0)]
        + [("entry", f"O(-e{i})", 1) for i in range(1, 11)]
        + [("entry", "O", 0)]
    )


def test_axioms_stay_within_each_allowance():
    for name in SCENARIOS:
        sc = load_scenario(name)
        res = run_scenario(name)
        assert res.passed
        assert res.axioms_used <= sc.allowed, name


def test_transcripts_are_deterministic(capsys):
    """Two runs give one transcript, and its stdout is the recorded one.

    ``bench/expected/scenarios.json`` holds the sha256 of the ``replay``
    and ``--json replay`` stdout of every bundled scenario.
    """
    recorded = json.loads((EXPECTED / "scenarios.json").read_text())
    assert sorted(recorded) == sorted(SCENARIOS)
    for name in SCENARIOS:
        assert main(["replay", name]) == 0
        text = capsys.readouterr().out
        assert main(["--json", "replay", name]) == 0
        as_json = capsys.readouterr().out
        assert "\n".join(json.loads(as_json)["transcript"]) + "\n" == text
        assert text.endswith(f"scenario {name}: PASS\n")
        assert _sha256(text) == recorded[name]["text"], name
        assert _sha256(as_json) == recorded[name]["json"], name


EVIDENCE = re.compile(r"Ext\(.*\) = .* \[(\w[\w-]*)\] chi (-?\d+) "
                      r"== lattice (-?\d+)")


def test_evidence_lines_are_certified_and_cross_checked():
    for name in SCENARIOS:
        res = run_scenario(name)
        tags = set()
        seen = 0
        for line in res.transcript:
            m = EVIDENCE.search(line)
            if m:
                seen += 1
                tags.add(m.group(1))
                assert m.group(2) == m.group(3), line
        assert seen > 0, name
        assert tags <= {"BBW", "RULE", "AXIOM"}, name
        if "AXIOM" in tags:
            # axiom-backed evidence appears only where the walkthrough
            # explicitly imports the statements it relies on
            assert name == "gr-to-clifford"


def test_identify_steps_carry_self_ext_evidence():
    res = run_scenario("blown-p3-doubling")
    text = res.text()
    # each identified object must come with a graded self-Ext certificate
    assert "Ext(O(-3h+e), O(-3h+e)) = C[0]" in text
    assert "Ext(O(-e1), O(-e1)) = C[0]" in text


# ------------------------------------------------------------ step algebra

def test_serre_wrap_round_trip():
    res = run_text("""
scenario serre-round-trip
variety P3
initial:
  entry O(-h)
  entry O
step s1 serre left 1
step s2 serre right 1
expect:
  entry O(-h)
  entry O
""")
    assert res.passed
    assert "O(-4h)" in res.text()  # the wrapped object passed through omega


def test_swap_then_inverse_swap_restores_state():
    res = run_text("""
scenario swap-inverse
variety blown_p3
nodes 2
initial:
  entry O_E1
  entry O_E2
step s1 pass_left movers=O_E2 to=front
step s2 pass_right movers=O_E2 to=end
expect:
  entry O_E1
  entry O_E2
""")
    assert res.passed
    lines = [l.strip() for l in res.transcript if l.strip().startswith("<")]
    assert lines[1] == "< O_E2, O_E1 >"
    assert lines[2] == "< O_E1, O_E2 >"


def test_right_mutation_undoes_the_left_one_on_the_blowup():
    # a2/a3 left-mutate O(-3h) through the twisted plane family into
    # O(-3h+e); right-mutating that back through the family gives O(-3h)
    text = load_scenario_text("blown-p3-doubling")
    head = text[:text.index("step a4")]
    res = run_text(head + """
step r1 mutate_right mover=O(-3h+e) through=family:E1
step r2 identify from=r1 as=O(-3h) parity=0
expect:
  family E1: O_E{i}(-1)
  entry O(-3h)
  entry O(-2h)
  entry O(-h)
  entry O
  family E0: O_E{i}
""")
    assert res.passed, res.text()
    text = res.text()
    assert "step r1: right-mutate O(-3h+e) through {O_E{i}(-1)}" in text
    for i in range(1, 11):
        assert (f"Ext(O(-3h+e), O_E{i}(-1)) = C[0] [RULE] chi 1 == lattice 1"
                in text)
    assert "step r2: identify the result of r1 as O(-3h)" in text


def test_twist_all_step():
    res = run_text("""
scenario twist-all
variety P3
initial:
  entry O(-h)
  entry O
step t1 twist_all by=O(h)
expect:
  entry O
  entry O(h)
""")
    assert res.passed


def test_empty_scenario_passes():
    res = run_text("scenario empty\nvariety P3\n")
    assert res.passed
    assert res.state == []
    assert res.text().endswith("scenario empty: PASS")


# --------------------------------------------------------- failure modes

def test_forced_swap_fails_on_nonvanishing_evidence():
    # moving O(-g) leftward past O(-2g) requires Ext(O(-2g), O(-g)) = 0,
    # which is false; the replay must stop at exactly that step
    res = run_text("""
scenario forced-swap
variety net_fourfold
initial:
  entry O(-2g)
  entry O(-g)
  entry V/U(-g)
  entry O
  entry V/U
  entry O(g)
step x1 pass_left movers=O(-g) to=front
expect:
  entry O(-g)
  entry O(-2g)
  entry V/U(-g)
  entry O
  entry V/U
  entry O(g)
""")
    assert not res.passed
    text = res.text()
    assert "step x1" in text
    assert "expected zero" in text
    assert text.endswith(
        "scenario forced-swap: FAIL — Ext(O(-2g), O(-g)) = "
        "C^6[0] chi=6 [BBW: structure-sheaf Koszul + weight staircase]; "
        "expected zero"
    )


def test_selecting_an_unidentified_result_is_an_input_error(tmp_path, capsys):
    # without its identify step, a4's result keeps its synthetic name; a
    # later step naming it must not hand that name to the label parser
    text = load_scenario_text("blown-p3-doubling")
    drop = "step a5 identify from=a4 as=O(-2h+e) parity=0\n"
    assert drop in text and "through=O(-2h+e)" in text
    path = tmp_path / "doubling.sod"
    path.write_text(
        text.replace(drop, "").replace("through=O(-2h+e)", "through=mut:a4")
    )
    code = main(["replay", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "step a4" in err and "mut:a4" in err
    assert "cannot parse label" not in err


BEILINSON_MUTANT = """
scenario unnamed-mutant
variety P3
initial:
  entry O
  entry O(h)
step m1 mutate_left mover=O(h) through=O
"""


@pytest.mark.parametrize("step", [
    "step s1 serre right 1",
    "step s1 pass_left movers=O to=front",
    "step s1 twist_all by=O(h)",
])
def test_an_unidentified_result_never_reaches_the_variety(step):
    with pytest.raises(UnidentifiedResult, match="result of step m1"):
        run_text(BEILINSON_MUTANT + step + "\n")


def test_unlisted_import_fails():
    res = run_text("""
scenario smuggled-import
variety net_fourfold
initial:
  entry Cliff_1(-g)
step n1 identify entry=Cliff_1(-g) as=Cliff_1(-g) parity=0
expect:
  entry Cliff_1(-g)
""")
    assert not res.passed
    assert "not allowed" in res.text() or "allowance" in res.text()


PLANE_IMAGE = """
scenario plane-image
variety net_fourfold
{allow}
initial:
  block B "B"
step s1 insert_block target=block:B exceptional=O_Pl1(-1)
"""


@pytest.mark.parametrize("allow", ["", "allow_axioms enriques_image_plane"])
def test_exceptional_self_ext_imports_are_charged(tmp_path, capsys, allow):
    # Ext(O_Pl1(-1), O_Pl1(-1)) = C[0] holds only by the plane-image
    # statement, so the exceptional= check must charge that import
    path = tmp_path / "plane.sod"
    path.write_text(PLANE_IMAGE.format(allow=allow))
    code = main(["replay", str(path)])
    out = capsys.readouterr().out
    if allow:
        assert code == 0
        assert "Ext(O_Pl1(-1), O_Pl1(-1)) = C[0] [AXIOM]\n" in out
        assert "imports used: enriques_image_plane\n" in out
        assert out.endswith("scenario plane-image: PASS\n")
    else:
        assert code == 1
        assert out.endswith(
            "scenario plane-image: FAIL — Ext(O_Pl1(-1), O_Pl1(-1)): "
            "import enriques_image_plane is not allowed in this scenario\n"
        )


def test_mutation_requires_adjacency():
    res = run_text("""
scenario far-mutation
variety P3
initial:
  entry O(-2h)
  entry O(-h)
  entry O
step m1 mutate_left mover=O through=O(-2h)
expect:
  entry O(-2h)
  entry O(-h)
  entry O
""")
    assert not res.passed
    assert "not adjacent" in res.text()


def test_identify_with_wrong_class_fails():
    res = run_text("""
scenario wrong-identify
variety P3
initial:
  entry O(-h)
  entry O
step m1 mutate_left mover=O through=O(-h)
step m2 identify from=m1 as=O(-2h) parity=0
expect:
  entry O(-2h)
  entry O(-h)
""")
    assert not res.passed
    assert "does not match" in res.text()


def test_initial_gram_precondition():
    res = run_text("""
scenario bad-gram
variety P3
initial:
  entry O
  entry O(-h)
expect:
  entry O
  entry O(-h)
""")
    assert not res.passed
    assert "chi(O(-h), O) = 4, expected 0" in res.text()


def test_unknown_step_kind_fails():
    res = run_text("""
scenario bad-step
variety P3
initial:
  entry O
step z1 collapse target=O
expect:
  entry O
""")
    assert not res.passed
    assert "unknown step kind" in res.text()


@pytest.mark.parametrize("step", [
    "serre left 0", "serre right -1", "serre left two", "serre left",
    "serre up 1", "serre left 1 2",
])
def test_serre_side_and_count_are_checked_when_parsed(step):
    with pytest.raises(ReplayError, match="^line 3: serre "):
        parse_scenario(f"scenario s\nvariety P3\nstep s1 {step}\n")


_NO_EXACTLY_ONE = "identify needs exactly one of from= and entry="


@pytest.mark.parametrize("step, message", [
    ("pass_left movers=O", "pass_left needs to="),
    ("pass_right to=end", "pass_right needs movers="),
    ("mutate_left mover=O", "mutate_left needs through="),
    ("mutate_right through=O", "mutate_right needs mover="),
    ("twist_all", "twist_all needs by="),
    ("identify from=s0", "identify needs as="),
    ("identify as=O", _NO_EXACTLY_ONE),
    ("identify from=s0 entry=O as=O", _NO_EXACTLY_ONE),
    ("identify from=s0 as=O parity=x",
     "identify parity must be 0 or 1, got 'x'"),
    ("identify entry=O as=O parity=2",
     "identify parity must be 0 or 1, got '2'"),
    ("insert_block axioms=clifford_modules", "insert_block needs target="),
])
def test_step_arguments_are_checked_when_parsed(step, message):
    with pytest.raises(ReplayError) as err:
        parse_scenario(f"scenario s\nvariety P3\nstep s1 {step}\n")
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("name, old, new, message", [
    ("gr-to-clifford", "step b8 pass_right movers=block:SurfD to=end",
     "step b8 pass_right movers=block:SurfD", "pass_right needs to="),
    ("enriques-split", "step c2 twist_all by=O(g)", "step c2 twist_all",
     "twist_all needs by="),
    ("gr-to-clifford", "step b4 mutate_left mover=O(-g) through=O(-h)",
     "step b4 mutate_left mover=O(-g)", "mutate_left needs through="),
    ("gr-to-clifford", "step b5 identify from=b4 as=Cliff_0(-g) parity=0",
     "step b5 identify from=b4 parity=0", "identify needs as="),
    ("gr-to-clifford", "step b5 identify from=b4 as=Cliff_0(-g) parity=0",
     "step b5 identify as=Cliff_0(-g) parity=0", _NO_EXACTLY_ONE),
    ("gr-to-clifford", "step b5 identify from=b4 as=Cliff_0(-g) parity=0",
     "step b5 identify from=b4 as=Cliff_0(-g) parity=x",
     "identify parity must be 0 or 1, got 'x'"),
])
def test_missing_step_arguments_name_the_line(tmp_path, capsys, name, old,
                                              new, message):
    text = load_scenario_text(name)
    assert old + "\n" in text
    line = text[:text.index(old)].count("\n") + 1
    path = tmp_path / f"{name}.sod"
    path.write_text(text.replace(old + "\n", new + "\n"))
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line {line}: {message}\n"


REPLACE_SHEAF = """scenario replace-sheaf
variety P3
initial:
  entry O(-h)
  entry O
step s1 insert_block target=O
  entry O(h)
expect:
  entry O(-h)
  entry O(h)
"""

_UNNAMED = "names no earlier mutate step whose result is still unidentified"

# (scenario name or text, old, new, line, message): each edit passed, read
# as a failed check, or named no line, until parse_scenario checked it
STEP_TABLE_CASES = [
    ("enriques-split", "require=split_certificate",
     "requires=split_certificate", 20,
     "insert_block does not take 'requires=split_certificate'"),
    ("gr-to-clifford", "mover=O(-g) through=O(-h)",
     "mover=O(-g) through=O(-h) extra=1", 23,
     "mutate_left does not take 'extra=1'"),
    ("enriques-split", "twist_all by=O(g)", "twist_all by=O(g) junk", 23,
     "twist_all does not take 'junk'"),
    ("gr-to-clifford", "movers=block:SurfD to=end",
     "movers=block:SurfD to=sideways", 27,
     "bad pass destination 'sideways'"),
    ("enriques-split", "require=split_certificate",
     "require=split_certifcate", 20,
     "require must be split_certificate, got 'split_certifcate'"),
    (REPLACE_SHEAF, "target=O", "target=O", 6,
     "insert_block target must be block:NAME, got 'O'"),
    ("gr-to-clifford", "to=after:V/U(-g)\nstep b7",
     "to=after:each:V/U(-g)\nstep b7", 25,
     "each: is allowed only in movers= and mover=, got 'each:V/U(-g)'"),
    ("enriques-split", "  family Pl: O_Pl{i}(-1)",
     "  famly Pl: O_Pl{i}(-1)", 21,
     "unknown entry declaration 'famly Pl: O_Pl{i}(-1)'"),
    ("enriques-split", "by=O(g)\n", "by=O(g)\n  entry O(5g)\n", 24,
     "unexpected indented line 'entry O(5g)'"),
    ("gr-to-clifford", "identify from=b4", "identify from=b9", 24,
     f"identify from=b9 {_UNNAMED}"),
    ("gr-to-clifford", "parity=0\nstep b6",
     "parity=0\nstep b5x identify from=b4 as=Cliff_0(-g)\nstep b6", 25,
     f"identify from=b4 {_UNNAMED}"),
    ("gr-to-clifford", "step b6 pass_right", "step b5 pass_right", 25,
     "step id b5 is already used"),
    ("gr-to-clifford", "movers=O(-2g) to=front",
     "movers=O(-2g) to=front to=end", 22,
     "pass_left has to= twice: 'to=end'"),
    ("gr-to-clifford", "to=after:V/U(-g)\nstep b7", "to=after:\nstep b7", 25,
     "bad pass destination 'after:'"),
    ("gr-to-clifford", "to=before:V/U", "to=before:", 20,
     "bad pass destination 'before:'"),
    ("gr-to-clifford", "movers=block:SurfD to=end", "movers=block: to=end",
     27, "selector 'block:' names nothing"),
    ("enriques-split", "movers=family:Pl", "movers=family:", 24,
     "selector 'family:' names nothing"),
    ("cover-blowup-reorder", "mover=each:O_Q{i}", "mover=each:", 42,
     "selector 'each:' names nothing"),
    ("cover-blowup-reorder", "to=after:block:CoverRes", "to=after:block:",
     41, "selector 'block:' names nothing"),
    ("enriques-split", "variety net_fourfold", "variety orlov_blowup_sod", 6,
     "unknown variety 'orlov_blowup_sod'"),
    ("blown-p3-doubling", "nodes 10", "nodes 12", 7,
     "the blowup of P3 supports 0 to 11 points, got 12"),
    ("cover-blowup-reorder", "nodes 10", "nodes 12", 9,
     "the blowup of P3 supports 0 to 11 points, got 12"),
    ("blown-p3-doubling", "variety blown_p3\nnodes 10",
     "nodes 40\nvariety blown_p3", 6,
     "the blowup of P3 supports 0 to 11 points, got 40"),
]


def _edited(source, old, new):
    text = load_scenario_text(source) if source in SCENARIOS else source
    assert text.count(old) == 1
    return text.replace(old, new)


@pytest.mark.parametrize("source, old, new, line, message",
                         STEP_TABLE_CASES)
def test_step_table_checks_name_the_line(source, old, new, line, message):
    with pytest.raises(ReplayError) as err:
        parse_scenario(_edited(source, old, new))
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("source, old, new, line, message",
                         STEP_TABLE_CASES)
def test_step_table_errors_exit_two_before_the_replay(
        tmp_path, capsys, source, old, new, line, message):
    path = tmp_path / "edited.sod"
    path.write_text(_edited(source, old, new))
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("old, new, got, expected", [
    # slot 12 of 24: the entry the doubling leaves as O(-H)
    ("  entry O(-H)\n", "  entry O(-3h)\n",
     "('entry', 'O(-2h+e)', 0)", "('entry', 'O(-3h)', 0)"),
    # slot 14: the first point sheaf twisted down, expected with parity 0
    ("  family E0: O(-e{i}) [1]\n", "  family E0: O(-e{i})\n",
     "('entry', 'O(-e1)', 1)", "('entry', 'O(-e1)', 0)"),
])
def test_final_state_mismatch_names_the_first_differing_slot(
        tmp_path, capsys, old, new, got, expected):
    path = tmp_path / "edited.sod"
    path.write_text(_edited("blown-p3-doubling", old, new))
    assert main(["replay", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert fails == [
        f"scenario blown-p3-doubling: FAIL — final state mismatch: "
        f"got {got}, expected {expected}"
    ]


def test_every_misspelt_argument_name_is_an_input_error(tmp_path, capsys):
    # each key=value token of the bundled files, its key given a trailing
    # s, must stop the replay before it starts and name its line
    path = tmp_path / "misspelt.sod"
    seen = 0
    for name in SCENARIOS:
        lines = load_scenario_text(name).splitlines(keepends=True)
        for n, line in enumerate(lines, 1):
            words = line.split("#", 1)[0].split()
            for k, word in enumerate(words):
                if "=" not in word:
                    continue
                key, value = word.split("=", 1)
                bad = f"{key}s={value}"
                edited = " ".join(words[:k] + [bad] + words[k + 1:])
                path.write_text("".join(lines[:n - 1]) + edited + "\n"
                                + "".join(lines[n:]))
                assert main(["replay", str(path)]) == 2, (name, n, bad)
                out, err = capsys.readouterr()
                assert out == ""
                assert err == (f"error: line {n}: {words[2]} does not "
                               f"take {bad!r}\n")
                seen += 1
    assert seen == 62


@pytest.mark.parametrize("source, old, new, line, message", [
    ("enriques-split", "  entry O\n  block", "  entry O:\n  block", 17,
     "net_fourfold cannot parse label 'O:'"),
    ("gr-to-clifford", "as=Cliff_0(-g)", "as=Cliff_0(-q)", 24,
     "unknown twist symbol 'q' in '-q'"),
])
def test_label_errors_at_run_time_name_their_line(tmp_path, capsys, source,
                                                  old, new, line, message):
    # labels are read only once the variety is built, when the replay runs
    path = tmp_path / "edited.sod"
    path.write_text(_edited(source, old, new))
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line {line}: {message}\n"


def test_serre_counts_out_of_range_are_input_errors(tmp_path, capsys):
    # after b8 of gr-to-clifford the decomposition has 7 entries; neither
    # wrap may pass, nor be described as wrapping 0 or 12 of them
    text = load_scenario_text("gr-to-clifford")
    after = "step b8 pass_right movers=block:SurfD to=end\n"
    assert after in text
    line = text[:text.index(after)].count("\n") + 2
    path = tmp_path / "wrap.sod"
    path.write_text(text.replace(
        after, after + "step z1 serre left 0\nstep z2 serre right 12\n"))
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: line {line}: serre count must be an integer "
                   ">= 1, got '0'\n")
    path.write_text(text.replace(after, after + "step z2 serre right 12\n"))
    assert main(["replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: step z2: serre right 12 wraps more entries than "
                   "the 7 in the decomposition\n")


def test_parse_requires_name_and_variety():
    with pytest.raises(ReplayError):
        parse_scenario("scenario only-a-name\n")
    with pytest.raises(ReplayError):
        parse_scenario("variety P3\n")
    with pytest.raises(ReplayError):
        parse_scenario("scenario x\nvariety P3\nnonsense here\n")


def test_run_all_covers_catalog():
    results = run_all()
    assert [r.name for r in results] == list(SCENARIOS)
    assert all(r.passed for r in results)
