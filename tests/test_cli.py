"""Command-line interface tests: exit codes, output shapes, strict mode."""

import io
import json
import sys
from collections import Counter
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest

from sodcheck import kmut, varieties
from sodcheck.bbw import cohomology
from sodcheck.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bbw_anchor(capsys):
    code, out = run(capsys, "bbw", "Gr24", "S2U(-g)")
    assert code == 0
    assert out.strip() == "degree 2: dim 1"


def test_bbw_zero(capsys):
    code, out = run(capsys, "bbw", "Gr24", "O(-g)")
    assert code == 0
    assert out.strip() == "zero"


def test_bbw_json(capsys):
    code, out = run(capsys, "--json", "bbw", "Gr24", "S3U")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 4
    assert payload["graded"] == {"2": 4}
    assert payload["tag"] == "BBW"


RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected"
     / "ext_answers.json").read_text()
)


def test_json_chi_only_answer_prints_its_table(capsys):
    argv = ("hyper", "net_fourfold", "O", "O(-3g-3h)")
    code, out = run(capsys, "--json", *argv)
    payload = json.loads(out)
    assert code == 0
    assert (payload["tag"], payload["chi"]) == ("CHI-ONLY", 160)
    assert payload["table"] == [[2, 7, 40], [3, 7, 200]]
    assert run(capsys, "--json", "--strict", *argv)[0] == 1


def test_json_tables_of_recorded_answers_sum_to_chi(capsys):
    tables = 0
    for key, (_, tag, chi) in RECORDED.items():
        if tag != "CHI-ONLY":
            continue
        code, out = run(capsys, "--json", "hyper", *key.split("|"))
        payload = json.loads(out)
        assert (code, payload["chi"]) == (0, chi), key
        if "table" in payload:
            rows = payload["table"]
            assert sum((-1) ** (q - p) * d for p, q, d in rows) == chi, key
            tables += 1
    # the eight plane-restriction answers of the fourfold carry a table
    assert tables == 8


def test_unknown_space_is_an_input_error(capsys):
    code, _ = run(capsys, "bbw", "P4", "O")
    assert code == 2


def test_unknown_variety_message_is_not_quoted(capsys):
    assert main(["chi", "nosuch", "O"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown variety 'nosuch'\n"


def test_bad_label_is_an_input_error(capsys):
    code, _ = run(capsys, "bbw", "Gr24", "O(-q)")
    assert code == 2


def test_hyper_determinate(capsys):
    code, out = run(capsys, "hyper", "net_fourfold", "O(-h)", "O(-g)")
    assert code == 0
    assert out.strip() == "degree 1: dim 1"


def test_hyper_chi_only_is_reported(capsys):
    code, out = run(capsys, "hyper", "net_fourfold", "O(-g+h)", "O_Pl1")
    assert code == 0
    assert "indeterminate" in out
    assert "chi = 3" in out


def test_strict_rejects_chi_only(capsys):
    code, _ = run(capsys, "--strict", "hyper", "net_fourfold",
                  "O(-g+h)", "O_Pl1")
    assert code == 1


def test_strict_rejects_a_chi_only_bundle_pair(capsys):
    code, out = run(capsys, "--strict", "hyper", "net_fourfold",
                    "O(-2g-2h)", "O")
    assert code == 1
    assert out.splitlines() == [
        "indeterminate (CHI-ONLY: staircase Euler characteristic)",
        "chi = 160",
    ]


def test_strict_accepts_certified(capsys):
    code, _ = run(capsys, "--strict", "hyper", "net_fourfold",
                  "O(-h)", "O(-g)")
    assert code == 0


def test_chi_and_pair(capsys):
    code, out = run(capsys, "chi", "P3", "O(h)")
    assert code == 0 and out.strip() == "chi = 4"
    code, out = run(capsys, "pair", "Gr24", "O(-g)", "O(g)")
    assert code == 0 and "chi =" in out


def test_blowup_queries_default_to_ten_nodes(capsys):
    code, out = run(capsys, "chi", "blown_p3", "O(h)")
    assert code == 0 and out.strip() == "chi = 4"
    code, out = run(capsys, "pair", "blown_p3", "O(h)", "O_E1")
    assert code == 0 and out.strip() == "chi = 1"


@pytest.mark.parametrize("argv", [
    ("--nodes", "0", "verify-all"),
    ("--nodes", "-2", "bbw", "blown_p3", "O(h)"),
])
def test_nodes_below_one_is_an_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "argument --nodes: must be at least 1" in capsys.readouterr().err


def test_nodes_past_the_blowup_limit_is_an_input_error(tmp_path, capsys):
    code = main(["--nodes", "12", "bbw", "blown_p3", "O(h)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: the blowup of P3 supports 0 to 11 points, got 12\n"
    path = tmp_path / "many.sod"
    path.write_text(
        "scenario many\n"
        "variety blown_p3\n"
        "nodes 12\n"
        "initial:\n"
        "  entry O\n"
        "expect:\n"
        "  entry O\n"
    )
    code = main(["replay", str(path)])
    assert code == 2
    assert "0 to 11 points" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["blown_p3", "double_cover_blowup"])
def test_leading_zero_exceptional_index_is_an_input_error(capsys, space):
    code = main(["chi", space, "O(-e01)"])
    assert code == 2
    assert "unknown twist symbol 'e01'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "x"])
def test_scenario_nodes_must_be_a_positive_integer(tmp_path, capsys, value):
    path = tmp_path / "nodes.sod"
    path.write_text(
        "scenario nodes\n"
        "variety blown_p3\n"
        f"nodes {value}\n"
        "initial:\n"
        "  family exc: O_E{i}\n"
        "expect:\n"
        "  family exc: O_E{i}\n"
    )
    code = main(["replay", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: line 3: nodes must be a positive integer, got '{value}'\n"
    )


def test_mutate_and_gram(capsys):
    code, out = run(capsys, "mutate", "P3", "left", "O", "O(h)")
    assert code == 0
    code, out = run(capsys, "gram", "P3", "O", "O(h)", "O(2h)", "O(3h)")
    assert code == 0
    assert "unitriangular" in out


@pytest.mark.parametrize("argv, text, as_json", [
    (("net_fourfold", "left", "O", "Cliff_2(-g)"),
     "1*[O] + 1*[O(-g+h)]", {"O": 1, "O(-g+h)": 1}),
    (("net_fourfold", "right", "O_Pl1", "O(h)"),
     "1*[O(h)] + -1*[O_Pl1]", {"O(h)": 1, "O_Pl1": -1}),
    (("double_cover_blowup", "left", "O", "O_Q1(1,0)"),
     "-2*[O] + 1*[O_Q1(1,0)]", {"O": -2, "O_Q1(1,0)": 1}),
    (("double_cover_blowup", "right", "O(-e1)", "O(h-e3)"),
     "1*[O(-e1)] + 1*[O(h-e3)]", {"O(-e1)": 1, "O(h-e3)": 1}),
])
def test_mutate_writes_formal_classes_as_sorted_labels(capsys, argv, text,
                                                       as_json):
    # the only place a formal lattice's generators reach the user
    assert run(capsys, "mutate", *argv) == (0, text + "\n")
    code, out = run(capsys, "--json", "mutate", *argv)
    assert code == 0
    assert out == json.dumps(as_json, sort_keys=True) + "\n"


def test_two_twists_of_one_plane_hyper_and_pair_disagree(capsys):
    # pinned as it stands: hyper reports the pair unchecked, while pair
    # refuses it as an input error
    code = main(["hyper", "net_fourfold", "O_Pl1", "O_Pl1(-1)"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (
        "indeterminate (UNCHECKED: same plane, different twists: "
        "no certified route)\n"
    )
    code = main(["pair", "net_fourfold", "O_Pl1", "O_Pl1(-1)"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: net_fourfold cannot pair two twists of one plane: "
        "'O_Pl1', 'O_Pl1(-1)'\n"
    )


def test_catalog_lists_everything(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    for name in ("P3", "Gr24", "net_fourfold", "blown_p3",
                 "double_cover_blowup", "gr-to-clifford",
                 "orlov_blowup_sod"):
        assert name in out


def test_replay_bundled(capsys):
    code, out = run(capsys, "replay", "gr-to-clifford")
    assert code == 0
    assert out.rstrip().endswith("scenario gr-to-clifford: PASS")


def test_replay_json(capsys):
    code, out = run(capsys, "--json", "replay", "enriques-split")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "enriques-split"
    assert payload["passed"] is True
    assert "quadric_net_sod" in payload["imports"]
    assert isinstance(payload["transcript"], list)


def test_replay_with_fewer_nodes(capsys):
    code, out = run(capsys, "--nodes", "3", "replay", "blown-p3-doubling")
    assert code == 0
    assert "N = 3" in out


def test_replay_unknown_scenario(capsys):
    code, _ = run(capsys, "replay", "no-such-walkthrough")
    assert code == 2


def test_replay_failing_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.sod"
    path.write_text(
        "scenario bad\n"
        "variety P3\n"
        "initial:\n"
        "  entry O\n"
        "  entry O(-h)\n"
        "expect:\n"
        "  entry O\n"
        "  entry O(-h)\n"
    )
    code, out = run(capsys, "replay", str(path))
    assert code == 1
    assert "FAIL" in out


def test_replay_passing_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "tiny.sod"
    path.write_text(
        "scenario tiny\n"
        "variety P3\n"
        "initial:\n"
        "  entry O\n"
        "step s1 serre left 1\n"
        "step s2 serre right 1\n"
        "expect:\n"
        "  entry O\n"
    )
    code, out = run(capsys, "replay", str(path))
    assert code == 0
    assert out.rstrip().endswith("scenario tiny: PASS")


def test_integrality_failure_is_an_internal_error(capsys, monkeypatch):
    # a fresh P3 ring whose Todd class is off by half a point, swapped in
    # before its first pairing (forms are cached on the ring)
    from fractions import Fraction

    from sodcheck import chow, varieties

    monkeypatch.setattr(chow, "_CACHE", {})
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    ring = chow.ring_p3()
    ring.todd = ring.todd + ring.monomial("h3", Fraction(1, 2))
    code = main(["chi", "P3", "O(h)"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: non-integral Euler characteristic"
    )


@pytest.mark.parametrize("argv, message", [
    (["chi", "nosuch", "O"], "unknown variety 'nosuch'"),
    (["pair", "net_fourfold", "O_Pl1", "O_Pl1(-1)"],
     "net_fourfold cannot pair two twists of one plane: "
     "'O_Pl1', 'O_Pl1(-1)'"),
    (["chi", "net_fourfold", "U"], "no lattice generator for bundle kind 'U'"),
    (["replay", "nosuch"], "unknown scenario 'nosuch'"),
    (["replay", "{tmp}/absent.sod"],
     "[Errno 2] No such file or directory: '{tmp}/absent.sod'"),
    (["--catalog", "{tmp}", "replay", "missing"],
     "[Errno 2] No such file or directory: '{tmp}/missing.sod'"),
    (["replay", "{tmp}/binary.sod"],
     "{tmp}/binary.sod is not UTF-8 text: 'utf-8' codec can't decode byte "
     "0xff in position 10: invalid start byte"),
    (["--nodes", "12", "chi", "blown_p3", "O"],
     "the blowup of P3 supports 0 to 11 points, got 12"),
])
def test_input_errors_exit_two_with_one_error_line(tmp_path, capsys, argv,
                                                   message):
    (tmp_path / "binary.sod").write_bytes(b"scenario x\xff\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + message.replace("{tmp}", str(tmp_path)) + "\n"


def test_an_engine_fault_is_internal_not_an_input_error(capsys, monkeypatch):
    # the ValueError bbw raises on non-dominant weights is a fault of the
    # engine, never of a well-formed query
    from sodcheck import varieties

    def broken(*args):
        raise ValueError("weights must be dominant")

    monkeypatch.setattr(varieties, "cohomology", broken)
    assert main(["bbw", "P3", "O(h)"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: weights must be dominant\n"


# --------------------------------------------------------------- closed pipes

class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away before the first write."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class ClosedBufferedPipe(io.StringIO):
    """A block-buffered stdout: writes are kept, the flush meets the
    closed pipe."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [ClosedPipe, ClosedBufferedPipe])
def test_closed_stdout_is_quiet_and_not_an_input_error(capsys, monkeypatch,
                                                       stdout):
    monkeypatch.setattr(sys, "stdout", stdout())
    code = main(["--json", "replay", "enriques-split"])
    assert code == 141
    assert capsys.readouterr().err == ""
    print("after the pipe closed")  # goes to the null device, raises nothing
    sys.stdout.close()


# ---------------------------------------------------- scenario line numbers

def test_scenario_errors_name_the_line(tmp_path, capsys):
    path = tmp_path / "bad.sod"
    path.write_text("variety net_fourfold\nO\n")
    code = main(["replay", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: cannot parse line 'O'\n"
    path.write_text("scenario x\nvariety P3\n\ninitial:\n  entry O\n  bogus\n")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 6: ")


# ------------------------------------------------------- verify-all variants

VERIFY_ALL = (Path(__file__).resolve().parents[1] / "bench" / "expected"
              / "verify_all.txt").read_text()


def test_verify_all_json_lists_the_text_table_checks(capsys):
    code, out = run(capsys, "--json", "verify-all")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    rows = [ln for ln in VERIFY_ALL.splitlines() if ln.startswith("PASS ")]
    names = [ln[len("PASS "):ln.rindex(" (")] for ln in rows]
    assert len(names) == 12
    assert [c["name"] for c in payload["checks"]] == names
    assert all(c["passed"] for c in payload["checks"])
    assert [c["detail"] for c in payload["checks"]] == [
        ln[ln.rindex(" (") + 2:-1] for ln in rows
    ]


def test_verify_all_renders_a_failing_check(monkeypatch, capsys):
    # the peeling off by one at the P3 twist 1 fails the blowup doubling's
    # independent-route item alone, so exactly one row fails
    real = varieties._p3_euler
    monkeypatch.setattr(varieties, "_p3_euler",
                        lambda t: real(t) + (t == 1))
    code, out = run(capsys, "verify-all")
    assert code == 1
    assert out == VERIFY_ALL.replace(
        "PASS double-cover doubling on blown_p3 (5 items)",
        "FAIL double-cover doubling on blown_p3 (5 items)",
    ).replace("VERIFY-ALL: PASS", "VERIFY-ALL: FAIL")
    code, out = run(capsys, "--json", "verify-all")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == [
        "double-cover doubling on blown_p3"
    ]


def test_a_failing_split_certificate_rejects_the_replay(monkeypatch,
                                                        capsys):
    # the two half-twist vanishings see the plane structure cohomology;
    # the class-level certificate itself still holds
    monkeypatch.setattr(varieties, "ideal_twisted_cohomology",
                        lambda bundle: cohomology(varieties._gr_bundle("O")))
    found, leave_one_out, sides = varieties.check_split_certificate().items
    assert found.passed and leave_one_out.passed and not sides.passed
    assert [(c.passed, c.detail) for c in sides.items[3:]] == [
        (False, "{0: 1}"), (False, "{0: 1}")
    ]
    code, out = run(capsys, "replay", "enriques-split")
    assert code == 1
    assert out.splitlines()[-1] == (
        "scenario enriques-split: FAIL — the split certificate fails"
    )
    code, out = run(capsys, "verify-all")
    assert code == 1
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL ")] == [
        "FAIL scenario enriques-split (imports: clifford_modules, "
        "enriques_image_plane, enriques_ten_orthogonal, orlov_blowup_sod)",
        "FAIL split certificate for the surface block (certificate failed)",
    ]
    assert out.splitlines()[-1] == "VERIFY-ALL: FAIL"


def test_verify_all_from_a_catalog_directory(tmp_path, capsys):
    bundled = resources.files("sodcheck") / "scenarios"
    for entry in bundled.iterdir():
        if entry.name.endswith(".sod"):
            (tmp_path / entry.name).write_text(entry.read_text())
    code, out = run(capsys, "--catalog", str(tmp_path), "verify-all")
    assert code == 0
    # scenarios run in file-name order here, in catalog order without
    # --catalog, so only the set of lines is the same
    assert sorted(out.splitlines()) == sorted(VERIFY_ALL.splitlines())


#: computations of each constant lattice fact in one verify-all, from
#: empty caches: one per distinct relation matrix, (kind, c - g) pair and
#: constant complex
VERIFY_ALL_WORK = {
    (kmut, "_smith_factor"): 6,
    (varieties, "_plane_staircase"): 3,
    (varieties, "incidence_koszul"): 1,
    (varieties, "surface_structure_complex"): 1,
    (varieties, "surface_ideal_complex"): 1,
    (varieties, "plane_koszul"): 1,
}
#: plane staircases in one verify-all: 6 for the split certificate's side
#: conditions and 3 under ``_plane_staircase``, which the Ext route to a
#: plane and the pair oracle share
VERIFY_ALL_PLANE_STAIRCASES = 9


def test_verify_all_computes_each_constant_fact_once(capsys, monkeypatch):
    # every memoised function is swapped for an empty cache of the same
    # body that counts its runs; the variety registry starts empty too, so
    # no lattice's pairing memo carries over from an earlier test
    counts = Counter()

    def counting(name, body):
        def counted(*args):
            counts[name] += 1
            return body(*args)
        return counted

    for (module, name) in VERIFY_ALL_WORK:
        body = getattr(module, name).__wrapped__
        monkeypatch.setattr(
            module, name, lru_cache(maxsize=None)(counting(name, body))
        )
    monkeypatch.setattr(varieties, "plane_cohomology", counting(
        "plane_cohomology", varieties.plane_cohomology
    ))
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    code, out = run(capsys, "verify-all")
    assert (code, out) == (0, VERIFY_ALL)
    assert counts.pop("plane_cohomology") == VERIFY_ALL_PLANE_STAIRCASES
    assert counts == {
        name: n for (_, name), n in VERIFY_ALL_WORK.items()
    }


#: label parses and Ext queries in one verify-all: each label is parsed once
#: where it enters, and the replay and the double-cover check ask by key
VERIFY_ALL_TRAFFIC = {"parse": 233, "ext": 513}


def test_verify_all_parses_each_label_once(capsys, monkeypatch):
    counts = Counter()

    def counting(name, body):
        def counted(*args):
            counts[name] += 1
            return body(*args)
        return counted

    for cls in varieties.Variety.__subclasses__():
        monkeypatch.setattr(cls, "parse", counting("parse", cls.parse))
    # Variety.ext is the one entry point; no variety overrides it
    monkeypatch.setattr(varieties.Variety, "ext",
                        counting("ext", varieties.Variety.ext))
    code, out = run(capsys, "verify-all")
    assert (code, out) == (0, VERIFY_ALL)
    assert counts == VERIFY_ALL_TRAFFIC


@pytest.mark.parametrize("nodes, message", [
    ("3", "scenario cover-blowup-reorder: line 22: quadric index out of "
          "range in 'O_Q4(-1,0)'"),
    ("11", "scenario enriques-split: line 21: plane index out of range in "
           "'O_Pl11(-1)'"),
])
def test_verify_all_names_the_scenario_of_an_input_error(capsys, nodes,
                                                         message):
    assert main(["--nodes", nodes, "verify-all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_all_names_the_catalog_file_that_fails_to_parse(tmp_path,
                                                               capsys):
    (tmp_path / "bad.sod").write_text("variety P3\nO\n")
    assert main(["--catalog", str(tmp_path), "verify-all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {tmp_path / 'bad.sod'}: line 2: "
                   "cannot parse line 'O'\n")


@pytest.mark.parametrize("make", ["missing", "empty"])
def test_verify_all_needs_a_catalog_with_scenarios(tmp_path, capsys, make):
    root = tmp_path / "catalog"
    if make == "empty":
        root.mkdir()
        (root / "notes.txt").write_text("no scenarios here\n")
    assert main(["--catalog", str(root), "verify-all"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert str(root) in err
