"""A graded consistency net over the recorded Ext pairs.

The recorded answers pin 1,071 pairs, but away from them a graded answer is
checked only against its Euler number, and moving an answer's degrees by
two keeps that number.  Two relations between graded answers catch such a
move, on the labels of every recorded pair:

* Serre duality, Ext^i(A, B) = Ext^(n-i)(B, A x omega)^dual: ``ext(a, b)``
  against ``ext(b, serre_label(a))`` with its degrees flipped;
* twist invariance, Ext(A x L, B x L) = Ext(A, B), for L each of the first
  two line-bundle labels of the variety's pool.

Where both sides are determinate they must agree.  A side without a
certified grading is counted, never failed: the tags stay as they are.

The bundle-bundle routes twist one kept Hom bundle (and, on the fourfold,
one kept Koszul complex) per kind pair by the difference of the twists.
They are cross-checked, weight by weight, against the per-query
``dual().tensor()`` of the two bundles that they replaced.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from sodcheck.bbw import cohomology, hypercohomology
from sodcheck.varieties import _flip, get_variety

RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected"
     / "ext_answers.json").read_text()
)

#: (variety, a, b) of every recorded pair
PAIRS = [tuple(key.split("|")) for key in RECORDED]

#: first-seen order of each variety's labels in the recording
POOLS: dict[str, list[str]] = {}
for _name, _a, _b in PAIRS:
    for _label in (_a, _b):
        if _label not in POOLS.setdefault(_name, []):
            POOLS[_name].append(_label)


def _line_labels(name: str) -> list[str]:
    v = get_variety(name)
    return [lb for lb in POOLS[name] if v.is_line(v.parse(lb))][:2]


def _compare(tally: Counter, wrong: list, what, left, right) -> None:
    if left.graded is None or right is None:
        tally["indeterminate"] += 1
    elif left.graded == right:
        tally["agree"] += 1
    else:
        wrong.append((what, left.graded, right))


def serre_net() -> tuple[Counter, list]:
    tally: Counter = Counter()
    wrong: list = []
    for name, a, b in PAIRS:
        v = get_variety(name)
        dual = v.ext(b, v.serre_label(a))
        right = None if dual.graded is None else _flip(dual.graded, v.dim)
        _compare(tally, wrong, (name, a, b), v.ext(a, b), right)
    return tally, wrong


def twist_net() -> tuple[Counter, list]:
    tally: Counter = Counter()
    wrong: list = []
    lines = {name: _line_labels(name) for name in POOLS}
    for name, a, b in PAIRS:
        v = get_variety(name)
        base = v.ext(a, b)
        for by in lines[name]:
            moved = v.ext(v.twist_label(a, by), v.twist_label(b, by))
            _compare(tally, wrong, (name, a, b, by), moved, base.graded)
    return tally, wrong


def test_pools_hold_two_line_labels_each():
    assert len(POOLS) == 7
    assert all(len(_line_labels(name)) == 2 for name in POOLS)


@pytest.mark.parametrize("net, agree, indeterminate", [
    (serre_net, 965, 106),
    (twist_net, 1940, 202),
])
def test_graded_answers_agree_where_both_sides_are_determinate(
        net, agree, indeterminate):
    tally, wrong = net()
    assert not wrong, wrong[:5]
    # the counts show the net compares what it should: a change that
    # makes an answer determinate changes a tag and updates them on purpose
    assert tally == {"agree": agree, "indeterminate": indeterminate}


#: the seeded twists of the cross-check keys lie in [-TWIST, TWIST]
TWIST = 3


def _layers(res) -> dict:
    return {deg: dict(cell) for deg, cell in res.layers.items()}


@pytest.mark.parametrize("name", ["P3", "Gr23", "Gr24", "Gr24xP3"])
def test_kept_hom_bundle_matches_the_per_query_tensor(name):
    v = get_variety(name)
    rng = random.Random(f"kept-hom/{name}")
    keys = [
        (v.parse(label)[0],
         tuple(rng.randint(-TWIST, TWIST) for _ in v.symbols))
        for label in POOLS[name]
    ]
    for pa in keys:
        for pb in keys:
            old = cohomology(v._bundle(pa).dual().tensor(v._bundle(pb)))
            new = cohomology(v._hom(pa, pb))
            assert _layers(new) == _layers(old), (pa, pb)
            assert v.ext(pa, pb).graded == old.dims(), (pa, pb)


def test_kept_koszul_complex_matches_the_per_query_tensor():
    v = get_variety("net_fourfold")
    rng = random.Random("kept-koszul")
    keys = [
        ("bundle", kind) + tuple(rng.randint(-TWIST, TWIST) for _ in "gh")
        for kind in ("O", "V/U") for _ in range(6)
    ]
    tally: Counter = Counter()
    for pa in keys:
        for pb in keys:
            hom = v._bundle(pa).dual().tensor(v._bundle(pb))
            old = hypercohomology(v._om.tensor(hom))
            new = hypercohomology(v._hom_complex(pa, pb))
            assert new.determinate == old.determinate, (pa, pb)
            if old.determinate:
                assert _layers(new) == _layers(old), (pa, pb)
            else:
                assert new.entries == old.entries, (pa, pb)
                assert new.collisions == old.collisions, (pa, pb)
            tally[old.determinate] += 1
    # both kinds of staircase are compared
    assert tally[True] and tally[False], tally
