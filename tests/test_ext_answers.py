"""Every recorded Ext answer, asked in-process.

``bench/expected/ext_answers.json`` holds the graded Ext groups, the
confidence tag and the Euler characteristic of 1,071 ordered label pairs
over the seven catalog varieties.  Between them they reach every route of
every Ext oracle: the weight staircase, the Koszul hypercohomology of the
fourfold, Serre duality from a plane sheaf, the AXIOM and UNCHECKED plane
answers, the Clifford splice and the blowups' CHI-ONLY Riemann-Roch
branch.  Each pair is asked once and compared with the recording; each
determinate Euler number is compared with the independent ``Variety.chi``.
The whole set is then asked again in reverse order, against warm kernel
memos and bundle caches, and must give identical answers; a warm pass
builds every answer from the kernel memos (the kept Hom bundles and
Koszul complexes of each kind pair among them), with no miss and no
checked term.
"""

import json
from pathlib import Path

import pytest

from sodcheck import bbw, gl_weights, varieties
from sodcheck.varieties import get_variety

RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected"
     / "ext_answers.json").read_text()
)


def recorded_form(ans) -> list:
    """[graded, tag, chi] as the recording stores it."""
    graded = ([[k, v] for k, v in sorted(ans.graded.items())]
              if ans.determinate else None)
    return [graded, ans.tag, ans.chi]


def ask(keys) -> dict[str, list]:
    out = {}
    for key in keys:
        name, a, b = key.split("|")
        out[key] = recorded_form(get_variety(name).ext(a, b))
    return out


@pytest.fixture(scope="module")
def first_pass():
    return ask(RECORDED)


def test_recording_covers_every_variety_and_tag():
    assert len(RECORDED) == 1071
    names = {key.split("|")[0] for key in RECORDED}
    assert len(names) == 7
    tags = {tag for _, tag, _ in RECORDED.values()}
    assert tags == {"BBW", "RULE", "AXIOM", "CHI-ONLY", "UNCHECKED"}


def test_every_pair_matches_the_recording(first_pass):
    wrong = [k for k, got in first_pass.items() if got != RECORDED[k]]
    assert not wrong, [(k, first_pass[k], RECORDED[k]) for k in wrong[:5]]


def test_determinate_euler_numbers_match_riemann_roch(first_pass):
    checked = 0
    for key, (graded, _, _) in first_pass.items():
        if graded is None:
            continue
        name, a, b = key.split("|")
        euler = sum((-1) ** k * d for k, d in graded)
        assert euler == get_variety(name).chi(a, b), key
        checked += 1
    assert checked > 700


def test_warm_second_pass_in_reverse_is_identical(first_pass):
    again = ask(reversed(list(RECORDED)))
    assert again == first_pass


#: every memoised kernel under the Ext oracle
EXT_KERNELS = (
    gl_weights._weyl_dim, bbw.bott_factor, bbw._tensor_weights,
    bbw._dual_pairs, varieties._line_cohomology, varieties._plane_staircase,
    varieties._gr_bundle, varieties._hom_kinds, varieties._koszul_hom,
)
#: kernels reached only when another kernel misses: ``_gr_bundle`` is asked
#: only inside ``_plane_staircase``, and the weight products and duals only
#: when a kind pair's Hom bundle or Koszul complex (``_hom_kinds``,
#: ``_koszul_hom``) or a plane staircase is built, so a warm pass never
#: reaches them
INNER_KERNELS = {"_gr_bundle", "_tensor_weights", "_dual_pairs"}


def test_warm_pass_misses_no_kernel_and_checks_no_term(monkeypatch):
    ask(RECORDED)
    before = {k.__name__: k.cache_info() for k in EXT_KERNELS}
    checked = []
    real_init = bbw.Term.__init__

    def counted_init(self, *args, **kwargs):
        checked.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(bbw.Term, "__init__", counted_init)
    ask(RECORDED)
    after = {k.__name__: k.cache_info() for k in EXT_KERNELS}
    misses = {name: after[name].misses - before[name].misses
              for name in after}
    hits = {name: after[name].hits - before[name].hits for name in after}
    assert misses == {name: 0 for name in after}
    must_hit = [n for name, n in hits.items() if name not in INNER_KERNELS]
    assert all(must_hit), hits
    assert checked == []
