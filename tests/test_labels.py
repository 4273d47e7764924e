"""Property tests of the label algebra on every variety of the catalog.

Labels are drawn from the whole written grammar: bundle kinds with
symmetric powers (leading zeros included), twist symbols in any order,
sign and repetition, and indexed plane, quadric and Clifford sheaves.
Round trips through ``canon``, ``twist_label`` and ``serre_label`` must
come back to the canonical label, and malformed labels must raise
``ValueError``.  Runs are derandomized, so the suite stays deterministic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sodcheck.varieties import VARIETY_NAMES, get_variety

NODES = 10

SYMBOLS = {
    "P3": ["h"],
    "Gr23": ["g"],
    "Gr24": ["g"],
    "Gr24xP3": ["g", "h"],
    "net_fourfold": ["g", "h"],
    "blown_p3": ["h", "e", "H"] + [f"e{i}" for i in range(1, NODES + 1)],
    "double_cover_blowup": (
        ["h", "e", "H"] + [f"e{i}" for i in range(1, NODES + 1)]
    ),
}

UNKNOWN = {
    "P3": ["g", "e", "x", "h1"],
    "Gr23": ["h", "e", "q"],
    "Gr24": ["h", "e", "q"],
    "Gr24xP3": ["e", "H", "q"],
    "net_fourfold": ["e", "H", "q"],
    "blown_p3": ["g", "q", "E", "e0", f"e{NODES + 1}", "h2"],
    "double_cover_blowup": ["g", "q", "E", "e0", f"e{NODES + 1}", "h2"],
}

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=40
)


def _terms(symbols):
    """[(sign, coefficient text, symbol)], at most four terms."""
    term = st.tuples(
        st.sampled_from(["+", "-", ""]),
        st.sampled_from(["", "0", "1", "2", "3", "12"]),
        st.sampled_from(symbols),
    )
    return st.lists(term, max_size=4)


def _text(terms, negate: bool = False) -> str:
    out = []
    for i, (sign, coeff, sym) in enumerate(terms):
        if negate:
            sign = "+" if sign == "-" else "-"
        elif i and not sign:
            sign = "+"
        out.append(f"{sign}{coeff}{sym}")
    return "".join(out)


def _wrap(head: str, text: str) -> str:
    return f"{head}({text})" if text else head


def _twisted(heads, symbols):
    return st.builds(
        lambda head, terms: _wrap(head, _text(terms)), heads, _terms(symbols)
    )


_POWERS = st.builds(
    lambda zeros, p, dual: f"S{'0' * zeros}{p}U{'v' if dual else ''}",
    st.integers(0, 2), st.integers(0, 5), st.booleans(),
)
_KINDS = st.sampled_from(["O", "U", "Uv", "V/U", "V/Uv"]) | _POWERS
_INDEX = st.integers(1, NODES)
_SMALL = st.integers(-5, 5)


def _indexed(head, twist):
    return st.builds(
        lambda i, t: f"{head}{i}({t})" if t is not None else f"{head}{i}",
        _INDEX, st.none() | twist,
    )


def _heads(name):
    """The heads that take a twist of the variety's symbols."""
    if name in ("Gr23", "Gr24", "Gr24xP3"):
        return _KINDS
    if name == "net_fourfold":
        return _KINDS | st.builds(lambda k: f"Cliff_{k}", st.integers(-4, 7))
    return st.just("O")


_SHEAVES = {
    "net_fourfold": "O_Pl",
    "blown_p3": "O_E",
    "double_cover_blowup": "O_Q",
}


def labels(name):
    twisted = _twisted(_heads(name), SYMBOLS[name])
    if name not in _SHEAVES:
        return twisted
    if name == "double_cover_blowup":
        twist = st.builds(lambda a, b: f"{a},{b}", _SMALL, _SMALL)
    else:
        twist = _SMALL
    return _indexed(_SHEAVES[name], twist) | twisted


def line_pairs(name):
    """(L, L inverse) as written labels."""
    return _terms(SYMBOLS[name]).map(
        lambda t: (_wrap("O", _text(t)), _wrap("O", _text(t, negate=True)))
    )


def malformed(name):
    """Labels with an unknown twist symbol or an out-of-range index."""
    unknown = st.builds(
        lambda head, terms, pos, sym: _wrap(
            head, _text(terms[:pos] + [("-", "", sym)] + terms[pos:])
        ),
        _heads(name), _terms(SYMBOLS[name]), st.integers(0, 4),
        st.sampled_from(UNKNOWN[name]),
    )
    if name not in _SHEAVES:
        return unknown
    outside = st.sampled_from([0, NODES + 1, NODES + 7, 99])
    return unknown | st.builds(lambda i: f"{_SHEAVES[name]}{i}", outside)


@pytest.mark.parametrize("name", VARIETY_NAMES)
@PROPERTY
@given(data=st.data())
def test_label_round_trips(name, data):
    v = get_variety(name, NODES)
    label = data.draw(labels(name))
    by, inverse = data.draw(line_pairs(name))
    canon = v.canon(label)
    assert v.canon(canon) == canon
    assert v.parse(canon) == v.parse(label)
    assert v.twist_label(v.twist_label(label, by), inverse) == canon
    assert v.serre_label(v.serre_label(label), inverse=True) == canon


@pytest.mark.parametrize("name", VARIETY_NAMES)
@PROPERTY
@given(data=st.data())
def test_malformed_labels_raise_value_error(name, data):
    v = get_variety(name, NODES)
    label = data.draw(malformed(name))
    with pytest.raises(ValueError):
        v.parse(label)
    with pytest.raises(ValueError):
        v.canon(label)


#: (variety, label, the InputError message byte for byte)
LABEL_ERRORS = [
    ("Gr24", "O(g+)", "cannot parse twist 'g+' at '+'"),
    ("blown_p3", "O(e1h)", "missing sign between terms in twist 'e1h'"),
    ("Gr24", "Og)", "unbalanced parentheses in 'Og)'"),
    ("blown_p3", "O(h e1)", "unknown twist symbol 'he1' in 'he1'"),
    ("blown_p3", "O(e11)", "unknown twist symbol 'e11' in 'e11'"),
]


@pytest.mark.parametrize("name, label, message", LABEL_ERRORS)
def test_label_error_messages_are_pinned(name, label, message):
    with pytest.raises(ValueError) as err:
        get_variety(name, NODES).parse(label)
    assert str(err.value) == message
