"""Replayable mutation transcripts for semiorthogonal decompositions.

A scenario file (``*.sod``) declares a variety, an initial decomposition
(concrete sheaf labels, indexed families, abstract blocks), a sequence of
mutation steps, and the expected final decomposition.  The runner replays
the steps with full class-level bookkeeping in the variety's numerical
Grothendieck lattice and demands exact evidence for every reordering.
Every Ext group a step relies on, ``exceptional=`` and family
orthogonality included, is asked by variety key and certified one way.
Every imported statement used by evidence or label resolution must be in
the scenario's declared allowance; the runner records the set actually
used.  Transcripts are deterministic byte-for-byte.

File grammar (``#`` starts a comment; indentation marks membership)::

    scenario NAME                     variety NAME        nodes N
    title "..."                       closing_note "..."
    allow_axioms ID..                 initial_axioms ID..  closing_axioms ID..
    initial:                          expect:
      entry LABEL [\\[1\\]]             # concrete object (+ shift parity)
      family NAME: TEMPLATE [\\[1\\]]   # TEMPLATE uses {i}, i = 1..nodes
      block NAME "DISPLAY"            # abstract subcategory
    step ID KIND ARGS                 # a step form below

Step forms, one row each of the step table ``_KINDS`` (``[..]`` marks an
optional argument; SEL is ``block:NAME``, ``family:NAME`` or a label, and
MOVERS a SEL or ``each:TEMPLATE``, one mover per node index):

* ``serre left|right K`` (an integer ``K >= 1``) wraps the K outermost
  entries around, twisting by the (anti)canonical bundle;
* ``pass_left|pass_right movers=MOVERS to=front|end|after:SEL|before:SEL``
  moves entries across others; the graded Ext groups must vanish outright;
* ``mutate_left|mutate_right mover=MOVERS through=SEL`` applies
  ``F -> F - chi(E,F) E`` (resp. ``F - chi(F,E) E``), recording the graded
  evidence and cross-checking its Euler number against the lattice;
* ``identify from=STEPID|entry=SEL as=LABEL [parity=0|1]`` names an entry
  or the result of an earlier mutate step not yet named: its class must be
  ``(-1)^parity`` times the named class, decided in the lattice;
* ``twist_all by=LABEL`` twists every entry;
* ``insert_block target=block:NAME [axioms=ID,..] [exceptional=LABEL,..]
  [require=split_certificate]`` expands a block into the entries on its
  sublines, optionally checking exceptionality or the split certificate.

``parse_scenario`` reads each argument once and names the line of a
missing, unknown or repeated argument, a bad value (no list item or
selector name may be empty), a positional token outside ``serre``, a
subline outside ``insert_block``, a reused step id or an unknown variety.
Labels are read against the variety, which is built only when the scenario
runs; a label error there names the line of its declaration or step.
Either way the error is a :class:`MalformedScenario`, the scenario's input
error, and never a failed check.  An unknown kind fails when run.
"""

from __future__ import annotations

import re
from importlib import resources

from . import InputError
from .chow import BLOWUP_MAX_POINTS
from .kmut import FormalClass
from .varieties import (
    AXIOMS,
    BBW,
    RULE,
    AXIOM,
    DEFAULT_NODES,
    VARIETY_NAMES,
    ExtAnswer,
    check_split_certificate,
    format_graded,
    get_variety,
    node_count,
)


class ReplayError(Exception):
    """A replay step failed: evidence missing, class mismatch, bad order."""


#: prefix of the synthetic name a mutation result carries until identified
_MUTANT = "mut:"


class MalformedScenario(ReplayError, InputError):
    """The scenario's input error: a line it cannot parse, a label its
    variety cannot read, or a step it cannot mean.

    The scenario is malformed rather than failing, so the runner lets this
    error through and the CLI reports it as bad input.
    """


class UnidentifiedResult(MalformedScenario):
    """A step used a mutation result that no identify step has named."""

    def __init__(self, name: str):
        sid = name[len(_MUTANT):].split(":")[0]
        super().__init__(
            f"{name!r} is the result of step {sid}, which has no label "
            "until an identify step gives it one"
        )


def twist_class(variety, cls, line_key):
    """A K-class twisted by a line bundle: a formal class twists each
    generator key, an ambient class multiplies by the line's class."""
    if isinstance(cls, FormalClass):
        return variety.lattice.combo({
            variety.twist(g, line_key): c for g, c in cls.coeffs.items()
        })
    return cls * variety._class(line_key)


def _known(label: str) -> str:
    """Selector text, unless it names a mutation result."""
    if label.startswith(_MUTANT):
        raise UnidentifiedResult(label)
    return label


def _key(entry):
    """A concrete entry's key; a mutation result has none until named."""
    if entry.key is None:
        raise UnidentifiedResult(entry.label)
    return entry.key


# --------------------------------------------------------------------------
# entries

class Concrete:
    """A named object: its variety key, its label (the key, written) and
    its signed class.  A mutation result has no key until identified."""

    __slots__ = ("label", "key", "parity", "cls", "index")

    def __init__(self, label, key, parity, cls, index=None):
        self.label = label
        self.key = key
        self.parity = parity
        self.cls = cls
        self.index = index

    def display(self) -> str:
        return self.label + ("[1]" if self.parity % 2 else "")


class Family:
    """An indexed family of concrete sheaves occupying one slot."""

    __slots__ = ("name", "members")

    def __init__(self, name, members):
        self.name = name
        self.members = members

    def display(self) -> str:
        first = self.members[0]
        tpl = self._template()
        if tpl is None:
            tpl = f"{first.label}, .. x{len(self.members)}"
        body = "{" + tpl + "}"
        return body + ("[1]" if first.parity % 2 else "")

    def _template(self):
        """A {i}-template reproducing every member label, if one exists."""
        first = self.members[0]
        if first.index is None:
            return None
        token = str(first.index)
        label = first.label
        for pos in range(len(label)):
            if not label.startswith(token, pos):
                continue
            tpl = label[:pos] + "{i}" + label[pos + len(token):]
            if all(
                m.index is not None
                and tpl.replace("{i}", str(m.index)) == m.label
                for m in self.members
            ):
                return tpl
        return None


class Block:
    """An abstract admissible subcategory tracked only by name."""

    __slots__ = ("name", "display_name", "version")

    def __init__(self, name, display_name):
        self.name = name
        self.display_name = display_name
        self.version = 0

    def display(self) -> str:
        return self.display_name + ("'" * self.version)


# --------------------------------------------------------------------------
# scenario structure

class Step:
    """A parsed step: its line, its handler and side from the step table
    (none for an unknown kind), its typed fields and ``insert_block``'s
    entries."""

    def __init__(self, line, sid, kind, handler=None, left=None, fields=None):
        self.line = line
        self.sid = sid
        self.kind = kind
        self.handler = handler
        self.left = left
        self.fields = fields or {}
        self.decls: list = []


class Scenario:
    def __init__(self, name, variety_name, nodes, title, allowed,
                 initial, initial_axioms, steps, expect, closing_note,
                 closing_axioms):
        self.name = name
        self.variety_name = variety_name
        self.nodes = nodes
        self.title = title
        self.allowed = allowed
        self.initial = initial
        self.initial_axioms = initial_axioms
        self.steps = steps
        self.expect = expect
        self.closing_note = closing_note
        self.closing_axioms = closing_axioms


# --------------------------------------------------------------------------
# the runner

class ReplayResult:
    def __init__(self, name, passed, transcript, axioms_used, state):
        self.name = name
        self.passed = passed
        self.transcript = transcript
        self.axioms_used = axioms_used
        self.state = state

    def text(self) -> str:
        return "\n".join(self.transcript)


class _Runner:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.variety = get_variety(scenario.variety_name, scenario.nodes)
        self.lattice = self.variety.lattice
        self.state: list = []
        self.out: list[str] = []
        self.axioms_used: set[str] = set()
        self.mutants: dict[str, list] = {}
        self.line = 0  # of the declaration or step being worked on

    # ---- helpers

    def emit(self, text: str = "") -> None:
        self.out.append(text)

    def use_axioms(self, axioms, context: str) -> None:
        for ax in axioms:
            if ax not in AXIOMS:
                raise ReplayError(f"{context}: unknown statement id {ax!r}")
            if ax not in self.sc.allowed:
                raise ReplayError(
                    f"{context}: import {ax} is not allowed in this scenario"
                )
            self.axioms_used.add(ax)

    def make_concrete(self, label: str, parity: int, index=None) -> Concrete:
        key = self.variety.parse(label)
        canon = self.variety.format(key)
        self.use_axioms(self.variety._axioms(key), f"resolving {canon}")
        cls = self.variety._class(key)
        return Concrete(canon, key, parity,
                        cls.scale(-1) if parity % 2 else cls, index)

    def build_entries(self, decls) -> list:
        out = []
        for line, decl in decls:
            self.line = line
            if decl[0] == "entry":
                out.append(self.make_concrete(decl[1], decl[2]))
            elif decl[0] == "family":
                _, fname, template, parity = decl
                members = [
                    self.make_concrete(template.replace("{i}", str(i)),
                                       parity, i)
                    for i in range(1, self.sc.nodes + 1)
                ]
                out.append(Family(fname, members))
            else:
                out.append(Block(decl[1], decl[2]))
        return out

    def show_state(self) -> str:
        return "< " + ", ".join(e.display() for e in self.state) + " >"

    def find(self, sel) -> int:
        """Index of the entry matching a ``(kind, name)`` selector."""
        kind, name = sel
        if kind != "label":
            cls = Block if kind == "block" else Family
            for i, e in enumerate(self.state):
                if isinstance(e, cls) and e.name == name:
                    return i
            raise ReplayError(f"no {kind} named {name}")
        key = self.variety.parse(_known(name))
        hits = [i for i, e in enumerate(self.state)
                if isinstance(e, Concrete) and e.key == key]
        if len(hits) != 1:
            raise ReplayError(f"selector {name!r} matches {len(hits)} entries")
        return hits[0]

    def resolve_movers(self, sel) -> list[int]:
        """Indices of mover entries for a pass/mutate step."""
        kind, template = sel
        if kind != "each":
            return [self.find(sel)]
        idxs = []
        for i in range(1, self.sc.nodes + 1):
            j = self.find(("label", template.replace("{i}", str(i))))
            self.state[j].index = i  # a label selects a concrete entry
            idxs.append(j)
        return idxs

    def concrete_members(self, entry) -> list[Concrete]:
        if isinstance(entry, Concrete):
            return [entry]
        if isinstance(entry, Family):
            return list(entry.members)
        raise ReplayError(
            f"{entry.display()} is an abstract block; its Ext groups "
            "cannot serve as evidence"
        )

    # ---- evidence

    def certified_ext(self, src: Concrete, dst: Concrete) -> ExtAnswer:
        """Ext(src, dst) asked by key, the one way the replay checks Ext:
        determinate, tagged BBW, RULE or AXIOM, its imports charged, its
        Euler number the lattice pairing, and C[0] when src is dst."""
        ans = self.variety.ext(_key(src), _key(dst))
        ext = f"Ext({src.label}, {dst.label})"
        if not ans.determinate:
            raise ReplayError(
                f"{ext} is not certified ({ans.tag}: {ans.route})"
            )
        if ans.tag not in (BBW, RULE, AXIOM):
            raise ReplayError(f"{ext} carries tag {ans.tag}")
        self.use_axioms(ans.axioms, ext)
        lattice_chi = self.lattice.pair(self.variety._class(src.key),
                                        self.variety._class(dst.key))
        if ans.chi != lattice_chi:
            raise ReplayError(
                f"{ext}: staircase chi {ans.chi} != lattice chi {lattice_chi}"
            )
        if src is dst and ans.graded != {0: 1}:  # an exceptional object
            raise ReplayError(
                f"{src.label} is not exceptional: {ans.describe()}"
            )
        return ans

    def evidence_ext(self, src: Concrete, dst: Concrete,
                     want_zero: bool) -> ExtAnswer:
        ans = self.certified_ext(src, dst)
        ext = f"Ext({src.label}, {dst.label})"
        if want_zero and not ans.is_zero:
            raise ReplayError(f"{ext} = {ans.describe()}; expected zero")
        self.emit(f"    {ext} = {format_graded(ans.graded)} [{ans.tag}] "
                  f"chi {ans.chi} == lattice {ans.chi}")
        return ans

    def check_family_orthogonal(self, members: list[Concrete],
                                context: str) -> None:
        for a in members:
            for b in members:
                if a is not b and not self.certified_ext(a, b).is_zero:
                    raise ReplayError(
                        f"{context}: family members {a.label}, {b.label} "
                        "are not orthogonal"
                    )
        if members:
            self.emit(
                f"    family of {len(members)} is pairwise orthogonal "
                "[graded]"
            )

    # ---- gram

    def gram_check(self, context: str) -> None:
        flat = [m for e in self.state if not isinstance(e, Block)
                for m in self.concrete_members(e)]
        for i, a in enumerate(flat):
            for j, b in enumerate(flat[:i + 1]):
                val = self.lattice.pair(a.cls, b.cls)
                want = 1 if i == j else 0
                if val != want:
                    raise ReplayError(
                        f"{context}: chi({a.display()}, "
                        f"{b.display()}) = {val}, expected {want}"
                    )
        self.emit(
            f"  gram of {len(flat)} tracked classes is unitriangular "
            f"({context})"
        )

    # ---- steps

    def run(self) -> ReplayResult:
        sc = self.sc
        self.emit(f"scenario {sc.name}: {sc.title}")
        self.emit(f"variety {sc.variety_name} (N = {sc.nodes})")
        self.emit(
            "allowed imports: " + (", ".join(sorted(sc.allowed)) or "none")
        )
        try:
            self.state = self.build_entries(sc.initial)
            self.use_axioms(sc.initial_axioms, "initial decomposition")
            if sc.initial_axioms:
                self.emit(
                    "initial decomposition imports: "
                    + ", ".join(sc.initial_axioms)
                )
            self.emit("initial state:")
            self.emit("  " + self.show_state())
            self.gram_check("initial")
            for step in sc.steps:
                self.line = step.line
                if step.handler is None:
                    raise ReplayError(f"unknown step kind {step.kind!r}")
                step.handler(self, step)
                self.emit("  " + self.show_state())
            self.check_expect()
            self.gram_check("final")
            if sc.closing_axioms:
                self.use_axioms(sc.closing_axioms, "closing comparison")
            if sc.closing_note:
                self.emit(f"note: {sc.closing_note}")
            extra = self.axioms_used - sc.allowed
            if extra:
                raise ReplayError(
                    "imports outside allowance: " + ", ".join(sorted(extra))
                )
            self.emit(
                "imports used: "
                + (", ".join(sorted(self.axioms_used)) or "none")
            )
            self.emit(f"scenario {sc.name}: PASS")
            passed = True
        except MalformedScenario:
            raise
        except InputError as err:
            raise MalformedScenario(f"line {self.line}: {err}") from None
        except ReplayError as err:
            self.emit(f"scenario {sc.name}: FAIL — {err}")
            passed = False
        return ReplayResult(sc.name, passed, self.out,
                            set(self.axioms_used), self.state)

    # serre left|right K
    def step_serre(self, step: Step) -> None:
        side, count = step.fields[""]
        if count > len(self.state):
            raise MalformedScenario(
                f"step {step.sid}: serre {side} {count} wraps more entries "
                f"than the {len(self.state)} in the decomposition"
            )
        self.emit(
            f"step {step.sid}: wrap {count} {'rightmost' if side == 'left' else 'leftmost'}"
            f" entr{'y' if count == 1 else 'ies'} around via the "
            f"{'canonical' if side == 'left' else 'anticanonical'} twist"
        )
        # the wrap twists by the canonical bundle, or by its inverse
        line_key = self.variety._line(self.variety.serre[side == "right"])
        if side == "left":
            moved, rest = self.state[-count:], self.state[:-count]
            self.state = [self._twist_entry(e, line_key) for e in moved] + rest
        else:
            moved, rest = self.state[:count], self.state[count:]
            self.state = rest + [self._twist_entry(e, line_key) for e in moved]

    # twist_all by=LABEL
    def step_twist_all(self, step: Step) -> None:
        by = step.fields["by"]
        self.emit(f"step {step.sid}: twist the whole decomposition by {by}")
        line_key = self.variety._line(by)
        self.state = [self._twist_entry(e, line_key) for e in self.state]

    def _twist_entry(self, entry, line_key):
        if isinstance(entry, Block):
            entry.version += 1
            return entry
        if isinstance(entry, Family):
            entry.members = [
                self._twist_concrete(m, line_key) for m in entry.members
            ]
            return entry
        return self._twist_concrete(entry, line_key)

    def _twist_concrete(self, e: Concrete, line_key) -> Concrete:
        v = self.variety
        key = v.twist(_key(e), line_key)
        return Concrete(v.format(key), key, e.parity,
                        twist_class(v, e.cls, line_key), e.index)

    # pass_left|pass_right movers=SEL to=front|end|after:SEL|before:SEL
    def step_pass(self, step: Step) -> None:
        left = step.left
        mover_idxs = self.resolve_movers(step.fields["movers"])
        movers = [self.state[i] for i in mover_idxs]
        names = ", ".join(e.display() for e in movers)
        self.emit(
            f"step {step.sid}: move {names} "
            f"{'left' if left else 'right'} (vanishing Ext pass-through)"
        )
        mover_set = set(mover_idxs)
        where, sel = step.fields["to"]
        dest = (self.find(sel) + (where == "after") if sel
                else 0 if where == "front" else len(self.state))
        block_move = any(isinstance(e, Block) for e in movers)
        if block_move and len(movers) != 1:
            raise ReplayError("a block must move alone")
        crossed_idx: set[int] = set()
        for m in mover_idxs:
            if left:
                if m < dest:
                    raise ReplayError("pass_left mover is left of target")
                span = range(dest, m)
            else:
                if m >= dest:
                    raise ReplayError("pass_right mover is right of target")
                span = range(m + 1, dest)
            crossed_idx.update(k for k in span if k not in mover_set)
        if block_move:
            movers[0].version += 1
            self.emit(
                "    abstract block crossing: mutation functor absorbed, "
                "no class bookkeeping"
            )
        else:
            moving = [m for e in movers for m in self.concrete_members(e)]
            for k in sorted(crossed_idx):
                for passed in self.concrete_members(self.state[k]):
                    for mem in moving:
                        pair = (passed, mem) if left else (mem, passed)
                        self.evidence_ext(*pair, True)
        keep = [e for i, e in enumerate(self.state) if i not in mover_set]
        dest -= sum(1 for i in mover_idxs if i < dest)
        self.state = keep[:dest] + movers + keep[dest:]

    # mutate_left|mutate_right mover=SEL through=SEL
    def step_mutate(self, step: Step) -> None:
        left = step.left
        mover_idxs = self.resolve_movers(step.fields["mover"])
        through_idx = self.find(step.fields["through"])
        through = self.state[through_idx]
        movers = [self.state[i] for i in mover_idxs]
        names = ", ".join(e.display() for e in movers)
        self.emit(
            f"step {step.sid}: {'left' if left else 'right'}-mutate {names} "
            f"through {through.display()}"
        )
        if any(isinstance(e, Block) for e in movers + [through]):
            raise ReplayError("mutation formula needs concrete classes")

        # adjacency: between the through-entry and each mover only movers
        mover_set = set(mover_idxs)
        for m in mover_idxs:
            span = range(through_idx + 1, m) if left else range(m + 1,
                                                                through_idx)
            if any(k not in mover_set for k in span):
                raise ReplayError(
                    "mutation target is not adjacent to the mover")
        moving = [m for e in movers for m in self.concrete_members(e)]
        if len(mover_idxs) > 1:
            self.check_family_orthogonal(moving, f"step {step.sid}")

        through_members = self.concrete_members(through)
        if len(through_members) > 1:
            self.check_family_orthogonal(through_members, f"step {step.sid}")

        results = []
        nonzero = False
        for mem in moving:
            cls = mem.cls
            for t in through_members:
                if left:
                    ans = self.evidence_ext(t, mem, False)
                    chi = self.lattice.pair(t.cls, cls)
                else:
                    ans = self.evidence_ext(mem, t, False)
                    chi = self.lattice.pair(cls, t.cls)
                nonzero = nonzero or ans.chi != 0
                cls = cls - t.cls.scale(chi)
            suffix = f":{mem.index}" if mem.index is not None else ""
            results.append(Concrete(f"{_MUTANT}{step.sid}{suffix}", None,
                                    mem.parity, cls, mem.index))
        if not nonzero:
            raise ReplayError(
                "all mutation evidence vanishes; use a pass step"
            )
        self.mutants[step.sid] = results
        if len(movers) == 1 and isinstance(movers[0], Family):
            results = [Family(movers[0].name, results)]
        keep = [e for i, e in enumerate(self.state)
                if i not in mover_set and i != through_idx]
        pos = min([through_idx] + mover_idxs)
        pos = pos - sum(1 for i in mover_idxs if i < pos)
        new = results + [through] if left else [through] + results
        self.state = keep[:pos] + new + keep[pos:]

    # identify from=STEP|entry=SEL as=LABEL parity=P
    def step_identify(self, step: Step) -> None:
        template = step.fields["as"]
        parity = step.fields.get("parity", 0)
        shown = template.replace("{i}", "i")
        if "from" in step.fields:
            sid = step.fields["from"]
            results = self.mutants.pop(sid)
            origin = f"the result of {sid}"
        else:
            entry = self.state[self.find(step.fields["entry"])]
            if not isinstance(entry, Concrete):
                raise ReplayError("identify needs a concrete entry")
            results = [entry]
            origin = entry.label
        self.emit(
            f"step {step.sid}: identify {origin} as {shown}"
            + (f" [{parity}]" if parity % 2 else "")
        )
        for mem in results:
            label = template.replace("{i}", str(mem.index)) \
                if mem.index is not None else template
            named = self.make_concrete(label, parity)
            if not self.lattice.eq(mem.cls, named.cls):
                raise ReplayError(
                    f"class of {mem.label} does not match "
                    f"{'-' if parity % 2 else ''}[{named.label}]"
                )
            mem.label, mem.key, mem.parity = named.label, named.key, parity
        self.emit(
            f"    {len(results)} class identit"
            f"{'y' if len(results) == 1 else 'ies'} verified in the lattice"
        )
        for mem in results:
            self.evidence_ext(mem, mem, False)

    # insert_block target=block:NAME [axioms=..] [exceptional=..] [require=..]
    def step_insert_block(self, step: Step) -> None:
        idx = self.find(step.fields["target"])
        target = self.state[idx]
        new_entries = self.build_entries(step.decls)
        self.line = step.line  # the sublines are built
        self.emit(
            f"step {step.sid}: expand {target.display()} into "
            + "< " + ", ".join(e.display() for e in new_entries) + " >"
        )
        axioms = step.fields.get("axioms", [])
        self.use_axioms(axioms, f"step {step.sid}")
        if axioms:
            self.emit("    imports: " + ", ".join(axioms))
        if "require" in step.fields:  # its one value: split_certificate
            cert = check_split_certificate()
            if not cert.passed:
                raise ReplayError("the split certificate fails")
            self.emit(
                "    split certificate verified: coefficients "
                f"{cert.certificate}, leave-one-out fails on all "
                f"{len(cert.leave_one_out)} relations, "
                f"{len(cert.side_conditions)} side conditions hold"
            )
        if "exceptional" in step.fields:
            entries = [self.make_concrete(lbl, 0)
                       for lbl in step.fields["exceptional"]]
            for i, a in enumerate(entries):
                for b in entries[:i]:
                    self.evidence_ext(a, b, True)
                ans = self.certified_ext(a, a)
                self.emit(f"    Ext({a.label}, {a.label}) = C[0] [{ans.tag}]")
        self.state = self.state[:idx] + new_entries + self.state[idx + 1:]

    # ---- expectation

    def _flatten(self, entries) -> list:
        flat = []
        for e in entries:
            if isinstance(e, Block):
                flat.append(("block", e.name))
            else:
                flat.extend(("entry", m.label, m.parity % 2)
                            for m in self.concrete_members(e))
        return flat

    def check_expect(self) -> None:
        got = self._flatten(self.state)
        want = self._flatten(self.build_entries(self.sc.expect))
        if got != want:
            for g, w in zip(got, want):
                if g != w:
                    raise ReplayError(
                        f"final state mismatch: got {g}, expected {w}"
                    )
            raise ReplayError(
                f"final state has {len(got)} slots, expected {len(want)}"
            )
        self.emit(
            f"final state matches the expected decomposition "
            f"({len(want)} tracked slots)"
        )


# --------------------------------------------------------------------------
# parsing

_STEP_RE = re.compile(r"^step\s+(\w+)\s+(\w+)\s*(.*)$")


def _parse_entry_line(line: str):
    """Parse one entry declaration; returns a tagged tuple."""
    line = line.strip()
    if line.startswith("entry "):
        body = line[len("entry "):].strip()
        parity = int(body.endswith("[1]"))
        return ("entry", body[:-3].strip() if parity else body, parity)
    if line.startswith("family "):
        m = re.match(r"^family\s+(\w+)\s*:\s*(\S+)(?:\s+\[1\])?$", line)
        if not m:
            raise ReplayError(f"cannot parse family line {line!r}")
        parity = 1 if line.rstrip().endswith("[1]") else 0
        return ("family", m.group(1), m.group(2), parity)
    if line.startswith("block "):
        m = re.match(r'^block\s+(\w+)\s+"([^"]*)"$', line)
        if not m:
            raise ReplayError(f"cannot parse block line {line!r}")
        return ("block", m.group(1), m.group(2))
    raise ReplayError(f"unknown entry declaration {line!r}")


#: the varieties built on the blowup ring, which bounds their node count
_BLOWUPS = ("blown_p3", "double_cover_blowup")


def _node_count(text: str) -> int:
    """The value of a ``nodes`` line: a positive integer."""
    try:
        return node_count(text)
    except ValueError:
        raise ReplayError(
            f"nodes must be a positive integer, got {text!r}"
        ) from None


# Argument readers: each turns one argument's text into its typed value or
# raises ReplayError.  A selector is a (block|family|each|label, NAME) pair.

def _selector(text: str, each: bool = False) -> tuple[str, str]:
    """``block:NAME``, ``family:NAME``, a label, or with ``each``
    ``each:TEMPLATE``; the name may not be empty."""
    kind, colon, name = text.partition(":")
    if not (colon and kind in ("block", "family", "each")):
        kind, name = "label", text
    if kind == "each" and not each:
        raise ReplayError(
            f"each: is allowed only in movers= and mover=, got {text!r}"
        )
    if not name:
        raise ReplayError(f"selector {text!r} names nothing")
    return kind, name


def _movers(text: str) -> tuple[str, str]:
    return _selector(text, each=True)


def _destination(text: str):
    """``(front|end, None)`` or ``(after|before, selector)``."""
    where, colon, sel = text.partition(":")
    if text in ("front", "end"):
        return text, None
    if not (colon and where in ("after", "before") and sel):
        raise ReplayError(f"bad pass destination {text!r}")
    return where, _selector(sel)


def _block(text: str) -> tuple[str, str]:
    if not text.startswith("block:"):
        raise ReplayError(
            f"insert_block target must be block:NAME, got {text!r}"
        )
    return _selector(text)


def _parity(text: str) -> int:
    if text not in ("0", "1"):
        raise ReplayError(f"identify parity must be 0 or 1, got {text!r}")
    return int(text)


def _names(text: str) -> list[str]:
    """A comma-separated list with no empty item."""
    if "" in text.split(","):
        raise ReplayError(f"empty item in the list {text!r}")
    return text.split(",")


def _require(text: str) -> str:
    if text != "split_certificate":
        raise ReplayError(f"require must be split_certificate, got {text!r}")
    return text


def _wrap(text: str) -> tuple[str, int]:
    """The side and entry count of a ``serre left|right K`` step."""
    pos = text.split()
    if len(pos) != 2 or pos[0] not in ("left", "right"):
        raise ReplayError(f"serre takes 'left|right K', got {text!r}")
    count = int(pos[1]) if re.fullmatch(r"\d+", pos[1]) else 0
    if count < 1:
        raise ReplayError(
            f"serre count must be an integer >= 1, got {pos[1]!r}"
        )
    return pos[0], count


_PASS = {"movers": (True, _movers), "to": (True, _destination)}
_MUTATE = {"mover": (True, _movers), "through": (True, _selector)}

#: the step table: each kind's handler, the side it runs on (True for
#: left), and its arguments as name -> (required, reader); the name ""
#: stands for the positional tokens, which only ``serre`` takes
_KINDS = {
    "serre": (_Runner.step_serre, None, {"": (True, _wrap)}),
    "pass_left": (_Runner.step_pass, True, _PASS),
    "pass_right": (_Runner.step_pass, False, _PASS),
    "mutate_left": (_Runner.step_mutate, True, _MUTATE),
    "mutate_right": (_Runner.step_mutate, False, _MUTATE),
    "identify": (_Runner.step_identify, None, {
        "from": (False, str), "entry": (False, _selector),
        "as": (True, str), "parity": (False, _parity),
    }),
    "twist_all": (_Runner.step_twist_all, None, {"by": (True, str)}),
    "insert_block": (_Runner.step_insert_block, None, {
        "target": (True, _block), "axioms": (False, _names),
        "exceptional": (False, _names), "require": (False, _require),
    }),
}


def _parse_step(line: int, sid: str, kind: str, rest: str,
                steps: list) -> Step:
    """A step line read against its kind's row of the step table."""
    if any(s.sid == sid for s in steps):
        raise ReplayError(f"step id {sid} is already used")
    if kind not in _KINDS:  # an unknown kind fails when the step runs
        return Step(line, sid, kind)
    handler, left, params = _KINDS[kind]
    given, pos = {}, []
    for token in rest.split():
        name, eq, value = token.partition("=")
        if not eq:
            pos.append(token)
        elif name in given:
            raise ReplayError(f"{kind} has {name}= twice: {token!r}")
        elif name and name in params:
            given[name] = value
        else:
            raise ReplayError(f"{kind} does not take {token!r}")
    if pos and "" not in params:
        raise ReplayError(f"{kind} does not take {pos[0]!r}")
    given[""] = " ".join(pos)
    fields = {}
    for name, (required, read) in params.items():
        if name in given:
            fields[name] = read(given[name])
        elif required:
            raise ReplayError(f"{kind} needs {name}=")
    if kind == "identify":
        if ("from" in fields) == ("entry" in fields):
            raise ReplayError("identify needs exactly one of from= and entry=")
        unnamed = {s.sid for s in steps if s.handler is _Runner.step_mutate}
        unnamed -= {s.fields.get("from") for s in steps}
        if "from" in fields and fields["from"] not in unnamed:
            raise ReplayError(
                f"identify from={fields['from']} names no earlier mutate "
                "step whose result is still unidentified"
            )
    return Step(line, sid, kind, handler, left, fields)


def parse_scenario(text: str) -> Scenario:
    name = variety_name = title = None
    nodes, nodes_line = DEFAULT_NODES, None
    allowed: set[str] = set()
    initial: list = []
    initial_axioms: list[str] = []
    steps: list[Step] = []
    expect: list = []
    closing_note = ""
    closing_axioms: list[str] = []

    section = None  # the list an indented line adds to
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        try:
            if line.startswith(("  ", "\t")):
                if section is None:
                    raise ReplayError(
                        f"unexpected indented line {line.strip()!r}"
                    )
                section.append((lineno, _parse_entry_line(line)))
                continue
            section = None
            if line.startswith("scenario "):
                name = line.split(None, 1)[1].strip()
            elif line.startswith("variety "):
                variety_name = line.split(None, 1)[1].strip()
                if variety_name not in VARIETY_NAMES:
                    raise ReplayError(f"unknown variety {variety_name!r}")
            elif line.startswith("nodes "):
                nodes = _node_count(line.split(None, 1)[1])
                nodes_line = lineno
            elif line.startswith("title "):
                title = line.split(None, 1)[1].strip().strip('"')
            elif line.startswith("allow_axioms"):
                allowed.update(line.split()[1:])
            elif line.startswith("initial_axioms"):
                initial_axioms.extend(line.split()[1:])
            elif line.startswith("closing_axioms"):
                closing_axioms.extend(line.split()[1:])
            elif line.startswith("initial:"):
                section = initial
            elif line.startswith("expect:"):
                section = expect
            elif line.startswith("closing_note "):
                closing_note = line.split(None, 1)[1].strip().strip('"')
            else:
                m = _STEP_RE.match(line)
                if not m:
                    raise ReplayError(f"cannot parse line {line!r}")
                step = _parse_step(lineno, *m.groups(), steps)
                steps.append(step)
                if step.kind == "insert_block":
                    section = step.decls
        except ReplayError as err:
            raise MalformedScenario(f"line {lineno}: {err}") from None

    if not (name and variety_name):
        raise MalformedScenario("scenario must declare a name and a variety")
    if variety_name in _BLOWUPS and nodes > BLOWUP_MAX_POINTS:
        raise MalformedScenario(
            f"line {nodes_line}: the blowup of P3 supports 0 to "
            f"{BLOWUP_MAX_POINTS} points, got {nodes}"
        )
    return Scenario(name, variety_name, nodes, title or name, allowed,
                    initial, initial_axioms, steps, expect, closing_note,
                    closing_axioms)


# --------------------------------------------------------------------------
# entry points

SCENARIOS = (
    "blown-p3-doubling",
    "gr-to-clifford",
    "enriques-split",
    "cover-blowup-reorder",
)


def read_scenario(path) -> Scenario:
    """Parse a scenario file; a file that cannot be read is an input
    error."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(str(err)) from None
    except UnicodeDecodeError as err:
        raise InputError(f"{path} is not UTF-8 text: {err}") from None
    return parse_scenario(text)


def load_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise InputError(f"unknown scenario {name!r}")
    return read_scenario(resources.files("sodcheck") / "scenarios"
                         / f"{name}.sod")


def run_scenario(scenario) -> ReplayResult:
    if isinstance(scenario, str):
        scenario = load_scenario(scenario)
    return _Runner(scenario).run()


def run_all() -> list[ReplayResult]:
    return [run_scenario(name) for name in SCENARIOS]
