"""Replayable mutation transcripts for semiorthogonal decompositions.

A scenario file (``*.sod``) declares a variety, an initial decomposition
(concrete sheaf labels, indexed families, abstract blocks), a sequence of
mutation steps, and the expected final decomposition.  The runner replays
the steps with full class-level bookkeeping in the variety's numerical
Grothendieck lattice and demands exact evidence for every reordering:

* ``pass_left`` / ``pass_right`` move entries across other entries and
  require the corresponding graded Ext groups to vanish outright;
* ``mutate_left`` / ``mutate_right`` apply the mutation formula
  ``F -> F - chi(E,F) E`` (resp. ``F - chi(F,E) E``) and record the graded
  evidence, cross-checking its Euler number against the lattice pairing;
* ``identify`` resolves a mutation result against a named sheaf, with a
  declared shift parity: the stored class must equal ``(-1)^parity`` times
  the named class (decided in the lattice, through its relations if any);
* ``serre`` wraps outermost entries around the decomposition, twisting by
  the (anti)canonical bundle; ``twist_all`` twists every entry;
* ``insert_block`` expands an abstract block into a declared decomposition,
  optionally demanding a graded exceptionality check or the split
  certificate.

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
    step ID KIND key=value ..         # sublines attach to the step

Step forms: ``step ID serre left|right K`` (1 <= K <= current entries);
``step ID pass_left|pass_right movers=SEL to=front|end|after:SEL|before:SEL``;
``step ID mutate_left|mutate_right mover=SEL through=SEL``;
``step ID identify from=STEPID|entry=SEL as=LABEL parity=0|1``;
``step ID twist_all by=LABEL``;
``step ID insert_block target=block:NAME [axioms=ID,..]
[exceptional=L1,L2] [require=split_certificate]`` with entry sublines.
Selectors: a canonical label, ``block:NAME``, ``family:NAME``, or
``each:TEMPLATE`` (one mover per node index).
"""

from __future__ import annotations

import re
from importlib import resources

from .kmut import FormalClass
from .varieties import (
    AXIOMS,
    BBW,
    RULE,
    AXIOM,
    DEFAULT_NODES,
    ExtAnswer,
    check_split_certificate,
    get_variety,
)


class ReplayError(Exception):
    """A replay step failed: evidence missing, class mismatch, bad order."""


#: prefix of the synthetic name a mutation result carries until identified
_MUTANT = "mut:"


class MalformedScenario(ReplayError):
    """A step the scenario cannot mean, found while running it.

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


def _known(label: str) -> str:
    """``label``, unless it is the synthetic name of a mutation result."""
    if label.startswith(_MUTANT):
        raise UnidentifiedResult(label)
    return label


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
    def __init__(self, sid, kind, args, sublines):
        self.sid = sid
        self.kind = kind
        self.args = args
        self.sublines = sublines


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


_STEP_RE = re.compile(r"^step\s+(\w+)\s+(\w+)\s*(.*)$")


def _parse_entry_line(line: str):
    """Parse one entry declaration; returns a tagged tuple."""
    line = line.strip()
    if line.startswith("entry "):
        body = line[len("entry "):].strip()
        parity = 0
        if body.endswith("[1]"):
            parity = 1
            body = body[:-3].strip()
        return ("entry", body, parity)
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


def _node_count(text: str) -> int:
    """The value of a ``nodes`` line: a positive integer."""
    try:
        nodes = int(text)
    except ValueError:
        nodes = 0
    if nodes < 1:
        raise ReplayError(f"nodes must be a positive integer, got {text!r}")
    return nodes


def _serre_args(args: dict) -> tuple[str, int]:
    """The side and entry count of a ``serre left|right K`` step."""
    pos = args.get("_pos", [])
    if len(pos) != 2 or pos[0] not in ("left", "right"):
        raise ReplayError(
            f"serre takes 'left|right K', got {' '.join(pos)!r}"
        )
    count = int(pos[1]) if re.fullmatch(r"\d+", pos[1]) else 0
    if count < 1:
        raise ReplayError(
            f"serre count must be an integer >= 1, got {pos[1]!r}"
        )
    return pos[0], count


#: required ``key=`` arguments of each step kind
_REQUIRED = {
    "pass_left": ("movers", "to"), "pass_right": ("movers", "to"),
    "mutate_left": ("mover", "through"), "mutate_right": ("mover", "through"),
    "twist_all": ("by",), "identify": ("as",), "insert_block": ("target",),
}


def _check_args(kind: str, args: dict) -> None:
    """Reject a known step kind's missing or bad arguments."""
    if kind == "serre":
        _serre_args(args)
    for name in _REQUIRED.get(kind, ()):
        if name not in args:
            raise ReplayError(f"{kind} needs {name}=")
    if kind == "identify":
        if ("from" in args) == ("entry" in args):
            raise ReplayError("identify needs exactly one of from= and entry=")
        if args.get("parity", "0") not in ("0", "1"):
            raise ReplayError(
                f"identify parity must be 0 or 1, got {args['parity']!r}"
            )


def parse_scenario(text: str) -> Scenario:
    name = variety_name = title = None
    nodes = DEFAULT_NODES
    allowed: set[str] = set()
    initial: list = []
    initial_axioms: list[str] = []
    steps: list[Step] = []
    expect: list = []
    closing_note = ""
    closing_axioms: list[str] = []

    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        try:
            if line.startswith(("  ", "\t")):
                body = line.strip()
                if section == "initial":
                    initial.append(_parse_entry_line(body))
                elif section == "expect":
                    expect.append(_parse_entry_line(body))
                elif section == "step" and steps:
                    steps[-1].sublines.append(body)
                else:
                    raise ReplayError(f"unexpected indented line {body!r}")
                continue
            section = None
            if line.startswith("scenario "):
                name = line.split(None, 1)[1].strip()
            elif line.startswith("variety "):
                variety_name = line.split(None, 1)[1].strip()
            elif line.startswith("nodes "):
                nodes = _node_count(line.split(None, 1)[1])
            elif line.startswith("title "):
                title = line.split(None, 1)[1].strip().strip('"')
            elif line.startswith("allow_axioms"):
                allowed.update(line.split()[1:])
            elif line.startswith("initial_axioms"):
                initial_axioms.extend(line.split()[1:])
            elif line.startswith("closing_axioms"):
                closing_axioms.extend(line.split()[1:])
            elif line.startswith("initial:"):
                section = "initial"
            elif line.startswith("expect:"):
                section = "expect"
            elif line.startswith("closing_note "):
                closing_note = line.split(None, 1)[1].strip().strip('"')
            else:
                m = _STEP_RE.match(line)
                if not m:
                    raise ReplayError(f"cannot parse line {line!r}")
                args = {}
                rest = m.group(3)
                for token in rest.split():
                    if "=" in token:
                        k, v = token.split("=", 1)
                        args[k] = v
                    else:
                        args.setdefault("_pos", []).append(token)
                _check_args(m.group(2), args)
                steps.append(Step(m.group(1), m.group(2), args, []))
                section = "step"
        except ReplayError as err:
            raise ReplayError(f"line {lineno}: {err}") from None

    if not (name and variety_name):
        raise ReplayError("scenario must declare a name and a variety")
    return Scenario(name, variety_name, nodes, title or name, allowed,
                    initial, initial_axioms, steps, expect, closing_note,
                    closing_axioms)


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
        for decl in decls:
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

    def find(self, sel: str) -> int:
        """Index of the entry matching a selector."""
        if sel.startswith("block:"):
            name = sel[6:]
            for i, e in enumerate(self.state):
                if isinstance(e, Block) and e.name == name:
                    return i
            raise ReplayError(f"no block named {name}")
        if sel.startswith("family:"):
            name = sel[7:]
            for i, e in enumerate(self.state):
                if isinstance(e, Family) and e.name == name:
                    return i
            raise ReplayError(f"no family named {name}")
        key = self.variety.parse(_known(sel))
        hits = [
            i for i, e in enumerate(self.state)
            if isinstance(e, Concrete) and e.key == key
        ]
        if len(hits) != 1:
            raise ReplayError(
                f"selector {sel!r} matches {len(hits)} entries"
            )
        return hits[0]

    def resolve_movers(self, sel: str) -> list[int]:
        """Indices of mover entries for a pass/mutate step."""
        if sel.startswith("each:"):
            template = sel[5:]
            idxs = []
            for i in range(1, self.sc.nodes + 1):
                j = self.find(template.replace("{i}", str(i)))
                entry = self.state[j]
                if isinstance(entry, Concrete):
                    entry.index = i
                idxs.append(j)
            return idxs
        return [self.find(sel)]

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

    def evidence_ext(self, src: Concrete, dst: Concrete,
                     want_zero: bool) -> ExtAnswer:
        ans = self.variety.ext(_known(src.label), _known(dst.label))
        if not ans.determinate:
            raise ReplayError(
                f"Ext({src.label}, {dst.label}) is not certified "
                f"({ans.tag}: {ans.route})"
            )
        if ans.tag == AXIOM:
            self.use_axioms(ans.axioms, f"Ext({src.label}, {dst.label})")
        elif ans.tag not in (BBW, RULE):
            raise ReplayError(
                f"Ext({src.label}, {dst.label}) carries tag {ans.tag}"
            )
        elif ans.axioms:
            self.use_axioms(ans.axioms, f"Ext({src.label}, {dst.label})")
        lattice_chi = self.lattice.pair(
            self.variety._class(src.key), self.variety._class(dst.key)
        )
        if ans.chi != lattice_chi:
            raise ReplayError(
                f"Ext({src.label}, {dst.label}): staircase chi {ans.chi} "
                f"!= lattice chi {lattice_chi}"
            )
        if want_zero and not ans.is_zero:
            raise ReplayError(
                f"Ext({src.label}, {dst.label}) = "
                f"{ans.describe()}; expected zero"
            )
        tagbit = f" [{ans.tag}]"
        self.emit(
            f"    Ext({src.label}, {dst.label}) = "
            f"{'0' if ans.is_zero else ans.describe().split(' chi=')[0]}"
            f"{tagbit} chi {ans.chi} == lattice {lattice_chi}"
        )
        return ans

    def check_family_orthogonal(self, members: list[Concrete],
                                context: str) -> None:
        for a in members:
            for b in members:
                if a is b:
                    continue
                ans = self.variety.ext(_known(a.label), _known(b.label))
                if not (ans.determinate and ans.is_zero):
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
        flat = []
        for e in self.state:
            if isinstance(e, Concrete):
                flat.append(e)
            elif isinstance(e, Family):
                flat.extend(e.members)
        n = len(flat)
        for i in range(n):
            for j in range(n):
                if i < j:
                    continue
                val = self.lattice.pair(flat[i].cls, flat[j].cls)
                want = 1 if i == j else 0
                if val != want:
                    raise ReplayError(
                        f"{context}: chi({flat[i].display()}, "
                        f"{flat[j].display()}) = {val}, expected {want}"
                    )
        self.emit(
            f"  gram of {n} tracked classes is unitriangular ({context})"
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
                self.run_step(step)
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
            return ReplayResult(sc.name, True, self.out,
                                set(self.axioms_used), self.state)
        except MalformedScenario:
            raise
        except ReplayError as err:
            self.emit(f"scenario {sc.name}: FAIL — {err}")
            return ReplayResult(sc.name, False, self.out,
                                set(self.axioms_used), self.state)

    def run_step(self, step: Step) -> None:
        handler = getattr(self, f"step_{step.kind}", None)
        if handler is None:
            raise ReplayError(f"unknown step kind {step.kind!r}")
        handler(step)

    # serre left|right K
    def step_serre(self, step: Step) -> None:
        side, count = _serre_args(step.args)
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
        by = step.args["by"]
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
        _known(e.label)  # a mutation result has no key to twist
        key = v.twist(e.key, line_key)
        if isinstance(e.cls, FormalClass):  # generators are label text
            cls = self.lattice.combo({
                v.format(v.twist(v.parse(g), line_key)): c
                for g, c in e.cls.coeffs.items()
            })
        else:
            cls = e.cls * v._class(line_key)
        return Concrete(v.format(key), key, e.parity, cls, e.index)

    # pass_left movers=SEL to=front|after:SEL|before:SEL
    def step_pass_left(self, step: Step) -> None:
        self._pass(step, left=True)

    def step_pass_right(self, step: Step) -> None:
        self._pass(step, left=False)

    def _pass(self, step: Step, left: bool) -> None:
        mover_idxs = self.resolve_movers(step.args["movers"])
        target = step.args["to"]
        movers = [self.state[i] for i in mover_idxs]
        names = ", ".join(e.display() for e in movers)
        self.emit(
            f"step {step.sid}: move {names} "
            f"{'left' if left else 'right'} (vanishing Ext pass-through)"
        )
        mover_set = set(mover_idxs)
        if target == "front":
            dest = 0
        elif target == "end":
            dest = len(self.state)
        elif target.startswith("after:"):
            dest = self.find(target[6:]) + 1
        elif target.startswith("before:"):
            dest = self.find(target[7:])
        else:
            raise ReplayError(f"bad pass destination {target!r}")

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
            for k in sorted(crossed_idx):
                for passed in self.concrete_members(self.state[k]):
                    for e in movers:
                        for mem in self.concrete_members(e):
                            if left:
                                self.evidence_ext(passed, mem, True)
                            else:
                                self.evidence_ext(mem, passed, True)
        keep = [e for i, e in enumerate(self.state) if i not in mover_set]
        shift = sum(1 for i in mover_idxs if i < dest)
        dest -= shift
        self.state = keep[:dest] + movers + keep[dest:]

    # mutate_left mover=SEL through=SEL   (and mutate_right)
    def step_mutate_left(self, step: Step) -> None:
        self._mutate(step, left=True)

    def step_mutate_right(self, step: Step) -> None:
        self._mutate(step, left=False)

    def _mutate(self, step: Step, left: bool) -> None:
        mover_idxs = self.resolve_movers(step.args["mover"])
        through_idx = self.find(step.args["through"])
        through = self.state[through_idx]
        movers = [self.state[i] for i in mover_idxs]
        names = ", ".join(e.display() for e in movers)
        self.emit(
            f"step {step.sid}: {'left' if left else 'right'}-mutate {names} "
            f"through {through.display()}"
        )
        if isinstance(through, Block) or any(
            isinstance(e, Block) for e in movers
        ):
            raise ReplayError("mutation formula needs concrete classes")

        # adjacency: between the through-entry and each mover only movers
        mover_set = set(mover_idxs)
        for m in mover_idxs:
            span = (
                range(through_idx + 1, m) if left else range(m + 1,
                                                             through_idx)
            )
            for k in span:
                if k not in mover_set:
                    raise ReplayError(
                        "mutation target is not adjacent to the mover"
                    )
        if len(mover_idxs) > 1:
            flat = []
            for e in movers:
                flat.extend(self.concrete_members(e))
            self.check_family_orthogonal(flat, f"step {step.sid}")

        through_members = self.concrete_members(through)
        if len(through_members) > 1:
            self.check_family_orthogonal(through_members, f"step {step.sid}")

        results = []
        nonzero = False
        for e in movers:
            for mem in self.concrete_members(e):
                cls = mem.cls
                for t in through_members:
                    if left:
                        ans = self.evidence_ext(t, mem, False)
                        chi = self.lattice.pair(t.cls, cls)
                    else:
                        ans = self.evidence_ext(mem, t, False)
                        chi = self.lattice.pair(cls, t.cls)
                    if ans.chi != 0:
                        nonzero = True
                    cls = cls - t.cls.scale(chi)
                results.append(Concrete(
                    f"{_MUTANT}{step.sid}" + (
                        f":{mem.index}" if mem.index is not None else ""
                    ),
                    None, mem.parity, cls, mem.index,
                ))
        if not nonzero:
            raise ReplayError(
                "all mutation evidence vanishes; use a pass step"
            )
        self.mutants[step.sid] = results
        result_entry: list = []
        if len(movers) == 1 and isinstance(movers[0], Family):
            result_entry = [Family(movers[0].name, results)]
        else:
            result_entry = results
        keep = [
            e for i, e in enumerate(self.state)
            if i not in mover_set and i != through_idx
        ]
        pos = min([through_idx] + mover_idxs)
        pos = pos - sum(1 for i in mover_idxs if i < pos)
        if left:
            new = result_entry + [through]
        else:
            new = [through] + result_entry
        self.state = keep[:pos] + new + keep[pos:]

    # identify from=STEP|entry=SEL as=LABEL parity=P
    def step_identify(self, step: Step) -> None:
        template = step.args["as"]
        parity = int(step.args.get("parity", "0"))
        shown = template.replace("{i}", "i")
        if "from" in step.args:
            sid = step.args["from"]
            if sid not in self.mutants:
                raise ReplayError(f"no mutation result from step {sid}")
            results = self.mutants.pop(sid)
            origin = f"the result of {sid}"
        else:
            entry = self.state[self.find(step.args["entry"])]
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
            ans = self.evidence_ext(mem, mem, False)
            if ans.graded != {0: 1}:
                raise ReplayError(
                    f"{mem.label} is not exceptional: {ans.describe()}"
                )

    # insert_block target=block:NAME [axioms=..] [exceptional=..] [require=..]
    def step_insert_block(self, step: Step) -> None:
        idx = self.find(step.args["target"])
        target = self.state[idx]
        decls = [_parse_entry_line(s) for s in step.sublines]
        new_entries = self.build_entries(decls)
        self.emit(
            f"step {step.sid}: expand {target.display()} into "
            + "< " + ", ".join(e.display() for e in new_entries) + " >"
        )
        axioms = [a for a in step.args.get("axioms", "").split(",") if a]
        self.use_axioms(axioms, f"step {step.sid}")
        if axioms:
            self.emit("    imports: " + ", ".join(axioms))
        if step.args.get("require") == "split_certificate":
            cert = check_split_certificate()
            if not cert.passed:
                raise ReplayError("the split certificate fails")
            self.emit(
                "    split certificate verified: coefficients "
                f"{cert.certificate}, leave-one-out fails on all "
                f"{len(cert.leave_one_out)} relations, "
                f"{len(cert.side_conditions)} side conditions hold"
            )
        if "exceptional" in step.args:
            labels = step.args["exceptional"].split(",")
            entries = [self.make_concrete(lbl, 0) for lbl in labels]
            for i, a in enumerate(entries):
                for j, b in enumerate(entries):
                    if i == j:
                        ans = self.variety.ext(a.label, b.label)
                        if not (ans.determinate and ans.graded == {0: 1}):
                            raise ReplayError(
                                f"{a.label} is not exceptional: "
                                f"{ans.describe()}"
                            )
                        self.emit(
                            f"    Ext({a.label}, {a.label}) = C[0] "
                            f"[{ans.tag}]"
                        )
                    elif i > j:
                        self.evidence_ext(a, b, True)
        self.state = self.state[:idx] + new_entries + self.state[idx + 1:]

    # ---- expectation

    def _flatten(self, entries) -> list:
        flat = []
        for e in entries:
            if isinstance(e, Concrete):
                flat.append(("entry", e.label, e.parity % 2))
            elif isinstance(e, Family):
                flat.extend(
                    ("entry", m.label, m.parity % 2) for m in e.members
                )
            else:
                flat.append(("block", e.name))
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
# entry points

SCENARIOS = (
    "blown-p3-doubling",
    "gr-to-clifford",
    "enriques-split",
    "cover-blowup-reorder",
)


def load_scenario(name: str) -> Scenario:
    path = resources.files("sodcheck") / "scenarios" / f"{name}.sod"
    return parse_scenario(path.read_text())


def run_scenario(scenario) -> ReplayResult:
    if isinstance(scenario, str):
        scenario = load_scenario(scenario)
    return _Runner(scenario).run()


def run_all() -> list[ReplayResult]:
    return [run_scenario(name) for name in SCENARIOS]
