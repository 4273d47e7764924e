"""Per-layer tracing of sodcheck from outside the package.

``install`` wraps the public functions of the seven modules and rebinds each
wrapper everywhere the original is bound: module globals (``bbw.weyl_dim``,
``varieties.ring_chi`` ...), class attributes (``ChowClass.__rmul__`` is the
same function as ``__mul__``) and every subclass override of a wrapped
method (``HomogeneousVariety.ext``, ``NetFourfold.ext`` ...).  Nothing in
``src/`` changes.

Each wrapper keeps a span stack in memory: a span's self time is its
duration minus the time covered by the wrapped calls it made.  Counters for
behaviour (Ext answers by tag, indeterminate staircases, repeated inputs)
are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

MODULES = ("gl_weights", "bbw", "chow", "kmut", "varieties", "replay", "cli")

#: module -> [(attribute path, span name)]; a path ``Class.method`` also
#: covers the overrides of every subclass, ``ring_*`` every ring constructor
TARGETS = {
    "gl_weights": [("weyl_dim", "weyl_dim"),
                   ("tensor_rank2", "tensor_rank2"),
                   ("weight_multiset", "weight_multiset")],
    "bbw": [("cohomology", "cohomology"),
            ("hypercohomology", "hypercohomology"),
            ("pushforward_complex", "pushforward_complex")],
    "chow": [("ch_bundle", "ch_bundle"), ("chi", "chi"),
             ("euler_pairing", "euler_pairing"),
             ("ChowClass.__mul__", "ChowClass.mul"),
             ("ChowClass.exp", "ChowClass.exp"),
             ("blowup_line_ch", "blowup_line_ch"),
             ("ring_*", "ring_build")],
    "kmut": [("smith_normal_form", "smith_normal_form"),
             ("relation_membership", "relation_membership"),
             ("AmbientLattice.pair", "AmbientLattice.pair"),
             ("FormalLattice.pair", "FormalLattice.pair"),
             ("mutate_left", "mutate_left"),
             ("mutate_right", "mutate_right"),
             ("gram", "gram")],
    "varieties": [("get_variety", "get_variety"),
                  ("Variety.parse", "parse"),
                  ("Variety.kclass", "kclass"),
                  ("Variety.ext", "ext"),
                  ("Variety.chi", "chi"),
                  ("double_cover_check", "double_cover_check"),
                  ("check_split_certificate", "check_split_certificate"),
                  ("projection_shadow_report", "projection_shadow_report")],
    "replay": [("parse_scenario", "parse_scenario"),
               ("run_scenario", "run_scenario")],
    "cli": [("main", "main"), ("run_property_suite", "run_property_suite")],
}

TAGS = ("BBW", "RULE", "AXIOM", "CHI-ONLY", "UNCHECKED")


def span_names() -> list[str]:
    """Every span name, ``<module>.<fn>``, in a fixed order."""
    return [f"{m}.{span}" for m, targets in TARGETS.items()
            for _, span in targets]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out += [(f"varieties.ext.tag.{t}", "count", "higher") for t in TAGS]
    out += [("bbw.hypercohomology.indeterminate", "count", "lower"),
            ("chow.ch_bundle.repeat_share", "ratio", "higher"),
            ("varieties.kclass.repeat_share", "ratio", "higher"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


class Tracer:
    """Span stack, per-span call counts and self times, behaviour counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = {s: 0.0 for s in span_names()}
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [name, time covered by child spans]
        self._seen: dict[str, set] = {"chow.ch_bundle": set(),
                                      "varieties.kclass": set()}
        self._repeats: Counter = Counter()
        self._observers = {
            "varieties.ext": self._on_ext,
            "bbw.hypercohomology": self._on_hyper,
            "chow.ch_bundle": self._on_repeat("chow.ch_bundle", _ch_key),
            "varieties.kclass": self._on_repeat("varieties.kclass",
                                                _kclass_key),
        }

    def wrap(self, name: str, fn):
        opened = self._open
        calls, self_s = self.calls, self.self_s
        observe = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            opened.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                opened.pop()
                calls[name] += 1
                self_s[name] += took - frame[1]
                if opened:
                    opened[-1][1] += took
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ---- behaviour counters

    def _on_ext(self, args, answer):
        # an answer handed to a caller outside the Ext oracle; the oracle's
        # own recursive calls (Serre duality, the cover's pairing) are inner
        if not any(frame[0] == "varieties.ext" for frame in self._open):
            self.counts[f"varieties.ext.tag.{answer.tag}"] += 1

    def _on_hyper(self, args, result):
        if not result.determinate:
            self.counts["bbw.hypercohomology.indeterminate"] += 1

    def _on_repeat(self, name, key_of):
        seen = self._seen[name]

        def observe(args, result):
            key = key_of(args)
            if key in seen:
                self._repeats[name] += 1
            else:
                seen.add(key)
        return observe

    # ---- results

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics so far (everything but the overhead)."""
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self.self_s.items()
                if k.startswith(module + "."))
        for tag in TAGS:
            key = f"varieties.ext.tag.{tag}"
            out[key] = self.counts[key]
        key = "bbw.hypercohomology.indeterminate"
        out[key] = self.counts[key]
        for name in self._seen:
            n = self.calls[name]
            out[f"{name}.repeat_share"] = self._repeats[name] / n if n else 0.0
        return out


def _ch_key(args):
    ring, bundle = args[0], args[1]
    return ring.name, repr(bundle)


def _kclass_key(args):
    variety, label = args[0], args[1]
    return variety.name, label


def _resolve_targets(modules: dict) -> dict[int, tuple[object, str]]:
    """id(original function) -> (original, span name) for every target."""
    found: dict[int, tuple[object, str]] = {}

    def add(fn, span):
        found[id(fn)] = (fn, span)

    for mod_name, targets in TARGETS.items():
        mod = modules[mod_name]
        for path, span in targets:
            full = f"{mod_name}.{span}"
            if path == "ring_*":
                ctors = [v for k, v in vars(mod).items()
                         if k.startswith("ring_") and inspect.isfunction(v)
                         and v.__module__ == mod.__name__]
                if not ctors:
                    raise LookupError(f"no ring constructors in {mod_name}")
                for fn in ctors:
                    add(fn, full)
            elif "." in path:
                cls_name, meth = path.split(".")
                base = getattr(mod, cls_name)
                for cls in [base] + _subclasses(base):
                    if meth in vars(cls):
                        add(vars(cls)[meth], full)
            else:
                add(getattr(mod, path), full)
    return found


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every target and rebind the wrapper at every binding.

    ``modules`` maps the short module names of ``MODULES`` to the imported
    modules.  Raises LookupError when a target or a span has no function,
    so a renamed function fails loudly instead of silently dropping out of
    the trace.
    """
    originals = _resolve_targets(modules)
    wrappers = {key: tracer.wrap(span, fn)
                for key, (fn, span) in originals.items()}
    holders = list(modules.values())
    holders += [cls for m in modules.values() for cls in vars(m).values()
                if inspect.isclass(cls)
                and cls.__module__.startswith("sodcheck")]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if id(value) in wrappers and value is originals[id(value)][0]:
                setattr(holder, attr, wrappers[id(value)])
    missing = set(span_names()) - {s for _, s in originals.values()}
    if missing:
        raise LookupError(f"no function found for spans {sorted(missing)}")
