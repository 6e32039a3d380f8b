"""Per-layer tracing from outside the library.

install() wraps the public functions of each unitlift layer in spans and
counters.  A wrapper replaces the function in every unitlift module that
holds it, because cli, verify, star, spectrum and semiunits bind names with
`from .rings import ...`; patching the defining module alone would miss their
calls.  uninstall() puts every original back.

Spans are aggregated as they close instead of being kept: a run makes
millions of calls (every `is_unit` goes through `units()`), too many to hold.
A span's self time is its duration minus the durations of its direct child
spans.  Criteria (verify) and CLI commands (cli) are the top layers, so their
`.s` is the whole wall time of the criterion or command: the 15 verify
numbers add up to a corpus pass apart from building its rings.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter

from workloads import ALL_COMMANDS

CRITERIA = (
    "star-methods-agree", "rings-lift-units", "integer-unit-images",
    "polynomial-unit-images", "product-radical-splits", "radical-reduction-stable",
    "rho-laws", "semi-inverse-coset", "decomposition-certificates",
    "quotient-unit-lifting", "field-product-adjustment", "matrix-entrywise-lifts",
    "dedekind-finiteness", "saturation-closure-laws", "deterministic-reports",
)
STAR_METHODS = ("direct", "saturatedSum", "satEquality", "witness")

# (module, function): metrics reported for it; "s" is self time, "calls" a count
SPANNED = {
    ("rings", "build_ring"): ("s",),
    ("rings", "enumerate_ideals"): ("s",),
    ("rings", "quotient_ring"): ("s", "calls"),
    ("rings", "ideal_closure"): ("s",),
    ("spectrum", "jacobson_radical"): ("s",),
    ("spectrum", "maximal_ideals"): ("s",),
    ("spectrum", "nilpotent_elements"): ("s",),
    ("spectrum", "idempotents"): ("s",),
    ("spectrum", "crt_solve"): ("s", "calls"),
    ("star", "saturate"): ("s", "calls"),
    ("star", "ring_has_star"): ("s",),
    ("star", "crt_unit_lift"): ("s", "calls"),
    ("star", "product_fields_adjust"): ("s", "calls"),
    ("semiunits", "semi_inverses"): ("s",),
    ("semiunits", "rho_table"): ("s",),
    ("semiunits", "is_semifield"): ("s",),
    ("semiunits", "semi_unit_decomposition"): ("s",),
    ("semiunits", "colon_into_radical"): ("s",),
    ("matrices", "matrix_inverse"): ("s",),
    ("matrices", "gl_lift"): ("s",),
    ("matrices", "two_sided_saturate"): ("s",),
    ("matrices", "dedekind_finite_check"): ("s",),
}

PER_LAYER = (
    ["rings.tables.s", "rings.tables.built", "rings.tables.refused",
     "rings.scalar_ops", "rings.units.s", "rings.ideals_enumerated"]
    + [f"{m}.{f}.{k}" for (m, f), kinds in SPANNED.items() for k in kinds]
    + [f"star.star_check.{m}.s" for m in STAR_METHODS]
    + ["matrices.det.calls"]
    + [f"verify.{c}.s" for c in CRITERIA]
    + [f"cli.{c}.s" for c in ALL_COMMANDS]
    + ["cli.main.self_s", "cli.timeouts", "trace.untraced_s", "trace.overhead_s"]
)

SCALAR_OPS = ("add", "mul", "neg", "sub")


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._in_criterion = False
        self._scalar_ops = itertools.count()

    # ----- spans -----------------------------------------------------------

    def _open(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[float], duration: float, whole: bool):
        self._stack.pop()
        self.self_s[name] += duration if whole else duration - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += duration

    def span(self, fn, name=None, name_of=None, whole=False):
        """Wrap fn in a span; name_of(args, kwargs, result) names it after
        the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                label = name_of(args, kwargs, result) if name_of else name
                self._close(label, frame, time.perf_counter() - start, whole)
        return wrapper

    # ----- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "unitlift" and not mod_name.startswith("unitlift."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self):
        import unitlift.cli as cli
        import unitlift.rings as rings
        import unitlift.star as star
        import unitlift.verify as verify

        modules = {name: sys.modules[f"unitlift.{name}"]
                   for name in ("rings", "spectrum", "star", "semiunits", "matrices")}
        for (mod, fn_name), _ in SPANNED.items():
            original = getattr(modules[mod], fn_name)
            self._replace_everywhere(original,
                                     self.span(original, f"{mod}.{fn_name}"))

        def method_name(args, kwargs, result):
            method = args[2] if len(args) > 2 else kwargs["method"]
            return f"star.star_check.{star.StarMethod(method).value}"
        self._replace_everywhere(star.star_check,
                                 self.span(star.star_check, name_of=method_name))

        det = modules["matrices"].det

        @functools.wraps(det)
        def counted_det(*args, **kwargs):
            self.counts["matrices.det.calls"] += 1
            return det(*args, **kwargs)
        self._replace_everywhere(det, counted_det)

        self._install_ring_methods(rings)
        self._install_criteria(verify)
        self._install_cli(cli)

    def _install_ring_methods(self, rings):
        tables = rings.FiniteRing.tables

        def traced_tables(ring):
            had = ring._tables is not None
            result = tables(ring)
            if result is None:
                self.counts["rings.tables.refused"] += 1
            elif not had:
                self.counts["rings.tables.built"] += 1
            return result
        self._replace(rings.FiniteRing, "tables", self.span(traced_tables, "rings.tables"))
        self._replace(rings.FiniteRing, "units",
                      self.span(rings.FiniteRing.units, "rings.units"))

        enumerate_ideals = rings.enumerate_ideals  # already wrapped in a span

        def counted_enumerate(ring, *args, **kwargs):
            fresh = "ideals" not in ring._cache
            result = enumerate_ideals(ring, *args, **kwargs)
            if fresh:
                self.counts["rings.ideals_enumerated"] += len(result)
            return result
        self._replace_everywhere(enumerate_ideals, counted_enumerate)

        for cls in (rings.FiniteRing, rings.ModularRing, rings.PolyQuotientRing,
                    rings.ProductRing, rings.QuotientRing):
            for op in SCALAR_OPS:
                if op in vars(cls) and not (cls is rings.FiniteRing and op != "sub"):
                    self._replace(cls, op, self._counted_op(vars(cls)[op]))

    def _counted_op(self, op):
        """Count calls of a scalar ring operation; no span, since a run makes
        millions of them.  Fixed arities keep the wrapper cheap."""
        tick = self._scalar_ops.__next__
        if op.__code__.co_argcount == 2:
            @functools.wraps(op)
            def counted(ring, a):
                tick()
                return op(ring, a)
        else:
            @functools.wraps(op)
            def counted(ring, a, b):
                tick()
                return op(ring, a, b)
        return counted

    def _install_criteria(self, verify):
        """Span each top-level criterion; nested ones (deterministic-reports
        reruns the corpus) stay inside their caller's span."""
        def key_of(args, kwargs, result):
            return f"verify.{result.key}" if result is not None else "verify.unfinished"

        def wrap(criterion):
            traced = self.span(criterion, name_of=key_of, whole=True)

            @functools.wraps(criterion)
            def top_level_only(*args, **kwargs):
                if self._in_criterion:
                    return criterion(*args, **kwargs)
                self._in_criterion = True
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._in_criterion = False
            return top_level_only

        wrapped = {c: wrap(c) for c in verify.CRITERIA}
        for original, new in wrapped.items():
            self._replace_everywhere(original, new)
        # run_corpus iterates this tuple and compares against the
        # module-level criterion_determinism, which is now the wrapper
        self._replace(verify, "CRITERIA", tuple(wrapped[c] for c in verify.CRITERIA))

    def _install_cli(self, cli):
        for command in ALL_COMMANDS:
            attr = "_cmd_" + command.replace("-", "_")
            self._replace(cli, attr, self.span(getattr(cli, attr), f"cli.{command}",
                                               whole=True))
        self._replace(cli, "main", self.span(cli.main, "cli.main"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def checkpoint(self):
        """State to roll back to if the next operation is abandoned.  Call
        it, and rollback(), only while the tracer is not installed."""
        scalar_ops = next(self._scalar_ops)
        self._scalar_ops = itertools.count(scalar_ops)
        return self.self_s.copy(), self.calls.copy(), self.counts.copy(), scalar_ops

    def rollback(self, state):
        self.self_s, self.calls, self.counts, scalar_ops = state
        self._scalar_ops = itertools.count(scalar_ops)

    # ----- report -----------------------------------------------------------

    def metrics(self, timeouts: int, untraced_s: float, overhead_s: float) -> dict:
        values = {}
        for name in PER_LAYER:
            base, kind = name.rsplit(".", 1)
            if name == "cli.main.self_s":
                values[name] = self.self_s["cli.main"]
            elif name in self.counts or kind not in ("s", "calls"):
                values[name] = self.counts[name]
            elif kind == "s":
                values[name] = self.self_s[base]
            else:
                values[name] = self.calls[base]
        values["rings.scalar_ops"] = next(self._scalar_ops)
        values["cli.timeouts"] = timeouts
        values["trace.untraced_s"] = untraced_s
        values["trace.overhead_s"] = overhead_s
        return values


def unit_of(name: str) -> str:
    return "s" if name.endswith((".s", "_s")) else "count"
