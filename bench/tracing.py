"""Outside-in tracing: spans and counters recorded around loopalg's public calls.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces each
traced function at every module attribute through which callers reach it
(``opers.is_regular_semisimple`` as well as ``rootdata.is_regular_semisimple``,
``ring.kernel_basis`` for callers that go through ``ring.``), records one span
per call, and puts the original objects back on :meth:`Tracer.uninstall`.
Three hot constructors (``LaurentPoly.__init__``, ``LaurentPoly.__mul__`` and
``WindowUnderflowError.__init__``) are counted instead of spanned, because a
span per Laurent polynomial would cost more than the work it measures.

Spans stay in memory as ``[name, start_ns, end_ns, parent]`` lists, where
``parent`` is the index of the enclosing span or -1; :meth:`Tracer.write`
dumps them as JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute path): the functions traced with one span per call.  The
# span is named "<module>.<attribute path>".
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("rootdata", "build_root_datum"),
    ("rootdata", "principal_triple"),
    ("rootdata", "is_regular_semisimple"),
    ("affine", "orthogonal_lattice"),
    ("affine", "graded_principal_triple"),
    ("affine", "residue_pairing"),
    ("ring", "charpoly_esym"),
    ("ring", "kernel_basis"),
    ("ring", "mat_mul"),
    ("ring", "ratfunc_row_reduce"),
    ("hitchin", "invariant_system"),
    ("hitchin", "InvariantSystem.invariant_values"),
    ("hitchin", "chevalley_map"),
    ("hitchin", "sample_orth_element"),
    ("hitchin", "section_from_cover"),
    ("hitchin", "verify_containment"),
    ("hitchin", "residue_diagram"),
    ("hitchin", "verify_surjectivity"),
    ("opers", "fg_connection"),
    ("opers", "check_residue_rs"),
    ("opers", "check_irregular_type"),
    ("opers", "slope_certificate"),
    ("opers", "cyclic_ode"),
    ("opers", "global_oper_space"),
    ("opers", "global_hitchin_base"),
)

# (module, class, method, counter name): calls counted, not spanned.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("laurent", "LaurentPoly", "__init__", "laurent.objects"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul_calls"),
    ("errors", "WindowUnderflowError", "__init__", "laurent.window_underflows"),
)

_MISSING = object()

Span = List  # [name, start_ns, end_ns, parent index]


def _package_modules() -> List[object]:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "loopalg" or k.startswith("loopalg."))]


class Tracer:
    """Spans and counters for one benchmark run; install it only while tracing."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around the body (used for the benchmark's own steps)."""
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced callable at every loopalg binding of it."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        import loopalg  # noqa: F401  (loads every submodule that gets patched)

        modules = _package_modules()
        try:
            for mod_name, path in SPANNED:
                home = sys.modules[f"loopalg.{mod_name}"]
                name = f"{mod_name}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._spanned(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, path)
                wrapper = self._spanned(name, original)
                for mod in modules:
                    if mod.__dict__.get(path) is original:
                        self._patch(mod, path, wrapper)
            for mod_name, cls_name, meth, key in COUNTED:
                cls = getattr(sys.modules[f"loopalg.{mod_name}"], cls_name)
                self._patch(cls, meth, self._counted(key, getattr(cls, meth)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


# -- derived layer figures --------------------------------------------------


class SpanView:
    """Aggregates over a slice ``spans[lo:hi]`` of one tracer's spans."""

    def __init__(self, spans: Sequence[Span], lo: int, hi: int) -> None:
        self.spans = spans
        self.lo, self.hi = lo, hi
        self.child_ns = [0] * (hi - lo)
        self.by_name: Dict[str, List[int]] = {}
        for i in range(lo, hi):
            name, start, end, parent = spans[i]
            self.by_name.setdefault(name, []).append(i)
            if parent >= lo:
                self.child_ns[parent - lo] += end - start

    def _indices(self, name: str) -> List[int]:
        return self.by_name.get(name, [])

    def _outermost(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def calls(self, name: str) -> int:
        return len(self._indices(name))

    def durations_ns(self, name: str) -> List[int]:
        return [self.spans[i][2] - self.spans[i][1] for i in self._indices(name)]

    def total_ms(self, *names: str) -> float:
        """Wall time inside the named spans, nested repeats counted once."""
        ns = 0
        for name in names:
            for i in self._indices(name):
                if self._outermost(i):
                    ns += self.spans[i][2] - self.spans[i][1]
        return ns / 1e6

    def self_ms(self, name: str) -> float:
        """Duration minus the time covered by direct child spans."""
        ns = 0
        for i in self._indices(name):
            ns += self.spans[i][2] - self.spans[i][1] - self.child_ns[i - self.lo]
        return ns / 1e6

    def share_without_child(self, name: str, child: str) -> Optional[float]:
        """Share of ``name`` spans with no ``child`` span anywhere below them."""
        idx = self._indices(name)
        if not idx:
            return None
        reached = set()
        for i in self._indices(child):
            parent = self.spans[i][3]
            while parent >= self.lo:
                if self.spans[parent][0] == name:
                    reached.add(parent)
                parent = self.spans[parent][3]
        return (len(idx) - len(reached)) / len(idx)
