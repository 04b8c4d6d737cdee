"""Per-layer spans, recorded from outside the library.

:func:`install` rebinds the public functions listed in ``TARGETS`` to
timing wrappers: the defining attribute and every other binding of the
same function object in a ``dalg`` module or class (``from .x import f``
copies one into each importing module).  A span's self time is its
duration minus the time its child spans cover; spans nest through a
stack, so recursive calls (``normalize7``, ``reduce_to_q``) split
correctly.  Spans are recorded only while ``Tracer.active`` is set, which
the worker sets around each timed operation.

Per-element arithmetic (``FieldCtx.mul``, ``linalg._dot``) is left
unwrapped on purpose: a dense GF(2^16) decompose makes millions of such
calls, and a wrapper on each would measure the wrapper.  Their cost shows
up as self time of the layer function that calls them.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module

# (metric prefix, module, attribute); one prefix may name several
# functions, as DAlgebra overrides verify without calling the base one.
TARGETS = [
    ("gf2k.quad_roots", "dalg.gf2k", "quad_roots"),
    ("gf2k.field_extend", "dalg.gf2k", "field_extend"),
    ("unipoly.poly_roots", "dalg.unipoly", "poly_roots"),
    ("linalg.min_poly", "dalg.linalg", "min_poly"),
    ("linalg.rref_rows", "dalg.linalg", "rref_rows"),
    ("linalg.nullspace_rows", "dalg.linalg", "nullspace_rows"),
    ("linalg.Matrix.mul", "dalg.linalg", "Matrix.mul"),
    ("linalg.CoordSolver.coords", "dalg.linalg", "CoordSolver.coords"),
    ("algebra.mul", "dalg.algebra", "AssocAlgebra2.mul"),
    ("algebra.verify", "dalg.algebra", "AssocAlgebra2.verify"),
    ("algebra.verify", "dalg.algebra", "DAlgebra.verify"),
    ("algebra.verify_morphism", "dalg.algebra", "verify_morphism"),
    ("structure.nilradical", "dalg.structure", "nilradical"),
    ("structure.characters", "dalg.structure", "characters"),
    ("structure.decompose", "dalg.structure", "decompose"),
    ("polyd.quotient_to_dalgebra", "dalg.polyd", "quotient_to_dalgebra"),
    ("polyd.enumerate_monomials", "dalg.polyd", "enumerate_monomials"),
    ("polyd.present", "dalg.polyd", "present"),
    ("polyd.PElem.__mul__", "dalg.polyd", "PElem.__mul__"),
    ("dim7.make_D", "dalg.dim7", "make_D"),
    ("dim7.classify7", "dalg.dim7", "classify7"),
    ("dim7.reduce_to_q", "dalg.dim7", "reduce_to_q"),
    ("dim7.normalize7", "dalg.dim7", "normalize7"),
    ("pbw.StraightenCtx.__init__", "dalg.pbw", "StraightenCtx.__init__"),
    ("pbw.StraightenCtx.straighten", "dalg.pbw", "StraightenCtx.straighten"),
    ("pbw.StraightenCtx.straighten_elem", "dalg.pbw", "StraightenCtx.straighten_elem"),
    ("pbw.verify_pbw", "dalg.pbw", "verify_pbw"),
    ("pbw.confluence_test", "dalg.pbw", "confluence_test"),
    ("lie.verify_lie", "dalg.lie", "verify_lie"),
    ("formats.loads", "dalg.formats", "loads"),
    ("dsl.parse_presentation", "dalg.dsl", "parse_presentation"),
    ("dsl.to_source", "dalg.dsl", "to_source"),
    ("cli.main", "dalg.cli", "main"),
]

# The per-layer metrics a traced run reports, with units.  ``trace.overhead``
# (traced over untraced wall time of the same operations) is added by run.py.
PER_LAYER = [
    ("gf2k.quad_roots.calls", "count"),
    ("gf2k.quad_roots.self_s", "s"),
    ("gf2k.quad_roots.no_root", "count"),
    ("gf2k.field_extend.calls", "count"),
    ("gf2k.field_extend.self_s", "s"),
    ("unipoly.poly_roots.calls", "count"),
    ("unipoly.poly_roots.self_s", "s"),
    ("linalg.min_poly.self_s", "s"),
    ("linalg.rref_rows.calls", "count"),
    ("linalg.rref_rows.self_s", "s"),
    ("linalg.rref_rows.cells", "count"),
    ("linalg.rref_rows.k1_self_s", "s"),
    ("linalg.nullspace_rows.calls", "count"),
    ("linalg.nullspace_rows.self_s", "s"),
    ("linalg.Matrix.mul.calls", "count"),
    ("linalg.Matrix.mul.self_s", "s"),
    ("linalg.CoordSolver.coords.self_s", "s"),
    ("algebra.mul.calls", "count"),
    ("algebra.mul.self_s", "s"),
    ("algebra.verify.calls", "count"),
    ("algebra.verify.self_s", "s"),
    ("algebra.verify_morphism.self_s", "s"),
    ("structure.nilradical.self_s", "s"),
    ("structure.characters.self_s", "s"),
    ("structure.decompose.self_s", "s"),
    ("polyd.quotient_to_dalgebra.self_s", "s"),
    ("polyd.enumerate_monomials.self_s", "s"),
    ("polyd.present.self_s", "s"),
    ("polyd.PElem.__mul__.calls", "count"),
    ("polyd.PElem.__mul__.self_s", "s"),
    ("dim7.make_D.calls", "count"),
    ("dim7.make_D.misses", "count"),
    ("dim7.make_D.self_s", "s"),
    ("dim7.classify7.self_s", "s"),
    ("dim7.reduce_to_q.self_s", "s"),
    ("dim7.normalize7.calls", "count"),
    ("pbw.StraightenCtx.__init__.calls", "count"),
    ("pbw.StraightenCtx.__init__.self_s", "s"),
    ("pbw.StraightenCtx.straighten.calls", "count"),
    ("pbw.StraightenCtx.straighten.self_s", "s"),
    ("pbw.StraightenCtx.straighten_elem.calls", "count"),
    ("pbw.StraightenCtx.straighten_elem.self_s", "s"),
    ("pbw.verify_pbw.self_s", "s"),
    ("pbw.confluence_test.self_s", "s"),
    ("lie.verify_lie.self_s", "s"),
    ("formats.loads.calls", "count"),
    ("formats.loads.self_s", "s"),
    ("dsl.parse_presentation.self_s", "s"),
    ("dsl.to_source.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def _quad_roots_hook(stats, args, exc, own, children):
    from dalg.errors import NeedsExtension

    if isinstance(exc, NeedsExtension):
        stats["no_root"] += 1


def _rref_hook(stats, args, exc, own, children):
    ctx, rows = args[0], args[1]
    if rows:
        stats["cells"] += len(rows) * len(rows[0])
    if ctx.k == 1:
        stats["k1_self_s"] += own


def _make_d_hook(stats, args, exc, own, children):
    # a cache hit returns without building the quotient
    if children and "polyd.quotient_to_dalgebra" in children:
        stats["misses"] += 1


HOOKS = {
    "gf2k.quad_roots": (_quad_roots_hook, ("no_root",)),
    "linalg.rref_rows": (_rref_hook, ("cells", "k1_self_s")),
    "dim7.make_D": (_make_d_hook, ("misses",)),
}


class Tracer:
    """Span statistics per function: calls, self time and hook counters."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, dict] = {}
        self._stack: list = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        hook, extra = HOOKS.get(name, (None, ()))
        for key in extra:
            stats.setdefault(key, 0)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, None]  # time covered by children, their names
            stack.append(frame)
            exc = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[0]
                stats["calls"] += 1
                stats["self_s"] += own
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if parent[1] is None:
                        parent[1] = {name}
                    else:
                        parent[1].add(name)
                if hook is not None:
                    hook(stats, args, exc, own, frame[1])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def metrics(self) -> dict:
        out = {}
        for metric, _ in PER_LAYER:
            prefix, _, stat = metric.rpartition(".")
            out[metric] = self.stats.get(prefix, {}).get(stat, 0)
        return out


def _dalg_namespaces():
    """Every dalg module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dalg" or name.startswith("dalg.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("dalg"):
                yield value


def _defined(modname, path):
    """The function a target names, as its module or class holds it now."""
    owner = import_module(modname)
    cls, _, attr = path.rpartition(".")
    if cls:
        owner = getattr(owner, cls)
    return vars(owner)[attr]


def install(tracer: Tracer) -> list:
    """Wrap every target at every binding site; returns the undo list."""
    wrapped = {}  # id(original) -> (original, wrapper)
    undo = []
    for name, modname, path in TARGETS:
        original = _defined(modname, path)
        wrapped[id(original)] = (original, tracer.wrap(name, original))
    for ns in _dalg_namespaces():
        for attr, value in list(vars(ns).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((ns, attr, value))
                setattr(ns, attr, hit[1])
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, value in reversed(undo):
        setattr(ns, attr, value)


def unwrapped_bindings() -> list:
    """(namespace, attribute) pairs still holding an original target."""
    originals = set()
    for _, modname, path in TARGETS:
        value = _defined(modname, path)
        originals.add(id(getattr(value, "__wrapped__", value)))
    found = []
    for ns in _dalg_namespaces():
        for attr, value in vars(ns).items():
            if id(value) in originals and not hasattr(value, "__wrapped__"):
                found.append((getattr(ns, "__name__", repr(ns)), attr))
    return found
