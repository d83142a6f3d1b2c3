"""Spans around the public isopar functions, recorded from outside the package.

``Tracer.install`` wraps each public (non-underscore) function, method,
classmethod and staticmethod defined in an ``isopar`` module, plus the
polynomial and algebra operators in ``TRACED_DUNDERS``, and rebinds every
name that refers to it in every ``isopar.*`` namespace, because
``from .x import f`` copies the binding.  ``ScalarQ3`` is left alone: it is
the coefficient type called per term inside the polynomial kernel, not a
layer boundary, and wrapping it would multiply the run time many-fold.

A call opens a span when it crosses into another module (a layer boundary),
starts at top level, or is one of the functions a layer metric names.  A
call inside a span of its own module that no metric names, and a direct
self-recursive call, is folded into the enclosing span: the octonion
product alone recurses about 400k times per Clifford system.

Spans are kept in memory as ``[name, start, end, parent, request]`` lists and
turned into the metrics of ``LAYER_METRICS``.  A metric whose functions no
longer exist is reported as absent (``None``), so the program can delete or
rename a wrapped name without the benchmark breaking.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

TRACED_DUNDERS = {"Poly": ("__mul__", "__add__", "__sub__"), "AlgElem": ("__mul__",)}
UNTRACED_CLASSES = ("ScalarQ3",)

FAMILY_FACTORIES = tuple(
    f"families.{n}"
    for n in ("linear_family", "product_family", "cartan_cubic", "fkm_family", "nomizu_family")
)
POLY_MUL = "polyalg.Poly.__mul__"
CONDITIONS = "nurowski.check_conditions"
GEOMETRY = "spectral.geometry"
_EVAL = (
    "spectral.FamilyGeometry.value",
    "spectral.FamilyGeometry.gradient",
    "spectral.FamilyGeometry.hessian",
)

# (name, unit, kind, functions or module, end-to-end metric it should move).
# Kinds: "outer" is the time in the named spans not nested in one another,
# "compile"/"lookup" the same for geometry cache misses/hits, "self" the
# self time of every span of a module, "calls" a span count, and "count" a
# counter of the same name kept by a hook on the named functions.
LAYER_METRICS = (
    ("cli.self_s", "s", "self", "cli", "request_s.p50 on numeric-focal"),
    ("families.build_s", "s", "outer", FAMILY_FACTORIES,
     "request_s.p50 on numeric-focal and exact-cubic"),
    ("families.terms", "count", "count", FAMILY_FACTORIES,
     "request_s.p50 on numeric-focal and exact-cubic"),
    ("clifford.system_s", "s", "outer", ("clifford.build_generators", "clifford.build_system"),
     "requests_per_s on numeric-focal; setup_s on numeric-*"),
    ("division_algebras.mul_s", "s", "outer",
     ("division_algebras.cayley_dickson_mul", "division_algebras.mul",
      "division_algebras.AlgElem.__mul__"),
     "request_s.p50 on exact-cubic"),
    ("polyalg.mul_s", "s", "outer", (POLY_MUL,), "requests_per_s on exact-quartic"),
    ("polyalg.mul_calls", "count", "count", (POLY_MUL,), "requests_per_s on exact-quartic"),
    ("polyalg.mul_term_pairs", "count", "count", (POLY_MUL,), "requests_per_s on exact-quartic"),
    ("polyalg.add_s", "s", "outer", ("polyalg.Poly.__add__", "polyalg.Poly.__sub__"),
     "requests_per_s on exact-quartic; setup_s on numeric-*"),
    ("polyalg.diff_s", "s", "outer", ("polyalg.Poly.differentiate", "polyalg.Poly.gradient"),
     "requests_per_s on exact-quartic; setup_s on numeric-*"),
    ("polyalg.euler_s", "s", "outer", ("polyalg.Poly.euler_check",),
     "requests_per_s on exact-quartic; setup_s on numeric-*"),
    ("polyalg.max_terms", "count", "count", (POLY_MUL,), "peak_rss_mb on exact-quartic"),
    ("polyalg.dumps_s", "s", "outer", ("polyalg.Poly.dumps",),
     "request_s.p50 and requests_per_s on exact-cubic"),
    ("cm_verifier.verify_s", "s", "outer", ("cm_verifier.verify_cm",),
     "requests_per_s on exact-quartic"),
    ("cm_verifier.self_s", "s", "self", "cm_verifier", "requests_per_s on exact-quartic"),
    ("nurowski.extract_s", "s", "outer", ("nurowski.extract_upsilon",),
     "requests_per_s on exact-cubic"),
    ("nurowski.conditions_s", "s", "outer", (CONDITIONS,), "requests_per_s on exact-cubic"),
    ("nurowski.tuples_checked", "count", "count", (CONDITIONS,), "requests_per_s on exact-cubic"),
    ("spectral.compile_s", "s", "compile", (GEOMETRY,), "setup_s on numeric-*"),
    ("spectral.lookup_s", "s", "lookup", (GEOMETRY,), "request_s.p50 on numeric-focal"),
    ("spectral.sample_s", "s", "outer", ("spectral.sample_level",),
     "requests_per_s on numeric-spectra"),
    ("spectral.samples", "count", "calls", ("spectral.sample_level",),
     "requests_per_s on numeric-spectra"),
    ("spectral.shape_operator_s", "s", "outer", ("spectral.shape_operator",),
     "requests_per_s on numeric-spectra"),
    ("spectral.eval_calls", "count", "calls", _EVAL, "requests_per_s on numeric-*"),
    ("spectral.eval_s", "s", "outer", _EVAL + ("spectral.FamilyGeometry.sphere_gradient",),
     "requests_per_s on numeric-*"),
    ("spectral.rank_s", "s", "outer", ("spectral.parallel_map_rank",),
     "request_s.p50 on numeric-focal"),
)
# Computed by run.py from the reports and from the two kinds of pass.
RUN_METRICS = (
    ("spectral.headroom", "ratio", "fail_ratio on numeric-*"),
    ("trace.overhead", "ratio", "none; validates the traced run"),
)
NAMED = frozenset(n for _, _, kind, names, _ in LAYER_METRICS if kind != "self" for n in names)


def _span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('isopar.')}.{qualname}"


class Tracer:
    """Records spans and counts for one process; install once, uninstall once."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = "setup"
        self.counts: dict = defaultdict(int)
        self.wrapped: set = set()  # span names that exist in this build
        self._stack: list[tuple] = []  # (span index, name, module) of open spans
        self._paused = False
        self._undo: list = []
        self._geometries: dict = {}  # id -> object, so ids stay unique
        self._geometry_kind: dict = {}  # span index -> "compile" | "lookup"

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        module, named = name.split(".", 1)[0], name in NAMED
        hook = {POLY_MUL: self._on_mul, CONDITIONS: self._on_conditions,
                GEOMETRY: self._on_geometry}.get(name)
        if name in FAMILY_FACTORIES:
            hook = self._on_family

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = -1
            if stack:
                parent, parent_name, parent_module = stack[-1]
                if parent_name == name or (parent_module == module and not named):
                    return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.request]
            spans.append(span)
            stack.append((idx, name, module))
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                self._paused = True
                try:
                    hook(idx, args, result)
                finally:
                    self._paused = False
            return result

        return traced

    def _on_mul(self, idx, args, result):
        a, b = args[0], args[1]
        if hasattr(b, "num_terms"):  # Poly x Poly; Poly x scalar is a scale
            self.counts["polyalg.mul_calls"] += 1
            self.counts["polyalg.mul_term_pairs"] += a.num_terms() * b.num_terms()
            terms = result.num_terms()
            if terms > self.counts["polyalg.max_terms"]:
                self.counts["polyalg.max_terms"] = terms

    def _on_family(self, idx, args, result):
        self.counts["families.terms"] += result.F.num_terms()

    def _on_conditions(self, idx, args, result):
        self.counts["nurowski.tuples_checked"] += getattr(result, "quadratic_tuples_checked", 0)

    def _on_geometry(self, idx, args, result):
        seen = id(result) in self._geometries
        self._geometries[id(result)] = result
        self._geometry_kind[idx] = "lookup" if seen else "compile"

    # -- patching -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every submodule of ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        replacement: dict = {}  # id(original function) -> wrapper
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = _span_name(mod.__name__, obj.__qualname__)
                    replacement[id(obj)] = self._wrap(obj, name)
                    self.wrapped.add(name)
                elif inspect.isclass(obj) and obj.__name__ not in UNTRACED_CLASSES:
                    self._wrap_class(obj, mod.__name__)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replacement:
                    self._set(mod, attr, replacement[id(obj)])

    def _wrap_class(self, cls, module: str) -> None:
        extra = TRACED_DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = _span_name(module, f"{cls.__qualname__}.{attr}")
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name)
            else:
                continue  # properties, enum members, constants
            self._set(cls, attr, wrapped)
            self.wrapped.add(name)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- derived metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric of LAYER_METRICS, ``None`` where its functions are gone."""
        self_times = self._self_times()
        out = {}
        for metric, _, kind, names, _ in LAYER_METRICS:
            if kind == "self":
                prefix = names + "."
                present = any(n.startswith(prefix) for n in self.wrapped)
                value = sum(s for span, s in zip(self.spans, self_times) if span[0].startswith(prefix))
            else:
                present = bool(set(names) & self.wrapped)
                if kind == "count":
                    value = self.counts[metric]
                elif kind == "calls":
                    value = sum(1 for span in self.spans if span[0] in names)
                else:
                    value = self._outer_time(set(names), None if kind == "outer" else kind)
            out[metric] = value if present else None
        return out

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def _outer_time(self, names: set, kind: str | None) -> float:
        """Time in spans named ``names`` that no other such span encloses."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            enclosed = parent >= 0 and (inside[parent] or self.spans[parent][0] in names)
            inside[i] = enclosed
            if name in names and not enclosed:
                if kind is None or self._geometry_kind.get(i) == kind:
                    total += end - start
        return total

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
