"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of ``qhpp`` with wrappers for the
length of one pass and puts the originals back afterwards.  A function is
replaced wherever its callers look it up: in every ``qhpp`` module that
imported it by name (``contraction.discrepancy_coefficients`` as well as
``hjcf.discrepancy_coefficients``), on the class for methods, and in the
suite table of ``verify``.  Timed calls become spans kept in memory with a
parent link; a span's self time is its duration minus that of its child
spans.  ``CurveClass.dot`` and ``SurfaceModel.intersect`` run millions of
times, so they are only counted.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter

# span name -> (module, attribute) of each timed function; several entries
# may share a span name
TIMED = [
    ("hjcf.expand", "qhpp.hjcf", "expand"),
    ("hjcf.evaluate", "qhpp.hjcf", "evaluate"),
    ("hjcf.determinant", "qhpp.hjcf", "determinant"),
    ("hjcf.partial_orders", "qhpp.hjcf", "partial_orders"),
    ("hjcf.discrepancy_coefficients", "qhpp.hjcf", "discrepancy_coefficients"),
    ("hjcf.bump_determinant", "qhpp.hjcf", "bump_determinant"),
    ("kollar.weights", "qhpp.kollar", "weights"),
    ("kollar.singularity_types", "qhpp.kollar", "singularity_types"),
    ("contraction.contract", "qhpp.contraction", "contract"),
    ("contraction.pullback_k_dot", "qhpp.contraction", "pullback_k_dot"),
    ("contraction.classify", "qhpp.contraction", "classify"),
    ("families.build", "qhpp.families", "build"),
    ("families.build", "qhpp.families", "build_T"),
    ("families.build", "qhpp.families", "build_S1"),
    ("families.build", "qhpp.families", "build_S1_variant"),
    ("families.build", "qhpp.families", "build_S3"),
    ("families.build", "qhpp.families", "build_S3_variant"),
    ("verify.run", "qhpp.verify", "run"),
    ("verify.brute_force_determinant", "qhpp.verify", "brute_force_determinant"),
    ("cli.main", "qhpp.cli", "main"),
]
TIMED_METHODS = [
    ("lattice.blow_up", "qhpp.lattice", "SurfaceModel", "blow_up"),
    ("lattice.extract_chain", "qhpp.lattice", "SurfaceModel", "extract_chain"),
    ("lattice.genus_term", "qhpp.lattice", "SurfaceModel", "genus_term"),
]
COUNTED_METHODS = [
    ("lattice.intersect", "qhpp.lattice", "SurfaceModel", "intersect"),
    ("lattice.dot", "qhpp.lattice", "CurveClass", "dot"),
]
SUITES = ("hjcf", "kollar", "families")  # entries of verify._SUITES


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.extractions: set = set()
        self._keep: list = []  # models whose id() is in self.extractions
        self._undo: list = []

    def timed(self, name: str, fn, clock):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, span_name, span_parent = self.stack, self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and span_name[parent] == nid:  # e.g. build -> build_T
                return fn(*args, **kwargs)
            index = len(span_start)
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _distinct_extractions(self, fn):
        def wrapper(model, names):
            self._keep.append(model)
            self.extractions.add((id(model), tuple(names)))
            return fn(model, names)

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def install(self, clock) -> None:
        """Wrap everything listed above; names the program no longer has are
        skipped and read as zero."""
        modules = [m for n, m in sys.modules.items() if n == "qhpp" or n.startswith("qhpp.")]
        for name, module, attr in TIMED:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            wrapper = self.timed(name, original, clock)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for name, module, cls_name, attr in TIMED_METHODS + COUNTED_METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                continue
            if name == "lattice.extract_chain":
                original = self._distinct_extractions(original)
            if (name, module, cls_name, attr) in COUNTED_METHODS:
                self._replace(cls, attr, self.counted(name, original))
            else:
                self._replace(cls, attr, self.timed(name, original, clock))
        suites = getattr(sys.modules.get("qhpp.verify"), "_SUITES", {})
        for key in SUITES:
            if key in suites:
                self._replace(suites, key, self.timed(f"verify.{key}", suites[key], clock))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._keep.clear()

    def summary(self, to_ref) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and total time in reference seconds.
        ``to_ref(start, end)`` converts a raw interval."""
        count = len(self.span_start)
        duration = [to_ref(self.span_start[i], self.span_end[i]) for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += duration[i] - child[i]
            row["total_s"] += duration[i]
        return out

    def metrics(self, to_ref) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; a layer that did
        not run reads 0."""
        summary = self.summary(to_ref)
        zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        out = {}
        for name in dict.fromkeys(t[0] for t in TIMED + TIMED_METHODS if t[0] != "verify.run"):
            row = summary.get(name, zero)
            out[f"{name}.calls"] = (row["calls"], "count")
            out[f"{name}.self_s"] = (row["self_s"], "s")
        for name, *_ in COUNTED_METHODS:
            out[f"{name}.calls"] = (self.counts[name], "count")
        blow_ups = summary.get("lattice.blow_up", zero)["calls"]
        extracts = summary.get("lattice.extract_chain", zero)["calls"]
        out["lattice.dot_per_blowup"] = (self.counts["lattice.dot"] / blow_ups if blow_ups else 0.0, "ratio")
        out["contraction.extract_useful_ratio"] = (
            len(self.extractions) / extracts if extracts else 0.0, "ratio"
        )
        out["hjcf.self_s"] = (sum(r["self_s"] for n, r in summary.items() if n.startswith("hjcf.")), "s")
        for suite in SUITES:
            out[f"verify.{suite}.s"] = (summary.get(f"verify.{suite}", zero)["total_s"], "s")
        out["verify.self_s"] = (sum(r["self_s"] for n, r in summary.items() if n.startswith("verify.")), "s")
        return out
