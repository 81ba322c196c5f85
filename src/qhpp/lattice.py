"""Divisor-class bookkeeping for iterated blow-ups of the projective plane.

Curve classes live in the lattice ``Z H + Z E1 + ... + Z En`` with
intersection form ``H.H = 1``, ``Ei.Ei = -1`` and all cross terms zero,
and are written ``d*H - sum(m_i E_i)``.  A :class:`SurfaceModel` tracks
named classes through a script of blow-ups; each step records which tracked
curves pass through the center and with what local multiplicity.  Tangency
is encoded by consecutive centers lying on both proper transforms, never by
a flag.  Projective existence of a configuration is not checked: the model
is exactly the class-level data.

A model keeps an integer intersection table that maps each tracked curve
to a sparse row or to a run.  A row holds ``C.C``, ``C.K`` and the nonzero
pairings ``C.D`` with the other tracked curves.  A run stands for the
(-2)-curves one tower leaves (see below), all of which share it.  Models
are made only by :meth:`SurfaceModel.plane` and
:meth:`SurfaceModel.blow_up`, so every model keeps one invariant: two
distinct tracked curves never pair negatively, and a row stores only the
positive pairings.  Blowing up a point through which the curves ``C`` pass
with multiplicities ``m_C`` changes only these entries:

* ``C'.C' = C.C - m^2`` and ``C'.K' = C.K + m`` for each incident curve;
* ``C_a'.C_b' = C_a.C_b - m_a m_b`` for each pair of incident curves;
* ``E.C' = m``, ``E.E = -1`` and ``E.K = -1`` for the new exceptional ``E``.

The second kind is the only entry that can turn negative, so a step checks
the pairings it writes and nothing else.

:meth:`SurfaceModel.blow_up` takes a whole script of steps: it copies the
name -> entry table once per call, one pointer per tracked curve, and then
each step costs, for ``k`` incident curves, ``O(k^2)`` table updates and a
copy of their rows.  Models share the rows and runs of curves that no step
of the call passes through.

A :class:`Tower` step stands for a tower of blow-ups, one per name, each
at the newest exceptional's meeting with one fixed curve.  ``blow_up``
writes its result in closed form and gives the refusals its steps would
give: one new row each for the start, the fixed curve and the last name,
and one run for the names before the last.  A run stores its names, its
two outer neighbours and its first blow-up; the row of a run curve follows
from its position.  A run curve's row is written out only when a later
step or tower passes through that curve, and the rest of the run then
splits into the runs before and after it.

Intersection numbers are table lookups; ``self_int``, ``k_dot`` and
``genus_term`` read a run as they read a row, and ``meets``, ``curve`` and
``dual_graph`` write a run curve's row out for the call without storing
it.  ``meets`` is a read-only view of a row, not a copy.  Extracting the
chains of a plan walks each chain once against one set of the listed
names, a row per curve and a stretch of a run per unit, checking every
chain's shape and that no two chains meet; that walk refuses every entry
below 2, so it builds its chains by :meth:`~qhpp.hjcf.HJFraction.trusted`.
Only a chain that fails that walk is walked again, row by row with each
listed name's (chain, position), to name what it refuses.  ``tracked``
gives the names; ``curve(name)`` rebuilds a dense :class:`CurveClass` from
the curve's sparse multiplicities.  Exceptional curves are smooth rational,
so a model stores only the few curves exempt from the genus check ``C.C +
C.K = -2``: plane curves listed as singular and not yet declared smooth.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .hjcf import HJFraction

__all__ = [
    "ChainShapeError",
    "CurveClass",
    "BlowupStep",
    "Tower",
    "SurfaceModel",
    "DualGraph",
    "refuse_repeats",
]


class ChainShapeError(ValueError):
    """A curve list does not form a contractible chain."""


def refuse_repeats(names: Sequence[str], earlier: set[str]) -> None:
    """Refuse a chain that names a curve twice, then one that names a
    curve of ``earlier``, the names of the chains before it, each with a
    :class:`ChainShapeError`; otherwise add its names to ``earlier``."""
    if len(set(names)) != len(names):
        raise ChainShapeError(f"repeated curve in chain: {list(names)}")
    shared = [nm for nm in names if nm in earlier]
    if shared:
        raise ChainShapeError(f"chains share curves: {shared}")
    earlier.update(names)


@dataclass(frozen=True)
class CurveClass:
    """A divisor class ``degree*H - sum(mults[i] * E_{i+1})``."""

    degree: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", operator.index(self.degree))
        mults = tuple([operator.index(m) for m in self.mults])
        object.__setattr__(self, "mults", mults)

    def dot(self, other: "CurveClass") -> int:
        if len(self.mults) != len(other.mults):
            raise ValueError(
                f"classes live on different surfaces "
                f"({len(self.mults)} vs {len(other.mults)} blow-ups)"
            )
        return self.degree * other.degree - sum(
            a * b for a, b in zip(self.mults, other.mults)
        )


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: the tracked curves through the center with their local
    multiplicities there, plus a name for the new exceptional curve
    (``E<n>`` by default).  The names become ``str``."""

    incidences: tuple[tuple[str, int], ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        inc = tuple([(str(n), operator.index(m)) for n, m in self.incidences])
        object.__setattr__(self, "incidences", inc)
        if self.name is not None:
            object.__setattr__(self, "name", str(self.name))
        names = [n for n, _ in inc]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate curve in incidences: {names}")
        for n, m in inc:
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m} for {n!r}")


@dataclass(frozen=True)
class Tower:
    """One blow-up per name: the first at ``start & along``, each later one
    at the previous exceptional curve's meeting with ``along``, all with
    multiplicity 1.  ``names`` is a sequence of names, not one ``str``; the
    names become ``str``, and ``along`` must differ from ``start`` and from
    every name, so that no step names one curve twice.
    :meth:`SurfaceModel.blow_up` applies a tower in closed form."""

    start: str
    along: str
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.names, str):
            raise TypeError(f"tower names are a sequence of names, got {self.names!r}")
        start, along = str(self.start), str(self.along)
        names = self.names
        # a tuple or list of exact strs needs no str call (the type test
        # runs in C); anything else is copied into a list, not an iterator:
        # CPython grows a tuple built from an iterator by reallocation,
        # outside its tuple free list, and frees it onto that list, so each
        # build would leave one more tuple there up to the list's cap (a
        # sweep's peak RSS grew by a 128 KiB step)
        if (
            type(names) not in (tuple, list)
            or list(map(type, names)).count(str) != len(names)
        ):
            names = [str(nm) for nm in names]
        names = tuple(names)
        if along == start or along in names:
            raise ValueError(
                f"a tower along {along!r} may not start at it or name a step after it"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "along", along)
        object.__setattr__(self, "names", names)


@dataclass(frozen=True)
class DualGraph:
    """Vertices labeled by self-intersection, edges weighted by pairwise
    intersection numbers; curves with no edge do not meet."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str, int], ...]

    def to_text(self) -> str:
        """One ``name self_int`` line per vertex, then one
        ``nameA nameB weight`` line per edge."""
        lines = [f"{name} {label}" for name, label in self.vertices]
        lines += [f"{a} {b} {w}" for a, b, w in self.edges]
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        out = ["graph dual {"]
        for name, label in self.vertices:
            out.append(f'  "{name}" [label="{name} ({label})"];')
        for a, b, w in self.edges:
            attr = f' [label="{w}"]' if w != 1 else ""
            out.append(f'  "{a}" -- "{b}"{attr};')
        out.append("}")
        return "\n".join(out) + "\n"

    def _adjacency(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {name: {} for name, _ in self.vertices}
        for a, b, w in self.edges:
            adj[a][b] = w
            adj[b][a] = w
        return adj

    def is_isomorphic_to(self, other: "DualGraph") -> bool:
        """Label- and weight-preserving graph isomorphism.

        Plain backtracking with signature pruning; fine for the small
        configurations that arise here.
        """
        if len(self.vertices) != len(other.vertices):
            return False
        if len(self.edges) != len(other.edges):
            return False
        labels_s = dict(self.vertices)
        labels_o = dict(other.vertices)
        adj_s = self._adjacency()
        adj_o = other._adjacency()

        def signature(v, labels, adj):
            return (labels[v], tuple(sorted((w, labels[n]) for n, w in adj[v].items())))

        sig_s = {v: signature(v, labels_s, adj_s) for v in labels_s}
        sig_o = {v: signature(v, labels_o, adj_o) for v in labels_o}
        if sorted(sig_s.values()) != sorted(sig_o.values()):
            return False
        candidates: dict[tuple, list[str]] = {}
        for v in labels_o:
            candidates.setdefault(sig_o[v], []).append(v)
        order = sorted(labels_s, key=lambda v: (len(candidates[sig_s[v]]), v))
        mapping: dict[str, str] = {}
        used: set[str] = set()

        def extend(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            for w in candidates[sig_s[v]]:
                if w in used:
                    continue
                if all(adj_s[v].get(u, 0) == adj_o[w].get(mapping[u], 0) for u in mapping):
                    mapping[v] = w
                    used.add(w)
                    if extend(i + 1):
                        return True
                    del mapping[v]
                    used.discard(w)
            return False

        return extend(0)


class _Row:
    """One tracked curve: its row of the intersection table and its class.

    ``meets`` maps every other tracked curve with a nonzero pairing to that
    pairing.  ``mults`` is a linked list ``(lo, hi, m, rest)`` of the
    nonzero multiplicities, newest first: ``m_{lo+1} = ... = m_hi = m``;
    later models share its tail.  Rows are never changed once a model holds
    them.
    """

    __slots__ = ("degree", "mults", "self_int", "k_dot", "meets")

    def __init__(self, degree, mults, self_int, k_dot, meets) -> None:
        self.degree = degree
        self.mults = mults
        self.self_int = self_int
        self.k_dot = k_dot
        self.meets = meets


class _Run:
    """The (-2)-curves ``names`` that one :class:`Tower` leaves, as one
    table entry that all of them share.

    ``names[j]`` is the exceptional curve of blow-up ``n + j``, blown up
    once more by blow-up ``n + j + 1``: its class is ``E_{n+j+1} -
    E_{n+j+2}``, so ``C.C = -2`` and ``C.K = 0``, and it meets the curves
    at positions ``j - 1`` and ``j + 1`` once (see :meth:`at`) and no
    other.  That holds until a step passes through the curve, because a
    pairing changes only between two curves a step passes through; such a
    step first writes the curve out (:func:`_write_out`), which gives it
    its own row and splits the run around it, so that every name of a run
    in a table maps to that run.  ``degree``, ``self_int`` and ``k_dot``
    are the same for every run curve, and these class attributes are their
    one definition: a written-out row and an extracted chain read them.
    ``meets`` depends on the position, so a run has none.  ``index`` maps
    each name to its position; it is built the first time a row is written
    out, so that writing out every row of a run (as
    :meth:`SurfaceModel.dual_graph` does) stays linear.
    """

    __slots__ = ("names", "before", "after", "n", "index")
    degree = 0
    self_int = -2
    k_dot = 0
    meets = None

    def __init__(self, names, before, after, n) -> None:
        self.names = names
        self.before = before
        self.after = after
        self.n = n
        self.index = None

    def at(self, j: int) -> str:
        """The curve at position ``j``: ``before`` at -1 and ``after`` at
        ``len(names)``."""
        names = self.names
        if j < 0:
            return self.before
        return names[j] if j < len(names) else self.after

    def row(self, name: str) -> _Row:
        """The row of the run curve ``name``, written out."""
        if self.index is None:
            self.index = dict(zip(self.names, range(len(self.names))))
        j = self.index[name]
        i = self.n + j
        mults = (i + 1, i + 2, 1, (i, i + 1, -1, None))
        return _Row(
            self.degree,
            mults,
            self.self_int,
            self.k_dot,
            {self.at(j - 1): 1, self.at(j + 1): 1},
        )


def _write_out(rows: dict[str, _Row | _Run], name: str) -> _Row:
    """The row of ``name`` in the private table ``rows`` of a blow-up, for
    a step to change; a run curve's row is written out and the rest of its
    run becomes two runs, before and after it."""
    run = rows[name]
    if type(run) is not _Run:
        return run
    row = run.row(name)
    j = run.index[name]
    left, right = run.names[:j], run.names[j + 1 :]
    if left:
        rows.update(zip(left, repeat(_Run(left, run.before, name, run.n))))
    if right:
        rows.update(zip(right, repeat(_Run(right, name, run.after, run.n + j + 1))))
    return row


class SurfaceModel:
    """Immutable Picard-lattice model of a blown-up plane.

    Made by :meth:`plane` and :meth:`blow_up`, which build the intersection
    table directly; there is no constructor from dense classes.
    ``C.C + C.K = -2`` is enforced through every blow-up on each tracked
    curve except the singular ones: those :meth:`plane` got as ``singular``
    that :meth:`declare_smooth` has not cleared.
    """

    __slots__ = ("blowup_count", "_singular", "_rows")

    @classmethod
    def _from_rows(
        cls, blowup_count: int, rows: dict[str, _Row | _Run], singular: frozenset[str]
    ) -> "SurfaceModel":
        model = object.__new__(cls)
        object.__setattr__(model, "blowup_count", blowup_count)
        object.__setattr__(model, "_singular", singular)
        object.__setattr__(model, "_rows", rows)
        return model

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: SurfaceModel is immutable")

    @classmethod
    def plane(
        cls, degrees: Mapping[str, int], singular: Iterable[str] = ()
    ) -> "SurfaceModel":
        """The plane with named curves of the given degrees.

        Curves listed in ``singular`` (e.g. a nodal cubic) are exempt from
        the smooth-rational genus check until :meth:`declare_smooth`;
        ``singular`` is a sequence of names, not one ``str``.  The names
        become ``str``; two that become the same ``str`` are refused.
        """
        names = [str(name) for name in degrees]
        if len(set(names)) != len(names):
            raise ValueError(f"curve names collide as str: {names}")
        if isinstance(singular, str):
            raise TypeError(f"singular is a sequence of curve names, got {singular!r}")
        singular = frozenset([str(name) for name in singular])
        unknown = singular.difference(names)
        if unknown:
            raise ValueError(f"singular names not among curves: {sorted(unknown)}")
        degrees = {
            name: operator.index(d) for name, d in zip(names, degrees.values())
        }
        rows: dict[str, _Row] = {}
        for name, d in degrees.items():
            if d < 1:
                raise ValueError(f"curve degree must be >= 1, got {d} for {name!r}")
            if d > 2 and name not in singular:
                raise ValueError(
                    f"a smooth plane curve of degree {d} is not rational; "
                    f"list {name!r} as singular"
                )
            meets = {other: d * e for other, e in degrees.items() if other != name}
            rows[name] = _Row(d, None, d * d, -3 * d, meets)
        return cls._from_rows(0, rows, singular)

    @property
    def canonical(self) -> CurveClass:
        """The canonical class ``-3H + E1 + ... + En``."""
        return CurveClass(-3, (-1,) * self.blowup_count)

    @property
    def tracked(self) -> tuple[str, ...]:
        """The tracked curve names in tracking order (see :meth:`curve`)."""
        return tuple(self._rows)

    @property
    def smooth(self) -> frozenset[str]:
        """The tracked curves held to ``C.C + C.K = -2``."""
        return frozenset(self._rows) - self._singular

    def _entry(self, name: str) -> _Row | _Run:
        try:
            return self._rows[name]
        except KeyError:
            raise KeyError(f"no tracked curve named {name!r}") from None

    def _row(self, name: str) -> _Row:
        entry = self._entry(name)
        return entry.row(name) if type(entry) is _Run else entry

    def curve(self, name: str) -> CurveClass:
        row = self._row(name)
        mults = [0] * self.blowup_count
        node = row.mults
        while node is not None:
            lo, hi, m, node = node
            mults[lo:hi] = [m] * (hi - lo)
        return CurveClass(row.degree, tuple(mults))

    def intersect(self, name_a: str, name_b: str) -> int:
        row = self._row(name_a)
        self._entry(name_b)
        if name_a == name_b:
            return row.self_int
        return row.meets.get(name_b, 0)

    def meets(self, name: str) -> Mapping[str, int]:
        """The nonzero intersection numbers of ``name`` with the other
        tracked curves, as a read-only view of the model's row."""
        return MappingProxyType(self._row(name).meets)

    def self_int(self, name: str) -> int:
        return self._entry(name).self_int

    def k_dot(self, name: str) -> int:
        return self._entry(name).k_dot

    def genus_term(self, name: str) -> int:
        """``C.C + C.K``; equals -2 exactly for smooth rational curves."""
        row = self._entry(name)
        return row.self_int + row.k_dot

    def declare_smooth(self, name: str) -> "SurfaceModel":
        """Mark a tracked curve as smooth rational (requires genus 0)."""
        g = self.genus_term(name)
        if g != -2:
            raise ValueError(f"{name!r} has C.C + C.K = {g}, not -2")
        return SurfaceModel._from_rows(
            self.blowup_count, self._rows, self._singular - {name}
        )

    def blow_up(self, *steps: BlowupStep | Tower) -> "SurfaceModel":
        """Blow up one point per step, and one per name of each
        :class:`Tower`, in order, and return the new model.

        For each point, every incident curve class C with multiplicity m
        becomes ``C - m * E_new``; only the rows of the incident curves and
        of ``E_new`` change (see the module docstring).  The table is copied
        once per call, not once per step, so a whole script should be one
        call.  Each step is checked before the next one runs: its curves
        must be tracked, its name new, no pairing of two incident curves
        may go negative (no other pairing changes) and no curve but the
        exempt singular ones may fall below ``C.C + C.K = -2``.  A tower
        gives the refusals of its steps, in their order, and otherwise
        writes its final rows directly (see :func:`_blow_up_tower`).  A
        refused step raises and leaves this model unchanged.
        """
        n = self.blowup_count
        singular = self._singular
        rows = dict(self._rows)
        for step in steps:
            if isinstance(step, Tower):
                n = _blow_up_tower(rows, n, step)
                continue
            incident = dict(step.incidences)
            name = step.name if step.name is not None else f"E{n + 1}"
            _check_new(rows, incident.keys(), name)
            for a, m in incident.items():
                row = _write_out(rows, a)
                meets = dict(row.meets)
                for b, mb in incident.items():
                    if b != a:
                        w = meets.pop(b, 0) - m * mb
                        if w > 0:
                            meets[b] = w
                        elif w:
                            # stored pairings are positive, so only computed
                            # ones go negative; name a's first in tracking order
                            b = next(
                                c
                                for c in rows
                                if c != a
                                and row.meets.get(c, 0) < m * incident.get(c, 0)
                            )
                            w = row.meets.get(b, 0) - m * incident[b]
                            raise ValueError(
                                f"over-assigned incidences: {a!r}.{b!r} = {w} "
                                f"after blowing up {name!r}"
                            )
                meets[name] = m
                rows[a] = _Row(
                    row.degree,
                    (n, n + 1, m, row.mults),
                    row.self_int - m * m,
                    row.k_dot + m,
                    meets,
                )
            rows[name] = _Row(0, (n, n + 1, -1, None), -1, -1, dict(incident))
            for a in incident:
                g = rows[a].self_int + rows[a].k_dot
                if a not in singular and g < -2:
                    raise ValueError(
                        f"smooth curve {a!r} would get C.C + C.K = {g} < -2"
                    )
            n += 1
        return SurfaceModel._from_rows(n, rows, singular)

    def dual_graph(self, names: Sequence[str] | None = None) -> DualGraph:
        """Dual graph of the named curves (all tracked curves by default), read
        from their sparse rows; edges are sorted by the positions of their ends."""
        if names is None:
            names = sorted(self._rows)
        elif isinstance(names, str):
            raise TypeError(f"names are a sequence of curve names, got {names!r}")
        vertices = tuple((nm, self.self_int(nm)) for nm in names)
        position = {nm: i for i, nm in enumerate(names)}
        edges = sorted(
            (position[a], position[b], a, b, w)
            for a in position
            for b, w in self._row(a).meets.items()
            if position.get(b, -1) > position[a]
        )
        return DualGraph(vertices, tuple((a, b, w) for *_, a, b, w in edges))

    def extract_chain(self, names: Sequence[str]) -> HJFraction:
        """Read an ordered curve chain as ``[-C1.C1, ..., -Cl.Cl]``: the one
        chain of :meth:`extract_chains`, with the same refusals."""
        return self.extract_chains((names,))[0]

    def extract_chains(
        self, chains: Sequence[Sequence[str]]
    ) -> tuple[HJFraction, ...]:
        """Read ordered curve chains, each as ``[-C1.C1, ..., -Cl.Cl]``.

        Every listed curve must have self-intersection <= -2, consecutive
        curves of a chain must meet exactly once, non-consecutive ones not
        at all, and curves of different chains not at all.  Each chain is
        walked once against one set of every listed name: it is accepted
        when its consecutive pairs, each meeting once and seen from both
        rows, are every meeting of its rows with a listed curve.  The walk
        reads each row once, and a stretch of a tower's run in run order or
        reversed as one unit (see :func:`_count_runs`).  Only a chain that
        fails this walk is walked again, row by row through a name ->
        (chain, position) map, to find the refusal to give.

        The chains are checked in order.  A chain is refused (``TypeError``)
        if it is a ``str``, then (:class:`ChainShapeError`) if it is empty or
        repeats a curve of its own or of an earlier chain (see
        :func:`refuse_repeats`), then (``KeyError``) if it names an
        untracked curve, then if a curve has self-intersection > -2, then if
        two curves pair wrongly (the first curve, then the first curve it
        pairs wrongly with, in chain order).  Only when every chain passes
        are chains that meet refused (``ValueError``), naming the first
        meeting in (chain, later chain, position, position) order.
        """
        listed = set(chain.from_iterable(chains))
        # the names of earlier chains, kept only when some name repeats
        earlier = set() if len(listed) != sum(map(len, chains)) else None
        where = None  # name -> (chain, position); the first occurrence wins
        meetings = []
        out = []
        table = self._rows
        for c, names in enumerate(chains):
            if isinstance(names, str):
                raise TypeError(f"a chain is a sequence of curve names, got {names!r}")
            if not names:
                raise ChainShapeError("empty chain")
            if earlier is not None:
                refuse_repeats(names, earlier)
            # each consecutive pair that meets once is seen from both rows;
            # a listed curve met beyond these is a wrong pairing or a meeting
            counted = _count_runs(table, tuple(names), listed)
            if counted is not None:
                entries, hits, ones = counted
                if hits == 2 * ones == 2 * len(names) - 2:
                    # the walk refused every entry below 2
                    out.append(HJFraction.trusted(tuple(entries)))
                    continue
            # the chain is refused or meets another: walk it curve by curve
            rows = [self._row(nm) for nm in names]
            entries = []
            for nm, row in zip(names, rows):
                s = row.self_int
                if s > -2:
                    raise ChainShapeError(f"{nm!r} has self-intersection {s} > -2")
                entries.append(-s)
            out.append(HJFraction(entries))
            tables = [row.meets for row in rows]
            if where is None:
                where = {}
                for k, names_k in enumerate(chains):
                    for p, nm in enumerate(names_k):
                        where.setdefault(nm, (k, p))
            for g, meets in enumerate(tables):
                # listed curves past g's next one: in this chain a wrong
                # pairing, in a later chain a meeting
                late = [where[b] for b in meets if where.get(b, (c, g)) > (c, g + 1)]
                wrong = [p for k, p in late if k == c]
                if g + 1 < len(names) and meets.get(names[g + 1]) != 1:
                    wrong.append(g + 1)
                if wrong:
                    p = min(wrong)
                    w = meets.get(names[p], 0)
                    want = 1 if p == g + 1 else 0
                    raise ChainShapeError(
                        f"{names[g]!r}.{names[p]!r} = {w}, expected {want}"
                    )
                meetings += [(c, k, g, p) for k, p in late]
        if meetings:
            c, k, g, p = min(meetings)
            raise ValueError(
                f"chains are not disjoint: {chains[c][g]!r} meets {chains[k][p]!r}"
            )
        return tuple(out)


def _count_runs(
    table: dict[str, _Row | _Run], names: tuple[str, ...], listed: set[str]
) -> tuple[list[int], int, int] | None:
    """The accepting walk of :meth:`SurfaceModel.extract_chains` over the
    chain ``names``, with each stretch of a run counted as one unit:
    ``(entries, hits, ones)``, where ``hits`` counts the meetings of the
    chain's curves with listed curves and ``ones`` its consecutive pairs
    that meet once.  ``None`` when a name is untracked, a curve (a run
    curve included) has self-intersection > -2 or a stretch of a run
    breaks off inside the chain: those chains are refused, and the full
    walk names why.  A run curve's entry is read from the run, as a row's
    is from the row.

    A run curve followed in the chain by its next (previous) curve in the
    run starts a stretch that must run on to the end of the chain or of
    the run, because a run curve meets only its two neighbours.  Such a
    stretch of ``m`` curves adds ``m`` entries, ``m - 1`` inner pairs
    meeting once and seen from both sides, and its two outer neighbours in
    the run; a run curve on its own adds its two neighbours.
    """
    entries = []
    hits = ones = 0
    end = len(names)
    g = 0
    while g < end:
        nm = names[g]
        row = table.get(nm)
        if row is None:
            return None
        s = row.self_int
        if s > -2:
            return None
        if type(row) is not _Run:
            entries.append(-s)
            meets = row.meets
            hits += sum(map(listed.__contains__, meets))
            g += 1
            ones += g < end and meets.get(names[g]) == 1
            continue
        run = row.names
        p = run.index(nm)
        after = names[g + 1] if g + 1 < end else None
        if p + 1 < len(run) and after == run[p + 1]:
            m = min(end - g, len(run) - p)
            if names[g : g + m] != run[p : p + m]:
                return None
            lo, hi = row.at(p - 1), row.at(p + m)
        elif p and after == run[p - 1]:
            m = min(end - g, p + 1)
            if names[g : g + m] != run[p - m + 1 : p + 1][::-1]:
                return None
            lo, hi = row.at(p + 1), row.at(p - m)
        else:
            lo, hi = row.at(p - 1), row.at(p + 1)
            entries.append(-s)
            hits += (lo in listed) + (hi in listed)
            g += 1
            ones += after in (lo, hi)
            continue
        entries += [-s] * m
        hits += 2 * m - 2 + (lo in listed) + (hi in listed)
        g += m
        ones += m - 1 + (g < end and names[g] == hi)
    return entries, hits, ones


def _check_new(rows: dict[str, _Row | _Run], incident, name: str) -> None:
    """Refuse a step whose incident curves are not all tracked, then one
    whose new curve's name is already tracked."""
    if not rows.keys() >= incident:
        missing = sorted(nm for nm in incident if nm not in rows)
        raise KeyError(f"unknown curves in incidences: {missing}")
    if name in rows:
        raise ValueError(f"curve name {name!r} is already tracked")


def _blow_up_tower(rows: dict[str, _Row | _Run], n: int, tower: Tower) -> int:
    """Apply a tower of ``k`` names to the private table ``rows`` of a model
    with ``n`` blow-ups in closed form; return the new blow-up count.

    The ``k`` steps leave ``start`` with ``C.C - 1``, ``C.K + 1`` and
    ``start.along - 1``, meeting the first name once; each inner name a
    (-2)-curve with ``K``-degree 0 meeting its two neighbours once; the last
    name a (-1)-curve meeting its predecessor and ``along`` once; and
    ``along`` with ``C.C - k`` and ``C.K + k``, meeting the last name once.
    The inner names become one :class:`_Run`; the other three rows are
    written once each, in the pairing order the steps would leave.  With
    multiplicity 1 no ``C.C + C.K`` changes, so there is no genus check.
    The refusals are the steps': unknown ``start`` or ``along``, the first
    name already tracked, ``start`` not meeting ``along``, then any later
    name already tracked (a repeat within ``names`` included).
    """
    start, along, names = tower.start, tower.along, tower.names
    k = len(names)
    if not k:
        return n
    first = names[0]
    _check_new(rows, {start, along}, first)
    row = _write_out(rows, start)
    w = row.meets.get(along, 0) - 1
    if w < 0:
        raise ValueError(
            f"over-assigned incidences: {start!r}.{along!r} = {w} "
            f"after blowing up {first!r}"
        )
    if len(set(names)) != k or not rows.keys().isdisjoint(names):
        seen = set()
        for nm in names:
            if nm in rows or nm in seen:
                raise ValueError(f"curve name {nm!r} is already tracked")
            seen.add(nm)
    meets = dict(row.meets)
    del meets[along]
    if w:
        meets[along] = w
    meets[first] = 1
    rows[start] = _Row(
        row.degree, (n, n + 1, 1, row.mults), row.self_int - 1, row.k_dot + 1, meets
    )
    last = names[-1]
    prev = start
    if k > 1:
        inner = names[:-1]
        rows.update(zip(inner, repeat(_Run(inner, start, last, n))))
        prev = inner[-1]
    rows[last] = _Row(0, (n + k - 1, n + k, -1, None), -1, -1, {prev: 1, along: 1})
    row = _write_out(rows, along)
    meets = dict(row.meets)
    del meets[start]
    if w:
        meets[start] = w
    meets[last] = 1
    rows[along] = _Row(
        row.degree, (n, n + k, 1, row.mults), row.self_int - k, row.k_dot + k, meets
    )
    return n + k
