"""Exact arithmetic of Hirzebruch-Jung continued fractions.

A chain ``[n1, ..., nl]`` with every ``nj >= 2`` stands for the nested
fraction ``n1 - 1/(n2 - 1/(... - 1/nl))``.  Geometrically it records a
string of rational curves with self-intersections ``-n1, ..., -nl``, the
minimal resolution of the cyclic quotient singularity ``1/q(1, q1)`` whose
order q is the absolute determinant of the chain's intersection matrix.

Determinants, values and entry bumps come from one backward pass of the
continuant recurrence ``v_{j-1} = n_j v_j - v_{j+1}`` (from ``v_l = 1``,
``v_{l+1} = 0``), which keeps only the last two terms: ``v_0 = |w|`` and
``v_1 = |[n2, ..., nl]|``, so ``evaluate(w) = v_0/v_1``.
``CyclicSingularity.from_chain`` reads ``(q, q1)`` from the same pass as
integers, without building a ``Fraction``.  Only ``order_sequences``
builds the whole sequences, for ``partial_orders``,
``discrepancy_coefficients`` and ``contraction.contract``.

The chains that ``expand``, ``reverse`` and ``make_pattern`` return are
not checked again entry by entry: their entries are ints >= 2 by
construction, so they are built by :meth:`HJFraction.trusted`, the one
unchecked route to a chain.  :meth:`CyclicSingularity.trusted` is the
same route to a singularity whose ``(q, q1)`` come from a chain.

Everything here is exact: python integers and ``fractions.Fraction``, no
floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

__all__ = [
    "HJFraction",
    "PartialOrders",
    "CyclicSingularity",
    "determinant",
    "evaluate",
    "order_sequences",
    "partial_orders",
    "expand",
    "expansion_length",
    "bump_determinant",
    "make_pattern",
    "pattern_determinant",
    "reverse",
    "discrepancy_coefficients",
    "normalize_type",
]


@dataclass(frozen=True)
class HJFraction:
    """A Hirzebruch-Jung continued fraction ``[n1, ..., nl]``.

    ``entries`` may be any iterable of integers >= 2 and may be empty (the
    chain of a smooth point, with determinant 1 and no rational value).
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        entries = self.entries
        # a tuple or list of exact ints needs no operator.index call; the
        # type test runs in C, and the entries are checked below either way
        if (
            type(entries) not in (tuple, list)
            or list(map(type, entries)).count(int) != len(entries)
        ):
            entries = [operator.index(n) for n in entries]
        entries = tuple(entries)
        if entries and min(entries) < 2:
            raise ValueError(f"chain entries must all be >= 2: {list(entries)}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def __str__(self) -> str:
        return str(list(self.entries))

    @classmethod
    def trusted(cls, entries: tuple[int, ...]) -> "HJFraction":
        """The chain of ``entries`` without the constructor's checks, for a
        caller that has made them: ``entries`` must be a tuple of ints >= 2.

        ``expand`` writes only such entries, ``reverse`` reads them from a
        checked chain, ``make_pattern`` checks its arguments first, and
        :meth:`~qhpp.lattice.SurfaceModel.extract_chains` refuses every
        curve with self-intersection above -2 before it builds a chain.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "entries", entries)
        return w


@dataclass(frozen=True)
class PartialOrders:
    """The forward and backward order sequences of a chain.

    ``u[j] = |[n1, ..., n_{j-1}]|`` with ``u[0] = 0``, ``u[1] = 1`` and
    ``v[j] = |[n_{j+1}, ..., nl]|`` with ``v[l] = 1``, ``v[l+1] = 0``.
    Both tuples have length ``l + 2`` and ``u[l+1] == v[0] == |w|``.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.u[-1]


def _continuants(entries: Sequence[int]) -> tuple[int, int]:
    """``(v_0, v_1) = (|[n1, ..., nl]|, |[n2, ..., nl]|)`` in one backward
    pass of ``v_{j-1} = n_j v_j - v_{j+1}``; the empty chain gives (1, 0)."""
    v, v_next = 1, 0
    for n in reversed(entries):
        v, v_next = n * v - v_next, v
    return v, v_next


def determinant(w: HJFraction) -> int:
    """The order ``|w|``: determinant of the tridiagonal matrix with
    diagonal ``nj`` and off-diagonal -1.  The empty chain has determinant 1.
    """
    return _continuants(w.entries)[0]


def evaluate(w: HJFraction) -> Fraction:
    """Value ``q/q1`` of the nested fraction, in lowest terms (q = |w|)."""
    if not w.entries:
        raise ValueError("the empty chain has no rational value")
    return Fraction(*_continuants(w.entries))


def order_sequences(w: HJFraction) -> tuple[list[int], list[int]]:
    """The lists ``(u, v)`` of :class:`PartialOrders`, in one loop over
    the entries each way: ``u_{j+1} = n_j u_j - u_{j-1}`` from the front
    and the mirror recurrence ``v_j = n_{j+1} v_{j+1} - v_{j+2}`` from the
    back, each keeping its last two terms in locals."""
    entries = w.entries
    u, v = [0, 1], [0, 1]
    a, b = 0, 1
    for n in entries:
        a, b = b, n * b - a
        u.append(b)
    a, b = 0, 1
    for n in reversed(entries):
        a, b = b, n * b - a
        v.append(b)
    v.reverse()
    return u, v


def partial_orders(w: HJFraction) -> PartialOrders:
    """Both order sequences of ``w``; see :class:`PartialOrders`."""
    u, v = order_sequences(w)
    return PartialOrders(tuple(u), tuple(v))


def expand(q: int, q1: int) -> HJFraction:
    """The chain with ``evaluate(chain) == q/q1``, found by ceiling division.

    This fixes the canonical orientation of a resolution chain: reading the
    result backwards expands q over the inverse of q1 mod q instead.
    """
    _check_order(q, q1)
    q, q1 = operator.index(q), operator.index(q1)
    entries: list[int] = []
    while q1:
        d = q - q1
        if d <= q1:
            # q1 < q <= 2 q1: a run of q1 // d twos, as in expansion_length
            run = q1 // d
            entries += (2,) * run
            q, q1 = q - run * d, q1 - run * d
        else:
            n = -(-q // q1)
            entries.append(n)
            q, q1 = q1, n * q1 - q
    return HJFraction.trusted(tuple(entries))


def expansion_length(q: int, q1: int) -> int:
    """``len(expand(q, q1))`` in O(log q) steps, without building the chain.

    While ``q1 < q <= 2 q1`` every step of :func:`expand` writes a 2 and
    lowers both q and q1 by ``q - q1``; such a run is counted in one step.
    """
    _check_order(q, q1)
    length = 0
    while q1:
        d = q - q1
        if d <= q1:
            run = q1 // d
            length += run
            q, q1 = q - run * d, q1 - run * d
        else:
            length += 1
            q, q1 = q1, -(-q // q1) * q1 - q
    return length


def _check_order(q: int, q1: int) -> None:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not 1 <= q1 < q:
        raise ValueError(f"q1 must satisfy 1 <= q1 < q, got q1={q1} for q={q}")
    if gcd(q, q1) != 1:
        raise ValueError(f"q and q1 must be coprime, got gcd {gcd(q, q1)}")


def bump_determinant(w: HJFraction, j: int) -> int:
    """Determinant of ``w`` with entry ``nj`` replaced by ``nj + 1``.

    ``j`` is 1-based.  Computed as ``v_j * u_j + |w|`` from one pass over
    each side of ``j``, not by expanding the bumped chain.
    """
    entries = w.entries
    if not 1 <= j <= len(entries):
        raise IndexError(f"index must lie in 1..{len(entries)}, got {j}")
    # the left part read backwards has determinant u_j, its tail u_{j-1}
    u, u_prev = _continuants(entries[: j - 1][::-1])
    v, v_next = _continuants(entries[j:])
    # along row j, |w| = n_j u_j v_j - u_{j-1} v_j - u_j v_{j+1}; the bump
    # adds u_j v_j
    return (entries[j - 1] + 1) * u * v - u_prev * v - u * v_next


def make_pattern(a: int, b: int, c: int, d: int) -> HJFraction:
    """The chain ``[2 x (a-1), b, c, 2 x (d-1)]``; a = d = 1 gives [b, c]."""
    a, b, c, d = _pattern_args(a, b, c, d)
    return HJFraction.trusted((2,) * (a - 1) + (b, c) + (2,) * (d - 1))


def pattern_determinant(a: int, b: int, c: int, d: int) -> int:
    """Closed form for ``determinant(make_pattern(a, b, c, d))``."""
    a, b, c, d = _pattern_args(a, b, c, d)
    return a * b * c * d - a * b * d - a * c * d + a * b + c * d - a - d + 1


def _pattern_args(*args: int) -> tuple[int, int, int, int]:
    """The pattern parameters ``a, b, c, d`` as checked ints."""
    a, b, c, d = map(operator.index, args)
    if a < 1 or d < 1:
        raise ValueError(f"run parameters must be >= 1, got a={a}, d={d}")
    if b < 2 or c < 2:
        raise ValueError(f"middle entries must be >= 2, got b={b}, c={c}")
    return a, b, c, d


def reverse(w: HJFraction) -> HJFraction:
    """The chain read from the other end; the determinant is unchanged."""
    return HJFraction.trusted(w.entries[::-1])


def discrepancy_coefficients(w: HJFraction) -> tuple[Fraction, ...]:
    """Coefficient of each chain curve in the pullback defect of the
    canonical class: ``d_j = 1 - (v_j + u_j)/|w|``.

    Each coefficient lies in [0, 1); all vanish exactly when every entry
    is 2 (a du Val chain).
    """
    if not w.entries:
        raise ValueError("the empty chain has no discrepancy coefficients")
    u, v = order_sequences(w)
    q = u[-1]
    return tuple(Fraction(q - u_j - v_j, q) for u_j, v_j in zip(u[1:-1], v[1:-1]))


@dataclass(frozen=True)
class CyclicSingularity:
    """A cyclic quotient singularity of type ``1/q(1, q1)``."""

    q: int
    q1: int

    def __post_init__(self) -> None:
        _check_order(self.q, self.q1)

    def __str__(self) -> str:
        return f"1/{self.q}(1,{self.q1})"

    @classmethod
    def trusted(cls, q: int, q1: int) -> "CyclicSingularity":
        """``1/q(1, q1)`` without the constructor's checks, for a caller
        that reads ``q = |w|`` and ``q1 = |[n2, ..., nl]|`` off a nonempty
        chain ``w`` of entries >= 2: then ``q >= 2`` and ``1 <= q1 < q``, and
        ``q`` and ``q1`` are coprime by the continuant identity ``q
        |[n2, ..., n_{l-1}]| - q1 |[n1, ..., n_{l-1}]| = -1``.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "q", q)
        object.__setattr__(s, "q1", q1)
        return s

    @classmethod
    def from_chain(cls, w: HJFraction) -> "CyclicSingularity":
        """The singularity resolved by the (nonempty) chain ``w``."""
        if not w.entries:
            raise ValueError("the empty chain has no rational value")
        return cls(*_continuants(w.entries))

    def q1_inverse(self) -> int:
        """The inverse of q1 mod q, i.e. q1 of the reversed chain."""
        return pow(self.q1, -1, self.q)

    def chain(self) -> HJFraction:
        """Canonical resolution chain, in ``expand`` orientation."""
        return expand(self.q, self.q1)


def normalize_type(q: int, wa: int, wb: int) -> CyclicSingularity:
    """Normalize the type ``1/q(wa, wb)`` to ``1/q(1, t)``.

    ``t`` is the residue with ``t * wa = wb (mod q)`` and ``1 <= t < q``;
    both wa and wb must be invertible mod q.
    """
    if q < 2:
        raise ValueError(f"order q must be >= 2, got {q}")
    if gcd(wa, q) != 1:
        raise ValueError(f"wa={wa} is not invertible mod q={q}")
    if gcd(wb, q) != 1:
        raise ValueError(f"wb={wb} is not invertible mod q={q}")
    return CyclicSingularity(q, wb * pow(wa, -1, q) % q)
