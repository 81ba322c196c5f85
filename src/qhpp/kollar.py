"""Weight system of the four-parameter weighted-hypersurface family.

For integers ``a1..a4 >= 2`` the weights ``w1..w4`` and the degree ``d``
solve ``a1 w1 + w2 = a2 w2 + w3 = a3 w3 + w4 = a4 w4 + w1 = d``.  Published
weights are the raw polynomial solutions divided by their gcd ``w*``.  When
``w* = 1`` the rank-one contraction of the hypersurface acquires exactly two
cyclic quotient singularities; their orders ``s1, s2``, normalized types
``1/s(1, t)`` and resolution chains are computed here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .hjcf import (
    CyclicSingularity,
    HJFraction,
    make_pattern,
    normalize_type,
    pattern_determinant,
)

__all__ = [
    "KollarParams",
    "KollarWeights",
    "NonPrimitiveWeights",
    "weights",
    "singularity_types",
]


@dataclass(frozen=True)
class KollarParams:
    """Exponents a1..a4 of the hypersurface family (each >= 2)."""

    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.a1, self.a2, self.a3, self.a4) < 2:
            raise ValueError(f"all parameters must be >= 2, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)


@dataclass(frozen=True)
class KollarWeights:
    """Published weights and derived contraction data.

    ``s1 = a4 w4 - w3 = a2 w2 - w1`` and ``s2 = a1 w1 - w4 = a3 w3 - w2``
    are the orders of the two contraction points; ``t1, t2`` solve
    ``t1 w2 = w4 (mod s1)`` and ``t2 w1 = w3 (mod s2)``.  An order of 1
    marks a smooth point; its ``t`` is recorded as 0.
    """

    w1: int
    w2: int
    w3: int
    w4: int
    d: int
    wstar: int
    s1: int
    s2: int
    t1: int
    t2: int


class NonPrimitiveWeights(ValueError):
    """Raised by computations that require a primitive weight system."""

    def __init__(self, wstar: int):
        super().__init__(
            f"weight system is not primitive (w* = {wstar}); "
            "singularity types are only defined for w* = 1"
        )
        self.wstar = wstar


def weights(p: KollarParams) -> KollarWeights:
    """Solve the weight system for ``p`` and normalize by ``w*``."""
    a1, a2, a3, a4 = p.as_tuple()
    raw = (
        a2 * a3 * a4 - a3 * a4 + a4 - 1,
        a1 * a3 * a4 - a1 * a4 + a1 - 1,
        a1 * a2 * a4 - a1 * a2 + a2 - 1,
        a1 * a2 * a3 - a2 * a3 + a3 - 1,
    )
    wstar = gcd(*raw)
    w1, w2, w3, w4 = (x // wstar for x in raw)
    d = (a1 * a2 * a3 * a4 - 1) // wstar
    if not a1 * w1 + w2 == a2 * w2 + w3 == a3 * w3 + w4 == a4 * w4 + w1 == d:
        raise ArithmeticError(f"weights {(w1, w2, w3, w4)} do not solve {p}")
    s1 = a4 * w4 - w3
    s2 = a1 * w1 - w4
    if s1 != a2 * w2 - w1 or s2 != a3 * w3 - w2:
        raise ArithmeticError(f"contraction orders {s1}, {s2} disagree for {p}")
    t1 = normalize_type(s1, w2, w4).q1 if s1 > 1 else 0
    t2 = normalize_type(s2, w1, w3).q1 if s2 > 1 else 0
    return KollarWeights(w1, w2, w3, w4, d, wstar, s1, s2, t1, t2)


def singularity_types(
    p: KollarParams,
) -> tuple[tuple[CyclicSingularity, HJFraction], tuple[CyclicSingularity, HJFraction]]:
    """The two cyclic singularities of the contracted hypersurface for ``p``.

    Returns ``((1/s1(1,t1), chain1), (1/s2(1,t2), chain2))`` with
    ``chain1 = [2 x (a4-1), a3, a1, 2 x (a2-1)]`` and
    ``chain2 = [2 x (a3-1), a2, a4, 2 x (a1-1)]``.  Only defined when the
    weight system is primitive.
    """
    W = weights(p)
    if W.wstar != 1:
        raise NonPrimitiveWeights(W.wstar)
    a1, a2, a3, a4 = p.as_tuple()
    chain1 = make_pattern(a4, a3, a1, a2)
    chain2 = make_pattern(a3, a2, a4, a1)
    # chain determinants and values agree with the congruence solutions
    sing1 = CyclicSingularity.from_chain(chain1)
    sing2 = CyclicSingularity.from_chain(chain2)
    if not sing1.q == pattern_determinant(a4, a3, a1, a2) == W.s1:
        raise ArithmeticError(f"determinant of {chain1} is not s1 = {W.s1} for {p}")
    if not sing2.q == pattern_determinant(a3, a2, a4, a1) == W.s2:
        raise ArithmeticError(f"determinant of {chain2} is not s2 = {W.s2} for {p}")
    if sing1.q1 != W.t1:
        raise ArithmeticError(f"{chain1} does not evaluate to {W.s1}/{W.t1} for {p}")
    if sing2.q1 != W.t2:
        raise ArithmeticError(f"{chain2} does not evaluate to {W.s2}/{W.t2} for {p}")
    return ((sing1, chain1), (sing2, chain2))
