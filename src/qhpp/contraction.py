"""Contraction of chains of rational curves and the canonical trichotomy.

Contracting a disjoint union of Hirzebruch-Jung chains produces cyclic
quotient singularities and drops the Picard rank by the number of
contracted curves.  When the rank lands at one, the sign of a single
intersection number ``E . f*(K)`` for any non-contracted curve E decides
whether the canonical class of the contracted surface is ample, numerically
trivial or anti-ample.

:func:`contract` returns a :class:`Contraction` holding the singularities,
the rank and, per contracted curve C, the pair ``(q, q d_C)`` (q the order
of C's chain, ``d_C`` its discrepancy coefficient).  ``E . f*(K) = E.K + sum
d_C (E.C)`` is summed in integers per order, with one ``Fraction`` per call,
over the product of the distinct orders met: ask
``contract(model, plan).pullback_k_dot(name)`` or ``.classify(test_curve)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import Mapping

from .hjcf import CyclicSingularity, HJFraction, order_sequences
from .lattice import SurfaceModel, refuse_repeats

__all__ = [
    "KClass",
    "ContractionPlan",
    "QhppReport",
    "Contraction",
    "contract",
]


class KClass(enum.Enum):
    AMPLE = "Ample"
    NUMERICALLY_TRIVIAL = "NumericallyTrivial"
    ANTI_AMPLE = "AntiAmple"


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered chains of curve names to contract.

    Each chain must be a full connected component of the contracted locus:
    chains may not share curves or meet each other.  A curve named twice is
    refused here, with :func:`~qhpp.lattice.refuse_repeats` as
    :meth:`~qhpp.lattice.SurfaceModel.extract_chains` would.
    """

    chains: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for chain in self.chains:
            if isinstance(chain, str):
                raise TypeError(f"a chain is a sequence of curve names, got {chain!r}")
        # a tuple or list of exact strs needs no str call (the type test
        # runs in C)
        chains = tuple(
            [
                tuple(chain)
                if type(chain) in (tuple, list)
                and list(map(type, chain)).count(str) == len(chain)
                else tuple([str(nm) for nm in chain])
                for chain in self.chains
            ]
        )
        object.__setattr__(self, "chains", chains)
        if len(set().union(*chains)) != sum(map(len, chains)):
            # the first repeat in chain order, in extract_chains' words
            earlier: set[str] = set()
            for chain in chains:
                refuse_repeats(chain, earlier)


@dataclass(frozen=True)
class QhppReport:
    """Outcome of contracting a plan: the surface is a rational homology
    projective plane exactly when ``rho == 1``."""

    singularities: tuple[tuple[CyclicSingularity, HJFraction], ...]
    rho: int
    k_class: KClass
    k_value: Fraction
    test_curve: str

    def to_record(self) -> dict:
        """JSON-shaped record; all values exact."""
        return {
            "singularities": [
                {"q": sing.q, "q1": sing.q1, "chain": list(chain.entries)}
                for sing, chain in self.singularities
            ],
            "rho": self.rho,
            "k_class": self.k_class.value,
            "k_value": {
                "num": self.k_value.numerator,
                "den": self.k_value.denominator,
            },
            "test_curve": self.test_curve,
        }


@dataclass(frozen=True)
class Contraction:
    """A plan contracted on a model by :func:`contract`; queries read these
    fields instead of extracting the chains again."""

    model: SurfaceModel
    singularities: tuple[tuple[CyclicSingularity, HJFraction], ...]
    rho: int
    # contracted curve name -> (q, q * d_C), where q is the order of its
    # chain, so that d_C = terms[C][1] / terms[C][0]
    terms: Mapping[str, tuple[int, int]]

    def pullback_k_dot(self, name: str) -> Fraction:
        """``E . f*(K) = E.K + sum d_C (E.C)`` for the non-contracted curve E
        named ``name``, exactly; walks E's sparse row once.

        The terms of one order are summed in integers, ``sum q d_C (E.C)``,
        and the result is one ``Fraction`` per call, over the product of
        the distinct orders met.  For a (-1)-curve disjoint from all chains
        this is exactly -1.
        """
        terms = self.terms
        if name in terms:
            raise ValueError(f"{name!r} is contracted by the plan")
        sums: dict[int, int] = {}
        for curve, hits in self.model.meets(name).items():
            term = terms.get(curve)
            if term is not None:
                q, qd = term
                sums[q] = sums.get(q, 0) + qd * hits
        den = prod(sums)
        num = self.model.k_dot(name) * den
        for q, s in sums.items():
            num += s * (den // q)
        return Fraction(num, den)

    def classify(self, test_curve: str) -> QhppReport:
        """Trichotomy of the contracted canonical class.

        Only valid at Picard rank one, where the sign of a single
        non-contracted curve's pairing decides the class; any other rank is
        refused.
        """
        if self.rho != 1:
            raise ValueError(
                f"Picard rank after contraction is {self.rho}; need 1 to classify"
            )
        value = self.pullback_k_dot(test_curve)
        if value > 0:
            k_class = KClass.AMPLE
        elif value < 0:
            k_class = KClass.ANTI_AMPLE
        else:
            k_class = KClass.NUMERICALLY_TRIVIAL
        return QhppReport(self.singularities, self.rho, k_class, value, test_curve)


def contract(model: SurfaceModel, plan: ContractionPlan) -> Contraction:
    """Contract the plan's chains.

    Each chain contributes the singularity ``1/q(1, q1)`` with
    ``q = determinant(chain)`` and ``q/q1 = evaluate(chain)``; the Picard
    rank drops from ``1 + blowup_count`` by the number of contracted curves.
    Chains that meet each other are refused, after the shape refusals of
    every chain.

    Every chain is negative definite without a check:
    ``SurfaceModel.extract_chains`` requires self-intersections ``<= -2``,
    consecutive curves meeting once and no other meetings, so up to sign
    the leading minors of a chain's Gram matrix are continuants of entries
    ``>= 2``, which are positive.  For the same reason each singularity
    is built by :meth:`~qhpp.hjcf.CyclicSingularity.trusted` from ``q``
    and ``v_1`` of its chain, without checking them again.
    """
    chains = plan.chains
    extracted = model.extract_chains(chains)
    terms: dict[str, tuple[int, int]] = {}
    singularities = []
    for chain, w in zip(chains, extracted):
        # q d_j = q - u_j - v_j from the kernel of discrepancy_coefficients
        u, v = order_sequences(w)
        q = u[-1]
        for nm, u_j, v_j in zip(chain, u[1:-1], v[1:-1]):
            terms[nm] = (q, q - u_j - v_j)
        singularities.append((CyclicSingularity.trusted(q, v[1]), w))
    rho = 1 + model.blowup_count - len(terms)
    return Contraction(model, tuple(singularities), rho, MappingProxyType(terms))
