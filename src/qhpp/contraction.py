"""Contraction of chains of rational curves and the canonical trichotomy.

Contracting a disjoint union of Hirzebruch-Jung chains produces cyclic
quotient singularities and drops the Picard rank by the number of
contracted curves.  When the rank lands at one, the sign of a single
intersection number ``E . f*(K)`` for any non-contracted curve E decides
whether the canonical class of the contracted surface is ample, numerically
trivial or anti-ample.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hjcf import CyclicSingularity, HJFraction, discrepancy_coefficients
from .lattice import SurfaceModel

__all__ = [
    "KClass",
    "ContractionPlan",
    "QhppReport",
    "contract",
    "pullback_k_dot",
    "classify",
]


class KClass(enum.Enum):
    AMPLE = "Ample"
    NUMERICALLY_TRIVIAL = "NumericallyTrivial"
    ANTI_AMPLE = "AntiAmple"


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered chains of curve names to contract.

    Each chain must be a full connected component of the contracted locus:
    chains may not share curves or meet each other.
    """

    chains: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        chains = tuple(tuple(str(nm) for nm in chain) for chain in self.chains)
        object.__setattr__(self, "chains", chains)
        names = [nm for chain in chains for nm in chain]
        if len(set(names)) != len(names):
            raise ValueError("contraction chains share curves")

    @property
    def curve_names(self) -> frozenset[str]:
        return frozenset(nm for chain in self.chains for nm in chain)


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


def _check_negative_definite(model: SurfaceModel, chain: Sequence[str]) -> None:
    # leading principal minors of the (tridiagonal) Gram matrix must
    # alternate in sign
    minor_prev, minor = 0, 1
    for k, nm in enumerate(chain, start=1):
        minor_prev, minor = minor, model.self_int(nm) * minor - minor_prev
        if (-1) ** k * minor <= 0:
            raise ValueError(f"chain {list(chain)} is not negative definite")


def contract(
    model: SurfaceModel, plan: ContractionPlan
) -> tuple[tuple[tuple[CyclicSingularity, HJFraction], ...], int]:
    """Contract the plan's chains: singularity list and resulting rank.

    Each chain contributes the singularity ``1/q(1, q1)`` with
    ``q = determinant(chain)`` and ``q/q1 = evaluate(chain)``; the Picard
    rank drops from ``1 + blowup_count`` by the number of contracted curves.
    """
    extracted = [model.extract_chain(chain) for chain in plan.chains]
    chains = plan.chains
    where = {nm: (i, k) for i, chain in enumerate(chains) for k, nm in enumerate(chain)}
    # the first meeting in (chain, later chain, curve, curve) order
    meetings = [
        (i, where[b][0], k, where[b][1], a, b)
        for a, (i, k) in where.items()
        for b in model.meets(a)
        if b in where and where[b][0] > i
    ]
    if meetings:
        *_, a, b = min(meetings)
        raise ValueError(f"chains are not disjoint: {a!r} meets {b!r}")
    for chain in chains:
        _check_negative_definite(model, chain)
    singularities = tuple((CyclicSingularity.from_chain(w), w) for w in extracted)
    rho = 1 + model.blowup_count - sum(len(chain) for chain in chains)
    return singularities, rho


def pullback_k_dot(model: SurfaceModel, plan: ContractionPlan, name: str) -> Fraction:
    """``E . f*(K)`` for the non-contracted curve E named ``name``, exactly.

    Equals ``E.K`` plus, for every chain, the discrepancy-weighted sum of
    E's intersections with the chain curves; for a (-1)-curve disjoint from
    all chains this is exactly -1.
    """
    coefficients = (
        discrepancy_coefficients(model.extract_chain(chain)) for chain in plan.chains
    )
    return _pullback_k_dot(model, plan, name, coefficients)


def _pullback_k_dot(
    model: SurfaceModel,
    plan: ContractionPlan,
    name: str,
    coefficients: Iterable[Sequence[Fraction]],
) -> Fraction:
    """:func:`pullback_k_dot` with the discrepancy coefficients of the plan's
    chains already known, in plan order (an iterator is consumed one chain
    at a time)."""
    if name in plan.curve_names:
        raise ValueError(f"{name!r} is contracted by the plan")
    total = Fraction(model.k_dot(name))
    for chain, coeffs in zip(plan.chains, coefficients):
        for curve, coeff in zip(chain, coeffs):
            hits = model.intersect(name, curve)
            if hits:
                total += coeff * hits
    return total


def classify(model: SurfaceModel, plan: ContractionPlan, test_curve: str) -> QhppReport:
    """Trichotomy of the contracted canonical class.

    Only valid at Picard rank one, where the sign of a single
    non-contracted curve's pairing decides the class; any other rank is
    refused.
    """
    return _classify(model, plan, test_curve, contract(model, plan))


def _classify(
    model: SurfaceModel,
    plan: ContractionPlan,
    test_curve: str,
    contracted: tuple[tuple[tuple[CyclicSingularity, HJFraction], ...], int],
) -> QhppReport:
    """:func:`classify` with ``contracted = contract(model, plan)`` already
    computed."""
    singularities, rho = contracted
    if rho != 1:
        raise ValueError(f"Picard rank after contraction is {rho}; need 1 to classify")
    coefficients = (discrepancy_coefficients(w) for _, w in singularities)
    value = _pullback_k_dot(model, plan, test_curve, coefficients)
    if value > 0:
        k_class = KClass.AMPLE
    elif value < 0:
        k_class = KClass.ANTI_AMPLE
    else:
        k_class = KClass.NUMERICALLY_TRIVIAL
    return QhppReport(singularities, rho, k_class, value, test_curve)
