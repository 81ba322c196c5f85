"""Builders for the plane configurations that contract to rank-one surfaces.

Every fact about a family lives in one registry, ``FAMILIES``: per family
id, a :class:`FamilySpec` holds the parameter names, the least value of each
parameter and a private script.  The script blows up the plane, names the
curves to contract and the test curve, and returns the template of the
chain strings those curves are expected to contract to, each entry written
beside the curves it describes.  :func:`build` checks the parameters against
the spec (:func:`check_params`), runs the script and fails loudly if the
scripted lattice does not reproduce the template or does not land at Picard
rank one.  The resulting :class:`FamilyBuild` holds the plan's
:class:`~qhpp.contraction.Contraction`, made once, from which its class and
every ``E . f*(K)`` are read.  A member is one of three parameter-free
bases plus towers: the plane of four lines for T, or the S1 or S3 base
model.  All three bases are built once per process.  A member's script
passes all of its parameter-dependent blow-ups to one
:meth:`~qhpp.lattice.SurfaceModel.blow_up` call as
:class:`~qhpp.lattice.Tower` steps, each checked once and applied in closed
form; a tower with no names blows up nothing.

Families:

* ``T(a1..a4)``    - four general lines, two contracted chains.
* ``S1(b)``        - nodal cubic plus four lines, one contracted chain;
  variants ``S1-Pp(b, c)`` and ``S1-Ppp(b, c)`` deepen a second point.
* ``S3(b)``        - three concurrent lines plus a conic, three chains;
  variants ``V(b, c)`` and ``Y(b, c)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Sequence

from .contraction import Contraction, ContractionPlan, QhppReport, contract
from .hjcf import HJFraction, make_pattern
from .lattice import BlowupStep, SurfaceModel, Tower

__all__ = [
    "BuildCheckError",
    "FAMILIES",
    "FamilyBuild",
    "FamilySpec",
    "MAX_PARAM_SUM",
    "MAX_SWEEP_MEMBERS",
    "build",
    "check_params",
    "build_T",
    "build_S1",
    "build_S1_variant",
    "build_S3",
    "build_S3_variant",
]

# A member's blow-up count grows with the sum of its parameters, and its
# script is one blow_up call, about linear in the blow-ups; the limit bounds
# the work and output of one member.
MAX_PARAM_SUM = 2000

# The most members one sweep may build; a box is counted before any build.
MAX_SWEEP_MEMBERS = 10_000


class BuildCheckError(Exception):
    """A builder's script does not reproduce its expected chains or does not
    land at Picard rank one."""


@dataclass(frozen=True)
class FamilyBuild:
    """A scripted surface model with its contraction plan and bookkeeping.

    The plan is contracted once, at construction, into ``contraction``, and
    each chain must equal its template in the plan's orientation;
    :meth:`classify` reads it with ``test_curve``, and
    ``contraction.pullback_k_dot(name)`` gives ``E . f*(K)`` for any
    non-contracted curve.
    """

    family: str
    params: tuple[int, ...]
    model: SurfaceModel
    plan: ContractionPlan
    test_curve: str
    expected_chains: tuple[HJFraction, ...]
    contraction: Contraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            contraction = contract(self.model, self.plan)
        except (ValueError, KeyError) as exc:  # the script is broken, not the input
            raise BuildCheckError(f"{self.family}{self.params}: {exc}") from exc
        extracted = tuple(w for _, w in contraction.singularities)
        if len(extracted) != len(self.expected_chains):
            raise BuildCheckError(
                f"{self.family}{self.params}: {len(extracted)} chains, "
                f"expected {len(self.expected_chains)}"
            )
        for got, want in zip(extracted, self.expected_chains):
            if got != want:
                raise BuildCheckError(
                    f"{self.family}{self.params}: extracted {got}, expected {want}"
                )
        if contraction.rho != 1:
            raise BuildCheckError(
                f"{self.family}{self.params}: rho = {contraction.rho}, not 1"
            )
        object.__setattr__(self, "contraction", contraction)

    def classify(self) -> QhppReport:
        return self.contraction.classify(self.test_curve)

    def non_contracted_curves(self) -> tuple[str, ...]:
        """All tracked curves surviving the contraction (test candidates)."""
        used = self.contraction.terms
        return tuple(sorted(nm for nm in self.model.tracked if nm not in used))


@dataclass(frozen=True)
class FamilySpec:
    """One family: its parameters and its blow-up script.

    ``script(*params)`` returns ``(model, plan, test_curve, expected_chains)``
    in :class:`FamilyBuild` field order; ``expected_chains`` is the template
    of the chain strings the plan must contract to, in the plan's
    orientation.  It assumes parameters that :func:`check_params` passed.
    """

    names: tuple[str, ...]
    least: tuple[int, ...]
    script: Callable[
        ..., tuple[SurfaceModel, ContractionPlan, str, tuple[HJFraction, ...]]
    ]


def _step(name: str, *incidences: tuple[str, int]) -> BlowupStep:
    return BlowupStep(incidences, name=name)


def _tower(
    start: str, along: str, stem: str, count: int, last: str
) -> tuple[Tower, list[str], str]:
    """A ``count``-step tower named ``stem1, ..., stem<count-1>, last``: one
    blow-up per name, first at ``start & along`` and then always at the
    newest exceptional's meeting with ``along`` (see
    :class:`~qhpp.lattice.Tower`).

    Returns ``(tower, members, moving)`` where ``members`` are the curves
    the tower pushes to self-intersection -2 (innermost first, starting with
    ``start``) and ``moving`` is the final (-1)-curve (``start`` itself when
    ``count`` is 0).
    """
    names = [f"{stem}{j}" for j in range(1, count)] + [last] if count else []
    chain = [start, *names]
    return Tower(start, along, names), chain[:-1], chain[-1]


@cache
def _t_base() -> SurfaceModel:
    """The plane of four general lines that every T script starts from,
    built once."""
    return SurfaceModel.plane({"L1": 1, "L2": 1, "L3": 1, "L4": 1})


def _script_t(a1: int, a2: int, a3: int, a4: int):
    """The script of :func:`build_T`, from :func:`_t_base`."""
    a = (a1, a2, a3, a4)
    prev = {1: "L4", 2: "L1", 3: "L2", 4: "L3"}
    towers = []
    run: dict[int, list[str]] = {}
    for k in (1, 2, 3, 4):
        names = [f"D{k}"] + [f"E{k}_{j}" for j in range(a[k - 1] - 2)] + [f"E{k}"]
        towers.append(Tower(prev[k], f"L{k}", names))
        run[k] = names[:-1]
    model = _t_base().blow_up(*towers)
    upper = tuple(reversed(run[4])) + ("L3", "L1") + tuple(run[2])
    lower = tuple(reversed(run[3])) + ("L2", "L4") + tuple(run[1])
    expected = make_pattern(a4, a3, a1, a2), make_pattern(a3, a2, a4, a1)
    return model, ContractionPlan((upper, lower)), "E1", expected


_S1_SPINE = ("C", "D2", "L4", "A1", "A2", "L2", "B1", "B2", "L3", "D1")


@cache
def _s1_base() -> SurfaceModel:
    """The parameter-free start of every S1 script, built once.

    A nodal cubic C with lines L1 (through the node), L2, L3, L4 tangent to
    C in a closed tangent cycle; L1, L2 and L4 all pass through the first
    tangency point.  The node is blown up once, each tangency point three
    times (point, shared tangent direction, then once more: along C at the
    first two, along the previous exceptional at the third).
    """
    m = SurfaceModel.plane(
        {"C": 3, "L1": 1, "L2": 1, "L3": 1, "L4": 1}, singular=("C",)
    )
    m = m.blow_up(_step("N", ("C", 2), ("L1", 1))).declare_smooth("C")
    return m.blow_up(
        _step("A1", ("C", 1), ("L1", 1), ("L2", 1), ("L4", 1)),
        _step("A2", ("A1", 1), ("C", 1), ("L2", 1)),
        _step("A3", ("A2", 1), ("C", 1)),
        _step("B1", ("C", 1), ("L2", 1), ("L3", 1)),
        _step("B2", ("B1", 1), ("C", 1), ("L3", 1)),
        _step("B3", ("B2", 1), ("C", 1)),
        _step("D1", ("C", 1), ("L3", 1), ("L4", 1)),
        _step("D2", ("D1", 1), ("C", 1), ("L4", 1)),
        _step("D3", ("D2", 1), ("D1", 1)),
    )


def _script_s1(b: int, c: int = 2, deep: str = "A"):
    """Common script for S1 and its variants, from :func:`_s1_base`.

    The deep point P sits where the last (-1)-curve D3 meets the b-curve
    D2; the variants deepen P' (on A2, ``deep = "A"``) or P'' (on B2,
    ``deep = "B"``) the same way, c - 2 times, so the template holds c
    where ``{deep}2`` sits on the spine.
    """
    tower, tail, moving = _tower("D3", "D2", "G", b - 2, "E")
    more, members, _ = _tower(f"{deep}3", f"{deep}2", "H", c - 2, "F")
    model = _s1_base().blow_up(tower, more)
    chain = tuple(reversed(members)) + _S1_SPINE + tuple(tail)
    spine = [3, b, 2, 2, 2, 2, 2, 2, 2, 3]
    spine[_S1_SPINE.index(f"{deep}2")] = c
    expected = (HJFraction((2,) * (c - 2) + tuple(spine) + (2,) * (b - 2)),)
    return model, ContractionPlan((chain,)), moving, expected


@cache
def _s3_base() -> SurfaceModel:
    """The parameter-free start of every S3 script, built once.

    Three concurrent lines and a conic C tangent to L1 and L3; the
    concurrency point is blown up twice (second center on L2), the tangency
    points C&L1 and C&L3 are resolved (point, shared direction, and for L1 a
    third center on L1), and the transverse point C&L2 is blown up twice
    along C.
    """
    return SurfaceModel.plane({"C": 2, "L1": 1, "L2": 1, "L3": 1}).blow_up(
        _step("M1", ("L1", 1), ("L2", 1), ("L3", 1)),
        _step("M2", ("M1", 1), ("L2", 1)),
        _step("Q1", ("C", 1), ("L1", 1)),
        _step("Q2", ("Q1", 1), ("C", 1), ("L1", 1)),
        _step("Q3", ("Q2", 1), ("L1", 1)),
        _step("U1", ("C", 1), ("L2", 1)),
        _step("U2", ("U1", 1), ("C", 1)),
        _step("V1", ("C", 1), ("L3", 1)),
        _step("V2", ("V1", 1), ("C", 1), ("L3", 1)),
    )


def _script_s3(b: int, c: int = 0, y: bool = False):
    """Common script for S3 and its variants, from :func:`_s3_base`.

    The deep point P sits where the last (-1)-curve U2 meets C; variant
    towers deepen P'' (on Q2) c times and, for Y, P' (V2 & C) once.
    """
    head = Tower("V2", "C", ["J"] if y else [])
    tower, tail, moving = _tower("U2", "C", "G", b - 2, "E")
    more, members, _ = _tower("Q3", "Q2", "H", c, "F")
    model = _s3_base().blow_up(head, tower, more)
    middle = tuple(reversed(members)) + ("L1", "M1", "L3")
    middle_w = (2,) * c + (3, 2, 2)
    big = ("Q1", "Q2", "C", "L2", "U1") + tuple(tail)
    big_w = HJFraction((2, 2 + c, b + 1 if y else b) + (2,) * b)
    if y:
        chains = middle + ("V2", "V1"), big
        expected = HJFraction(middle_w + (2, 2)), big_w
    else:
        chains = ("V1",), middle, big
        expected = HJFraction((2,)), HJFraction(middle_w), big_w
    return model, ContractionPlan(chains), moving, expected


FAMILIES: dict[str, FamilySpec] = {
    "T": FamilySpec(("a1", "a2", "a3", "a4"), (2, 2, 2, 2), _script_t),
    "S1": FamilySpec(("b",), (2,), _script_s1),
    "S1-Pp": FamilySpec(("b", "c"), (2, 2), partial(_script_s1, deep="A")),
    "S1-Ppp": FamilySpec(("b", "c"), (2, 2), partial(_script_s1, deep="B")),
    "S3": FamilySpec(("b",), (2,), _script_s3),
    "V": FamilySpec(("b", "c"), (2, 0), _script_s3),
    "Y": FamilySpec(("b", "c"), (2, 0), partial(_script_s3, y=True)),
}


def check_params(family: str, params: Sequence[int]) -> FamilySpec:
    """Check a family id, the number of parameters, the size limit
    ``MAX_PARAM_SUM`` and each parameter's least value; return the spec."""
    spec = FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if len(params) != len(spec.names):
        raise ValueError(
            f"family {family} takes {len(spec.names)} parameter(s) "
            f"({', '.join(spec.names)}), got {len(params)}"
        )
    total = sum(params)
    if total > MAX_PARAM_SUM:
        raise ValueError(
            f"parameters {tuple(params)} sum to {total}; the limit is {MAX_PARAM_SUM}"
        )
    for name, lo, value in zip(spec.names, spec.least, params):
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
    return spec


def build(family: str, params: Sequence[int]) -> FamilyBuild:
    """Build one member of a family in ``FAMILIES``; bad parameters (see
    :func:`check_params`) are refused before any blow-up."""
    params = tuple([operator.index(x) for x in params])
    spec = check_params(family, params)
    return FamilyBuild(family, params, *spec.script(*params))


def build_T(a1: int, a2: int, a3: int, a4: int) -> FamilyBuild:
    """Four general lines: of the six double points, mark the four forming a
    cycle L1-L2-L3-L4; blow each marked point up twice, then keep blowing up
    the moving point of L_k another a_k - 2 times.

    At the point shared by L_{k-1} and L_k the second (infinitely near)
    center is taken on L_k, so every line carries exactly one deep point;
    this is the assignment that reproduces the twelve-curve configuration at
    a = (2, 2, 2, 2).  The two contracted chains are
    ``[2 x (a4-1), a3, a1, 2 x (a2-1)]`` and
    ``[2 x (a3-1), a2, a4, 2 x (a1-1)]``; the test curve E1 is the moving
    (-1)-curve on L1.
    """
    return build("T", (a1, a2, a3, a4))


def build_S1(b: int) -> FamilyBuild:
    """Nodal-cubic family: one contracted chain
    ``[3, b, 2 x 7, 3, 2 x (b-2)]``, hence one singularity of order
    ``27 b^2 - 36 b + 4``."""
    return build("S1", (b,))


def build_S1_variant(b: int, c: int, which: str) -> FamilyBuild:
    """Variants of S1 deepening a second marked point.

    ``which = "Pp"`` blows up P' (on A2) c - 2 times, giving the chain
    ``[2 x (c-2), 3, b, 2, 2, c, 2, 2, 2, 2, 3, 2 x (b-2)]``;
    ``which = "Ppp"`` blows up P'' (on B2) instead, giving
    ``[2 x (c-2), 3, b, 2, 2, 2, 2, 2, c, 2, 3, 2 x (b-2)]``.
    """
    if which not in ("Pp", "Ppp"):
        raise ValueError(f"which must be 'Pp' or 'Ppp', got {which!r}")
    return build(f"S1-{which}", (b, c))


def build_S3(b: int) -> FamilyBuild:
    """Concurrent-lines-plus-conic family: three contracted chains
    ``[2]``, ``[3, 2, 2]`` and ``[2, 2, b, 2 x b]``, hence singularities of
    orders 2, 7 and ``3 b^2 - 2 b - 2``."""
    return build("S3", (b,))


def build_S3_variant(b: int, c: int, which: str) -> FamilyBuild:
    """Variants of S3.

    ``which = "V"`` blows up P'' (on Q2) c times: chains ``[2]``,
    ``[2 x c, 3, 2, 2]`` and ``[2, 2 + c, b, 2 x b]``.  ``which = "Y"``
    additionally blows up P' (V2 & C) once, absorbing the lone (-2)-curve
    into the second chain: chains ``[2 x c, 3, 2, 2, 2, 2]`` and
    ``[2, 2 + c, b + 1, 2 x b]``.
    """
    if which not in ("V", "Y"):
        raise ValueError(f"which must be 'V' or 'Y', got {which!r}")
    return build(which, (b, c))
