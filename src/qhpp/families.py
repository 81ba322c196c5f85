"""Builders for the plane configurations that contract to rank-one surfaces.

Each builder scripts a sequence of blow-ups of the plane, names the curves
to contract, and records the chain strings the script is expected to
produce.  The scripts are fixed incidence data; the builders fail loudly if
the scripted lattice does not reproduce the expected strings or does not
land at Picard rank one.

Families:

* ``T(a1..a4)``    - four general lines, two contracted chains.
* ``S1(b)``        - nodal cubic plus four lines, one contracted chain;
  variants ``S1-Pp(b, c)`` and ``S1-Ppp(b, c)`` deepen a second point.
* ``S3(b)``        - three concurrent lines plus a conic, three chains;
  variants ``V(b, c)`` and ``Y(b, c)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .contraction import (
    ContractionPlan,
    QhppReport,
    _classify,
    _pullback_k_dot,
    contract,
)
from .hjcf import HJFraction, make_pattern, reverse
from .lattice import BlowupStep, SurfaceModel

__all__ = [
    "BuildCheckError",
    "FamilyBuild",
    "FAMILY_IDS",
    "MAX_PARAM_SUM",
    "PARAM_NAMES",
    "build",
    "check_size",
    "build_T",
    "build_S1",
    "build_S1_variant",
    "build_S3",
    "build_S3_variant",
]

FAMILY_IDS = ("T", "S1", "S1-Pp", "S1-Ppp", "S3", "V", "Y")

PARAM_NAMES = {
    "T": ("a1", "a2", "a3", "a4"),
    "S1": ("b",),
    "S1-Pp": ("b", "c"),
    "S1-Ppp": ("b", "c"),
    "S3": ("b",),
    "V": ("b", "c"),
    "Y": ("b", "c"),
}

# A member's blow-up count grows with the sum of its parameters, and a build
# costs about quadratically in its blow-ups.
MAX_PARAM_SUM = 2000


class BuildCheckError(Exception):
    """A builder's script does not reproduce its expected chains or does not
    land at Picard rank one."""


@dataclass(frozen=True)
class FamilyBuild:
    """A scripted surface model with its contraction plan and bookkeeping.

    The plan is contracted once, at construction; :meth:`classify` and
    :meth:`pullback_k_dot` reuse that result instead of extracting the
    chains again.
    """

    family: str
    params: tuple[int, ...]
    model: SurfaceModel
    plan: ContractionPlan
    test_curve: str
    expected_chains: tuple[HJFraction, ...]
    # contract(model, plan), computed by __post_init__
    _contracted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            contracted = contract(self.model, self.plan)
        except (ValueError, KeyError) as exc:  # the script is broken, not the input
            raise BuildCheckError(f"{self.family}{self.params}: {exc}") from exc
        singularities, rho = contracted
        extracted = tuple(w for _, w in singularities)
        if len(extracted) != len(self.expected_chains):
            raise BuildCheckError(
                f"{self.family}{self.params}: {len(extracted)} chains, "
                f"expected {len(self.expected_chains)}"
            )
        for got, want in zip(extracted, self.expected_chains):
            if got != want and got != reverse(want):
                raise BuildCheckError(
                    f"{self.family}{self.params}: extracted {got}, expected {want}"
                )
        if rho != 1:
            raise BuildCheckError(f"{self.family}{self.params}: rho = {rho}, not 1")
        object.__setattr__(self, "_contracted", contracted)

    def classify(self) -> QhppReport:
        """``classify(model, plan, test_curve)`` without contracting again."""
        return _classify(self.model, self.plan, self.test_curve, self._contracted)

    def pullback_k_dot(self, name: str) -> Fraction:
        """``pullback_k_dot(model, plan, name)`` on the chains extracted at
        construction."""
        singularities, _ = self._contracted
        return _pullback_k_dot(
            self.model, self.plan, name, (w for _, w in singularities)
        )

    def non_contracted_curves(self) -> tuple[str, ...]:
        """All tracked curves surviving the contraction (test candidates)."""
        used = self.plan.curve_names
        return tuple(sorted(nm for nm in self.model.tracked if nm not in used))


def _blow(model: SurfaceModel, incidences, name: str) -> SurfaceModel:
    return model.blow_up(BlowupStep(tuple(incidences), name=name))


def _run_tower(
    model: SurfaceModel, start: str, along: str, count: int, stem: str, last: str
) -> tuple[SurfaceModel, list[str], str]:
    """Blow up ``count`` times, first at ``start & along`` and then always at
    the newest exceptional's meeting with ``along``.

    Returns ``(model, members, moving)`` where ``members`` are the curves
    pushed to self-intersection -2 (innermost first, starting with
    ``start``) and ``moving`` is the final (-1)-curve (``start`` itself when
    ``count == 0``).
    """
    if count == 0:
        return model, [], start
    names = [f"{stem}{j}" for j in range(1, count)] + [last]
    current = start
    for nm in names:
        model = _blow(model, [(current, 1), (along, 1)], nm)
        current = nm
    return model, [start] + names[:-1], names[-1]


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
    a = (a1, a2, a3, a4)
    if min(a) < 2:
        raise ValueError(f"parameters must all be >= 2, got {a}")
    model = SurfaceModel.plane({"L1": 1, "L2": 1, "L3": 1, "L4": 1})
    prev = {1: "L4", 2: "L1", 3: "L2", 4: "L3"}
    run: dict[int, list[str]] = {}
    for k in (1, 2, 3, 4):
        line = f"L{k}"
        model = _blow(model, [(prev[k], 1), (line, 1)], f"D{k}")
        count = a[k - 1] - 2
        names = [f"E{k}_{j}" for j in range(count)] + [f"E{k}"]
        model = _blow(model, [(f"D{k}", 1), (line, 1)], names[0])
        for j in range(1, len(names)):
            model = _blow(model, [(names[j - 1], 1), (line, 1)], names[j])
        run[k] = names[:-1]
    upper = tuple(reversed(run[4])) + ("D4", "L3", "L1", "D2") + tuple(run[2])
    lower = tuple(reversed(run[3])) + ("D3", "L2", "L4", "D1") + tuple(run[1])
    expected = (make_pattern(a4, a3, a1, a2), make_pattern(a3, a2, a4, a1))
    return FamilyBuild(
        "T", a, model, ContractionPlan((upper, lower)), "E1", expected
    )


_S1_SPINE = ("C", "D2", "L4", "A1", "A2", "L2", "B1", "B2", "L3", "D1")


def _build_s1(family: str, b: int, c: int | None) -> FamilyBuild:
    """Common script for S1 and its variants.

    A nodal cubic C with lines L1 (through the node), L2, L3, L4 tangent to
    C in a closed tangent cycle; L1, L2 and L4 all pass through the first
    tangency point.  The node is blown up once, each tangency point three
    times (point, shared tangent direction, then once more: along C at the
    first two, along the previous exceptional at the third).  The deep point
    P sits where the last (-1)-curve D3 meets the b-curve D2; the variants
    deepen P' (on A2) or P'' (on B2) the same way.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    if family != "S1" and (c is None or c < 2):
        raise ValueError(f"c must be >= 2, got {c}")
    m = SurfaceModel.plane(
        {"C": 3, "L1": 1, "L2": 1, "L3": 1, "L4": 1}, singular=("C",)
    )
    m = _blow(m, [("C", 2), ("L1", 1)], "N")
    m = m.declare_smooth("C")
    m = _blow(m, [("C", 1), ("L1", 1), ("L2", 1), ("L4", 1)], "A1")
    m = _blow(m, [("A1", 1), ("C", 1), ("L2", 1)], "A2")
    m = _blow(m, [("A2", 1), ("C", 1)], "A3")
    m = _blow(m, [("C", 1), ("L2", 1), ("L3", 1)], "B1")
    m = _blow(m, [("B1", 1), ("C", 1), ("L3", 1)], "B2")
    m = _blow(m, [("B2", 1), ("C", 1)], "B3")
    m = _blow(m, [("C", 1), ("L3", 1), ("L4", 1)], "D1")
    m = _blow(m, [("D1", 1), ("C", 1), ("L4", 1)], "D2")
    m = _blow(m, [("D2", 1), ("D1", 1)], "D3")
    m, tail, moving = _run_tower(m, "D3", "D2", b - 2, "G", "E")
    prefix: list[str] = []
    mid = [3, b, 2, 2, 2, 2, 2, 2, 2, 3]
    if family == "S1-Pp":
        m, members, _ = _run_tower(m, "A3", "A2", c - 2, "H", "F")
        prefix = list(reversed(members))
        mid = [3, b, 2, 2, c, 2, 2, 2, 2, 3]
        params = (b, c)
    elif family == "S1-Ppp":
        m, members, _ = _run_tower(m, "B3", "B2", c - 2, "H", "F")
        prefix = list(reversed(members))
        mid = [3, b, 2, 2, 2, 2, 2, c, 2, 3]
        params = (b, c)
    else:
        params = (b,)
    chain = tuple(prefix) + _S1_SPINE + tuple(tail)
    entries = [2] * len(prefix) + mid + [2] * len(tail)
    return FamilyBuild(
        family,
        params,
        m,
        ContractionPlan((chain,)),
        moving,
        (HJFraction(tuple(entries)),),
    )


def build_S1(b: int) -> FamilyBuild:
    """Nodal-cubic family: one contracted chain
    ``[3, b, 2 x 7, 3, 2 x (b-2)]``, hence one singularity of order
    ``27 b^2 - 36 b + 4``."""
    return _build_s1("S1", b, None)


def build_S1_variant(b: int, c: int, which: str) -> FamilyBuild:
    """Variants of S1 deepening a second marked point.

    ``which = "Pp"`` blows up P' (on A2) c - 2 times, giving the chain
    ``[2 x (c-2), 3, b, 2, 2, c, 2, 2, 2, 2, 3, 2 x (b-2)]``;
    ``which = "Ppp"`` blows up P'' (on B2) instead, giving
    ``[2 x (c-2), 3, b, 2, 2, 2, 2, 2, c, 2, 3, 2 x (b-2)]``.
    """
    if which not in ("Pp", "Ppp"):
        raise ValueError(f"which must be 'Pp' or 'Ppp', got {which!r}")
    return _build_s1(f"S1-{which}", b, c)


def _build_s3(family: str, b: int, c: int) -> FamilyBuild:
    """Common script for S3 and its variants.

    Three concurrent lines and a conic C tangent to L1 and L3; the
    concurrency point is blown up twice (second center on L2), the tangency
    points C&L1 and C&L3 are resolved (point, shared direction, and for L1 a
    third center on L1), and the transverse point C&L2 is blown up twice
    along C.  The deep point P sits where the last (-1)-curve U2 meets C;
    variant towers deepen P'' (on Q2) c times and, for Y, P' (V2 & C) once.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    if family != "S3" and c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    m = SurfaceModel.plane({"C": 2, "L1": 1, "L2": 1, "L3": 1})
    m = _blow(m, [("L1", 1), ("L2", 1), ("L3", 1)], "M1")
    m = _blow(m, [("M1", 1), ("L2", 1)], "M2")
    m = _blow(m, [("C", 1), ("L1", 1)], "Q1")
    m = _blow(m, [("Q1", 1), ("C", 1), ("L1", 1)], "Q2")
    m = _blow(m, [("Q2", 1), ("L1", 1)], "Q3")
    m = _blow(m, [("C", 1), ("L2", 1)], "U1")
    m = _blow(m, [("U1", 1), ("C", 1)], "U2")
    m = _blow(m, [("C", 1), ("L3", 1)], "V1")
    m = _blow(m, [("V1", 1), ("C", 1), ("L3", 1)], "V2")
    if family == "Y":
        m = _blow(m, [("V2", 1), ("C", 1)], "J")
    m, tail, moving = _run_tower(m, "U2", "C", b - 2, "G", "E")
    prefix: list[str] = []
    if family in ("V", "Y") and c > 0:
        m, members, _ = _run_tower(m, "Q3", "Q2", c, "H", "F")
        prefix = list(reversed(members))
    big = ("Q1", "Q2", "C", "L2", "U1") + tuple(tail)
    if family == "Y":
        chains = (tuple(prefix) + ("L1", "M1", "L3", "V2", "V1"), big)
        expected = (
            HJFraction((2,) * c + (3, 2, 2, 2, 2)),
            HJFraction((2, 2 + c, b + 1) + (2,) * b),
        )
        params = (b, c)
    else:
        cc = 0 if family == "S3" else c
        chains = (("V1",), tuple(prefix) + ("L1", "M1", "L3"), big)
        expected = (
            HJFraction((2,)),
            HJFraction((2,) * cc + (3, 2, 2)),
            HJFraction((2, 2 + cc, b) + (2,) * b),
        )
        params = (b,) if family == "S3" else (b, c)
    return FamilyBuild(
        family, params, m, ContractionPlan(chains), moving, expected
    )


def build_S3(b: int) -> FamilyBuild:
    """Concurrent-lines-plus-conic family: three contracted chains
    ``[2]``, ``[3, 2, 2]`` and ``[2, 2, b, 2 x b]``, hence singularities of
    orders 2, 7 and ``3 b^2 - 2 b - 2``."""
    return _build_s3("S3", b, 0)


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
    return _build_s3(which, b, c)


def check_size(params: Sequence[int]) -> None:
    """Refuse parameters that sum to more than ``MAX_PARAM_SUM``."""
    total = sum(params)
    if total > MAX_PARAM_SUM:
        raise ValueError(
            f"parameters {tuple(params)} sum to {total}; the limit is {MAX_PARAM_SUM}"
        )


def build(family: str, params: Sequence[int]) -> FamilyBuild:
    """Dispatch a family id (see FAMILY_IDS) to its builder; parameters
    above the size limit (see :func:`check_size`) are refused before any
    blow-up."""
    params = tuple(int(x) for x in params)
    if family not in FAMILY_IDS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILY_IDS)}")
    want = len(PARAM_NAMES[family])
    if len(params) != want:
        raise ValueError(
            f"family {family} takes {want} parameter(s) "
            f"({', '.join(PARAM_NAMES[family])}), got {len(params)}"
        )
    check_size(params)
    if family == "T":
        return build_T(*params)
    if family == "S1":
        return build_S1(*params)
    if family == "S1-Pp":
        return build_S1_variant(*params, which="Pp")
    if family == "S1-Ppp":
        return build_S1_variant(*params, which="Ppp")
    if family == "S3":
        return build_S3(*params)
    return build_S3_variant(params[0], params[1], which=family)
