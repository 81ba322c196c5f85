"""Exhaustive invariant suites behind the ``verify`` CLI command.

Each suite re-derives its expectations independently where possible (dense
cofactor determinants, direct re-evaluation, closed forms) and scans the
full stated parameter ranges, reporting the first counterexample on
failure.  Every ``families`` check runs one predicate on each member it
scans; that predicate reads the family's closed forms and stated classes
from ``_FORMS``, which the builders never see.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from . import families
from .contraction import KClass
from .hjcf import (
    HJFraction,
    bump_determinant,
    determinant,
    discrepancy_coefficients,
    evaluate,
    expand,
    make_pattern,
    partial_orders,
    pattern_determinant,
    reverse,
)
from .kollar import KollarParams, NonPrimitiveWeights, singularity_types, weights

__all__ = ["Check", "SUITE_NAMES", "run"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _scan(name: str, cases: Iterable, predicate: Callable) -> Check:
    count = 0
    for case in cases:
        count += 1
        if not predicate(case):
            return Check(name, False, f"first counterexample: {case!r}")
    return Check(name, True, f"{count} cases")


def _dense_cofactor_det(matrix: Sequence[Sequence[int]]) -> int:
    """Plain first-row cofactor expansion of a dense integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _dense_cofactor_det(minor)
    return total


def _chain_matrix(entries: Sequence[int]) -> list[list[int]]:
    n = len(entries)
    m = [[0] * n for _ in range(n)]
    for i, e in enumerate(entries):
        m[i][i] = e
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


def brute_force_determinant(entries: Sequence[int]) -> int:
    """Determinant of the tridiagonal matrix (diagonal ``n_j``,
    off-diagonal -1) by cofactor expansion; the independent oracle."""
    return _dense_cofactor_det(_chain_matrix(list(entries)))


def _all_chains(max_len: int, lo: int, hi: int) -> Iterator[HJFraction]:
    for length in range(max_len + 1):
        for entries in product(range(lo, hi + 1), repeat=length):
            yield HJFraction(entries)


def _coprime_pairs(limit: int) -> Iterator[tuple[int, int]]:
    for q in range(2, limit + 1):
        for q1 in range(1, q):
            if gcd(q, q1) == 1:
                yield q, q1


def verify_hjcf() -> list[Check]:
    def roundtrip_ok(p: tuple[int, int]) -> bool:
        # p is coprime with q1 >= 1, so it is the value's lowest terms
        v = evaluate(expand(*p))
        return (v.numerator, v.denominator) == p

    checks = [_scan("hjcf.roundtrip", _coprime_pairs(500), roundtrip_ok)]
    chains = list(_all_chains(6, 2, 5))
    checks.append(
        _scan(
            "hjcf.determinant_oracle",
            chains,
            lambda w: determinant(w) == brute_force_determinant(w.entries),
        )
    )

    def bump_ok(w: HJFraction) -> bool:
        for j in range(1, len(w) + 1):
            bumped = HJFraction(
                w.entries[: j - 1] + (w.entries[j - 1] + 1,) + w.entries[j:]
            )
            if bump_determinant(w, j) != determinant(bumped):
                return False
        return True

    checks.append(_scan("hjcf.bump_identity", chains, bump_ok))
    checks.append(
        _scan(
            "hjcf.pattern_closed_form",
            product(range(1, 9), range(2, 9), range(2, 9), range(1, 9)),
            lambda t: pattern_determinant(t[0], t[1], t[2], t[3])
            == determinant(make_pattern(t[0], t[1], t[2], t[3])),
        )
    )

    def reversal_ok(w: HJFraction) -> bool:
        rev = reverse(w)
        q = determinant(w)
        if determinant(rev) != q:
            return False
        if not w.entries:
            return True
        q1 = evaluate(w).denominator
        return q1 * evaluate(rev).denominator % q == 1

    checks.append(_scan("hjcf.reversal", chains, reversal_ok))

    def discrepancies_ok(w: HJFraction) -> bool:
        if not w.entries:
            return True
        coeffs = discrepancy_coefficients(w)
        if not all(0 <= d.numerator < d.denominator for d in coeffs):
            return False
        return all(d.numerator == 0 for d in coeffs) == all(n == 2 for n in w.entries)

    checks.append(_scan("hjcf.discrepancies", chains, discrepancies_ok))

    def monotone_ok(w: HJFraction) -> bool:
        # bumping any entry strictly increases the determinant
        po = partial_orders(w)
        q = determinant(w)
        return all(
            bump_determinant(w, j) > q and po.u[j] >= 1 and po.v[j] >= 1
            for j in range(1, len(w) + 1)
        )

    checks.append(_scan("hjcf.monotonicity", chains, monotone_ok))
    return checks


def verify_kollar() -> list[Check]:
    checks = []
    sweep = [KollarParams(*a) for a in product(range(2, 7), repeat=4)]
    primitive = [p for p in sweep if weights(p).wstar == 1]

    def s_identities(p: KollarParams) -> bool:
        W = weights(p)
        return (
            W.s1 == p.a4 * W.w4 - W.w3 == p.a2 * W.w2 - W.w1
            and W.s2 == p.a1 * W.w1 - W.w4 == p.a3 * W.w3 - W.w2
            and p.a1 * W.w1 + W.w2 == W.d
        )

    checks.append(_scan("kollar.s_identities", sweep, s_identities))

    def congruences(p: KollarParams) -> bool:
        W = weights(p)
        t1 = pattern_determinant(p.a4 - 1, p.a3, p.a1, p.a2)
        t2 = pattern_determinant(p.a3 - 1, p.a2, p.a4, p.a1)
        if (t1 * W.w2 - W.w4) % W.s1 != 0 or (t2 * W.w1 - W.w3) % W.s2 != 0:
            return False
        # the exact multiplier identities behind the congruences
        a1, a2, a3, a4 = p.as_tuple()
        ok1 = t1 * W.w2 - W.w4 == (a1 * a3 * a4 - a1 * a3 - a1 * a4 + 2 * a1 - 1) * W.s1
        ok2 = t2 * W.w1 - W.w3 == (a2 * a3 * a4 - a2 * a4 - a3 * a4 + 2 * a4 - 1) * W.s2
        return ok1 and ok2

    checks.append(_scan("kollar.congruences", primitive, congruences))

    def chains_ok(p: KollarParams) -> bool:
        for sing, chain in singularity_types(p):
            # (q, q1) is coprime with q1 >= 1, so it is the value's lowest terms
            v = evaluate(chain)
            want = (sing.q, sing.q, sing.q1)
            if (determinant(chain), v.numerator, v.denominator) != want:
                return False
        return True

    checks.append(_scan("kollar.chain_types", primitive, chains_ok))
    checks.append(
        Check(
            "kollar.primitive_count",
            True,
            f"{len(primitive)} of {len(sweep)} tuples in [2,6]^4 have w* = 1",
        )
    )
    return checks


def _either(q1: int, q: int) -> tuple[int, int]:
    """Both admissible ``q1`` of an order-``q`` chain (read either way)."""
    return q1 % q, pow(q1, -1, q)


def _t_forms(a1: int, a2: int, a3: int, a4: int):
    upper = pattern_determinant(a4, a3, a1, a2)
    lower = pattern_determinant(a3, a2, a4, a1)
    num = (a2 * a3 * a4 - a3 * a4 + a4 - 1) * (
        (a1 - 1) * (a2 - 1) * (a3 - 1) * (a4 - 1) - a1 * a3 - a2 * a4 + 2
    )
    orders = ((upper, None), (lower, None))
    return a1 + a2 + a3 + a4, orders, Fraction(num, upper * lower)


def _s1_forms(b: int):
    q = 27 * b * b - 36 * b + 4
    return b + 8, ((q, _either(9 * b * b - 9 * b + 1, q)),), Fraction(18 * (b - 2), q)


def _s3_forms(b: int):
    q = 3 * b * b - 2 * b - 2
    orders = ((2, (1,)), (7, (3,)), (q, _either(2 * b * b - b - 1, q)))
    return b + 7, orders, Fraction(2 * (b - 5), q)


_AMPLE = {KClass.AMPLE}
_TRIVIAL = {KClass.NUMERICALLY_TRIVIAL}
_ANTI = {KClass.ANTI_AMPLE}


def _t_region(a1: int, a2: int, a3: int, a4: int):
    if (a1, a2, a3, a4) == (3, 3, 3, 3):
        return _TRIVIAL
    if min(a1, a2, a3, a4) >= 3:
        return _AMPLE
    if a1 == a3 == 2:
        return _ANTI
    if a1 == a2 == 2:
        lo, hi = min(a3, a4), max(a3, a4)
        ample = lo >= 6 or (lo == 5 and hi >= 7) or (lo == 4 and hi >= 10)
        return _AMPLE if ample else _TRIVIAL | _ANTI
    return None


def _variant_region(b: int, c: int):
    return _AMPLE if (b, c) == (8, 8) else None


# What verify expects of each family, written down apart from the builders:
# (number of singularities, the classes stated for a member or None, closed
# forms or None), where the closed forms of a member are its blow-up count,
# ((q, admissible q1 or None) per singularity) and k_value.
_FORMS = {
    "T": (2, _t_region, _t_forms),
    "S1": (1, lambda b: _TRIVIAL if b == 2 else _AMPLE, _s1_forms),
    "S1-Pp": (1, _variant_region, None),
    "S1-Ppp": (1, _variant_region, None),
    "S3": (3, lambda b: _ANTI if b < 5 else _TRIVIAL if b == 5 else _AMPLE, _s3_forms),
    "V": (3, _variant_region, None),
    "Y": (2, _variant_region, None),
}


def _genus_ok(fb: families.FamilyBuild) -> bool:
    return all(fb.model.genus_term(nm) == -2 for nm in fb.model.tracked)


def _sign(x: Fraction) -> int:
    return (x.numerator > 0) - (x.numerator < 0)


def _sign_independent(fb: families.FamilyBuild) -> bool:
    signs = {_sign(fb.contraction.pullback_k_dot(nm)) for nm in fb.non_contracted_curves()}
    return len(signs) == 1


def _kollar_agrees(params: tuple[int, ...], sings: list) -> bool:
    """T's orders match the weight-system types when ``w* = 1``."""
    try:
        types = singularity_types(KollarParams(*params))
    except NonPrimitiveWeights:
        return True
    return all(
        s.q == k.q and s.q1 in (k.q1, k.q1_inverse()) for s, (k, _) in zip(sings, types)
    )


def _member_ok(case: tuple[str, tuple[int, ...]]) -> bool:
    family, params = case
    count, region, closed = _FORMS[family]
    fb = families.build(family, params)  # validates chains and rho
    blowups = fb.model.blowup_count
    if blowups != sum(len(c) for c in fb.plan.chains) or not _genus_ok(fb):
        return False
    rep = fb.classify()
    sings = [s for s, _ in rep.singularities]
    if len(sings) != count:
        return False
    if closed is not None:
        want_blowups, orders, k_value = closed(*params)
        if blowups != want_blowups or rep.k_value != k_value:
            return False
        for s, (q, q1s) in zip(sings, orders):
            if s.q != q or (q1s is not None and s.q1 not in q1s):
                return False
    classes = region(*params)
    if classes is not None and rep.k_class not in classes:
        return False
    if family == "T" and not _kollar_agrees(params, sings):
        return False
    if family == "V" and params[1] == 0:  # V(b, 0) is S3(b)
        if fb.expected_chains != families.build("S3", params[:1]).expected_chains:
            return False
    return _sign_independent(fb)


def verify_families() -> list[Check]:
    grid = range(2, 13)
    variants = list(product(range(2, 9), repeat=2))
    cases = {
        "T_sweep": (("T", a) for a in product(range(2, 7), repeat=4)),
        "T_adjacent_22": (("T", (2, 2, k, l)) for k, l in product(grid, repeat=2)),
        "T_opposite_22": (("T", (2, k, 2, l)) for k, l in product(grid, repeat=2)),
        "S1_sweep": (("S1", (b,)) for b in grid),
        "S3_sweep": (("S3", (b,)) for b in grid),
        "S1_variants": ((f, p) for f in ("S1-Pp", "S1-Ppp") for p in variants),
        "S3_variants": (
            (f, p) for f in ("V", "Y") for p in product(range(2, 9), range(9))
        ),
    }
    return [_scan(f"families.{name}", cs, _member_ok) for name, cs in cases.items()]


_SUITES = {
    "hjcf": verify_hjcf,
    "kollar": verify_kollar,
    "families": verify_families,
}

SUITE_NAMES = tuple(_SUITES)


def run(suite: str) -> list[Check]:
    """Run one suite of ``SUITE_NAMES``, or ``all`` of them in that order."""
    if suite == "all":
        return [check for name in SUITE_NAMES for check in _SUITES[name]()]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: all, {', '.join(SUITE_NAMES)}")
    return _SUITES[suite]()
