"""Exhaustive invariant suites behind the ``verify`` CLI command.

Each suite re-derives its expectations independently where possible (dense
cofactor determinants, direct re-evaluation, closed forms) and scans the
full stated parameter ranges, reporting the first counterexample on
failure.
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
from .kollar import KollarParams, singularity_types, weights

__all__ = ["Check", "SUITE_NAMES", "run"]

SUITE_NAMES = ("hjcf", "kollar", "families")


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
    checks = []
    checks.append(
        _scan(
            "hjcf.roundtrip",
            _coprime_pairs(500),
            lambda p: evaluate(expand(*p)) == Fraction(*p),
        )
    )
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
        if determinant(rev) != determinant(w):
            return False
        if not w.entries:
            return True
        q, q1 = determinant(w), evaluate(w).denominator
        return q1 * evaluate(rev).denominator % q == 1

    checks.append(_scan("hjcf.reversal", chains, reversal_ok))

    def discrepancies_ok(w: HJFraction) -> bool:
        if not w.entries:
            return True
        coeffs = discrepancy_coefficients(w)
        if not all(0 <= d < 1 for d in coeffs):
            return False
        return (all(d == 0 for d in coeffs)) == all(n == 2 for n in w.entries)

    checks.append(_scan("hjcf.discrepancies", chains, discrepancies_ok))

    def monotone_ok(w: HJFraction) -> bool:
        # bumping any entry strictly increases the determinant
        po = partial_orders(w)
        return all(
            bump_determinant(w, j) > determinant(w) and po.u[j] >= 1 and po.v[j] >= 1
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
        (s1, c1), (s2, c2) = singularity_types(p)
        if determinant(c1) != s1.q or determinant(c2) != s2.q:
            return False
        return evaluate(c1) == Fraction(s1.q, s1.q1) and evaluate(c2) == Fraction(
            s2.q, s2.q1
        )

    checks.append(_scan("kollar.chain_types", primitive, chains_ok))
    checks.append(
        Check(
            "kollar.primitive_count",
            True,
            f"{len(primitive)} of {len(sweep)} tuples in [2,6]^4 have w* = 1",
        )
    )
    return checks


def _t_closed_form(a1: int, a2: int, a3: int, a4: int) -> Fraction:
    num = (a2 * a3 * a4 - a3 * a4 + a4 - 1) * (
        (a1 - 1) * (a2 - 1) * (a3 - 1) * (a4 - 1) - a1 * a3 - a2 * a4 + 2
    )
    den = pattern_determinant(a4, a3, a1, a2) * pattern_determinant(a3, a2, a4, a1)
    return Fraction(num, den)


def _genus_ok(fb: families.FamilyBuild) -> bool:
    return all(fb.model.genus_term(nm) == -2 for nm in fb.model.tracked)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_independent(fb: families.FamilyBuild) -> bool:
    values = [fb.pullback_k_dot(nm) for nm in fb.non_contracted_curves()]
    signs = {_sign(v) for v in values}
    return len(signs) == 1


def verify_families() -> list[Check]:
    checks = []

    def t_ok(a: tuple[int, int, int, int]) -> bool:
        a1, a2, a3, a4 = a
        fb = families.build_T(a1, a2, a3, a4)  # validates chains and rho
        if fb.model.blowup_count != 8 + sum(x - 2 for x in a):
            return False
        if sum(len(c) for c in fb.plan.chains) != sum(a):
            return False
        if not _genus_ok(fb):
            return False
        rep = fb.classify()
        if rep.k_value != _t_closed_form(a1, a2, a3, a4):
            return False
        (s1, _), (s2, _) = rep.singularities
        if s1.q != pattern_determinant(a4, a3, a1, a2):
            return False
        if s2.q != pattern_determinant(a3, a2, a4, a1):
            return False
        p = KollarParams(a1, a2, a3, a4)
        if weights(p).wstar == 1:
            (k1, _), (k2, _) = singularity_types(p)
            if (s1.q, s2.q) != (k1.q, k2.q):
                return False
            if s1.q1 not in (k1.q1, k1.q1_inverse()):
                return False
            if s2.q1 not in (k2.q1, k2.q1_inverse()):
                return False
        if a == (3, 3, 3, 3):
            if rep.k_class is not KClass.NUMERICALLY_TRIVIAL:
                return False
        elif min(a) >= 3:
            if rep.k_class is not KClass.AMPLE:
                return False
        return _sign_independent(fb)

    checks.append(_scan("families.T_sweep", product(range(2, 7), repeat=4), t_ok))

    def threshold(k: int, l: int) -> bool:
        lo, hi = min(k, l), max(k, l)
        return lo >= 6 or (lo == 5 and hi >= 7) or (lo == 4 and hi >= 10)

    checks.append(
        _scan(
            "families.T_adjacent_22",
            product(range(2, 13), repeat=2),
            lambda t: (families.build_T(2, 2, *t).classify().k_class is KClass.AMPLE)
            == threshold(*t),
        )
    )
    checks.append(
        _scan(
            "families.T_opposite_22",
            product(range(2, 13), repeat=2),
            lambda t: families.build_T(2, t[0], 2, t[1]).classify().k_class
            is KClass.ANTI_AMPLE,
        )
    )

    def s1_ok(b: int) -> bool:
        fb = families.build_S1(b)
        if fb.model.blowup_count != b + 8:
            return False
        if sum(len(c) for c in fb.plan.chains) != b + 8:
            return False
        if not _genus_ok(fb):
            return False
        rep = fb.classify()
        ((sing, _),) = rep.singularities
        q = 27 * b * b - 36 * b + 4
        q1 = (9 * b * b - 9 * b + 1) % q
        if sing.q != q or sing.q1 not in (q1, pow(q1, -1, q)):
            return False
        if rep.k_value != Fraction(18 * (b - 2), q):
            return False
        want = KClass.NUMERICALLY_TRIVIAL if b == 2 else KClass.AMPLE
        return rep.k_class is want and _sign_independent(fb)

    checks.append(_scan("families.S1_sweep", range(2, 13), s1_ok))

    def s3_ok(b: int) -> bool:
        fb = families.build_S3(b)
        if fb.model.blowup_count != b + 7:
            return False
        if sum(len(c) for c in fb.plan.chains) != b + 7:
            return False
        if not _genus_ok(fb):
            return False
        rep = fb.classify()
        (one, _), (seven, _), (big, _) = rep.singularities
        if (one.q, one.q1) != (2, 1) or (seven.q, seven.q1) != (7, 3):
            return False
        q = 3 * b * b - 2 * b - 2
        q1 = (2 * b * b - b - 1) % q
        if big.q != q or big.q1 not in (q1, pow(q1, -1, q)):
            return False
        if rep.k_value != Fraction(2 * (b - 5), q):
            return False
        want = (
            KClass.ANTI_AMPLE
            if b < 5
            else KClass.NUMERICALLY_TRIVIAL if b == 5 else KClass.AMPLE
        )
        return rep.k_class is want and _sign_independent(fb)

    checks.append(_scan("families.S3_sweep", range(2, 13), s3_ok))

    def s1_variant_ok(case: tuple[int, int, str]) -> bool:
        b, c, which = case
        fb = families.build_S1_variant(b, c, which)  # validates chain and rho
        if not _genus_ok(fb):
            return False
        rep = fb.classify()
        if (b, c) == (8, 8) and rep.k_class is not KClass.AMPLE:
            return False
        return len(rep.singularities) == 1

    checks.append(
        _scan(
            "families.S1_variants",
            (
                (b, c, which)
                for which in ("Pp", "Ppp")
                for b, c in product(range(2, 9), repeat=2)
            ),
            s1_variant_ok,
        )
    )

    def s3_variant_ok(case: tuple[int, int, str]) -> bool:
        b, c, which = case
        fb = families.build_S3_variant(b, c, which)
        if not _genus_ok(fb):
            return False
        rep = fb.classify()
        if (b, c) == (8, 8) and rep.k_class is not KClass.AMPLE:
            return False
        if which == "V":
            if len(rep.singularities) != 3:
                return False
            if c == 0:
                base = families.build_S3(b)
                if fb.expected_chains != base.expected_chains:
                    return False
            return True
        return len(rep.singularities) == 2

    checks.append(
        _scan(
            "families.S3_variants",
            (
                (b, c, which)
                for which in ("V", "Y")
                for b in range(2, 9)
                for c in range(0, 9)
            ),
            s3_variant_ok,
        )
    )
    return checks


_SUITES = {
    "hjcf": verify_hjcf,
    "kollar": verify_kollar,
    "families": verify_families,
}


def run(suite: str) -> list[Check]:
    """Run a named suite (``hjcf``, ``kollar``, ``families`` or ``all``)."""
    if suite == "all":
        results: list[Check] = []
        for name in SUITE_NAMES:
            results.extend(_SUITES[name]())
        return results
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: all, {', '.join(SUITE_NAMES)}")
    return _SUITES[suite]()
