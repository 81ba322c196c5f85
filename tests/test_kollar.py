import pytest
from fractions import Fraction
from itertools import product
from math import gcd

from qhpp import verify
from qhpp.hjcf import determinant, evaluate, make_pattern, pattern_determinant
from qhpp.kollar import (
    KollarParams,
    NonPrimitiveWeights,
    singularity_types,
    weights,
)

SWEEP = [KollarParams(*a) for a in product(range(2, 7), repeat=4)]


def test_params_validation():
    with pytest.raises(ValueError):
        KollarParams(1, 2, 2, 2)
    with pytest.raises(ValueError):
        KollarParams(2, 2, 2, 0)


def test_weights_4445():
    W = weights(KollarParams(4, 4, 4, 5))
    assert (W.w1, W.w2, W.w3, W.w4) == (64, 63, 67, 51)
    assert W.d == 319
    assert W.wstar == 1
    assert (W.s1, W.s2) == (188, 205)
    assert (W.t1, W.t2) == (153, 158)
    # the defining relations, written out
    assert 4 * 64 + 63 == 5 * 51 + 64 == 319


def test_weights_2222_not_primitive():
    W = weights(KollarParams(2, 2, 2, 2))
    assert W.wstar == 5
    assert (W.w1, W.w2, W.w3, W.w4) == (1, 1, 1, 1)
    assert W.d == 3
    with pytest.raises(NonPrimitiveWeights) as info:
        singularity_types(KollarParams(2, 2, 2, 2))
    assert info.value.wstar == 5


def test_defining_relation_everywhere():
    for p in SWEEP:
        W = weights(p)
        d = W.d
        assert p.a1 * W.w1 + W.w2 == d
        assert p.a2 * W.w2 + W.w3 == d
        assert p.a3 * W.w3 + W.w4 == d
        assert p.a4 * W.w4 + W.w1 == d
        assert gcd(W.w1, W.w2, W.w3, W.w4) == 1


def test_s_expressions_agree_everywhere():
    for p in SWEEP:
        W = weights(p)
        assert W.s1 == p.a4 * W.w4 - W.w3 == p.a2 * W.w2 - W.w1
        assert W.s2 == p.a1 * W.w1 - W.w4 == p.a3 * W.w3 - W.w2


def test_types_4445():
    (s1, c1), (s2, c2) = singularity_types(KollarParams(4, 4, 4, 5))
    assert (s1.q, s1.q1) == (188, 153)
    assert (s2.q, s2.q1) == (205, 158)
    assert c1.entries == (2, 2, 2, 2, 4, 4, 2, 2, 2)
    assert determinant(c1) == 188
    assert c2.entries == (2, 2, 2, 4, 5, 2, 2, 2)
    assert determinant(c2) == 205
    # the congruences 153*63 = 51 (mod 188) and 158*64 = 67 (mod 205)
    assert 153 * 63 % 188 == 51
    assert 158 * 64 % 205 == 67


def test_congruences_and_multipliers_over_sweep():
    for p in SWEEP:
        W = weights(p)
        if W.wstar != 1:
            continue
        a1, a2, a3, a4 = p.as_tuple()
        t1 = pattern_determinant(a4 - 1, a3, a1, a2)
        t2 = pattern_determinant(a3 - 1, a2, a4, a1)
        assert t1 % W.s1 == W.t1
        assert t2 % W.s2 == W.t2
        assert t1 * W.w2 - W.w4 == (a1 * a3 * a4 - a1 * a3 - a1 * a4 + 2 * a1 - 1) * W.s1
        assert t2 * W.w1 - W.w3 == (a2 * a3 * a4 - a2 * a4 - a3 * a4 + 2 * a4 - 1) * W.s2


def test_chain_value_is_s_over_t():
    for p in SWEEP:
        if weights(p).wstar != 1:
            continue
        for sing, chain in singularity_types(p):
            assert determinant(chain) == sing.q
            assert evaluate(chain) == Fraction(sing.q, sing.q1)


def test_chain_patterns():
    for p in SWEEP[:50]:
        if weights(p).wstar != 1:
            continue
        (s1, c1), (s2, c2) = singularity_types(p)
        a1, a2, a3, a4 = p.as_tuple()
        assert c1 == make_pattern(a4, a3, a1, a2)
        assert c2 == make_pattern(a3, a2, a4, a1)
        assert s1.q == pattern_determinant(a4, a3, a1, a2)
        assert s2.q == pattern_determinant(a3, a2, a4, a1)


def test_smooth_point_convention():
    # s = 1 (only possible when w* > 1) records t = 0
    W = weights(KollarParams(2, 2, 2, 2))
    assert (W.s1, W.s2) == (1, 1)
    assert (W.t1, W.t2) == (0, 0)


def test_verify_kollar_per_check():
    results = verify.run("kollar")
    got = [(c.name, c.passed, c.detail) for c in results]
    assert got == [
        ("kollar.s_identities", True, "625 cases"),
        ("kollar.congruences", True, "544 cases"),
        ("kollar.chain_types", True, "544 cases"),
        ("kollar.primitive_count", True, "544 of 625 tuples in [2,6]^4 have w* = 1"),
    ]
