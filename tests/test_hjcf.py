import pytest
from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import example, given, settings, strategies as st

from qhpp import verify
from qhpp.hjcf import (
    CyclicSingularity,
    HJFraction,
    bump_determinant,
    determinant,
    discrepancy_coefficients,
    evaluate,
    expand,
    expansion_length,
    make_pattern,
    normalize_type,
    order_sequences,
    partial_orders,
    pattern_determinant,
    reverse,
)
from qhpp.kollar import KollarParams


# --- independent oracles -----------------------------------------------------


def nested_value(entries):
    """Evaluate n1 - 1/(n2 - 1/(...)) by folding Fractions from the right."""
    value = Fraction(entries[-1])
    for n in reversed(entries[:-1]):
        value = n - 1 / value
    return value


def cofactor_det(matrix):
    """First-row cofactor expansion of a dense integer matrix."""
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
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


def chain_matrix(entries):
    n = len(entries)
    m = [[0] * n for _ in range(n)]
    for i, e in enumerate(entries):
        m[i][i] = e
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


chains = st.lists(st.integers(2, 9), min_size=1, max_size=7).map(
    lambda e: HJFraction(tuple(e))
)


@st.composite
def coprime_pairs(draw):
    q = draw(st.integers(2, 400))
    candidates = [x for x in range(1, q) if gcd(x, q) == 1]
    return q, draw(st.sampled_from(candidates))


# --- HJFraction --------------------------------------------------------------


def test_entries_below_two_rejected():
    with pytest.raises(ValueError):
        HJFraction((1, 2))
    with pytest.raises(ValueError):
        HJFraction((3, 0))


def test_empty_chain_allowed():
    assert len(HJFraction()) == 0
    assert determinant(HJFraction()) == 1


@given(chains)
def test_determinant_positive_and_strictly_grown(w):
    po = partial_orders(w)
    # u strictly increasing from index 1 on: each truncation grows the order
    assert all(po.u[j] < po.u[j + 1] for j in range(1, len(w) + 1))
    assert determinant(w) >= 2


# --- determinant / evaluate --------------------------------------------------


def test_determinant_examples():
    assert determinant(HJFraction()) == 1
    assert determinant(HJFraction((2, 2, 2))) == 4
    # frozen from direct evaluation 2 - 1/(3 - 1/2) = 8/5
    assert nested_value([2, 3, 2]) == Fraction(8, 5)
    assert determinant(HJFraction((2, 3, 2))) == 8
    assert nested_value([3, 2, 2]) == Fraction(7, 3)
    assert determinant(HJFraction((3, 2, 2))) == 7


@given(chains)
def test_determinant_matches_cofactor_oracle(w):
    assert determinant(w) == cofactor_det(chain_matrix(list(w.entries)))


@given(chains)
def test_determinant_is_abs_det_of_intersection_matrix(w):
    intersection = [[-x for x in row] for row in chain_matrix(list(w.entries))]
    # the intersection matrix itself has diagonal -n_j, off-diagonal +1
    for i in range(len(w)):
        for j in range(len(w)):
            if i != j:
                intersection[i][j] = -intersection[i][j]
    assert determinant(w) == abs(cofactor_det(intersection))


def test_evaluate_examples():
    assert evaluate(HJFraction((2,))) == Fraction(2, 1)
    assert evaluate(HJFraction((3, 2, 2))) == Fraction(7, 3)
    assert nested_value([2, 3, 4, 2]) == Fraction(31, 19)
    assert evaluate(HJFraction((2, 3, 4, 2))) == Fraction(31, 19)
    assert pattern_determinant(2, 3, 4, 2) == 31


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        evaluate(HJFraction())


@given(chains)
def test_evaluate_matches_nested_fraction(w):
    value = evaluate(w)
    assert value == nested_value(list(w.entries))
    assert value > 1 or w.entries == (2,)
    assert gcd(value.numerator, value.denominator) == 1
    assert value.numerator == determinant(w)


# --- partial orders ----------------------------------------------------------


def test_partial_orders_examples():
    po = partial_orders(HJFraction((3, 2, 2)))
    assert po.u == (0, 1, 3, 5, 7)
    assert po.v == (7, 3, 2, 1, 0)
    po = partial_orders(HJFraction((2,)))
    assert po.u == (0, 1, 2)
    assert po.v == (2, 1, 0)


@given(chains)
def test_partial_orders_endpoints(w):
    po = partial_orders(w)
    assert po.u[0] == 0 and po.u[1] == 1
    assert po.v[len(w)] == 1 and po.v[len(w) + 1] == 0
    assert po.u[-1] == po.v[0] == determinant(w)
    # v strictly decreasing up to index l
    assert all(po.v[j] > po.v[j + 1] for j in range(len(w)))


# --- expand ------------------------------------------------------------------


def test_expand_examples():
    assert expand(2, 1).entries == (2,)
    assert expand(7, 3).entries == (3, 2, 2)
    assert expand(31, 19).entries == (2, 3, 4, 2)


@pytest.mark.parametrize("q,q1", [(6, 3), (5, 5), (5, 0), (1, 1), (4, 2)])
def test_expand_rejects_bad_input(q, q1):
    with pytest.raises(ValueError):
        expand(q, q1)
    with pytest.raises(ValueError):
        expansion_length(q, q1)


@st.composite
def expansion_pairs(draw):
    # near q1 = q the chain is mostly twos, the runs expansion_length skips
    q = draw(st.integers(2, 5000))
    q1 = q - draw(st.integers(1, min(q - 1, 12))) if draw(st.booleans()) else q
    while q1 >= q or gcd(q, q1) != 1:
        q1 = draw(st.integers(1, q - 1))
    return q, q1


@settings(max_examples=300)
@given(expansion_pairs())
@example((2, 1))
@example((1001, 1000))
@example((31, 19))
def test_expansion_length_counts_expand(pair):
    q, q1 = pair
    assert expansion_length(q, q1) == len(expand(q, q1))


def test_expansion_length_of_a_huge_chain():
    assert expansion_length(10**4000 + 1, 10**4000) == 10**4000
    assert expansion_length(10**4000 + 1, 2) == 2


@given(coprime_pairs())
def test_expand_evaluate_roundtrip(pair):
    q, q1 = pair
    w = expand(q, q1)
    assert all(n >= 2 for n in w.entries)
    assert evaluate(w) == Fraction(q, q1)


# --- bump_determinant --------------------------------------------------------


def test_bump_examples():
    assert bump_determinant(HJFraction((2, 2, 2)), 2) == 8
    assert determinant(HJFraction((2, 3, 2))) == 8
    assert bump_determinant(HJFraction((2,)), 1) == 3
    assert bump_determinant(HJFraction((3, 2, 2)), 1) == 10
    assert determinant(HJFraction((4, 2, 2))) == 10


def test_bump_index_out_of_range():
    with pytest.raises(IndexError):
        bump_determinant(HJFraction((2, 2)), 0)
    with pytest.raises(IndexError):
        bump_determinant(HJFraction((2, 2)), 3)


@given(chains, st.data())
def test_bump_matches_direct_evaluation(w, data):
    j = data.draw(st.integers(1, len(w)))
    bumped = HJFraction(w.entries[: j - 1] + (w.entries[j - 1] + 1,) + w.entries[j:])
    assert bump_determinant(w, j) == determinant(bumped)
    assert bump_determinant(w, j) > determinant(w)


# --- patterns ----------------------------------------------------------------


def test_make_pattern_examples():
    assert make_pattern(1, 3, 4, 1).entries == (3, 4)
    assert make_pattern(2, 3, 4, 2).entries == (2, 3, 4, 2)
    assert make_pattern(5, 4, 4, 4).entries == (2, 2, 2, 2, 4, 4, 2, 2, 2)


def test_make_pattern_rejects_bad_args():
    with pytest.raises(ValueError):
        make_pattern(0, 3, 3, 1)
    with pytest.raises(ValueError):
        make_pattern(1, 1, 3, 1)
    with pytest.raises(ValueError):
        pattern_determinant(1, 3, 1, 1)


def test_pattern_determinant_examples():
    assert pattern_determinant(2, 2, 2, 2) == 5
    assert determinant(make_pattern(2, 2, 2, 2)) == 5
    assert pattern_determinant(2, 3, 4, 2) == 31


def test_pattern_determinant_du_val_row():
    # [2 x (a-1), 2, 2, 2 x (d-1)] is a string of a + d + 1 twos
    for a in range(1, 9):
        for d in range(1, 9):
            assert pattern_determinant(a, 2, 2, d) == a + d + 1


@given(st.integers(1, 6), st.integers(2, 6), st.integers(2, 6), st.integers(1, 6))
def test_pattern_closed_form(a, b, c, d):
    assert pattern_determinant(a, b, c, d) == determinant(make_pattern(a, b, c, d))


# --- reverse -----------------------------------------------------------------


def test_reverse_examples():
    assert reverse(HJFraction((3, 2, 2))).entries == (2, 2, 3)
    assert determinant(HJFraction((2, 2, 3))) == 7
    assert reverse(HJFraction()).entries == ()


@given(chains)
def test_reverse_inverts_q1(w):
    rev = reverse(w)
    assert determinant(rev) == determinant(w)
    q = determinant(w)
    assert evaluate(w).denominator * evaluate(rev).denominator % q == 1


# --- results built without the entry check ----------------------------------


def same_as_checked(w):
    """``w`` equals the chain the public constructor builds from its
    entries, and every entry is an exact int."""
    return w == HJFraction(w.entries) and all(type(n) is int for n in w.entries)


def test_expand_and_reverse_equal_checked_chains():
    for q in range(2, 301):
        for q1 in range(1, q):
            if gcd(q, q1) == 1:
                w = expand(q, q1)
                assert same_as_checked(w), (q, q1)
                assert same_as_checked(reverse(w)), (q, q1)


def test_make_pattern_equals_checked_chains():
    for a, b, c, d in product(range(1, 9), range(2, 9), range(2, 9), range(1, 9)):
        assert same_as_checked(make_pattern(a, b, c, d)), (a, b, c, d)
        assert same_as_checked(reverse(make_pattern(a, b, c, d))), (a, b, c, d)


# --- discrepancies -----------------------------------------------------------


def test_discrepancy_examples():
    assert discrepancy_coefficients(HJFraction((2,))) == (Fraction(0),)
    assert discrepancy_coefficients(HJFraction((2, 2, 2))) == (
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )
    assert discrepancy_coefficients(HJFraction((3, 2, 2))) == (
        Fraction(3, 7),
        Fraction(2, 7),
        Fraction(1, 7),
    )


def test_discrepancy_empty_rejected():
    with pytest.raises(ValueError):
        discrepancy_coefficients(HJFraction())


@given(chains)
def test_discrepancies_bounded_and_du_val(w):
    coeffs = discrepancy_coefficients(w)
    assert all(0 <= d < 1 for d in coeffs)
    assert (all(d == 0 for d in coeffs)) == all(n == 2 for n in w.entries)


# --- cyclic singularities ----------------------------------------------------


def test_normalize_type_examples():
    assert normalize_type(7, 1, 3) == CyclicSingularity(7, 3)
    sing = normalize_type(188, 63, 51)
    assert sing == CyclicSingularity(188, 153)
    assert 153 * 63 - 51 == 51 * 188
    assert normalize_type(5, 2, 2) == CyclicSingularity(5, 1)


def test_normalize_type_rejects_non_invertible():
    with pytest.raises(ValueError):
        normalize_type(6, 2, 1)
    with pytest.raises(ValueError):
        normalize_type(6, 1, 3)
    with pytest.raises(ValueError):
        normalize_type(1, 1, 1)


def test_cyclic_singularity_validation():
    with pytest.raises(ValueError):
        CyclicSingularity(4, 2)
    with pytest.raises(ValueError):
        CyclicSingularity(3, 0)
    with pytest.raises(ValueError):
        CyclicSingularity(1, 1)
    assert str(CyclicSingularity(7, 3)) == "1/7(1,3)"


@pytest.mark.parametrize("q,q1", [(1, 1), (3, 0), (3, 5), (4, 2)])
def test_cyclic_singularity_and_expand_share_one_order_check(q, q1):
    with pytest.raises(ValueError) as by_type:
        CyclicSingularity(q, q1)
    with pytest.raises(ValueError) as by_expand:
        expand(q, q1)
    assert str(by_type.value) == str(by_expand.value)


@given(coprime_pairs())
def test_singularity_chain_roundtrip(pair):
    q, q1 = pair
    sing = CyclicSingularity(q, q1)
    chain = sing.chain()
    assert CyclicSingularity.from_chain(chain) == sing
    # contract reads the type from these order sequences instead
    po = partial_orders(chain)
    assert CyclicSingularity(po.order, po.v[1]) == CyclicSingularity.from_chain(chain)
    assert sing.q1 * sing.q1_inverse() % q == 1


def test_from_chain_refuses_the_empty_chain():
    with pytest.raises(ValueError, match=r"^the empty chain has no rational value$"):
        CyclicSingularity.from_chain(HJFraction(()))


# --- single-pass kernels against list-based continuants ----------------------


def continuant_lists(entries):
    """``u[j] = |[n1..n_{j-1}]|`` and ``v[j] = |[n_{j+1}..nl]|`` for
    ``j = 0..l+1``, each built as a whole list."""
    u = [0, 1]
    for n in entries:
        u.append(n * u[-1] - u[-2])
    v = [0, 1]
    for n in reversed(entries):
        v.append(n * v[-1] - v[-2])
    return u, v[::-1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 9), max_size=40))
@example([])
@example([2])
@example([9])
@example([2, 9])
def test_single_pass_kernels_match_list_reference(entries):
    w = HJFraction(entries)
    u, v = continuant_lists(entries)
    assert order_sequences(w) == (u, v)
    q = u[-1]
    assert v[0] == q
    assert determinant(w) == q
    if not entries:
        return
    assert evaluate(w) == Fraction(q, v[1])
    for j in range(1, len(entries) + 1):  # both ends included
        bumped = entries[: j - 1] + [entries[j - 1] + 1] + entries[j:]
        assert bump_determinant(w, j) == continuant_lists(bumped)[0][-1]
    for j in (0, len(entries) + 1):
        with pytest.raises(IndexError):
            bump_determinant(w, j)
    assert discrepancy_coefficients(w) == tuple(
        1 - Fraction(u[j] + v[j], q) for j in range(1, len(entries) + 1)
    )


# --- the verify hjcf and kollar suites -------------------------------------


def test_verify_hjcf_per_check():
    results = verify.run("hjcf")
    got = [(c.name, c.passed, c.detail) for c in results]
    assert got == [
        (f"hjcf.{name}", True, f"{cases} cases")
        for name, cases in [
            ("roundtrip", 76115),
            ("determinant_oracle", 5461),
            ("bump_identity", 5461),
            ("pattern_closed_form", 3136),
            ("reversal", 5461),
            ("discrepancies", 5461),
            ("monotonicity", 5461),
        ]
    ]


def _one_more(v):
    return Fraction(v.numerator + 1, v.denominator)


@pytest.mark.parametrize(
    "function, entries, fault, check, case",
    [
        # 7/3 read back as 8/3
        ("evaluate", (3, 2, 2), _one_more, "hjcf.roundtrip", (7, 3)),
        # a coefficient of 1 is outside [0, 1)
        (
            "discrepancy_coefficients",
            (3, 2),
            lambda ds: (Fraction(1),) + ds[1:],
            "hjcf.discrepancies",
            HJFraction((3, 2)),
        ),
        # every bump of [3, 2] keeps its determinant 5
        ("bump_determinant", (3, 2), lambda b: 5, "hjcf.monotonicity", HJFraction((3, 2))),
        # the second chain of the first primitive tuple, 11/8, read as 12/8
        (
            "evaluate",
            (2, 2, 3, 2),
            _one_more,
            "kollar.chain_types",
            KollarParams(2, 2, 2, 3),
        ),
    ],
)
def test_verify_catches_one_wrong_value(monkeypatch, function, entries, fault, check, case):
    real = getattr(verify, function)

    def faulty(w, *args):
        value = real(w, *args)
        return fault(value) if w.entries == entries else value

    monkeypatch.setattr(verify, function, faulty)
    results = {c.name: c for c in verify.run(check.split(".")[0])}
    assert results[check] == verify.Check(check, False, f"first counterexample: {case!r}")
