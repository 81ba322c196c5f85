from fractions import Fraction
from itertools import product

import pytest

from qhpp import families, verify

from qhpp.contraction import ContractionPlan, KClass, contract
from qhpp.families import (
    FAMILIES,
    MAX_PARAM_SUM,
    BuildCheckError,
    FamilyBuild,
    build,
    build_S1,
    build_S1_variant,
    build_S3,
    build_S3_variant,
    build_T,
)
from qhpp.hjcf import (
    HJFraction,
    determinant,
    discrepancy_coefficients,
    expand,
    make_pattern,
    pattern_determinant,
    reverse,
)
from qhpp.kollar import KollarParams, singularity_types, weights
from qhpp.lattice import BlowupStep, CurveClass, SurfaceModel, Tower


def sign(x):
    return (x > 0) - (x < 0)


# --- T -----------------------------------------------------------------------


def test_T_validation():
    with pytest.raises(ValueError):
        build_T(1, 2, 2, 2)


def test_T_2222_configuration():
    fb = build_T(2, 2, 2, 2)
    m = fb.model
    assert m.blowup_count == 8
    assert len(m.tracked) == 12
    whites = [nm for nm in m.tracked if m.self_int(nm) == -2]
    blacks = [nm for nm in m.tracked if m.self_int(nm) == -1]
    assert len(whites) == 8 and len(blacks) == 4
    # each (-1)-curve meets its line and one chain end
    for k in (1, 2, 3, 4):
        assert m.intersect(f"E{k}", f"L{k}") == 1
        assert m.intersect(f"E{k}", f"D{k}") == 1
    # the two chains are the four-vertex paths
    assert fb.model.extract_chain(["D4", "L3", "L1", "D2"]).entries == (2, 2, 2, 2)
    assert fb.model.extract_chain(["D3", "L2", "L4", "D1"]).entries == (2, 2, 2, 2)


def test_T_chains_follow_patterns():
    for a in [(2, 3, 4, 5), (5, 4, 3, 2), (2, 2, 6, 2), (3, 3, 3, 3)]:
        fb = build_T(*a)
        a1, a2, a3, a4 = a
        got = [fb.model.extract_chain(c) for c in fb.plan.chains]
        assert got[0] == make_pattern(a4, a3, a1, a2)
        assert got[1] == make_pattern(a3, a2, a4, a1)
    assert list(build_T(2, 3, 2, 4).model.tracked) == [
        "L1", "L2", "L3", "L4", "D1", "E1", "D2", "E2_0", "E2",
        "D3", "E3", "D4", "E4_0", "E4_1", "E4",
    ]  # fmt: skip


def test_T_classifications():
    assert build_T(3, 3, 3, 3).classify().k_class is KClass.NUMERICALLY_TRIVIAL
    assert build_T(4, 3, 3, 3).classify().k_class is KClass.AMPLE
    assert build_T(2, 2, 5, 7).classify().k_class is KClass.AMPLE
    assert build_T(2, 2, 5, 6).classify().k_class is not KClass.AMPLE
    assert build_T(2, 4, 2, 9).classify().k_class is KClass.ANTI_AMPLE


def test_T_matches_weight_system_types():
    for a in [(4, 4, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6), (6, 5, 3, 2)]:
        p = KollarParams(*a)
        if weights(p).wstar != 1:
            continue
        (k1, _), (k2, _) = singularity_types(p)
        (t1, _), (t2, _) = build_T(*a).classify().singularities
        assert (t1.q, t2.q) == (k1.q, k2.q)
        assert t1.q1 in (k1.q1, k1.q1_inverse())
        assert t2.q1 in (k2.q1, k2.q1_inverse())


def test_T_closed_form_spot():
    fb = build_T(4, 3, 3, 3)
    value = fb.classify().k_value
    num = (3 * 3 * 3 - 9 + 3 - 1) * ((3) * (2) * (2) * (2) - 12 - 9 + 2)
    den = pattern_determinant(3, 3, 4, 3) * pattern_determinant(3, 3, 3, 4)
    assert value == Fraction(num, den) == Fraction(100, 3111)


# --- S1 ----------------------------------------------------------------------


def test_S1_validation():
    with pytest.raises(ValueError):
        build_S1(1)
    with pytest.raises(ValueError):
        build_S1_variant(2, 1, "Pp")
    with pytest.raises(ValueError):
        build_S1_variant(2, 2, "nope")


def test_S1_counts_and_chain():
    for b in (2, 3, 5):
        fb = build_S1(b)
        assert fb.model.blowup_count == b + 8
        assert sum(len(c) for c in fb.plan.chains) == b + 8
        want = (3, b) + (2,) * 7 + (3,) + (2,) * (b - 2)
        assert fb.model.extract_chain(fb.plan.chains[0]).entries == want


def test_S1_b2():
    rep = build_S1(2).classify()
    assert rep.k_class is KClass.NUMERICALLY_TRIVIAL
    ((sing, chain),) = rep.singularities
    assert sing.q == 40
    assert chain.entries == (3, 2, 2, 2, 2, 2, 2, 2, 2, 3)


def test_S1_b3():
    rep = build_S1(3).classify()
    assert rep.k_class is KClass.AMPLE
    assert rep.k_value == Fraction(18, 139)
    ((sing, _),) = rep.singularities
    assert (sing.q, sing.q1) == (139, 55)


def test_S1_formulas_sweep():
    for b in range(2, 10):
        rep = build_S1(b).classify()
        q = 27 * b * b - 36 * b + 4
        ((sing, _),) = rep.singularities
        assert sing.q == q
        q1 = 9 * b * b - 9 * b + 1
        assert sing.q1 in (q1 % q, pow(q1, -1, q))
        assert rep.k_value == Fraction(18 * (b - 2), q)


def test_S1_variant_chains():
    fb = build_S1_variant(2, 2, "Pp")
    assert fb.expected_chains[0].entries == (3, 2, 2, 2, 2, 2, 2, 2, 2, 3)
    assert fb.expected_chains[0] == build_S1(2).expected_chains[0]
    fb = build_S1_variant(4, 5, "Pp")
    assert fb.expected_chains[0].entries == (
        (2,) * 3 + (3, 4, 2, 2, 5, 2, 2, 2, 2, 3) + (2,) * 2
    )
    fb = build_S1_variant(4, 5, "Ppp")
    assert fb.expected_chains[0].entries == (
        (2,) * 3 + (3, 4, 2, 2, 2, 2, 2, 5, 2, 3) + (2,) * 2
    )


def test_S1_variant_classifications():
    assert build_S1_variant(5, 5, "Pp").classify().k_class is KClass.AMPLE
    assert build_S1_variant(5, 5, "Ppp").classify().k_class is KClass.AMPLE
    for which in ("Pp", "Ppp"):
        for b, c in product(range(2, 6), range(2, 6)):
            rep = build_S1_variant(b, c, which).classify()
            assert rep.rho == 1
            assert len(rep.singularities) == 1
            assert determinant(rep.singularities[0][1]) == rep.singularities[0][0].q


# --- S3 ----------------------------------------------------------------------


def test_S3_counts_and_chains():
    for b in (2, 3, 7):
        fb = build_S3(b)
        assert fb.model.blowup_count == b + 7
        assert sum(len(c) for c in fb.plan.chains) == b + 7
        got = [fb.model.extract_chain(c).entries for c in fb.plan.chains]
        assert got[0] == (2,)
        assert got[1] == (3, 2, 2)
        assert got[2] == (2, 2, b) + (2,) * b


def test_S3_spot_values():
    rep = build_S3(2).classify()
    assert rep.k_class is KClass.ANTI_AMPLE
    types = [(s.q, s.q1) for s, _ in rep.singularities]
    assert types == [(2, 1), (7, 3), (6, 5)]
    assert build_S3(5).classify().k_class is KClass.NUMERICALLY_TRIVIAL
    rep6 = build_S3(6).classify()
    assert rep6.k_class is KClass.AMPLE
    assert rep6.k_value == Fraction(1, 47)
    assert build_S3(4).classify().k_value == Fraction(-1, 19)


def test_S3_formulas_sweep():
    for b in range(2, 10):
        rep = build_S3(b).classify()
        q = 3 * b * b - 2 * b - 2
        big = rep.singularities[2][0]
        assert big.q == q
        q1 = 2 * b * b - b - 1
        assert big.q1 in (q1 % q, pow(q1, -1, q))
        assert rep.k_value == Fraction(2 * (b - 5), q)
        want = (
            KClass.ANTI_AMPLE
            if b < 5
            else KClass.NUMERICALLY_TRIVIAL if b == 5 else KClass.AMPLE
        )
        assert rep.k_class is want


def test_S3_variant_chains():
    fb = build_S3_variant(3, 2, "V")
    got = [fb.model.extract_chain(c).entries for c in fb.plan.chains]
    assert got[0] == (2,)
    assert got[1] == (2, 2, 3, 2, 2)
    assert got[2] == (2, 4, 3, 2, 2, 2)
    fb = build_S3_variant(3, 2, "Y")
    got = [fb.model.extract_chain(c).entries for c in fb.plan.chains]
    assert got[0] == (2, 2, 3, 2, 2, 2, 2)
    assert got[1] == (2, 4, 4, 2, 2, 2)


def test_S3_variant_counts():
    assert len(build_S3_variant(2, 1, "V").plan.chains) == 3
    assert len(build_S3_variant(2, 1, "Y").plan.chains) == 2
    for b in range(2, 5):
        base = build_S3(b)
        degenerate = build_S3_variant(b, 0, "V")
        assert degenerate.expected_chains == base.expected_chains
    assert build_S3_variant(5, 5, "Y").classify().k_class is KClass.AMPLE
    assert build_S3_variant(8, 8, "V").classify().k_class is KClass.AMPLE
    with pytest.raises(ValueError):
        build_S3_variant(2, -1, "V")
    with pytest.raises(ValueError):
        build_S3_variant(2, 0, "X")


# --- shared properties ---------------------------------------------------------


def all_sample_builds():
    yield build_T(2, 2, 2, 2)
    yield build_T(3, 4, 2, 5)
    yield build_S1(4)
    yield build_S1_variant(3, 4, "Pp")
    yield build_S1_variant(3, 4, "Ppp")
    yield build_S3(4)
    yield build_S3_variant(3, 2, "V")
    yield build_S3_variant(3, 2, "Y")


def test_genus_identity_everywhere():
    for fb in all_sample_builds():
        for nm in fb.model.tracked:
            assert fb.model.genus_term(nm) == -2, (fb.family, fb.params, nm)


def test_rank_accounting():
    for fb in all_sample_builds():
        contracted = sum(len(c) for c in fb.plan.chains)
        assert 1 + fb.model.blowup_count - contracted == 1


def test_sign_independent_of_test_curve():
    for fb in all_sample_builds():
        contraction = contract(fb.model, fb.plan)
        values = [contraction.pullback_k_dot(nm) for nm in fb.non_contracted_curves()]
        assert len({sign(v) for v in values}) == 1, (fb.family, fb.params)
        assert fb.test_curve in fb.non_contracted_curves()


def test_build_dispatcher():
    assert build("T", (2, 2, 2, 2)).family == "T"
    assert build("S1-Pp", (3, 3)).family == "S1-Pp"
    assert build("V", (2, 0)).family == "V"
    with pytest.raises(ValueError):
        build("nope", (2,))
    with pytest.raises(ValueError):
        build("S1", (2, 3))
    assert set(FAMILIES) == {"T", "S1", "S1-Pp", "S1-Ppp", "S3", "V", "Y"}


def test_shared_bases_are_built_once_and_never_change():
    bases = (families._s1_base, families._s3_base)
    for base in bases:
        assert base() is base()
    before = [(base().dual_graph().to_text(), base().tracked) for base in bases]
    for family, params, base in [
        ("S3", (5,), families._s3_base),
        ("V", (3, 2), families._s3_base),
        ("Y", (3, 2), families._s3_base),
        ("S1-Pp", (3, 3), families._s1_base),
        ("S1-Ppp", (3, 3), families._s1_base),
    ]:
        tracked = build(family, params).model.tracked
        assert tracked[: len(base().tracked)] == base().tracked
    assert [(base().dual_graph().to_text(), base().tracked) for base in bases] == before


def test_members_blow_up_only_towers_after_the_cached_base(monkeypatch):
    families._s1_base()
    families._s3_base()
    calls = []
    blow_up = SurfaceModel.blow_up

    def record(self, *steps):
        calls.append(steps)
        return blow_up(self, *steps)

    monkeypatch.setattr(SurfaceModel, "blow_up", record)
    for family, spec in FAMILIES.items():
        calls.clear()
        build(family, [lo + 2 for lo in spec.least])
        assert len(calls) == 1, family
        assert all(type(step) is Tower for step in calls[0]), family


def test_self_check_raises_build_check_error():
    fb = build_S3(4)
    wrong = fb.expected_chains[:2] + (HJFraction((2, 2, 5)),)
    with pytest.raises(BuildCheckError, match="extracted"):
        FamilyBuild(fb.family, fb.params, fb.model, fb.plan, fb.test_curve, wrong)
    with pytest.raises(BuildCheckError, match="3 chains, expected 2"):
        FamilyBuild(
            fb.family, fb.params, fb.model, fb.plan, fb.test_curve, wrong[:2]
        )
    meeting = ContractionPlan((("L1",), ("M1",)))
    with pytest.raises(BuildCheckError, match="not disjoint"):
        FamilyBuild(fb.family, fb.params, fb.model, meeting, fb.test_curve, wrong[:2])


def test_self_check_refuses_a_plan_short_of_rank_one():
    # S3(6) without its lone (-2)-curve V1 and its [2] template
    fb = build_S3(6)
    plan = ContractionPlan(fb.plan.chains[1:])
    with pytest.raises(BuildCheckError, match=r"^S3\(6,\): rho = 2, not 1$"):
        FamilyBuild(
            fb.family, fb.params, fb.model, plan, fb.test_curve, fb.expected_chains[1:]
        )


def test_templates_are_written_in_the_plan_orientation():
    # the check compares each extracted chain with its template as written
    fb = build_S3(4)
    backwards = fb.expected_chains[:2] + (reverse(fb.expected_chains[2]),)
    with pytest.raises(BuildCheckError, match="extracted"):
        FamilyBuild(fb.family, fb.params, fb.model, fb.plan, fb.test_curve, backwards)


# two members of each of the seven families
MEMBERS = [
    ("T", (2, 2, 2, 2)),
    ("T", (5, 3, 7, 4)),
    ("S1", (2,)),
    ("S1", (9,)),
    ("S1-Pp", (2, 2)),
    ("S1-Pp", (6, 5)),
    ("S1-Ppp", (2, 2)),
    ("S1-Ppp", (5, 7)),
    ("S3", (2,)),
    ("S3", (11,)),
    ("V", (2, 0)),
    ("V", (7, 4)),
    ("Y", (2, 0)),
    ("Y", (6, 5)),
]


@pytest.mark.parametrize("family, params", MEMBERS)
def test_reused_contraction_matches_public_path(family, params):
    # E . f*(K) = E.K + sum d_C (E.C) on dense classes, with d_C from the
    # chains read off the dense self-intersections
    fb = build(family, params)
    m = fb.model
    curves = {nm: m.curve(nm) for nm in m.tracked}
    coeff = {}
    for chain in fb.plan.chains:
        entries = tuple(-curves[nm].dot(curves[nm]) for nm in chain)
        coeff.update(zip(chain, discrepancy_coefficients(HJFraction(entries))))

    def reference(name):
        e = curves[name]
        return e.dot(m.canonical) + sum(
            d * e.dot(curves[nm]) for nm, d in coeff.items()
        )

    for nm in fb.non_contracted_curves():
        assert fb.contraction.pullback_k_dot(nm) == reference(nm)
    assert fb.classify().k_value == reference(fb.test_curve)
    with pytest.raises(ValueError, match="contracted"):
        fb.contraction.pullback_k_dot(fb.plan.chains[0][0])


def test_integer_pullback_matches_fraction_route():
    # E . f*(K) = E.K + sum d_C (E.C), one Fraction per contracted curve
    assert {family for family, _ in MEMBERS} == set(FAMILIES)
    for family, params in MEMBERS:
        fb = build(family, params)
        m = fb.model
        coeff = {}
        for chain, (_, w) in zip(fb.plan.chains, fb.contraction.singularities):
            coeff.update(zip(chain, discrepancy_coefficients(w)))
        for nm in fb.non_contracted_curves():
            want = m.k_dot(nm) + sum(
                coeff[c] * hits for c, hits in m.meets(nm).items() if c in coeff
            )
            got = fb.contraction.pullback_k_dot(nm)
            assert type(got) is Fraction and got == want, (family, params, nm)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build("S3", (5.9,)),
        lambda: HJFraction((2.9, 3.5)),
        lambda: CurveClass(1, (1.5,)),
        lambda: BlowupStep((("L", 1.5),)),
        lambda: expand(7.0, 3.0),
        lambda: make_pattern(1, 2.5, 3, 1),
        lambda: SurfaceModel.plane({"L": 1.5}),
        lambda: CurveClass(1.5, (1,)),
        lambda: pattern_determinant(2.5, 3, 3, 2),
        lambda: KollarParams(2.5, 3, 3, 3),
    ],
    ids=[
        "build",
        "HJFraction",
        "CurveClass",
        "BlowupStep",
        "expand",
        "make_pattern",
        "plane",
        "CurveClass_degree",
        "pattern_determinant",
        "KollarParams",
    ],
)
def test_non_integers_are_refused_not_truncated(make):
    with pytest.raises(TypeError):
        make()


def test_size_guard_refuses_before_any_blow_up(monkeypatch):
    def no_blow_up(*args):
        raise AssertionError("blow_up called")

    monkeypatch.setattr(SurfaceModel, "blow_up", no_blow_up)
    with pytest.raises(ValueError, match="the limit is 2000"):
        build("S3", (MAX_PARAM_SUM + 1,))
    with pytest.raises(ValueError, match="sum to 2001"):
        build("T", (500, 500, 500, 501))
    with pytest.raises(ValueError, match="sum to 2001"):
        build("V", (2001, 0))
    assert MAX_PARAM_SUM == 2000
    # the public builders go through the same check
    for call in (
        lambda: build_T(2, 2, 2, 1995),
        lambda: build_S1(2001),
        lambda: build_S1_variant(1000, 1001, "Ppp"),
        lambda: build_S3(2001),
        lambda: build_S3_variant(2001, 0, "Y"),
    ):
        with pytest.raises(ValueError, match="the limit is 2000"):
            call()


@pytest.mark.parametrize(
    "family, index",
    [(f, i) for f, spec in FAMILIES.items() for i in range(len(spec.names))],
)
def test_each_least_value_is_checked_before_any_blow_up(monkeypatch, family, index):
    def no_blow_up(*args):
        raise AssertionError("blow_up called")

    monkeypatch.setattr(SurfaceModel, "blow_up", no_blow_up)
    spec = FAMILIES[family]
    params = list(spec.least)
    params[index] -= 1
    name = spec.names[index]
    with pytest.raises(ValueError, match=f"^{name} must be >= {spec.least[index]}, "):
        build(family, params)


def test_verify_families_per_check():
    results = verify.run("families")
    got = [(c.name, c.passed, c.detail) for c in results]
    assert got == [
        (f"families.{name}", True, f"{cases} cases")
        for name, cases in [
            ("T_sweep", 625),
            ("T_adjacent_22", 121),
            ("T_opposite_22", 121),
            ("S1_sweep", 11),
            ("S3_sweep", 11),
            ("S1_variants", 98),
            ("S3_variants", 126),
        ]
    ]

