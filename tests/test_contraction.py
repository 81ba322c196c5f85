import pytest
from fractions import Fraction

from qhpp.contraction import ContractionPlan, KClass, contract
from qhpp.hjcf import CyclicSingularity
from qhpp.lattice import BlowupStep, ChainShapeError, SurfaceModel


def blow(model, incidences, name=None):
    return model.blow_up(BlowupStep(tuple(incidences), name=name))


def tower_model():
    """A line with a three-step tower on it plus one free exceptional.

    Curves: L (-2, meets A3), A1 - A2 chain of (-2)s, A3 (-1), F (-1, free).
    """
    m = SurfaceModel.plane({"L": 1})
    m = blow(m, [("L", 1)], "A1")
    m = blow(m, [("A1", 1), ("L", 1)], "A2")
    m = blow(m, [("A2", 1), ("L", 1)], "A3")
    m = blow(m, [], "F")
    return m


def test_plan_validation():
    with pytest.raises(ValueError):
        ContractionPlan((("A", "B"), ("B",)))
    ContractionPlan((("A", "B"), ("C",)))
    # a string is one name, not a chain of one-letter curves
    with pytest.raises(TypeError, match="'L1'"):
        ContractionPlan(("L1", "M2"))
    with pytest.raises(TypeError, match="'AB'"):
        ContractionPlan(("AB",))


@pytest.mark.parametrize(
    "chains, message",
    [
        ((("A1", "A2"), ("A2", "L")), "chains share curves: ['A2']"),
        ((("A1", "A2"), ("L", "L")), "repeated curve in chain: ['L', 'L']"),
        ((("A1", "A1", "A2"),), "repeated curve in chain: ['A1', 'A1', 'A2']"),
        # a chain's own repeat first, then the chains before it, in chain order
        ((("A1", "A2"), ("L", "A2", "L")), "repeated curve in chain: ['L', 'A2', 'L']"),
        ((("A1",), ("A1",), ("L", "L")), "chains share curves: ['A1']"),
    ],
)
def test_plan_refuses_a_repeat_in_extract_chains_words(chains, message):
    m = tower_model()
    for refuse in (
        lambda: ContractionPlan(chains),
        lambda: contract(m, ContractionPlan(chains)),
        lambda: m.extract_chains(chains),
    ):
        with pytest.raises(ChainShapeError) as info:
            refuse()
        assert str(info.value) == message


def test_empty_plan_on_plane():
    m = SurfaceModel.plane({"L": 1})
    contraction = contract(m, ContractionPlan(()))
    assert contraction.singularities == ()
    assert contraction.rho == 1
    # the plane itself is classified by any curve: K is anti-ample
    report = contract(m, ContractionPlan(())).classify("L")
    assert report.k_class is KClass.ANTI_AMPLE
    assert report.k_value == Fraction(-3)


def test_contract_tower_chain():
    m = tower_model()
    contraction = contract(m, ContractionPlan((("A1", "A2"),)))
    assert contraction.rho == 1 + 4 - 2 == 3
    ((sing, chain),) = contraction.singularities
    assert chain.entries == (2, 2)
    assert sing == CyclicSingularity(3, 2)


def test_terms_hold_each_order_and_q_times_discrepancy():
    # the model of test_pullback_with_nonzero_discrepancy: L is a (-3)-curve
    m = tower_model()
    m = blow(m, [("L", 1)], "B1")
    contraction = contract(m, ContractionPlan((("A1", "A2"), ("L",))))
    # d = (0, 0) on the du Val chain of order 3, d = 1/3 on L of order 3
    assert dict(contraction.terms) == {"A1": (3, 0), "A2": (3, 0), "L": (3, 1)}
    assert contraction.rho == 1 + 5 - 3
    # A3 meets L and A2; B1 meets L; the two chains share the order 3
    assert contraction.pullback_k_dot("A3") == Fraction(-2, 3)
    assert contraction.pullback_k_dot("B1") == Fraction(-2, 3)


def test_classify_refuses_higher_rank():
    m = tower_model()
    with pytest.raises(ValueError, match="rank"):
        contract(m, ContractionPlan((("A1", "A2"),))).classify("F")


def test_chains_meeting_each_other_rejected():
    m = tower_model()
    # A1 and A2 meet, so they are not two separate components
    with pytest.raises(ValueError, match="disjoint"):
        contract(m, ContractionPlan((("A1",), ("A2",))))


def test_pullback_refuses_chains_that_meet():
    # A1 meets A2, so the plan is not a contraction and A3 has no f*(K)
    m = tower_model()
    with pytest.raises(ValueError, match="not disjoint"):
        contract(m, ContractionPlan((("A1",), ("A2",)))).pullback_k_dot("A3")


def test_pullback_for_disjoint_minus_one_curve():
    m = tower_model()
    plan = ContractionPlan((("A1", "A2"),))
    assert contract(m, plan).pullback_k_dot("F") == Fraction(-1)


def test_pullback_rejects_contracted_curve():
    m = tower_model()
    plan = ContractionPlan((("A1", "A2"),))
    with pytest.raises(ValueError):
        contract(m, plan).pullback_k_dot("A1")


def test_pullback_du_val_chain_equals_k_dot():
    # discrepancies vanish on a chain of (-2)-curves
    m = tower_model()
    plan = ContractionPlan((("A1", "A2"),))
    assert contract(m, plan).pullback_k_dot("A3") == Fraction(m.k_dot("A3"))


def test_pullback_with_nonzero_discrepancy():
    # make L a (-3)-curve: blow one more point on it, away from the tower
    m = tower_model()
    m = blow(m, [("L", 1)], "B1")
    plan = ContractionPlan((("L",),))
    # B1 meets L once; d = 1 - (1+1)/3 = 1/3, so B1.f*(K) = -1 + 1/3
    assert m.self_int("L") == -3
    assert contract(m, plan).pullback_k_dot("B1") == Fraction(-2, 3)


def test_negative_definiteness_guard():
    # contract does not check definiteness: a chain that extract_chain
    # accepts has leading minors of alternating sign, as on this one
    m = tower_model()
    contract(m, ContractionPlan((("A1", "A2"),)))
    gram = [[m.intersect(a, b) for b in ("A1", "A2")] for a in ("A1", "A2")]
    assert gram[0][0] < 0
    assert gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0] > 0


def test_classify_rank_one_two_chains():
    # deepen the tower once more: L becomes a lone (-3)-curve and the
    # A-curves a (-2)-chain of length three, with A4 the moving (-1)-curve
    m = SurfaceModel.plane({"L": 1})
    for k in range(1, 5):
        at = [("L", 1)] if k == 1 else [(f"A{k - 1}", 1), ("L", 1)]
        m = blow(m, at, f"A{k}")
    assert m.self_int("L") == -3
    assert contract(m, ContractionPlan((("A1", "A2", "A3"),))).rho == 1 + 4 - 3
    report = contract(m, ContractionPlan((("A1", "A2", "A3"), ("L",)))).classify("A4")
    assert report.rho == 1
    assert [(s.q, s.q1) for s, _ in report.singularities] == [(4, 3), (3, 1)]
    # A4 meets the du Val chain (coefficient 0) and L (coefficient 1/3)
    assert report.k_value == Fraction(-2, 3)
    assert report.k_class is KClass.ANTI_AMPLE
    record = report.to_record()
    assert record["rho"] == 1
    assert [s["q"] for s in record["singularities"]] == [4, 3]
    assert record["k_value"] == {"num": -2, "den": 3}
    assert record["singularities"][1]["chain"] == [3]
