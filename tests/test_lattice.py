import pytest

from qhpp import lattice
from qhpp.families import build
from qhpp.lattice import (
    BlowupStep,
    ChainShapeError,
    CurveClass,
    DualGraph,
    SurfaceModel,
    Tower,
)


def blow(model, incidences, name=None):
    return model.blow_up(BlowupStep(tuple(incidences), name=name))


def two_lines():
    return SurfaceModel.plane({"L1": 1, "L2": 1})


def test_plane_basics():
    m = two_lines()
    assert m.blowup_count == 0
    assert m.intersect("L1", "L2") == 1
    assert m.self_int("L1") == 1
    assert m.k_dot("L1") == -3
    assert m.genus_term("L1") == -2


def test_plane_validation():
    with pytest.raises(ValueError):
        SurfaceModel.plane({"C": 3})  # degree-3 curve cannot be smooth rational
    with pytest.raises(ValueError):
        SurfaceModel.plane({"L": 0})
    with pytest.raises(ValueError):
        SurfaceModel.plane({"L": 1}, singular=("X",))
    SurfaceModel.plane({"C": 3}, singular=("C",))


def test_plane_names_become_str():
    # an int name used to be tracked as an int that no step could name
    m = SurfaceModel.plane({5: 1, "L": 1})
    assert m.tracked == ("5", "L")
    assert blow(m, [(5, 1), ("L", 1)]).intersect("5", "E1") == 1
    assert m.blow_up(Tower(5, "L", ["P"])).meets("P") == {"5": 1, "L": 1}
    cubic = SurfaceModel.plane({3: 3, "L": 1}, singular=[3])
    assert cubic.smooth == {"L"}


def test_plane_refuses_a_str_of_singular_names():
    # a str is not read as one-letter names: "CL" used to exempt C and L
    for degrees in ({"C": 3, "L": 3}, {"CL": 3}):
        with pytest.raises(
            TypeError, match="^singular is a sequence of curve names, got 'CL'$"
        ):
            SurfaceModel.plane(degrees, singular="CL")
    assert SurfaceModel.plane({"CL": 3}, singular=["CL"]).smooth == frozenset()


def test_plane_refuses_names_equal_as_str():
    with pytest.raises(ValueError, match="collide as str"):
        SurfaceModel.plane({5: 1, "5": 1})


def test_no_constructor_from_dense_classes():
    # plane and blow_up are the only ways to make a model
    with pytest.raises(TypeError):
        SurfaceModel(1, {"L": CurveClass(1, (1,)), "E1": CurveClass(0, (-1,))})


def test_blow_up_point_on_line():
    m = blow(SurfaceModel.plane({"L": 1}), [("L", 1)], "E1")
    assert m.blowup_count == 1
    assert m.self_int("L") == 0
    assert m.self_int("E1") == -1
    assert m.intersect("L", "E1") == 1
    assert m.k_dot("E1") == -1


def test_blow_up_separates_two_lines():
    m = blow(two_lines(), [("L1", 1), ("L2", 1)])
    assert m.intersect("L1", "L2") == 0
    assert m.intersect("L1", "E1") == 1
    assert m.intersect("L2", "E1") == 1


def test_nodal_cubic_resolution():
    m = SurfaceModel.plane({"C": 3}, singular=("C",))
    assert m.genus_term("C") == 0
    m = blow(m, [("C", 2)], "N")
    assert m.self_int("C") == 5
    assert m.genus_term("C") == -2
    assert m.intersect("C", "N") == 2
    m = m.declare_smooth("C")
    assert "C" in m.smooth


def test_singular_curve_exempt_from_genus_guard_until_declared_smooth():
    m = SurfaceModel.plane({"C": 3}, singular=("C",))
    m = blow(m, [("C", 2)], "N")
    assert m.genus_term("C") == -2
    # still exempt, so a second double point is accepted
    assert blow(m, [("C", 2)], "N2").genus_term("C") == -4
    declared = m.declare_smooth("C")
    with pytest.raises(ValueError, match="smooth curve 'C'"):
        blow(declared, [("C", 2)], "N2")


def test_smooth_is_tracked_minus_undeclared_singular():
    m = SurfaceModel.plane({"C": 3, "L": 1}, singular=("C",))
    assert m.smooth == {"L"}
    m = blow(m, [("C", 2), ("L", 1)], "N")
    assert m.smooth == {"L", "N"}
    assert m.declare_smooth("C").smooth == frozenset(m.tracked) == {"C", "L", "N"}
    hand = SurfaceModel.plane({"A": 1, "B": 1}, singular=("A",))
    assert hand.tracked == ("A", "B")
    assert hand.smooth == {"B"}
    assert blow(hand, [("A", 2)], "N").genus_term("A") == -4
    with pytest.raises(ValueError, match="smooth curve 'B'"):
        blow(hand, [("B", 2)], "N")


def test_declare_smooth_rejects_wrong_genus():
    m = SurfaceModel.plane({"C": 3}, singular=("C",))
    with pytest.raises(ValueError):
        m.declare_smooth("C")


def test_over_assignment_rejected():
    m = blow(two_lines(), [("L1", 1), ("L2", 1)])
    # the lines are already separated; a second shared point is impossible
    with pytest.raises(ValueError):
        blow(m, [("L1", 1), ("L2", 1)])


def test_multiplicity_two_on_smooth_curve_rejected():
    with pytest.raises(ValueError):
        blow(SurfaceModel.plane({"L": 1}), [("L", 2)])


def test_step_validation():
    m = two_lines()
    with pytest.raises(ValueError):
        BlowupStep((("L1", 0),))
    with pytest.raises(ValueError):
        BlowupStep((("L1", 1), ("L1", 1)))
    with pytest.raises(KeyError):
        blow(m, [("nope", 1)])
    m2 = blow(m, [("L1", 1)], "X")
    with pytest.raises(ValueError):
        blow(m2, [("L2", 1)], "X")  # name collision


def test_tower_steps_equal_checked_steps():
    plane = SurfaceModel.plane({"A": 1, "L": 1})
    steps = (
        BlowupStep((("A", 1), ("L", 1)), name="B"),
        BlowupStep((("B", 1), ("L", 1)), name="C"),
        BlowupStep((("C", 1), ("L", 1)), name="D"),
    )
    model = plane.blow_up(Tower("A", "L", ["B", "C", "D"]))
    want = plane.blow_up(*steps)
    assert model.tracked == want.tracked == ("A", "L", "B", "C", "D")
    assert model.blowup_count == 3
    for nm in want.tracked:
        assert model.curve(nm) == want.curve(nm)
        assert dict(model.meets(nm)) == dict(want.meets(nm))
    assert [model.self_int(nm) for nm in "ALBCD"] == [0, -2, -2, -2, -1]
    # an empty tower is a no-op, even at curves the model lacks
    assert plane.blow_up(Tower("X", "Y")).tracked == plane.tracked
    # names become str, as in the public constructor
    assert Tower("A", "L", [7]) == Tower("A", "L", ("7",))
    assert plane.blow_up(Tower("A", "L", [7])).curve("7") == CurveClass(0, (-1,))


@pytest.mark.parametrize("self_int", [-3, -1])
def test_a_run_curve_has_one_self_intersection(monkeypatch, self_int):
    # the run's class attribute is the one definition of a run curve's
    # C.C: every chain through run curves and the dual graph read it
    model = SurfaceModel.plane({"A": 1, "L": 1}).blow_up(
        Tower("A", "L", ["B", "C", "D", "E"])
    )
    monkeypatch.setattr(lattice._Run, "self_int", self_int)
    chains = (["B", "C", "D"], ["D", "C", "B"], ["C"], ["B"], ["D", "C"])
    for names in chains:
        vertices = model.dual_graph(names).vertices
        assert vertices == tuple((nm, self_int) for nm in names)
        if self_int < -1:
            entries = model.extract_chain(names).entries
            assert entries == tuple(-s for _, s in vertices)
        else:
            with pytest.raises(ChainShapeError, match=r"self-intersection -1 > -2"):
                model.extract_chain(names)


def test_tower_refuses_one_str_of_names():
    # a str is one name, not a tower of one-character curves
    with pytest.raises(TypeError, match="'E1'"):
        Tower("A", "L", "E1")
    with pytest.raises(TypeError, match="'B'"):
        Tower("A", "L", "B")


def test_step_name_becomes_str():
    # a later step names the curve by its str, as incidences and towers do
    step = BlowupStep((("A", 1), ("L", 1)), name=5)
    assert step == BlowupStep((("A", 1), ("L", 1)), name="5")
    model = SurfaceModel.plane({"A": 1, "L": 1}).blow_up(step)
    assert model.tracked == ("A", "L", "5")
    model = model.blow_up(BlowupStep((("5", 1),), name=6), Tower(6, "5", [7]))
    assert model.tracked == ("A", "L", "5", "6", "7")
    assert [model.self_int(nm) for nm in ("5", "6", "7")] == [-3, -2, -1]


def test_tower_refuses_a_curve_named_twice():
    with pytest.raises(ValueError):
        Tower("L", "L", ["B"])
    with pytest.raises(ValueError):
        Tower("A", "L", ["B", "L", "C"])
    with pytest.raises(ValueError):
        Tower("A", "L", ["L"])
    plane = SurfaceModel.plane({"A": 1, "L": 1})
    with pytest.raises(ValueError, match="curve name 'B' is already tracked"):
        plane.blow_up(Tower("A", "L", ["B", "C", "B"]))
    with pytest.raises(ValueError, match="curve name 'A' is already tracked"):
        plane.blow_up(Tower("A", "L", ["B", "A"]))


def test_tower_refusals_come_in_step_order():
    # A and L stop meeting once their common point is blown up
    model = SurfaceModel.plane({"A": 1, "L": 1}).blow_up(
        BlowupStep((("A", 1), ("L", 1)), "P")
    )
    refusals = [
        (Tower("A", "X", ["P"]), KeyError, "unknown curves in incidences: ['X']"),
        (Tower("A", "L", ["P"]), ValueError, "curve name 'P' is already tracked"),
        (
            Tower("A", "L", ["Q", "P"]),
            ValueError,
            "over-assigned incidences: 'A'.'L' = -1 after blowing up 'Q'",
        ),
        (Tower("P", "L", ["Q", "A"]), ValueError, "curve name 'A' is already tracked"),
    ]
    for tower, kind, message in refusals:
        with pytest.raises(kind) as info:
            model.blow_up(tower)
        assert message in str(info.value)
    assert model.tracked == ("A", "L", "P") and model.self_int("L") == 0


def test_meets_is_a_read_only_view():
    m = blow(two_lines(), [("L1", 1)], "X")
    view = m.meets("L1")
    assert dict(view) == {"L2": 1, "X": 1}
    with pytest.raises(TypeError):
        view["L2"] = 5
    assert m.intersect("L1", "L2") == 1
    with pytest.raises(KeyError):
        m.meets("nope")


def test_default_exceptional_names():
    m = blow(blow(two_lines(), [("L1", 1)]), [("L2", 1)])
    assert set(m.tracked) == {"L1", "L2", "E1", "E2"}


def test_rank_bookkeeping_and_exceptional_shape():
    m = two_lines()
    for k in range(4):
        before = m
        m = blow(m, [] if k % 2 else [("L1", 1)])
        assert m.blowup_count == before.blowup_count + 1
        new = f"E{m.blowup_count}"
        assert m.self_int(new) == -1
        assert m.genus_term(new) == -2


def test_intersection_form_symmetric():
    m = blow(blow(two_lines(), [("L1", 1), ("L2", 1)]), [("L1", 1), ("E1", 1)])
    names = sorted(m.tracked)
    for a in names:
        for b in names:
            assert m.intersect(a, b) == m.intersect(b, a)


def test_dot_length_mismatch_rejected():
    with pytest.raises(ValueError):
        CurveClass(1, (1,)).dot(CurveClass(1, ()))


def chain_model():
    # a line with a tower of three infinitely near points on it
    m = SurfaceModel.plane({"L": 1})
    m = blow(m, [("L", 1)], "A1")
    m = blow(m, [("A1", 1), ("L", 1)], "A2")
    m = blow(m, [("A2", 1), ("L", 1)], "A3")
    return m


def test_extract_chain_basics():
    m = chain_model()
    assert m.extract_chain(["A1", "A2"]).entries == (2, 2)
    single = blow(blow(two_lines(), [("L1", 1)], "A"), [("A", 1)], "B")
    assert single.extract_chain(["A"]).entries == (2,)


def test_extract_chain_shape_errors():
    m = chain_model()
    with pytest.raises(ChainShapeError):
        m.extract_chain(["A1", "A3"])  # gap: A1 and A3 do not meet
    with pytest.raises(ChainShapeError):
        m.extract_chain(["A3", "A1"])
    with pytest.raises(ChainShapeError):
        m.extract_chain(["A1", "A2", "A3"])  # A3 is a (-1)-curve
    with pytest.raises(ChainShapeError):
        m.extract_chain([])
    with pytest.raises(ChainShapeError):
        m.extract_chain(["A1", "A1"])
    # L is a (-2)-curve here but meets only A3, so (L, A1) is disconnected
    with pytest.raises(ChainShapeError):
        m.extract_chain(["L", "A1"])


def test_a_str_chain_is_refused_at_its_turn():
    # C, A and B are one-letter names, so "CA" would read as the chain [C, A]
    m = SurfaceModel.plane({"C": 1})
    m = blow(m, [("C", 1)], "A")
    m = blow(m, [("A", 1), ("C", 1)], "B")
    m = blow(m, [("B", 1), ("C", 1)], "D")
    assert m.extract_chain(["A", "B"]).entries == (2, 2)
    for chain in ("CA", "AB", "L1"):
        with pytest.raises(
            TypeError, match=f"^a chain is a sequence of curve names, got '{chain}'$"
        ):
            m.extract_chain(chain)
    # the refusals keep their chain-by-chain order
    with pytest.raises(ChainShapeError, match="^empty chain$"):
        m.extract_chains(([], "AB"))
    with pytest.raises(TypeError):
        m.extract_chains((["A", "B"], "AB"))
    with pytest.raises(TypeError):
        m.extract_chains(("AB", []))


def test_dual_graph_refuses_a_str():
    m = two_lines()
    with pytest.raises(
        TypeError, match="^names are a sequence of curve names, got 'L1'$"
    ):
        m.dual_graph("L1")
    assert m.dual_graph(["L1"]).vertices == (("L1", 1),)


def test_dual_graph_single_vertex():
    m = two_lines()
    g = m.dual_graph(["L1"])
    assert g.vertices == (("L1", 1),)
    assert g.edges == ()


def test_dual_graph_text_and_dot():
    m = chain_model()
    g = m.dual_graph(["A1", "A2", "A3", "L"])
    text = g.to_text()
    assert "A1 -2" in text.splitlines()
    assert "A1 A2 1" in text.splitlines()
    dot = g.to_dot()
    assert dot.startswith("graph dual {")
    assert '"A1" -- "A2";' in dot
    # weighted edges carry a label
    m2 = blow(SurfaceModel.plane({"C": 3}, singular=("C",)), [("C", 2)], "N")
    dot2 = m2.dual_graph().to_dot()
    assert '"C" -- "N" [label="2"];' in dot2


def test_dual_graph_isomorphism():
    m = chain_model()
    g = m.dual_graph(["A1", "A2", "A3"])
    relabeled = DualGraph(
        (("x", -2), ("y", -1), ("z", -2)),
        (("z", "y", 1), ("x", "z", 1)),
    )
    assert g.is_isomorphic_to(relabeled)
    assert relabeled.is_isomorphic_to(g)
    wrong_label = DualGraph(
        (("x", -2), ("y", -2), ("z", -2)),
        (("x", "z", 1), ("z", "y", 1)),
    )
    assert not g.is_isomorphic_to(wrong_label)
    # path (-2, -2, -1, -2) versus a star with the same labels and size
    path = m.dual_graph(["A1", "A2", "A3", "L"])
    star = DualGraph(
        (("x", -2), ("y", -2), ("z", -2), ("c", -1)),
        (("c", "x", 1), ("c", "y", 1), ("c", "z", 1)),
    )
    assert not path.is_isomorphic_to(star)
    assert not star.is_isomorphic_to(path)
    # a vertex more, or the same vertices with an edge less
    assert not g.is_isomorphic_to(path) and not path.is_isomorphic_to(g)
    cut = DualGraph(relabeled.vertices, relabeled.edges[:1])
    assert not g.is_isomorphic_to(cut) and not cut.is_isomorphic_to(g)


def test_surface_model_refuses_assignment():
    m = two_lines()
    message = "^cannot assign to 'blowup_count': SurfaceModel is immutable$"
    with pytest.raises(AttributeError, match=message):
        m.blowup_count = 3
    assert m.blowup_count == 0


def test_dual_graph_reads_rows_not_pairs(monkeypatch):
    # hundreds of curves: the graph comes from the sparse rows, with the
    # vertex order given and edges sorted by the position of their ends
    m = build("S3", (300,)).model
    assert len(m.tracked) > 300

    def pairwise(names):
        vertices = tuple((nm, m.self_int(nm)) for nm in names)
        edges = tuple(
            (a, b, m.intersect(a, b))
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if m.intersect(a, b) > 0
        )
        return DualGraph(vertices, edges)

    names = list(reversed(m.tracked))
    want = pairwise(sorted(m.tracked)), pairwise(names)

    def no_intersect(*args):
        raise AssertionError("intersect called")

    monkeypatch.setattr(SurfaceModel, "intersect", no_intersect)
    assert (m.dual_graph(), m.dual_graph(names)) == want


def test_unknown_names_raise():
    m = two_lines()
    with pytest.raises(KeyError):
        m.intersect("L1", "nope")
    with pytest.raises(KeyError):
        m.dual_graph(["nope"])
