"""The sparse intersection table of SurfaceModel against a dense reference.

Random blow-up scripts on three lines, a conic and a nodal cubic are
replayed on dense classes ``(d, [m_1, ..., m_n])`` with
``C.D = d d' - sum(m m')``; every number the model reports must match, and
a step must be refused exactly when the reference finds a negative pairing
or a smooth curve with ``C.C + C.K < -2``.  A whole script passed to one
``blow_up`` call must give the same table as one call per step, or the same
error at the same step, and a ``Tower`` must give the same table as its
steps written out, or the same error.  ``contract`` must give what a
reference reading pairwise intersection numbers gives for plans of several
chains, or the same refusal.  Scripts that mix steps and towers, with later
steps and towers through the curves of earlier towers, must give the table
of their towers written out as steps, and plans over those curves the
reference's result or refusal.
"""

from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhpp.contraction import ContractionPlan, contract
from qhpp.lattice import (
    BlowupStep,
    ChainShapeError,
    CurveClass,
    SurfaceModel,
    Tower,
)

PLANE = {"L1": 1, "L2": 1, "L3": 1, "Q": 2, "C": 3}
SINGULAR = {"C"}  # a nodal cubic; every other curve is smooth rational


# --- dense reference -------------------------------------------------------


def dot(a, b):
    return a[0] * b[0] - sum(map(mul, a[1], b[1]))


def k_dot(a):
    return dot(a, (-3, [-1] * len(a[1])))


def ref_blow_up(classes, incidences, name):
    """The classes after the blow-up, or None if it over-assigns."""
    n = len(next(iter(classes.values()))[1])
    new = {nm: (d, ms + [incidences.get(nm, 0)]) for nm, (d, ms) in classes.items()}
    new[name] = (0, [0] * n + [-1])
    changed = [*incidences, name]
    if any(dot(new[a], new[b]) < 0 for a in changed for b in new if b != a):
        return None
    smooth = [a for a in incidences if a not in SINGULAR]
    if any(dot(new[a], new[a]) + k_dot(new[a]) < -2 for a in smooth):
        return None
    return new


def ref_chain(classes, names):
    """The chain entries, or None if the names do not form a chain."""
    curves = [classes[nm] for nm in names]
    if any(dot(c, c) > -2 for c in curves):
        return None
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if dot(curves[i], curves[j]) != (1 if j == i + 1 else 0):
                return None
    return tuple(-dot(c, c) for c in curves)


def ref_graph_text(classes):
    names = sorted(classes)
    lines = [f"{a} {dot(classes[a], classes[a])}" for a in names]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if dot(classes[a], classes[b]) > 0:
                lines.append(f"{a} {b} {dot(classes[a], classes[b])}")
    return "\n".join(lines) + "\n"


# --- the property ----------------------------------------------------------


# a step: (0 for a point on no tracked curve, anchor, others, multiplicities);
# curve indices are taken modulo the number of candidates
STEP = st.tuples(
    st.integers(0, 5),
    st.integers(0, 63),
    st.lists(st.integers(0, 63), max_size=2),
    st.lists(st.sampled_from([1, 1, 1, 2]), min_size=3, max_size=3),
)
# lengths drawn evenly up to 30; plain lists of steps are mostly short
SCRIPT = st.integers(0, 30).flatmap(lambda n: st.lists(STEP, min_size=n, max_size=n))


def incidences_of(classes, step):
    """A point on the anchor curve, also on some of the curves meeting it."""
    free, anchor, others, mults = step
    if free == 0:
        return {}
    names = list(classes)
    anchor = names[anchor % len(names)]
    meeting = [b for b in names if b != anchor and dot(classes[anchor], classes[b]) > 0]
    pool = meeting or names
    through = dict.fromkeys([anchor, *(pool[i % len(pool)] for i in others)])
    return dict(zip(through, mults))


def greedy_path(classes):
    """A path through curves of self-intersection <= -2, each meeting the
    previous one once (the reference decides whether it is a chain)."""
    low = [nm for nm in classes if dot(classes[nm], classes[nm]) <= -2]
    if not low:
        return []
    path = [low[0]]
    while True:
        step = [
            nm
            for nm in low
            if nm not in path and dot(classes[path[-1]], classes[nm]) == 1
        ]
        if not step:
            return path
        path.append(step[0])


@settings(max_examples=200, deadline=None)
@given(SCRIPT, st.lists(st.integers(0, 63), min_size=1, max_size=4))
def test_table_matches_dense_reference(script, picks):
    model = SurfaceModel.plane(PLANE, singular=SINGULAR)
    classes = {nm: (d, []) for nm, d in PLANE.items()}
    for k, point in enumerate(script):
        incidences = incidences_of(classes, point)
        name = f"X{k}"
        step = BlowupStep(tuple(incidences.items()), name=name)
        want = ref_blow_up(classes, incidences, name)
        if want is None:
            with pytest.raises(ValueError):
                model.blow_up(step)
        else:
            model, classes = model.blow_up(step), want

    names = list(classes)
    assert list(model.tracked) == names
    assert model.blowup_count == len(classes[names[0]][1])
    for a in names:
        c = classes[a]
        assert all(w > 0 for w in model.meets(a).values())
        assert model.curve(a) == CurveClass(c[0], tuple(c[1]))
        assert model.self_int(a) == dot(c, c)
        assert model.k_dot(a) == k_dot(c)
        assert model.genus_term(a) == dot(c, c) + k_dot(c)
        for b in names:
            assert model.intersect(a, b) == dot(c, classes[b])
    assert model.dual_graph().to_text() == ref_graph_text(classes)

    drawn = list(dict.fromkeys(names[i % len(names)] for i in picks))
    for chain in (drawn, greedy_path(classes)):
        if not chain:
            continue
        want = ref_chain(classes, chain)
        if want is None:
            with pytest.raises(ChainShapeError):
                model.extract_chain(chain)
        else:
            assert model.extract_chain(chain).entries == want


def table(model):
    """Everything a model reports, curve by curve in tracking order."""
    rows = [
        (nm, model.curve(nm), model.self_int(nm), model.k_dot(nm), model.meets(nm))
        for nm in model.tracked
    ]
    return model.blowup_count, model.smooth, rows


# a step and how it is named: 0 reuses a tracked name (refused), 1-2 leave
# the default E<n+1>, anything else gives a fresh name
NAMED_STEP = st.tuples(STEP, st.integers(0, 7))
NAMED_SCRIPT = st.integers(0, 30).flatmap(
    lambda n: st.lists(NAMED_STEP, min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(NAMED_SCRIPT, st.booleans())
def test_one_call_matches_step_by_step(script, keep_refused):
    # the steps follow the reference; refused ones are kept only on request,
    # so a script either runs through or stops at its first refused step
    plane = SurfaceModel.plane(PLANE, singular=SINGULAR)
    classes = {nm: (d, []) for nm, d in PLANE.items()}
    steps = []
    for k, (point, naming) in enumerate(script):
        incidences = incidences_of(classes, point)
        if naming == 0:
            name, want = list(classes)[k % len(classes)], None
        else:
            name = None if naming <= 2 else f"X{k}"
            default = f"E{len(classes['C'][1]) + 1}"
            want = ref_blow_up(classes, incidences, name or default)
        if want is not None:
            classes = want
        if want is not None or keep_refused:
            steps.append(BlowupStep(tuple(incidences.items()), name))

    model, failure = plane, None
    for k, step in enumerate(steps):
        try:
            model = model.blow_up(step)
        except (KeyError, ValueError) as exc:
            failure = k, exc
            break
    before = table(plane)
    if failure is None:
        assert table(plane.blow_up(*steps)) == table(model)
        assert list(model.tracked) == list(classes)
    else:
        k, exc = failure
        with pytest.raises(Exception) as info:
            plane.blow_up(*steps)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        assert table(plane.blow_up(*steps[:k])) == table(model)
    assert table(plane) == before


def accepted_steps(script):
    """The steps of a random script that the model accepts, and the model
    they make (the table itself is checked against the dense reference
    above, so the model alone decides here)."""
    model = SurfaceModel.plane(PLANE, singular=SINGULAR)
    steps = []
    for k, (free, anchor, others, mults) in enumerate(script):
        through = {}
        if free:
            names = model.tracked
            anchor = names[anchor % len(names)]
            pool = list(model.meets(anchor)) or names
            through = dict.fromkeys([anchor, *(pool[i % len(pool)] for i in others)])
        step = BlowupStep(tuple(zip(through, mults)), f"X{k}")
        try:
            model = model.blow_up(step)
        except ValueError:
            continue
        steps.append(step)
    return steps, model


# a tower: start (the last candidate is unknown); along drawn among the
# curves meeting start, the tracked curves missing it or all candidates
# (the last one unknown); the number of names; and per name a kind with an
# index.  The first name's refusal comes before the pairing check, so it
# is drawn tracked more often.  Indices are taken modulo the candidates.
TOWER = st.tuples(
    st.integers(0, 63),
    st.sampled_from(["meeting", "meeting", "missing", "any"]),
    st.integers(0, 63),
    st.sampled_from(range(13)),
    st.tuples(st.sampled_from(["fresh", "fresh", "tracked"]), st.integers(0, 63)),
    st.lists(
        st.tuples(
            st.sampled_from(["fresh"] * 10 + ["tracked", "repeated"]),
            st.integers(0, 63),
        ),
        min_size=11,
        max_size=11,
    ),
)


def draw_tower(model, tower):
    start, mode, along, count, first, later = tower
    tracked = list(model.tracked)
    start = [*tracked, "U"][start % (len(tracked) + 1)]
    met = list(model.meets(start)) if start in tracked else []
    missed = [c for c in tracked if c != start and c not in met]
    pool = {"meeting": met, "missing": missed}.get(mode) or [*tracked, "V"]
    along = pool[along % len(pool)]
    names = []
    for j, (kind, i) in enumerate([first, *later][:count]):
        if kind == "repeated":
            names.append(names[i % len(names)])
        elif kind == "tracked":
            others = [c for c in tracked if c != along]
            names.append(others[i % len(others)])
        else:
            names.append(f"T{j}")
    return start, along, names


def ordered_meets(model):
    return [tuple(model.meets(nm).items()) for nm in model.tracked]


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, max_size=30), TOWER)
def test_tower_matches_its_checked_steps(script, tower):
    prefix, model = accepted_steps(script)
    plane = SurfaceModel.plane(PLANE, singular=SINGULAR)
    start, along, names = draw_tower(model, tower)
    assume(along != start)
    steps = []
    current = start
    for nm in names:
        steps.append(BlowupStep(((current, 1), (along, 1)), nm))
        current = nm
    tower = Tower(start, along, names)
    before = table(model), ordered_meets(model)
    try:
        want = model.blow_up(*steps)
    except (KeyError, ValueError) as exc:
        for receiver, call in ((model, [tower]), (plane, [*prefix, tower])):
            with pytest.raises(type(exc)) as info:
                receiver.blow_up(*call)
            assert str(info.value) == str(exc)
    else:
        for got in (model.blow_up(tower), plane.blow_up(*prefix, tower)):
            assert table(got) == table(want)
            assert ordered_meets(got) == ordered_meets(want)
    assert (table(model), ordered_meets(model)) == before


def test_no_steps_gives_an_equal_table():
    plane = SurfaceModel.plane(PLANE, singular=SINGULAR)
    model = plane.blow_up(BlowupStep((("C", 2), ("L1", 1))))
    for m in (plane, model, model.declare_smooth("C")):
        assert table(m.blow_up()) == table(m)


def test_refused_step_leaves_the_receiver_unchanged():
    model = SurfaceModel.plane({"L1": 1, "L2": 1, "Q": 2}).blow_up(
        BlowupStep((("L1", 1), ("L2", 1)), "P"),
        BlowupStep((("Q", 1), ("L1", 1))),
    )
    before = table(model)
    steps = (
        BlowupStep((("P", 1), ("L2", 1)), "R"),  # changes the rows of P and L2
        BlowupStep((("Q", 1), ("L1", 1), ("E2", 1))),
        BlowupStep((("L1", 1), ("L2", 1))),  # L1 and L2 no longer meet
    )
    with pytest.raises(ValueError, match="'L1'.'L2' = -1 after blowing up 'E5'"):
        model.blow_up(*steps)
    assert table(model) == before
    assert table(model.blow_up(*steps[:2])) == table(
        model.blow_up(steps[0]).blow_up(steps[1])
    )


def test_triangle_of_minus_two_curves_is_not_a_chain():
    # three general points on each of three lines: a cycle of (-2)-curves
    model = SurfaceModel.plane({"L1": 1, "L2": 1, "L3": 1})
    for line in ("L1", "L2", "L3"):
        for _ in range(3):
            model = model.blow_up(BlowupStep(((line, 1),)))
    assert model.extract_chain(["L1", "L2"]).entries == (2, 2)
    with pytest.raises(ChainShapeError, match="'L1'.'L3' = 1, expected 0"):
        model.extract_chain(["L1", "L2", "L3"])


# a chain of a plan: how it is drawn, a start, a length and indices.  A walk
# follows (-2)-or-lower curves meeting once, from any such curve or, "after"
# the previous chain, from one that chain meets; "low" takes any such
# curves and "any" any names, the last candidate of both being unknown.
# Names already in the plan are dropped, so a chain may have gaps or be empty
CHAIN = st.tuples(
    st.sampled_from(
        ["walk"] * 9 + ["after"] * 5 + ["low"] * 3 + ["any"] * 2 + ["empty"]
    ),
    st.integers(0, 63),
    st.integers(1, 5),
    st.lists(st.integers(0, 63), min_size=5, max_size=5),
)


def draw_plan(model, chains):
    tracked = list(model.tracked)
    low = [nm for nm in tracked if model.self_int(nm) <= -2] or tracked
    used = set()
    plan = [()]

    def step_from(nm):
        met = model.meets(nm) if nm in tracked else {}
        return [b for b, w in met.items() if w == 1 and b in low and b not in used]

    for kind, start, length, picks in chains:
        if kind in ("walk", "after"):
            first = []
            if kind == "after":
                first = [b for a in plan[-1] for b in step_from(a)]
            first = first or [nm for nm in low if nm not in used] or low
            chain = [first[start % len(first)]]
            for i in picks[: length - 1]:
                step = [b for b in step_from(chain[-1]) if b not in chain]
                if not step:
                    break
                chain.append(step[i % len(step)])
        elif kind == "empty":
            chain = []
        else:
            names = [*(low if kind == "low" else tracked), "U"]
            chain = [names[(start + i) % len(names)] for i in picks[:length]]
        chain = [nm for nm in dict.fromkeys(chain) if nm not in used]
        used.update(chain)
        plan.append(tuple(chain))
    return tuple(plan[1:])


def continuant(entries):
    v, prev = 1, 0
    for n in entries:
        v, prev = n * v - prev, v
    return v


def ref_contract(model, chains):
    """``(singularities as (q, q1, entries), rho, terms)`` from pairwise
    intersection numbers, or the refusal ``contract`` must give: each chain
    in order is refused if empty, naming an unknown curve, with a
    self-intersection > -2 or with a wrong pairing; then the first meeting
    of two chains in (chain, later chain, position, position) order."""
    tracked = set(model.tracked)
    for chain in chains:
        if not chain:
            raise ChainShapeError("empty chain")
        for nm in chain:
            if nm not in tracked:
                raise KeyError(f"no tracked curve named {nm!r}")
        for nm in chain:
            s = model.self_int(nm)
            if s > -2:
                raise ChainShapeError(f"{nm!r} has self-intersection {s} > -2")
        for i, a in enumerate(chain):
            for j, b in enumerate(chain[i + 1 :], i + 1):
                w, want = model.intersect(a, b), 1 if j == i + 1 else 0
                if w != want:
                    raise ChainShapeError(f"{a!r}.{b!r} = {w}, expected {want}")
    for c, chain in enumerate(chains):
        for later in chains[c + 1 :]:
            for a in chain:
                for b in later:
                    if model.intersect(a, b):
                        raise ValueError(f"chains are not disjoint: {a!r} meets {b!r}")
    singularities, terms = [], {}
    for chain in chains:
        entries = tuple(-model.self_int(nm) for nm in chain)
        q = continuant(entries)
        singularities.append((q, continuant(entries[1:]), entries))
        for j, nm in enumerate(chain):
            u, v = continuant(entries[:j]), continuant(entries[j + 1 :])
            terms[nm] = (q, q - u - v)
    return singularities, 1 + model.blowup_count - len(terms), terms


@settings(max_examples=300, deadline=None)
@given(SCRIPT, st.lists(CHAIN, min_size=1, max_size=3))
def test_contract_matches_pairwise_reference(script, chains):
    _, model = accepted_steps(script)
    plan = ContractionPlan(draw_plan(model, chains))
    try:
        want = ref_contract(model, plan.chains)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            contract(model, plan)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        got = contract(model, plan)
        sings = [(s.q, s.q1, w.entries) for s, w in got.singularities]
        assert (sings, got.rho, dict(got.terms)) == want


# a script of steps and towers.  A tower draws its start among the run
# curves earlier towers left (when there are any) or among all tracked
# curves, and its fixed curve among the curves meeting the start, the run
# curves or all tracked curves; a step's first curve is a run curve or any
# tracked curve, as in STEP otherwise.  Indices are taken modulo the
# candidates.
RUN_TOWER = st.tuples(
    st.sampled_from(["run", "any"]),
    st.integers(0, 63),
    st.sampled_from(["meeting", "meeting", "run", "any"]),
    st.integers(0, 63),
    st.integers(0, 9),
)
RUN_STEP = st.tuples(st.sampled_from(["run", "any"]), STEP)
MIXED_SCRIPT = st.lists(st.one_of(RUN_TOWER, RUN_STEP), min_size=1, max_size=12)

# a chain over the run curves of one tower (its names but the last, as the
# tower wrote them): in run order, reversed, a part of it, with a gap, with
# two neighbours swapped, with an unknown name, split into two chains that
# meet, or a walk from a run curve; indices are taken modulo the candidates.
# Names already in the plan are dropped and empty chains left out, so the
# refusals of repeats and empty chains stay with the tests above
RUN_CHAIN = st.tuples(
    st.sampled_from(
        ["forward", "reversed", "part", "gap", "swap", "unknown", "split", "walk"]
    ),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
    st.booleans(),
)


def pick(pool, i):
    return pool[i % len(pool)]


def run_script(script):
    """The model a mixed script makes, the same model made by steps alone,
    and the run curves of each tower, as lists.  Each item is drawn from
    the model so far and applied to both models; an item one of them
    refuses must be refused by the other in the same words, and is
    dropped."""
    model = written = SurfaceModel.plane(PLANE, singular=SINGULAR)
    runs = []
    for k, item in enumerate(script):
        tracked = list(model.tracked)
        in_runs = [nm for run in runs for nm in run]
        if len(item) == 2:
            where, (free, anchor, others, mults) = item
            first = pick(in_runs, anchor) if where == "run" and in_runs else None
            through = {}
            if free:
                first = first or pick(tracked, anchor)
                pool = list(model.meets(first)) or tracked
                through = dict.fromkeys([first, *(pick(pool, i) for i in others)])
            call = BlowupStep(tuple(zip(through, mults)), f"X{k}")
            steps = [call]
        else:
            where, start, mode, along, count = item
            start = pick(in_runs if where == "run" and in_runs else tracked, start)
            pools = {"meeting": list(model.meets(start)), "run": in_runs}
            along = pick(pools.get(mode) or tracked, along)
            if along == start:
                continue
            names = [f"T{k}_{j}" for j in range(count)]
            call = Tower(start, along, names)
            steps, current = [], start
            for nm in names:
                steps.append(BlowupStep(((current, 1), (along, 1)), nm))
                current = nm
        try:
            stepped = written.blow_up(*steps)
        except (KeyError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                model.blow_up(call)
            assert str(info.value) == str(exc)
            continue
        model, written = model.blow_up(call), stepped
        if isinstance(call, Tower) and len(call.names) > 1:
            runs.append(list(call.names[:-1]))
    return model, written, runs


def draw_run_plan(model, runs, chains):
    tracked = list(model.tracked)
    plan = []
    for kind, r, i, j, flip in chains:
        run = pick(runs, r) if runs else tracked[:3]
        i, j = sorted((i % len(run), j % len(run)))
        chain = list(run)
        if kind == "part":
            chain = run[i : j + 1]
        elif kind == "gap" and len(run) > 2:
            del chain[1 + i % (len(run) - 2)]
        elif kind == "swap" and len(run) > 1:
            i = min(i, len(run) - 2)
            chain[i], chain[i + 1] = chain[i + 1], chain[i]
        elif kind == "unknown":
            chain.insert(i, "U")
        elif kind == "walk":
            chain = [run[i]]
            for _ in range(j):
                step = [
                    b
                    for b, w in model.meets(chain[-1]).items()
                    if w == 1 and model.self_int(b) <= -2 and b not in chain
                ]
                if not step:
                    break
                chain.append(step[0])
        if flip:
            chain.reverse()
        used = {nm for done in plan for nm in done}
        chain = [nm for nm in chain if nm not in used]
        parts = [chain[:i], chain[i:]] if kind == "split" else [chain]
        plan += [tuple(part) for part in parts if part]
    return tuple(plan)


@settings(max_examples=300, deadline=None)
@given(MIXED_SCRIPT, st.lists(RUN_CHAIN, min_size=1, max_size=3))
def test_runs_match_their_steps_written_out(script, chains):
    # a tower's run curves are stored as one run and read back per curve or
    # per stretch: every query must give what the same model built from
    # steps alone gives, and contract must agree with the pairwise reference
    # read from that model, or give the same refusal
    model, written, runs = run_script(script)
    assert table(model) == table(written)
    assert ordered_meets(model) == ordered_meets(written)
    assert model.dual_graph().to_text() == written.dual_graph().to_text()
    chains = draw_run_plan(model, runs, chains)
    try:
        plan = ContractionPlan(chains)
        want = ref_contract(written, plan.chains)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            contract(model, ContractionPlan(chains))
        assert str(info.value) == str(exc)
    else:
        got = contract(model, plan)
        sings = [(s.q, s.q1, w.entries) for s, w in got.singularities]
        assert (sings, got.rho, dict(got.terms)) == want


def four_lines_in_two_chains():
    """Four lines, all (-2)-curves, where only L1.L2, L1.L4 and L2.L3 are
    left nonzero (each 1): the chain (L1, L2) meets L4 at its first curve
    and L3 at its second."""
    model = SurfaceModel.plane({"L1": 1, "L2": 1, "L3": 1, "L4": 1})
    return model.blow_up(
        BlowupStep((("L1", 1), ("L3", 1))),
        BlowupStep((("L2", 1), ("L4", 1))),
        BlowupStep((("L3", 1), ("L4", 1))),
        *(BlowupStep(((nm, 1),)) for nm in ("L1", "L1", "L2", "L2", "L3", "L4")),
    )


def test_shape_refusal_in_a_later_chain_wins_over_a_meeting():
    model = four_lines_in_two_chains()
    assert model.intersect("L2", "L3") == 1
    plan = ContractionPlan((("L1", "L2"), ("L3",), ("L4", "E1")))
    with pytest.raises(ChainShapeError, match="'E1' has self-intersection -1 > -2"):
        contract(model, plan)


def test_first_meeting_is_named_by_chain_before_position():
    # (L1, L2) meets the third chain at position 0 and the second at
    # position 1: the second chain comes first
    model = four_lines_in_two_chains()
    plan = ContractionPlan((("L1", "L2"), ("L3",), ("L4",)))
    with pytest.raises(ValueError, match="not disjoint: 'L2' meets 'L3'$"):
        contract(model, plan)
    assert model.extract_chains((("L4", "L1"), ("L3",))) == (
        model.extract_chain(("L4", "L1")),
        model.extract_chain(("L3",)),
    )


def test_extract_chains_refuses_chains_that_share_a_curve():
    model = four_lines_in_two_chains()
    with pytest.raises(ChainShapeError, match=r"chains share curves: \['L2'\]"):
        model.extract_chains((("L1", "L2"), ("L2", "L3")))
    with pytest.raises(ChainShapeError, match="repeated curve in chain"):
        model.extract_chains((("L3",), ("L1", "L1")))


def test_first_wrong_pairing_names_the_smaller_position():
    # in (L1, L3, L2), L1 misses its neighbour L3 (position 1) and meets
    # L2 (position 2): the smaller position is named
    model = four_lines_in_two_chains()
    with pytest.raises(ChainShapeError, match="^'L1'.'L3' = 0, expected 1$"):
        model.extract_chain(("L1", "L3", "L2"))
    with pytest.raises(ChainShapeError, match="^'L1'.'L2' = 1, expected 0$"):
        model.extract_chain(("L1", "L4", "L2"))


def test_first_meeting_is_named_by_position_in_the_earlier_chain():
    # four (-2)-lines where only L1.L2, L3.L4, L1.L4 and L2.L3 are left
    # nonzero: (L1, L2) meets (L3, L4) at positions (0, 1) and (1, 0)
    model = SurfaceModel.plane({"L1": 1, "L2": 1, "L3": 1, "L4": 1}).blow_up(
        BlowupStep((("L1", 1), ("L3", 1))),
        BlowupStep((("L2", 1), ("L4", 1))),
        *(BlowupStep(((nm, 1),)) for nm in ("L1", "L2", "L3", "L4") for _ in range(2)),
    )
    with pytest.raises(ValueError, match="^chains are not disjoint: 'L1' meets 'L4'$"):
        model.extract_chains((("L1", "L2"), ("L3", "L4")))
    with pytest.raises(ValueError, match="^chains are not disjoint: 'L2' meets 'L3'$"):
        model.extract_chains((("L2", "L1"), ("L3", "L4")))


def test_str_chain_is_refused_at_its_turn_after_a_meeting_with_its_letters():
    # the first chain (A, B) meets D, a letter of the later str chain "DC"
    m = SurfaceModel.plane({"C": 1})
    m = m.blow_up(
        BlowupStep((("C", 1),), "A"),
        BlowupStep((("A", 1), ("C", 1)), "B"),
        BlowupStep((("B", 1), ("C", 1)), "D"),
    )
    assert m.intersect("B", "D") == 1
    refusal = "^a chain is a sequence of curve names, got 'DC'$"
    for later in ((), ((),), (("D",),)):
        with pytest.raises(TypeError, match=refusal):
            m.extract_chains((("A", "B"), "DC", *later))
    with pytest.raises(ChainShapeError, match="^empty chain$"):
        m.extract_chains((("A", "B"), (), "DC"))


def test_repeat_is_refused_at_the_chain_that_repeats():
    # L2 repeats, but the chain that holds it first passes
    model = four_lines_in_two_chains()
    with pytest.raises(ChainShapeError, match=r"^chains share curves: \['L2'\]$"):
        model.extract_chains((("L1", "L2"), ("L3",), ("L4", "L2")))
    # a later refusal of another kind in a chain in between comes first
    with pytest.raises(ChainShapeError, match="^'E1' has self-intersection -1 > -2$"):
        model.extract_chains((("L1", "L2"), ("L3", "E1"), ("L4", "L2")))
    with pytest.raises(KeyError, match="'X'"):
        model.extract_chains((("L1", "L2"), ("X",), ("L2",)))
    # a repeat inside a chain is named before a curve it shares
    with pytest.raises(
        ChainShapeError, match=r"^repeated curve in chain: \['L3', 'L1', 'L3'\]$"
    ):
        model.extract_chains((("L1", "L2"), ("L3", "L1", "L3")))
