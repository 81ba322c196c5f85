"""Seeded workloads.  Each one is a fixed list of items that a pass runs in
order; the seed changes which members, chains and numbers are drawn but
never the size budget (blow-ups, chain lengths, digit counts, item counts),
so two seeds give comparable timings.

Only generated inputs reach ``qhpp``; every call goes through a module
attribute (``qhpp.cli.main``, ``qhpp.hjcf.expand``, ...) so that a traced
pass sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from itertools import product
from math import gcd
from typing import Callable

import qhpp.cli
import qhpp.hjcf
import qhpp.kollar

from oracle import FAMILIES, GOLDEN_FAMILIES, Oracle, blowups, continuant

FORMATS = ("csv", "json", "markdown")

# deep_build: every family once at each blow-up count; the spread of 2.4x
# is wide enough to read the scaling exponent off and T(30,30,30,30) (120
# blow-ups) lies inside it
DEEP_SLOTS = (50, 80, 120)
DEEP_SPLITS = 8  # grid points for the split of a two-parameter budget

# sweep_small: per family three sweep calls (one per output format), each a
# box of 12 or 24 members.  The offsets of a box's lower corner from the
# family minimum add up to a fixed budget, so every seed gives each call the
# same blow-up counts (blow-ups are linear in the parameters); a
# one-parameter family shares the budget of its three calls instead.
# Members average about 16 blow-ups and none exceeds 40.
# family -> (box widths, offset budget per call, cap per offset)
SWEEP_BOXES = {
    "T": ((2, 2, 2, 3), 4, 4),
    "S1": ((12,), 2, 4),
    "S1-Pp": ((4, 6), 3, 3),
    "S1-Ppp": ((4, 6), 3, 3),
    "S3": ((12,), 2, 4),
    "V": ((4, 6), 3, 3),
    "Y": ((4, 6), 3, 3),
}
SWEEP_CALLS = 3


@dataclass
class Item:
    """One timed call.  ``check`` returns how many of the ``attempted``
    operations gave a wrong output, and the units of work done."""

    label: str
    size: dict
    attempted: int
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    problems: list = field(default_factory=list)


@dataclass
class Workload:
    work_unit: str  # what work_per_s counts
    items: list


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qhpp.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _compose(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    """A random composition of ``total`` into ``parts`` values in 0..cap."""
    out = [0] * parts
    for _ in range(total):
        out[rng.choice([i for i in range(parts) if out[i] < cap])] += 1
    return out


# --- deep_build -----------------------------------------------------------


def deep_params(family: str, n: int, choice: int) -> tuple[int, ...]:
    """Parameters of the member with ``n`` blow-ups at split grid point
    ``choice`` (two-parameter families only)."""
    mins, base = FAMILIES[family]
    spare = n - base - sum(mins)
    if len(mins) == 1:
        return (mins[0] + spare,)
    first = choice * spare // (DEEP_SPLITS - 1)
    return (mins[0] + first, mins[1] + spare - first)


def deep_domain():
    """Every golden-family member deep_build can draw."""
    for family in GOLDEN_FAMILIES:
        for n in DEEP_SLOTS:
            for choice in range(DEEP_SPLITS):
                yield family, deep_params(family, n, choice)


def _family_item(oracle: Oracle, family: str, params: tuple[int, ...]) -> Item:
    argv = ["family", family, *map(str, params), "--json"]

    def check(output) -> tuple[int, int]:
        rc, out, err = output
        problem = f"exit {rc}: {err.strip()}" if rc else oracle.check_record(
            json.loads(out), family, params
        )
        if problem:
            item.problems.append(problem)
        return int(problem is not None), blowups(family, params)

    item = Item(
        f"{family}{params}",
        {"family": family, "params": list(params), "blowups": blowups(family, params)},
        1,
        lambda: _cli(argv),
        check,
    )
    return item


def deep_build(seed: int, oracle: Oracle) -> Workload:
    # lattice.blow_up dominates here and its cost grows about cubically with
    # the blow-up count: this is the workload a Gram-matrix lattice must move
    rng = random.Random(seed)
    items = []
    for family, (mins, base) in FAMILIES.items():
        for n in DEEP_SLOTS:
            if family == "T":
                extra = _compose(rng, n - base - sum(mins), 4, n)
                params = tuple(m + e for m, e in zip(mins, extra))
            else:
                params = deep_params(family, n, rng.randrange(DEEP_SPLITS))
            items.append(_family_item(oracle, family, params))
    return Workload("blowups", items)


# --- sweep_small ----------------------------------------------------------


def sweep_domain():
    """Every golden-family member sweep_small can draw."""
    for family in GOLDEN_FAMILIES:
        widths, _, cap = SWEEP_BOXES[family]
        mins, _ = FAMILIES[family]
        spans = [range(m, m + cap + w) for m, w in zip(mins, widths)]
        for params in product(*spans):
            yield family, params


def _rows(fmt: str, text: str) -> list:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    lines = text.splitlines()[2:]
    return [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines]


def _sweep_item(oracle: Oracle, family: str, lows, widths, fmt: str) -> Item:
    spans = [range(lo, lo + w) for lo, w in zip(lows, widths)]
    members = list(product(*spans))
    argv = ["sweep", family, *(f"{s.start}..{s.stop - 1}" for s in spans), "--format", fmt]

    def check(output) -> tuple[int, int]:
        rc, out, err = output
        if rc:
            item.problems.append(f"exit {rc}: {err.strip()}")
            return len(members), len(members)
        rows = _rows(fmt, out)
        bad = abs(len(rows) - len(members))
        for params, row in zip(members, rows):
            if fmt == "json":
                problem = oracle.check_record(row, family, params)
            else:
                want = oracle.row_cells(family, params)
                problem = None if row == want else f"row {row}, expected {want}"
            if problem:
                item.problems.append(problem)
                bad += 1
        return bad, len(members)

    item = Item(
        " ".join(argv[1:]),
        {
            "family": family,
            "ranges": argv[2 : 2 + len(spans)],
            "format": fmt,
            "members": len(members),
            "blowups": sum(blowups(family, p) for p in members),
        },
        len(members),
        lambda: _cli(argv),
        check,
    )
    return item


def sweep_small(seed: int, oracle: Oracle) -> Workload:
    # many builds of at most 40 blow-ups: fixed per-build overhead in
    # families, contraction and cli dominates and lattice dot products are
    # short, so a Gram-matrix lattice should move this little
    rng = random.Random(seed)
    items = []
    for index, (family, (widths, budget, cap)) in enumerate(SWEEP_BOXES.items()):
        mins, _ = FAMILIES[family]
        k = len(widths)
        if k == 1:
            offsets = _compose(rng, budget * SWEEP_CALLS, SWEEP_CALLS, cap)
        else:
            offsets = [x for _ in range(SWEEP_CALLS) for x in _compose(rng, budget, k, cap)]
        for call in range(SWEEP_CALLS):
            lows = [m + o for m, o in zip(mins, offsets[call * k : (call + 1) * k])]
            fmt = FORMATS[(index + call + seed) % len(FORMATS)]
            items.append(_sweep_item(oracle, family, lows, widths, fmt))
    return Workload("members", items)


# --- chain_arith ----------------------------------------------------------

ROUNDTRIPS = 120  # expand/evaluate round trips; q has 40..60 digits
CHAINS = 24  # chains of 50..400 entries
BUMPS = 4  # bump_determinant positions per chain
KOLLAR = 48  # primitive weight systems with a_i <= 300


def _roundtrip_item(entries: tuple[int, ...]) -> Item:
    q, q1 = continuant(entries), continuant(entries[1:])

    def run():
        w = qhpp.hjcf.expand(q, q1)
        return w.entries, qhpp.hjcf.evaluate(w)

    def check(output) -> tuple[int, int]:
        got, value = output
        bad = int(got != entries) + int((value.numerator, value.denominator) != (q, q1))
        if bad:
            item.problems.append(f"round trip of {q}/{q1} gave {value}")
        return bad, 2

    item = Item("roundtrip", {"digits": len(str(q)), "length": len(entries)}, 2, run, check)
    return item


def _chain_item(entries: tuple[int, ...], positions: list[int]) -> Item:
    def run():
        hjcf = qhpp.hjcf
        w = hjcf.HJFraction(entries)
        return (
            hjcf.determinant(w),
            hjcf.partial_orders(w),
            hjcf.discrepancy_coefficients(w),
            [hjcf.bump_determinant(w, j) for j in positions],
            hjcf.CyclicSingularity.from_chain(w),
        )

    def check(output) -> tuple[int, int]:
        det, po, coeffs, bumps, sing = output
        u, v = [0, 1], [0, 1]  # prefix and suffix continuants
        for n in entries:
            u.append(n * u[-1] - u[-2])
        for n in reversed(entries):
            v.append(n * v[-1] - v[-2])
        v.reverse()
        q = u[-1]
        wrong = [
            det != q,
            (tuple(po.u), tuple(po.v)) != (tuple(u), tuple(v)),
            len(coeffs) != len(entries)
            or any(
                d.numerator * q != (q - u[j] - v[j]) * d.denominator
                for j, d in enumerate(coeffs, start=1)
            ),
            (sing.q, sing.q1) != (q, v[1]),
        ]
        for j, got in zip(positions, bumps):
            bumped = entries[: j - 1] + (entries[j - 1] + 1,) + entries[j:]
            wrong.append(got != continuant(bumped))
        if any(wrong):
            item.problems.append(f"chain of length {len(entries)}: checks {wrong}")
        return sum(wrong), 4 + len(positions)

    item = Item("chain", {"length": len(entries)}, 4 + len(positions), run, check)
    return item


def _raw_weights(a1: int, a2: int, a3: int, a4: int) -> tuple[int, int, int, int]:
    return (
        a2 * a3 * a4 - a3 * a4 + a4 - 1,
        a1 * a3 * a4 - a1 * a4 + a1 - 1,
        a1 * a2 * a4 - a1 * a2 + a2 - 1,
        a1 * a2 * a3 - a2 * a3 + a3 - 1,
    )


def _kollar_item(a: tuple[int, int, int, int]) -> Item:
    a1, a2, a3, a4 = a

    def run():
        p = qhpp.kollar.KollarParams(*a)
        return qhpp.kollar.weights(p), qhpp.kollar.singularity_types(p)

    def check(output) -> tuple[int, int]:
        W, ((sing1, chain1), (sing2, chain2)) = output
        t1 = (2,) * (a4 - 1) + (a3, a1) + (2,) * (a2 - 1)
        t2 = (2,) * (a3 - 1) + (a2, a4) + (2,) * (a1 - 1)
        weights_wrong = not (
            W.wstar == 1
            and (W.w1, W.w2, W.w3, W.w4) == _raw_weights(*a)
            and a1 * W.w1 + W.w2 == a2 * W.w2 + W.w3 == a3 * W.w3 + W.w4
            == a4 * W.w4 + W.w1 == W.d
            and W.s1 == a4 * W.w4 - W.w3
            and W.s2 == a1 * W.w1 - W.w4
            and (W.t1 * W.w2 - W.w4) % W.s1 == 0
            and (W.t2 * W.w1 - W.w3) % W.s2 == 0
        )
        types_wrong = not (
            chain1.entries == t1
            and chain2.entries == t2
            and (sing1.q, sing1.q1) == (continuant(t1), continuant(t1[1:])) == (W.s1, W.t1)
            and (sing2.q, sing2.q1) == (continuant(t2), continuant(t2[1:])) == (W.s2, W.t2)
        )
        if weights_wrong or types_wrong:
            item.problems.append(f"kollar {a}: weights {weights_wrong}, types {types_wrong}")
        return int(weights_wrong) + int(types_wrong), 2

    item = Item("kollar", {"a": list(a)}, 2, run, check)
    return item


def _entry(rng: random.Random) -> int:
    # half the entries are 2, as in resolution chains
    return 2 if rng.random() < 0.5 else rng.randint(3, 6)


def chain_arith(seed: int, oracle: Oracle) -> Workload:
    # hjcf and kollar only, never lattice: a lattice change must leave this
    # workload unchanged, and an hjcf change shows here first
    rng = random.Random(seed)
    items = []
    for i in range(ROUNDTRIPS):
        # q/q1 is drawn through its chain: a uniformly random pair can have a
        # partial quotient so large that expand runs for millions of steps
        digits = 40 + i % 21
        entries: tuple[int, ...] = ()
        while len(str(continuant(entries))) != digits:
            entries = ()
            while continuant(entries) < 10 ** (digits - 1):
                entries += (_entry(rng),)
        items.append(_roundtrip_item(entries))
    for i in range(CHAINS):
        length = 50 + i * 350 // (CHAINS - 1)
        entries = tuple(_entry(rng) for _ in range(length))
        positions = sorted(rng.sample(range(1, length + 1), BUMPS))
        items.append(_chain_item(entries, positions))
    for i in range(KOLLAR):
        # a_i <= 300 keeps the chains of singularity_types near 600 entries
        total = 100 + i * 900 // (KOLLAR - 1)
        while True:
            a = tuple(2 + x for x in _compose(rng, total - 8, 4, 298))
            if gcd(*_raw_weights(*a)) == 1:
                break
        items.append(_kollar_item(a))
    return Workload("chain_ops", items)


# --- verify_all -----------------------------------------------------------

_CASES = re.compile(r"\((\d+) cases\)")
_ALL_PASSED = re.compile(r"all (\d+) checks passed")


def verify_all(seed: int, oracle: Oracle) -> Workload:
    # fixed input (the seed is unused): few blow-ups per build but many
    # lattice and contraction queries per build, plus the brute-force
    # determinant oracle; the only workload that measures the verify layer
    checks, cases = oracle.verify_totals()

    def check(output) -> tuple[int, int]:
        # the check and case counts are pinned: a verify that drops checks
        # or cases must not pass as a faster one
        rc, out, err = output
        lines = out.splitlines()
        passed = _ALL_PASSED.fullmatch(lines[-1]) if lines else None
        done = sum(int(n) for n in _CASES.findall(out))
        ok = (
            rc == 0
            and passed is not None
            and int(passed.group(1)) == checks
            and sum(line.startswith("PASS ") for line in lines) == checks
            and not any(line.startswith("FAIL") for line in lines)
            and done == cases
        )
        if not ok:
            item.problems.append(f"exit {rc}, {done} cases: {(lines or [err])[-1]}")
        return int(not ok), done

    item = Item("verify all", {"command": "verify all"}, 1, lambda: _cli(["verify", "all"]), check)
    return Workload("cases", [item])


WORKLOADS = {
    "deep_build": deep_build,
    "sweep_small": sweep_small,
    "chain_arith": chain_arith,
    "verify_all": verify_all,
}
