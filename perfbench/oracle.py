"""Expected outputs, computed without calling ``qhpp``.

Chain templates and blow-up counts follow the README family table; the
orders and ``k_value`` of ``T``, ``S1`` and ``S3`` are the closed forms from
the README and the builder docstrings.  ``S1-Pp``, ``S1-Ppp``, ``V`` and
``Y`` have no closed form for ``k_value``: their orders, ``q1`` values,
``k_value`` and test curve come from ``golden.json``, recorded from this
benchmark's domain by ``make_golden.py``, as do the number of checks and
cases that ``qhpp verify all`` runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# family -> (minimum of each parameter, blow-ups minus the parameter sum)
FAMILIES = {
    "T": ((2, 2, 2, 2), 0),
    "S1": ((2,), 8),
    "S1-Pp": ((2, 2), 6),
    "S1-Ppp": ((2, 2), 6),
    "S3": ((2,), 7),
    "V": ((2, 0), 7),
    "Y": ((2, 0), 8),
}
GOLDEN_FAMILIES = ("S1-Pp", "S1-Ppp", "V", "Y")
VERIFY_KEY = "verify all"


def blowups(family: str, params) -> int:
    """Blow-ups of a member; at Picard rank one also the contracted curves."""
    return FAMILIES[family][1] + sum(params)


def continuant(entries) -> int:
    """Determinant of the chain matrix, by the three-term recurrence."""
    prev, cur = 0, 1
    for n in entries:
        prev, cur = cur, n * cur - prev
    return cur


def _twos(k: int) -> tuple[int, ...]:
    return (2,) * k


def templates(family: str, params) -> list[tuple[int, ...]]:
    """Contracted chains as listed in the README family table."""
    if family == "T":
        a1, a2, a3, a4 = params
        return [
            _twos(a4 - 1) + (a3, a1) + _twos(a2 - 1),
            _twos(a3 - 1) + (a2, a4) + _twos(a1 - 1),
        ]
    if family == "S1":
        (b,) = params
        return [(3, b) + _twos(7) + (3,) + _twos(b - 2)]
    if family == "S1-Pp":
        b, c = params
        return [_twos(c - 2) + (3, b, 2, 2, c, 2, 2, 2, 2, 3) + _twos(b - 2)]
    if family == "S1-Ppp":
        b, c = params
        return [_twos(c - 2) + (3, b, 2, 2, 2, 2, 2, c, 2, 3) + _twos(b - 2)]
    if family == "S3":
        (b,) = params
        return [(2,), (3, 2, 2), (2, 2, b) + _twos(b)]
    b, c = params
    if family == "V":
        return [(2,), _twos(c) + (3, 2, 2), (2, 2 + c, b) + _twos(b)]
    return [_twos(c) + (3, 2, 2, 2, 2), (2, 2 + c, b + 1) + _twos(b)]  # Y


def _pattern(a: int, b: int, c: int, d: int) -> int:
    # closed-form determinant of [2 x (a-1), b, c, 2 x (d-1)]
    return a * b * c * d - a * b * d - a * c * d + a * b + c * d - a - d + 1


def _closed_form(family: str, params) -> tuple[list[int], Fraction, str]:
    if family == "T":
        a1, a2, a3, a4 = params
        s1, s2 = _pattern(a4, a3, a1, a2), _pattern(a3, a2, a4, a1)
        num = (a2 * a3 * a4 - a3 * a4 + a4 - 1) * (
            (a1 - 1) * (a2 - 1) * (a3 - 1) * (a4 - 1) - a1 * a3 - a2 * a4 + 2
        )
        return [s1, s2], Fraction(num, s1 * s2), "E1"
    (b,) = params
    if family == "S1":
        q = 27 * b * b - 36 * b + 4
        return [q], Fraction(18 * (b - 2), q), "E" if b > 2 else "D3"
    q = 3 * b * b - 2 * b - 2  # S3
    return [2, 7, q], Fraction(2 * (b - 5), q), "E" if b > 2 else "U2"


def k_class(value: Fraction) -> str:
    if value > 0:
        return "Ample"
    return "AntiAmple" if value < 0 else "NumericallyTrivial"


def golden_key(family: str, params) -> str:
    return " ".join([family, *map(str, params)])


class Oracle:
    """Expected records for family members."""

    def __init__(self) -> None:
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def expected(self, family: str, params) -> dict:
        """``orders``, ``q1`` (None where any orientation of the template is
        accepted), ``k`` and ``test_curve`` of one member."""
        params = tuple(params)
        if family in GOLDEN_FAMILIES:
            orders, q1, (num, den), test_curve = self.golden[golden_key(family, params)]
            return {"orders": orders, "q1": q1, "k": Fraction(num, den), "test_curve": test_curve}
        orders, k, test_curve = _closed_form(family, params)
        return {"orders": orders, "q1": None, "k": k, "test_curve": test_curve}

    def verify_totals(self) -> tuple[int, int]:
        """Checks and cases that ``qhpp verify all`` reports."""
        checks, cases = self.golden[VERIFY_KEY]
        return checks, cases

    def check_record(self, record: dict, family: str, params) -> str | None:
        """Mismatch message for a JSON record, or None when it is right."""
        want = self.expected(family, params)
        if record.get("family") != family or tuple(record.get("params", ())) != tuple(params):
            return f"record is for {record.get('family')} {record.get('params')}"
        sings = record["singularities"]
        chains = templates(family, params)
        if len(sings) != len(chains):
            return f"{len(sings)} singularities, expected {len(chains)}"
        for i, (sing, chain) in enumerate(zip(sings, chains)):
            got = tuple(sing["chain"])
            if got != chain and got != chain[::-1]:
                return f"chain {list(got)} is not {list(chain)} read either way"
            if sing["q"] != continuant(got) or sing["q"] != want["orders"][i]:
                return f"order {sing['q']}, expected {want['orders'][i]}"
            q1 = continuant(got[1:])
            if sing["q1"] != q1 or (want["q1"] is not None and q1 != want["q1"][i]):
                return f"q1 {sing['q1']} does not match chain {list(got)}"
        k = record["k_value"]
        if (k["num"], k["den"]) != (want["k"].numerator, want["k"].denominator):
            return f"k_value {k['num']}/{k['den']}, expected {want['k']}"
        if record["rho"] != 1 or record["k_class"] != k_class(want["k"]):
            return f"rho {record['rho']} / k_class {record['k_class']}"
        if record["test_curve"] != want["test_curve"]:
            return f"test curve {record['test_curve']}, expected {want['test_curve']}"
        return None

    def row_cells(self, family: str, params) -> list[str]:
        """The cells of one ``sweep`` csv or markdown row."""
        want = self.expected(family, params)
        k = want["k"]
        return [
            *map(str, params),
            ";".join(map(str, want["orders"])),
            "1",
            k_class(k),
            f"{k.numerator}/{k.denominator}",
        ]
