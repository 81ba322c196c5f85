"""Record golden outputs for the families without a closed form.

Run from the repository root:  python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``: for every ``S1-Pp``, ``S1-Ppp``, ``V`` and
``Y`` member that ``deep_build`` or ``sweep_small`` can draw, the orders,
``q1`` values, exact ``k_value`` and test curve that ``qhpp family --json``
prints, and the number of checks and cases of ``qhpp verify all``.  Chains
are not stored; the oracle checks them against the README templates.
Rerun only when the domain changes, and review the diff: a changed record
means changed program output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qhpp  # noqa: E402
from oracle import GOLDEN_PATH, VERIFY_KEY, golden_key  # noqa: E402
from workloads import _ALL_PASSED, _CASES, _cli, deep_domain, sweep_domain  # noqa: E402


def main() -> None:
    golden = {}
    for family, params in sorted(set(deep_domain()) | set(sweep_domain())):
        record = qhpp.build(family, params).classify().to_record()
        sings = record["singularities"]
        golden[golden_key(family, params)] = [
            [s["q"] for s in sings],
            [s["q1"] for s in sings],
            [record["k_value"]["num"], record["k_value"]["den"]],
            record["test_curve"],
        ]
    rc, out, _ = _cli(["verify", "all"])
    passed = _ALL_PASSED.fullmatch(out.splitlines()[-1])
    if rc or not passed:
        raise SystemExit(f"verify all failed (exit {rc}); no golden records written")
    golden[VERIFY_KEY] = [int(passed.group(1)), sum(int(n) for n in _CASES.findall(out))]
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items()))
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"{len(golden)} records written to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
