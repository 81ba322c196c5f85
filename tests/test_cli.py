import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qhpp import cli, families, verify
from qhpp.cli import main
from qhpp.hjcf import HJFraction
from qhpp.lattice import SurfaceModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_output(capsys):
    code, out, _ = run(capsys, "eval", "3", "2", "2")
    assert code == 0
    assert "q/q1 = 7/3" in out
    assert "|w| = 7" in out
    assert "u = (0, 1, 3, 5, 7)" in out
    assert "discrepancies = (3/7, 2/7, 1/7)" in out


def test_eval_single_two(capsys):
    code, out, _ = run(capsys, "eval", "2")
    assert code == 0
    assert "q/q1 = 2/1" in out
    assert "discrepancies = (0/1)" in out


def test_eval_bad_entry_exits_one(capsys):
    code, _, err = run(capsys, "eval", "1", "2")
    assert code == 1
    assert "2" in err


def test_usage_error_exits_one(capsys):
    assert run(capsys, "eval")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "eval", "x")[0] == 1


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "7", "3")
    assert code == 0
    assert out.strip() == "[3, 2, 2]"
    assert run(capsys, "expand", "6", "3")[0] == 1


def test_expand_refuses_a_chain_over_the_limit(capsys, monkeypatch):
    # q/(q-1) expands to q - 1 twos; a 13-digit q is refused at once
    code, out, err = run(capsys, "expand", str(10**13 + 1), str(10**13))
    assert (code, out) == (1, "")
    assert err == "error: q/q1 expands to 10000000000000 entries; the limit is 1000000\n"
    assert cli.MAX_EXPAND_LENGTH == 1_000_000
    monkeypatch.setattr(cli, "MAX_EXPAND_LENGTH", 5)
    assert run(capsys, "expand", "6", "5") == (0, "[2, 2, 2, 2, 2]\n", "")
    code, out, err = run(capsys, "expand", "7", "6")
    assert (code, out) == (1, "")
    assert err == "error: q/q1 expands to 6 entries; the limit is 5\n"


def test_eval_refuses_an_order_too_long_to_print(capsys):
    # the order of [3 x l] grows like 2.618^l: 11000 entries give over 4300
    # digits, beyond the interpreter's default int-to-str limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "eval", *["3"] * 11000)
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out) == (1, "")
    assert err == "error: the order of this chain has more than 4300 digits\n"


def test_eval_refuses_a_long_order_before_evaluating(capsys, monkeypatch):
    # 100 entries of 100 digits give an order of about 10000 digits; the
    # refusal comes from the prefix orders, before the full-size fraction
    def unreachable(w):
        raise AssertionError("evaluate ran")

    monkeypatch.setattr(cli, "evaluate", unreachable)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "eval", *["9" * 100] * 100)
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out) == (1, "")
    assert err == "error: the order of this chain has more than 4300 digits\n"


def test_eval_refuses_output_over_the_digit_limit(capsys, monkeypatch):
    # 4500 entries of 3 have an order of 1881 digits, so eval would print
    # about 8.5 million digits; the refusal comes before any order sequence
    def unreachable(w):
        raise AssertionError("partial_orders ran")

    monkeypatch.setattr(cli, "partial_orders", unreachable)
    code, out, err = run(capsys, "eval", *["3"] * 4500)
    assert (code, out) == (1, "")
    assert err == (
        "error: 4500 entries times 1881 order digits is 8464500; "
        "the limit is 4000000\n"
    )
    assert cli.MAX_EVAL_DIGITS == 4_000_000


def test_eval_digit_limit_boundary(capsys, monkeypatch):
    # [3, 2, 2] has order 7: three entries times one digit
    monkeypatch.setattr(cli, "MAX_EVAL_DIGITS", 3)
    code, out, _ = run(capsys, "eval", "3", "2", "2")
    assert code == 0 and "|w| = 7" in out
    monkeypatch.setattr(cli, "MAX_EVAL_DIGITS", 2)
    code, out, err = run(capsys, "eval", "3", "2", "2")
    assert (code, out) == (1, "")
    assert err == "error: 3 entries times 1 order digits is 3; the limit is 2\n"


def test_kollar_4445(capsys):
    code, out, _ = run(capsys, "kollar", "4", "4", "4", "5")
    assert code == 0
    assert "w  = (64, 63, 67, 51)" in out
    assert "d  = 319" in out
    assert "type 1: 1/188(1,153), chain [2, 2, 2, 2, 4, 4, 2, 2, 2]" in out
    assert "type 2: 1/205(1,158)" in out


def test_kollar_refuses_a_chain_over_the_limit(capsys, monkeypatch):
    # chains of a2 + a4 and a1 + a3 entries; (10**9, 2, 2, 3) is primitive
    def no_types(p):
        raise AssertionError("singularity_types called")

    monkeypatch.setattr(cli, "singularity_types", no_types)
    code, out, err = run(capsys, "kollar", "1000000000", "2", "2", "3")
    assert (code, out) == (1, "")
    assert err == (
        "error: the longer chain has 1000000002 entries; the limit is 1000000\n"
    )


def test_kollar_2222_reports_wstar(capsys):
    code, out, _ = run(capsys, "kollar", "2", "2", "2", "2")
    assert code == 0
    assert "w* = 5" in out
    assert "type 1" not in out


def test_family_T_3333(capsys):
    code, out, _ = run(capsys, "family", "T", "3", "3", "3", "3")
    assert code == 0
    assert "k_class = NumericallyTrivial" in out
    assert "rho = 1" in out


def test_family_S3_6(capsys):
    code, out, _ = run(capsys, "family", "S3", "6")
    assert code == 0
    assert "k_class = Ample" in out
    assert "k_value = 1/47" in out


def test_family_json_round_trip(capsys):
    code, out, _ = run(capsys, "family", "S1", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["family"] == "S1"
    assert record["params"] == [3]
    assert record["rho"] == 1
    ((sing,),) = [record["singularities"]]
    assert sing["q"] == 139
    assert sing["q1"] in (55, pow(55, -1, 139))
    assert record["k_value"] == {"num": 18, "den": 139}
    assert record["k_class"] == "Ample"


def test_family_approx_behind_flag(capsys):
    _, plain, _ = run(capsys, "family", "S3", "6")
    assert "approx" not in plain
    _, out, _ = run(capsys, "family", "S3", "6", "--approx")
    assert "approx. 0.0212766" in out


def test_family_bad_params_exit_one(capsys):
    assert run(capsys, "family", "T", "3")[0] == 1
    assert run(capsys, "family", "T", "1", "2", "2", "2")[0] == 1


def test_family_graph_file(tmp_path, capsys):
    path = tmp_path / "t.dot"
    code, _, _ = run(capsys, "family", "T", "2", "2", "2", "2", "--graph", str(path))
    assert code == 0
    dot = path.read_text()
    assert dot.startswith("graph dual {")
    assert '"L1"' in dot and '"E4"' in dot


def test_family_graph_text_output(tmp_path, capsys):
    path = tmp_path / "t.dot"
    code, out, err = run(capsys, "family", "S3", "6", "--graph", str(path))
    plain = run(capsys, "family", "S3", "6")
    assert (code, err) == (0, "")
    assert out == plain[1] + f"dual graph written to {path}\n"
    assert run(capsys, "family", "S3", "6", "--json", "--graph", str(path)) == run(
        capsys, "family", "S3", "6", "--json"
    )


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_family_unwritable_graph_prints_only_the_error(tmp_path, capsys, flags):
    path = tmp_path / "missing" / "x.dot"
    argv = ["family", "T", "2", "2", "2", "2", *flags, "--graph", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "T", "2..4", "2..4", "2..4", "2..4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a1", "a2", "a3", "a4", "orders", "rho", "k_class", "k_value"]
    assert len(rows) == 1 + 81
    # deterministic lexicographic order
    assert rows[1][:4] == ["2", "2", "2", "2"]
    assert rows[2][:4] == ["2", "2", "2", "3"]
    assert all(r[5] == "1" for r in rows[1:])


def test_sweep_markdown_numerically_trivial_row(capsys):
    code, out, _ = run(capsys, "sweep", "S3", "2..12", "--format", "markdown")
    assert code == 0
    row5 = next(line for line in out.splitlines() if line.startswith("| 5 |"))
    assert "0/1" in row5 and "NumericallyTrivial" in row5


def test_sweep_json_all_rho_one(capsys):
    code, out, _ = run(capsys, "sweep", "S1", "2..12", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 11
    assert all(r["rho"] == 1 for r in records)
    assert [r["params"][0] for r in records] == list(range(2, 13))


def test_sweep_deterministic(capsys):
    first = run(capsys, "sweep", "V", "2..3", "0..2", "--format", "csv")
    second = run(capsys, "sweep", "V", "2..3", "0..2", "--format", "csv")
    assert first == second


def test_sweep_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "S3", "2..4", "-o", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().count("\n") == 4


def test_sweep_unwritable_output_fails_before_any_build(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(families, "build", no_build)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "sweep", "S3", "2..1999", "-o", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


def test_sweep_bad_spec(capsys):
    assert run(capsys, "sweep", "S3", "5..2")[0] == 1
    assert run(capsys, "sweep", "S3", "2..4", "2..4")[0] == 1
    assert run(capsys, "sweep", "nope", "2..4")[0] == 1
    assert run(capsys, "sweep", "S1", "1..3")[0] == 1
    want = (1, "", "error: bad range 'x..2'; expected N or LO..HI\n")
    assert run(capsys, "sweep", "S3", "x..2") == want


def test_sweep_approx_bytes(capsys):
    # the whole table, header to last row: one anti-ample, one trivial and
    # two ample members of S3
    argv = ("sweep", "S3", "4..7", "--approx", "--format")
    assert run(capsys, *argv, "csv") == (
        0,
        "b,orders,rho,k_class,k_value,k_value_approx\n"
        "4,2;7;38,1,AntiAmple,-1/19,-0.0526316\n"
        "5,2;7;63,1,NumericallyTrivial,0/1,0\n"
        "6,2;7;94,1,Ample,1/47,0.0212766\n"
        "7,2;7;131,1,Ample,4/131,0.0305344\n",
        "",
    )
    assert run(capsys, *argv, "markdown") == (
        0,
        "| b | orders | rho | k_class | k_value | k_value (approx.) |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| 4 | 2;7;38 | 1 | AntiAmple | -1/19 | -0.0526316 |\n"
        "| 5 | 2;7;63 | 1 | NumericallyTrivial | 0/1 | 0 |\n"
        "| 6 | 2;7;94 | 1 | Ample | 1/47 | 0.0212766 |\n"
        "| 7 | 2;7;131 | 1 | Ample | 4/131 | 0.0305344 |\n",
        "",
    )


def test_unknown_ids_are_refused_by_their_tables(capsys, monkeypatch):
    # one refusal per input: the family and suite tables, not argparse
    monkeypatch.setenv("COLUMNS", "100")  # no help line wraps
    known = ", ".join(families.FAMILIES)
    want = (1, "", f"error: unknown family 'nope'; known: {known}\n")
    assert run(capsys, "family", "nope", "3") == want
    assert run(capsys, "sweep", "nope", "2..4") == want
    known = ", ".join(verify.SUITE_NAMES)
    want = (1, "", f"error: unknown suite 'nope'; known: all, {known}\n")
    assert run(capsys, "verify", "nope") == want
    for command, names in (
        ("family", families.FAMILIES),
        ("sweep", families.FAMILIES),
        ("verify", ("all", *verify.SUITE_NAMES)),
    ):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert f"one of {', '.join(names)}\n" in capsys.readouterr().out


def test_verify_hjcf_and_kollar(capsys):
    code, out, _ = run(capsys, "verify", "hjcf")
    assert code == 0
    assert "PASS hjcf.roundtrip" in out
    assert "FAIL" not in out
    code, out, _ = run(capsys, "verify", "kollar")
    assert code == 0
    assert "PASS kollar.primitive_count (544 of 625" in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(
        verify._SUITES, "kollar", lambda: [verify.Check("kollar.fake", False, "boom")]
    )
    code, out, _ = run(capsys, "verify", "kollar")
    assert code == 2
    assert "FAIL kollar.fake" in out


def test_failed_build_check_exits_two(capsys, monkeypatch):
    spec = families.FAMILIES["S3"]

    def wrong_script(b):
        *built, chains = spec.script(b)
        return (*built, (HJFraction((2,)),) * len(chains))

    wrong = dataclasses.replace(spec, script=wrong_script)
    monkeypatch.setitem(families.FAMILIES, "S3", wrong)
    code, out, err = run(capsys, "family", "S3", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_family_size_guard_exits_one(capsys):
    code, out, err = run(capsys, "family", "S3", "100000")
    assert code == 1
    assert out == ""
    assert err == "error: parameters (100000,) sum to 100000; the limit is 2000\n"


def test_sweep_size_guard_checks_largest_corner(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a member was built")

    monkeypatch.setattr(families, "build", no_build)
    code, out, err = run(capsys, "sweep", "V", "2..1000", "0..1001")
    assert code == 1
    assert out == ""
    assert err == "error: parameters (1000, 1001) sum to 2001; the limit is 2000\n"


def no_build(*args):
    raise AssertionError("a member was built")


def test_sweep_member_count_guard_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(families, "build", no_build)
    code, out, err = run(capsys, "sweep", "T", "2..500", "2..500", "2..500", "2..500")
    assert code == 1
    assert out == ""
    assert err == "error: the box has 62001498001 members; the limit is 10000\n"
    assert families.MAX_SWEEP_MEMBERS == 10_000


def test_sweep_member_count_guard_boundary(capsys, monkeypatch):
    monkeypatch.setattr(families, "MAX_SWEEP_MEMBERS", 4)
    code, out, _ = run(capsys, "sweep", "S1-Pp", "2..3", "2..3")
    assert code == 0 and len(out.splitlines()) == 5
    code, out, err = run(capsys, "sweep", "S1-Pp", "2..3", "2..4")
    assert (code, out) == (1, "")
    assert err == "error: the box has 6 members; the limit is 4\n"


@pytest.mark.parametrize("family", families.FAMILIES)
def test_domain_error_exits_one(capsys, monkeypatch, family):
    monkeypatch.setattr(SurfaceModel, "blow_up", no_build)
    spec = families.FAMILIES[family]
    for i, name in enumerate(spec.names):
        params = [str(lo) for lo in spec.least]
        params[i] = str(spec.least[i] - 1)
        want = f"error: {name} must be >= {spec.least[i]}, got {params[i]}\n"
        assert run(capsys, "family", family, *params) == (1, "", want)
        assert run(capsys, "sweep", family, *params) == (1, "", want)


def test_main_repeated_in_one_process_matches_separate_runs(capsys):
    calls = [
        ["family", "S1", "3", "--json"],
        ["family", "nope", "3"],
        ["sweep", "S3", "2..6", "--format", "markdown"],
        ["eval", "3", "2", "2"],
        ["verify", "kollar"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, got in zip(calls, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "qhpp", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
        # invariants are not assert statements, so -O changes nothing
        optimized = subprocess.run(
            [sys.executable, "-O", "-m", "qhpp", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert got == (optimized.returncode, optimized.stdout, optimized.stderr), (
            "-O",
            argv,
        )
    assert in_process[1][0] == 1 and in_process[1][2].startswith("error: ")
