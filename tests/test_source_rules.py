"""Rules the package source keeps."""

import ast
import importlib
import json
import re
from itertools import product
from pathlib import Path

import qhpp
from qhpp.cli import main
from qhpp.families import FAMILIES, build

SOURCES = sorted(Path(qhpp.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in the README."""
    after = README.read_text().split(heading, 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_no_assert_statements():
    # invariants must hold under ``python -O``, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_no_private_names_across_modules():
    # a module's private names are its own: importing one from another
    # qhpp module means the two share state that has no public name
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "qhpp")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_every_exported_name_exists():
    # a deletion must not leave a dangling name in an ``__all__``
    modules = [qhpp] + [
        importlib.import_module(f"qhpp.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) == len(SOURCES) - 1
    assert missing == []


def test_package_exports_the_library_modules_all():
    # one list of public names: ``qhpp`` re-exports each library module's
    # ``__all__``, in this order, and nothing else
    modules = [qhpp.hjcf, qhpp.kollar, qhpp.lattice, qhpp.contraction, qhpp.families]
    joined = [name for module in modules for name in module.__all__]
    assert qhpp.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(qhpp, name) is getattr(module, name), name


def test_readme_family_table_matches_registry():
    # the README families table states each family's parameters, their
    # least values and its chain templates; each must match the registry
    table = README.read_text().split("### Families", 1)[1].split("\n\n", 2)[1]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()[2:]
    ]
    ids = [row[0].strip("`") for row in rows]
    assert sorted(ids) == sorted(FAMILIES)
    assert len(ids) == len(set(ids))
    for id_cell, params_cell, chains_cell in rows:
        family = id_cell.strip("`")
        spec = FAMILIES[family]
        names, domain = re.fullmatch(r"`([^`]*)` \((.*)\)", params_cell).groups()
        assert tuple(names.split()) == spec.names
        if len(set(spec.least)) == 1:
            assert domain == f">= {spec.least[0]}"
        else:
            assert domain == ", ".join(
                f"{n} >= {lo}" for n, lo in zip(spec.names, spec.least)
            )
        # ``2 x E`` is a run of E twos: ``*[2]*E`` in Python
        templates = [
            re.sub(r"2 x (\([^)]*\)|\w+)", r"*[2]*\1", t)
            for t in re.findall(r"`(\[[^`]*\])`", chains_cell)
        ]
        assert templates
        for params in product(*(range(lo, lo + 4) for lo in spec.least)):
            env = dict(zip(spec.names, params))
            want = [tuple(eval(t, {}, env)) for t in templates]
            got = [w.entries for w in build(family, params).expected_chains]
            assert got == want, (family, params)


def test_readme_quickstart_runs():
    exec(readme_block("## Library quickstart", "python"), {})


def test_readme_json_record_is_what_family_prints(capsys):
    assert main(["family", "S1", "3", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(readme_block("## Output formats", "json")) == printed
