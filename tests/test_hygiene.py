import ast
from pathlib import Path

import pytest

import orbitcalc.oracles

MODULES = sorted(
    path
    for path in Path(orbitcalc.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no name in the module
    refers to; a mention in a docstring or comment does not count."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_check_sees_docstring_only_use():
    source = 'import os\nfrom re import match, sub\n"""os and sub"""\nmatch\n'
    assert unused_imports(source) == ["os", "sub"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = Path(orbitcalc.__file__).parent
ORACLES = ("_greatest", "brute_force_collapse", "brute_force_min_special_above",
           "_combine", "_rank", "jordan_type_oracle")


def test_oracles_import_only_partition_and_dominance():
    """The oracles share no code with what they check: from the package
    they take only ``Partition`` and ``dominance_leq``."""
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.startswith("orbitcalc")
        ):
            package.append((node.level, node.module, [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("orbitcalc") for a in node.names)
    assert package == [(1, "partitions", ["Partition", "dominance_leq"])]


def test_harness_defines_no_oracle():
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert defined.isdisjoint(ORACLES)
    assert all(hasattr(orbitcalc.oracles, name) for name in ORACLES)
