"""Every public function and method of the package has a caller in the package.

Code that only the tests call belongs in ``tests/`` (see ``conftest.py``).
A name counts as used when it is read somewhere in ``src/`` as a name or an
attribute; being imported or defined does not count.
"""

import ast
from pathlib import Path

import stabame

# Kept without a caller: merge_factors for deriving no-go cells from factor
# witnesses, the two parsers for re-checking emitted artifacts.
KEPT = {"merge_factors", "parse_witness_line", "parse_table_csv"}


def _definitions_and_uses(root: Path):
    defined, used = {}, set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_function_has_a_caller_in_the_package():
    defined, used = _definitions_and_uses(Path(stabame.__file__).parent)
    assert KEPT <= defined.keys()
    unused = {name: where for name, where in defined.items() if name not in used | KEPT}
    assert unused == {}
