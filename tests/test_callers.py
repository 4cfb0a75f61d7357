"""Every public function, method, class, class field and module constant is read in the package.

Code that only the tests call belongs in ``tests/`` (see ``conftest.py``),
and an exception or record type that nothing raises, catches or builds is
dead, as is a record field that nothing reads. A name counts as used when it
is read somewhere in ``src/`` as a name or an attribute; being imported or
defined does not count, and a field must be read as an attribute.
"""

import ast
from pathlib import Path

import stabame

# Kept without a caller: merge_factors for building witness cells from
# prime-power witnesses found by separate searches, the two parsers for
# re-checking emitted artifacts.
KEPT = {"merge_factors", "parse_witness_line", "parse_table_csv"}


def _definitions_and_uses(root: Path):
    functions, classes, used = {}, {}, set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined = classes if isinstance(node, ast.ClassDef) else functions
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return functions, classes, used


def test_every_public_function_has_a_caller_in_the_package():
    functions, _, used = _definitions_and_uses(Path(stabame.__file__).parent)
    assert KEPT <= functions.keys()
    unused = {name: where for name, where in functions.items() if name not in used | KEPT}
    assert unused == {}


def test_every_public_class_is_read_in_the_package():
    _, classes, used = _definitions_and_uses(Path(stabame.__file__).parent)
    assert {"StabilizerGroup", "BudgetExceededError"} <= classes.keys()
    unused = {name: where for name, where in classes.items() if name not in used}
    assert unused == {}


def test_every_class_field_is_read_in_the_package():
    fields, read = {}, set()
    for path in sorted(Path(stabame.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{node.name}.{stmt.target.id}"] = f"{path.name}:{stmt.lineno}"
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert "StabilizerGroup.generators" in fields
    unread = {name: where for name, where in fields.items() if name.split(".")[1] not in read}
    assert unread == {}


def test_every_module_constant_is_read_in_the_package():
    constants, read = {}, set()
    for path in sorted(Path(stabame.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        constants[target.id] = f"{path.name}:{stmt.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert {"MAX_CHUNK", "NORM_TOL"} <= constants.keys()
    unread = {name: where for name, where in constants.items() if name not in read}
    assert unread == {}
