"""Every top-level function and class in `src/twkit` is used by the program.

A definition counts as used when a top-level statement other than its own
refers to it, in any `src/twkit` module or in a `perfbench/` script. The
package `__init__.py` only re-exports names, so it does not count.
`perfbench/tracer.py` patches functions and model classes by name, so a
string naming a definition counts there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "twkit").glob("*.py")) if p.name != "__init__.py"]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions allowed to have no caller in the program, each with its reason.
EXEMPT = {
    # writes the one input format that `synth --spec` reads; the CLI tests
    # build every spec input from it
    "save_spec",
}


def _statements(path: Path, strings: bool):
    """(top-level statement, the names it refers to) for each statement."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        yield stmt, names


def test_every_definition_is_referenced():
    statements = [(p, s, names) for p in SOURCES for s, names in _statements(p, strings=False)]
    statements += [(p, s, names) for p in SCRIPTS for s, names in _statements(p, strings=True)]
    unused = [
        f"{path.name}:{stmt.lineno} {stmt.name}"
        for path, stmt, _ in statements
        if path in SOURCES
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in EXEMPT
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not unused, f"definitions nothing in the program uses: {unused}"
