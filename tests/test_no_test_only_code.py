"""`src` holds only what the program calls.

Every top-level function and class of `src/waverom`, and every method
that is not a dunder, must be referenced somewhere in `src`, `scripts`
or `perfbench`.  A reference is a name, an attribute, or a string
constant that spells a dotted name, the way `perfbench/tracer.py`
resolves its hooks.  Exports in `waverom/__init__.py` do not count, and
neither do the tests, so code that only tests reach fails here: it
belongs in the tests (`tests/oracles.py`) or nowhere.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "waverom"

#: Kept although nothing in the program refers to them, each with its reason.
ALLOWED = {
    "load_rom": "reads the rom.json that `waverom rom` writes",
    "load_parametrization": "reads the parametrization.json that `waverom invert` writes",
    "Snapshots.block": "part of the dense snapshot oracle that perfbench resolves by name",
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every checked definition in src."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


def references() -> set[str]:
    """Every name, attribute and dotted-name string part outside the tests."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO / "scripts").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED_NAME.fullmatch(node.value):
                    seen.update(node.value.split("."))
    return seen


def test_every_definition_in_src_is_referenced_outside_the_tests():
    seen = references()
    unused = sorted(
        qualified
        for qualified, name in definitions().items()
        if name not in seen and qualified not in ALLOWED
    )
    assert unused == [], f"referenced only by tests or nowhere: {unused}"


def test_allowed_names_are_still_defined():
    assert set(ALLOWED) <= set(definitions())
