"""`src` holds only what the program calls, and takes only what it passes.

Every top-level function and class of `src/waverom`, and every method
that is not a dunder, must be referenced somewhere in `src`, `scripts`
or `perfbench`.  A reference is a name, an attribute, or a string
constant that spells a dotted name, the way `perfbench/tracer.py`
resolves its hooks.  Exports in `waverom/__init__.py` do not count, and
neither do the tests, so code that only tests reach fails here: it
belongs in the tests (`tests/oracles.py`) or nowhere.

The same holds for parameters.  Each parameter of those functions and
methods, and of each explicit `__init__` (judged by the calls of its
class), must be passed by some call in that code, and each default must
be left out by some call.  Calls are matched by bare name.  A call
through `*args` or `**kwargs`, or a function stored as a value (a
factory table of `waverom.config`), passes and omits every parameter; a
class named as a value (an `except` clause, an `isinstance` check) is
not called there, so it stands for no call.  A function that no call
names, such as a hook perfbench resolves from a string, has no call to
judge.

The same holds for config keys.  Each key the loader accepts must be set
by a shipped config, by the config of a benchmark workload or by the
config the Marmousi smoke script writes, and so must each parameter of
a model factory, under `model` or `search.background`.
"""

import ast
import importlib.util
import inspect
import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

from waverom.config import LAYOUTS, MODEL_FACTORIES, SECTION_KEYS
from waverom.model import make_bump_lattice

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "waverom"

#: Kept although nothing in the program refers to them, each with its reason.
ALLOWED = {
    "load_rom": "reads the rom.json that `waverom rom` writes",
    "load_parametrization": "reads the parametrization.json that `waverom invert` writes",
}

#: Config keys the loader accepts although no config outside the tests sets
#: them, each with its reason.
ALLOWED_KEYS = {
    ("reference", "refine"): "`scripts/artifact_digests.py` runs it at 2",
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

#: A call that passes and omits every parameter.
ANY = None

#: A name used as a value: ANY for a function, no call for a class.
VALUE = "value"


def checked_functions():
    """(qualified name, bare name, def node, is a method) of every checked
    function and method in src; an explicit `__init__` goes by its class's
    name, the name its calls use."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        yield f"{node.name}.__init__", node.name, item, True
                    elif not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name, item, True


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every checked definition in src."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                found[node.name] = node.name
    for qualified, name, _, _ in checked_functions():
        found[qualified] = name
    return found


def program_trees():
    """The parsed modules of src (without `__init__.py`), scripts and perfbench."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO / "scripts").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in sorted(paths)]


def references() -> set[str]:
    """Every name, attribute and dotted-name string part outside the tests."""
    seen = set()
    for tree in program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if DOTTED_NAME.fullmatch(node.value):
                    seen.update(node.value.split("."))
    return seen


def calls() -> dict[str, list]:
    """Bare name -> each call outside the tests, as (positional count,
    keyword names) or ANY, and each use of the name as a value, VALUE."""
    found = defaultdict(list)
    for tree in program_trees():
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords
                ):
                    found[name].append(ANY)
                else:
                    found[name].append((len(node.args), {kw.arg for kw in node.keywords}))
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in callees
            ):
                found[node.id].append(VALUE)
    return found


def parameter_faults() -> list[str]:
    """'<function>(<parameter>): ...' for each parameter that no call
    passes and each default that no call leaves out."""
    program = calls()
    faults = []
    for qualified, name, node, method in checked_functions():
        constructor = node.name == "__init__"
        sites = [ANY if site is VALUE else site for site in program.get(name, [])
                 if not (constructor and site is VALUE)]
        if not sites:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = {a.arg for a in positional[len(positional) - len(args.defaults):]}
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if method and not static:
            positional = positional[1:]
        params = [(i, a.arg) for i, a in enumerate(positional)]
        params += [(math.inf, a.arg) for a in args.kwonlyargs]
        for index, param in params:
            passed = [site is ANY or index < site[0] or param in site[1] for site in sites]
            omitted = [site is ANY or not p for site, p in zip(sites, passed)]
            if not any(passed):
                faults.append(f"{qualified}({param}): passed by no call")
            elif param in defaulted and not any(omitted):
                faults.append(f"{qualified}({param}=): default left out by no call")
    return faults


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


def test_every_parameter_and_default_is_used_outside_the_tests():
    faults = parameter_faults()
    assert faults == [], "set only by tests or never:\n" + "\n".join(faults)


def accepted_keys() -> set[tuple[str, str]]:
    """(section, key) of every key the loader accepts: the keys of
    SECTION_KEYS, and the parameters of the layout functions and of
    make_bump_lattice after their first, the grid or the background."""
    keys = {(section, key) for section, names in SECTION_KEYS.items() for key in names}
    for section, functions in (
        ("acquisition.layout", LAYOUTS.values()),
        ("search", [make_bump_lattice]),
    ):
        for fn in functions:
            keys |= {(section, key) for key in list(inspect.signature(fn).parameters)[1:]}
    return keys


def set_keys(tmp_path) -> set[tuple[str, str]]:
    """(section, key) of every key that a shipped config, a benchmark
    workload's config (seed 0) or the Marmousi smoke config sets, with
    nested sections named by their dotted path."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "make_marmousi_smoke", REPO / "scripts" / "make_marmousi_smoke.py"
    )
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)

    configs = [json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))]
    configs += [workload(REPO, tmp_path, 0).config for workload in WORKLOADS.values()]
    configs.append(json.loads(smoke.write_smoke_case(tmp_path / "smoke").read_text()))

    found = set()

    def walk(section: str, value):
        if isinstance(value, dict):
            for key, item in value.items():
                found.add((section, key))
                walk(f"{section}.{key}" if section else key, item)

    for config in configs:
        walk("", config)
    return found


def test_every_config_key_is_set_outside_the_tests(tmp_path):
    unset = sorted(accepted_keys() - set_keys(tmp_path) - set(ALLOWED_KEYS))
    assert unset == [], f"accepted keys that no config outside the tests sets: {unset}"


def test_allowed_keys_are_accepted_and_unset(tmp_path):
    assert set(ALLOWED_KEYS) <= accepted_keys()
    assert not set(ALLOWED_KEYS) & set_keys(tmp_path)


def test_every_model_factory_parameter_is_set_outside_the_tests(tmp_path):
    set_model_keys = {key for section, key in set_keys(tmp_path)
                      if section in ("model", "search.background")}
    unset = sorted(
        f"{name}({param})"
        for name, factory in MODEL_FACTORIES.items()
        for param in inspect.signature(factory).parameters
        if param != "g" and param not in set_model_keys
    )
    assert unset == [], f"model factory parameters that no config outside the tests sets: {unset}"
