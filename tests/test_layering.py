"""The package's layers: which package modules each module may import.

The frozen record base imports nothing of the package, and every layer may
build on it. The core (errors, the game, the constraint order and its
sampler, the event space and the index model) knows nothing above it. The scenario model and
its file format rest on the core alone. Solving, Monte Carlo checks and
survey scoring each rest on the core and the scenario, never on each other
or on the CLI.
"""
import ast
from pathlib import Path

import pytest

import splitgame

PACKAGE = "splitgame"
SOURCE = Path(splitgame.__file__).parent

BASE = frozenset({"_record"})
CORE = BASE | {"errors", "game", "constraints", "sampling", "bayes", "index_model"}
ANALYSES = frozenset({"solver", "montecarlo", "survey"})

# module -> the package modules it may import
ALLOWED = {
    "_record": frozenset(),
    **dict.fromkeys(CORE - BASE, CORE),
    "scenario": CORE,
    **dict.fromkeys(ANALYSES, CORE | {"scenario"}),
    "cli": CORE | {"scenario"} | ANALYSES,
    "__init__": CORE | {"scenario"} | ANALYSES,
    "__main__": frozenset({"cli"}),
}


def package_imports(module: str) -> set:
    """The package modules that import statements anywhere in ``module``'s
    source name, relative or absolute, and those a ``DEFERRED`` tuple in it
    names (the CLI loads these on first use, with no import statement)."""
    modules = {path.stem for path in SOURCE.glob("*.py")}
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == PACKAGE and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "the package is flat"
            base = node.module or ""
            if node.level == 0:
                if base != PACKAGE and not base.startswith(PACKAGE + "."):
                    continue
                base = base[len(PACKAGE) + 1:]
            if base:
                found.add(base.split(".")[0])
            else:
                found.update(a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "DEFERRED" for target in node.targets
        ):
            found.update(ast.literal_eval(node.value))
    found.discard(module)
    return found


def test_table_covers_every_module():
    assert {path.stem for path in SOURCE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_layers(module):
    assert package_imports(module) <= ALLOWED[module]


def test_deferred_modules_count_as_imports():
    from splitgame.cli import DEFERRED

    assert set(DEFERRED) <= package_imports("cli")


def absolute_self_imports(module: str) -> list[str]:
    """The import statements in ``module`` that name the package by its
    absolute name, as ``line: name``."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{node.lineno}: {name}" for name in names
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_module_imports_the_package_by_its_name(module):
    # relative imports only: loaded under another name, the package must
    # not reach for (or silently use) another copy installed as splitgame
    assert absolute_self_imports(module) == []


def cached_functions_with_parameters(module: str) -> list[str]:
    """The functions in ``module`` decorated with ``functools.lru_cache``
    or ``functools.cache`` (called or not, by attribute or by name) that
    take a parameter."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            name = getattr(decorator, "attr", getattr(decorator, "id", None))
            if name in ("lru_cache", "cache"):
                args = node.args
                if (args.posonlyargs or args.args or args.vararg
                        or args.kwonlyargs or args.kwarg):
                    found.append(node.name)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_process_wide_cache_keyed_by_arguments(module):
    # a cache keyed by arguments keeps every argument it saw alive for the
    # whole process; what is derived from an object is kept on the object
    assert cached_functions_with_parameters(module) == []


VALUE_METHODS = frozenset({"__eq__", "__hash__", "__setattr__", "__delattr__"})


def value_methods_defined(module: str) -> list[str]:
    """``Class.method`` for each equality, hash, assignment or deletion
    method a class body in ``module`` defines, by ``def`` or assignment."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            names = []
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = getattr(statement, "targets", None) or [statement.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [f"{node.name}.{n}" for n in names if n in VALUE_METHODS]
    return found


@pytest.mark.parametrize("module", sorted(set(ALLOWED) - BASE))
def test_value_semantics_live_in_the_record_base(module):
    # a value type subclasses ``_record.Record``, which gives every record
    # the same equality, hash and refusal of assignment
    assert value_methods_defined(module) == []
