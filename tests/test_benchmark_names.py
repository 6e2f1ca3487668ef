"""Every program name the benchmark reaches for resolves.

``benchmarks/layertrace.py`` wraps the functions named in its ``TARGETS``,
and a traced round fails when one is missing; ``benchmarks/workloads.py``
imports names from the package inside its workers and gates. Both files are
read here as source text, so nothing under ``benchmarks/`` is imported or
written, and a removal from the package that the benchmark still needs fails
in the tests rather than only in a benchmark round.
"""

import ast
import importlib
from pathlib import Path

import taulap

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))


def _assigned(tree: ast.Module, name: str) -> object:
    """The literal value of a module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` would succeed: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_trace_target_is_in_the_program() -> None:
    """Each ``TARGETS`` entry not in ``MAY_BE_MISSING``, looked up as the tracer does."""
    tree = _tree("layertrace.py")
    targets = _assigned(tree, "TARGETS")
    may_be_missing = set(_assigned(tree, "MAY_BE_MISSING"))
    assert targets
    missing = []
    for module, attr, _ in targets:
        if f"{module}.{attr}" in may_be_missing:
            continue
        owner = importlib.import_module(f"taulap.{module}")
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or last not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_name_the_workloads_import_is_in_the_program() -> None:
    """Each ``from taulap... import name``, and each attribute read off a module imported so."""
    imported: list[tuple[str, str]] = []
    modules: dict[str, str] = {}
    tree = _tree("workloads.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "taulap":
            for alias in node.names:
                imported.append((node.module, alias.name))
                if node.module == "taulap":
                    modules[alias.asname or alias.name] = f"taulap.{alias.name}"
    assert imported
    missing = [f"{m}.{n}" for m, n in imported if not _resolves(m, n)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            if not _resolves(module, node.attr):
                missing.append(f"{module}.{node.attr}")
    assert missing == []


def test_every_public_name_resolves() -> None:
    assert taulap.__all__
    assert [name for name in taulap.__all__ if not hasattr(taulap, name)] == []
