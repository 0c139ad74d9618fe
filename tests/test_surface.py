"""Static check that every top-level function and class in `src/uncal` is
reachable from the `uncal` command.

The check parses the package with `ast` and follows references from the
command's entry points (`cli.main`, `cli.entry`) through the package: a bare
name inside its own module, `from .m import name`, and `m.name` after
`from . import m`. Module-level statements that are not definitions run on
import, so their references count too. A definition reached from nowhere but
its own body is dead code, unless `ALLOWED` names it with the reason it is
kept.
"""

from __future__ import annotations

import ast
from pathlib import Path

import uncal

PACKAGE = Path(uncal.__file__).parent

ROOTS = {
    ("cli", "main"): "the `uncal` command",
    ("cli", "entry"): "the console-script entry point in pyproject.toml",
}

ALLOWED = {
    ("__init__", "fixture_path"): "path of a bundled fixture file",
    ("ragctl", "sweep_threshold"): "threshold curve behind the monotonicity criterion",
    ("recal", "ts_nll"): "NLL of a fixed temperature, the baseline of the TS criterion",
    ("recal", "ats_temperature"): "per-record temperature, which the floor test reads",
    ("trajspace", "random_space"): "seeded spaces for the theory criteria and inputs",
    ("trajspace", "space_to_dict"): "writes the spaces that `theory` reads",
    ("matio", "write_matrix"): "writes the hidden-state files that `probe` and `repr` read",
    ("matio", "write_row_ids"): "writes the sidecars that `probe` reads",
    ("jsonio", "rag_to_dict"): "writes the traces that `rag` reads",
    ("rewards", "verbal_reward"): "theory helper: the verbal-confidence reward",
    ("rewards", "emission_reward"): "theory helper: the emission-interface reward",
    ("trajspace", "log_odds_delta"): "theory helper: log-odds shift under one tilt",
    ("trajspace", "verbal_specialized_bound"): "theory helper: the verbal-reward bound",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    return {node.name: node for node in tree.body if isinstance(node, _DEFS)}


def _resolver(module: str, tree: ast.Module):
    """Function giving the (module, name) pairs of the package definitions
    that a node of `module` refers to."""
    names = {name: (module, name) for name in _definitions(tree)}
    submodules = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                local = alias.asname or alias.name
                if stmt.module is None:
                    submodules[local] = alias.name
                else:
                    names[local] = (stmt.module, alias.name)

    def references(node: ast.AST) -> set[tuple[str, str]]:
        refs = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in names:
                    refs.add(names[sub.id])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in submodules:
                    refs.add((submodules[sub.value.id], sub.attr))
        return refs

    return references


def _unreachable(allowed) -> list[tuple[str, str]]:
    """Definitions reached neither from `ROOTS` nor from `allowed`."""
    modules = _modules()
    resolvers = {module: _resolver(module, tree) for module, tree in modules.items()}
    definitions = {
        (module, name): node
        for module, tree in modules.items()
        for name, node in _definitions(tree).items()
    }
    reached = set(ROOTS) | set(allowed)
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                reached |= resolvers[module](stmt)
    frontier = list(reached)
    while frontier:
        module, name = frontier.pop()
        if (module, name) not in definitions:
            continue
        for ref in resolvers[module](definitions[module, name]) - reached:
            reached.add(ref)
            frontier.append(ref)
    return sorted(set(definitions) - reached)


def test_every_definition_is_reachable_from_the_command():
    assert _unreachable(ALLOWED) == []


def test_allowlist_names_existing_definitions():
    modules = _modules()
    for module, name in [*ROOTS, *ALLOWED]:
        assert name in _definitions(modules[module]), f"{module}.{name} no longer exists"


def test_allowlist_holds_only_what_the_command_does_not_reach():
    unreached = _unreachable({})
    for module, name in ALLOWED:
        assert (module, name) in unreached, f"{module}.{name} is reachable; drop it"
