"""Static checks that every top-level function and class in `src/uncal` is
reachable from the `uncal` command, and that every parameter with a default
in what the command reaches is set by some call.

The checks parse the package with `ast` and follow references from the
command's entry points (`cli.main`, `cli.entry`) through the package: a bare
name inside its own module, `from .m import name`, and `m.name` after
`from . import m`. Module-level statements that are not definitions run on
import, so their references count too. A definition reached from nowhere but
its own body is dead code, unless `ALLOWED` names it with the reason it is
kept. A default that no call in the package overrides is a constant in
disguise: a parameter that does nothing. The functions the benchmark's
tracer names in `EXTRA_SPANS` must exist, since it looks them up by name.
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
    ("matio", "write_matrix"): "writes the hidden-state files that `probe` and `repr` read",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    return {node.name: node for node in tree.body if isinstance(node, _DEFS)}


def _resolver(module: str, tree: ast.Module):
    """Functions giving, for a node of `module`, the (module, name) pairs of
    the package definitions it refers to, and the one definition a name or
    attribute expression denotes (None if it denotes none)."""
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

    def denotes(expr: ast.AST) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name) and isinstance(expr.ctx, ast.Load):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id in submodules:
                return submodules[expr.value.id], expr.attr
        return None

    def references(node: ast.AST) -> set[tuple[str, str]]:
        return {ref for sub in ast.walk(node) if (ref := denotes(sub)) is not None}

    return references, denotes


def _package():
    """The parsed modules, each module's resolver pair, and every top-level
    definition by (module, name)."""
    modules = _modules()
    resolvers = {module: _resolver(module, tree) for module, tree in modules.items()}
    definitions = {
        (module, name): node
        for module, tree in modules.items()
        for name, node in _definitions(tree).items()
    }
    return modules, resolvers, definitions


def _reached(roots) -> set[tuple[str, str]]:
    """Definitions reached from `roots` and from module-level statements."""
    modules, resolvers, definitions = _package()
    resolvers = {module: references for module, (references, _) in resolvers.items()}
    reached = set(roots)
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
    return reached


def _unreachable(allowed) -> list[tuple[str, str]]:
    """Definitions reached neither from `ROOTS` nor from `allowed`."""
    return sorted(set(_package()[2]) - _reached(set(ROOTS) | set(allowed)))


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; keyword-only
    parameters have position None."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    out = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
    out += [
        (None, arg.arg)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _unset_defaults() -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each defaulted parameter of a
    function the command reaches (outside `ALLOWED`) that no call in the
    package passes, by keyword or by position."""
    modules, resolvers, definitions = _package()
    passed: dict[tuple[str, str], set] = {}
    for module, tree in modules.items():
        denotes = resolvers[module][1]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and (callee := denotes(call.func)):
                given = passed.setdefault(callee, set())
                # a keyword's arg is None for **kwargs, which may pass any name
                given.update(k.arg or "**" for k in call.keywords)
                given.update(range(len(call.args)))
                if any(isinstance(a, ast.Starred) for a in call.args):
                    given.add("*")
    unset = []
    for key in sorted(_reached(ROOTS) - set(ALLOWED)):
        fn = definitions.get(key)
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        given = passed.get(key, set())
        for position, name in _defaulted(fn):
            ways = {name, "**"} if position is None else {name, "**", position, "*"}
            if not ways & given:
                unset.append((*key, name))
    return unset


def test_every_definition_is_reachable_from_the_command():
    assert _unreachable(ALLOWED) == []


def test_every_default_is_overridden_by_some_call():
    assert _unset_defaults() == []


def test_allowlist_names_existing_definitions():
    modules = _modules()
    for module, name in [*ROOTS, *ALLOWED]:
        assert name in _definitions(modules[module]), f"{module}.{name} no longer exists"


def _tracer_extra_spans() -> tuple:
    """`EXTRA_SPANS` of the benchmark's tracer, read from its source."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for stmt in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXTRA_SPANS" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{source} assigns no EXTRA_SPANS")


def test_tracer_extra_spans_name_package_functions():
    # the tracer looks each one up without a default, so a missing name
    # breaks every traced benchmark run
    modules = _modules()
    spans = _tracer_extra_spans()
    assert spans
    for qualified, name in spans:
        package, _, module = qualified.partition(".")
        assert package == "uncal" and module in modules, f"{qualified} is no uncal module"
        node = _definitions(modules[module]).get(name)
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)), (
            f"{qualified}.{name} is no function"
        )


def test_allowlist_holds_only_what_the_command_does_not_reach():
    unreached = _unreachable({})
    for module, name in ALLOWED:
        assert (module, name) in unreached, f"{module}.{name} is reachable; drop it"


def test_only_the_command_scores_predictions():
    # fits and the probe read the scored columns the command hands them, so
    # a file is scored once, at the command's --f1-threshold
    modules, resolvers, _ = _package()
    scorers = {
        module
        for module, tree in modules.items()
        if ("rewards", "score_predictions") in resolvers[module][0](tree)
    }
    assert scorers == {"cli"}


# the one sink every output goes through, and the writer kept for tests alone
WRITERS = {("jsonio", "atomic"), ("matio", "write_matrix")}
_TEMPFILES = frozenset({"tempfile", "mkstemp", "mkdtemp", "TemporaryFile", "NamedTemporaryFile",
                        "SpooledTemporaryFile", "TemporaryDirectory"})


def _name_of(node) -> str | None:
    """The name a Name node reads, or the attribute an Attribute node reads."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _opens_for_writing(node: ast.AST) -> bool:
    """Does `node` open a file for writing: an `open` call whose mode is
    not a constant without w, a or x (no mode is "r"), `write_text` or
    `write_bytes`, `os.fdopen`, or anything of `tempfile`?"""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name in _TEMPFILES for alias in node.names) or (
            isinstance(node, ast.ImportFrom) and node.module == "tempfile")
    if _name_of(node) in _TEMPFILES | {"fdopen", "write_text", "write_bytes"}:
        return True
    if isinstance(node, ast.Call) and _name_of(node.func) == "open":
        receiver = _name_of(getattr(node.func, "value", None))  # the `os` of `os.open`
        if receiver == "os":
            return True  # opened by flags, not a mode
        # the mode follows the path in `open(p, m)` and `io.open`, and leads in `Path(p).open(m)`
        first = 0 if isinstance(node.func, ast.Attribute) and receiver != "io" else 1
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[first:first + 1]
        mode = modes[0] if modes else ast.Constant("r")
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax"))
    return False


def _file_writers(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, top-level definition, or "<module>" for a statement outside
    one) of each node of `tree` that opens a file for writing."""
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, _DEFS) else "<module>"
        if any(_opens_for_writing(node) for node in ast.walk(stmt)):
            found.add((module, owner))
    return found


def test_every_output_goes_through_the_atomic_sink():
    # an output written elsewhere could be left half-written, or replace its
    # file before the input it rewrites is read; `import tempfile` sits at
    # module level, so that statement is let through by name alone
    modules = _modules()
    found = set().union(*(_file_writers(tree, module) for module, tree in modules.items()))
    assert found - {("jsonio", "<module>")} == WRITERS
    imports = [stmt for stmt in modules["jsonio"].body if _opens_for_writing(stmt)]
    assert [ast.unparse(stmt) for stmt in imports] == ["import tempfile"]
    # the check sees each way a writer could open a file
    for line in ['open(p, "w")', 'open(p, mode="ab")', "open(p, m)", 'Path(p).open("x")',
                 'io.open(p, "w")', "os.open(p, flags)", "os.fdopen(fd)", "tempfile.mkstemp()",
                 "from tempfile import mkstemp", "p.write_text(t)", "p.write_bytes(b)"]:
        assert _file_writers(ast.parse(f"def f():\n    {line}\n"), "m") == {("m", "f")}, line
    for line in ['open(p, "rb", buffering=0)', "open(p)", 'open(p, mode="r")', "Path(p).open()",
                 'io.open(p, "rb")', "fh.write(t)"]:
        assert _file_writers(ast.parse(f"def f():\n    {line}\n"), "m") == set(), line


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; a newer syntax (such
    # as a `type` statement or an `except*` group) would fail there at import
    root = Path(__file__).resolve().parent.parent
    files = [path for part in ("src/uncal", "tests", "perfbench")
             for path in sorted((root / part).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
