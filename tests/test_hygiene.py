"""Source hygiene: every imported name is used by the module importing it,
every exported name exists, every private definition is referenced, every
public definition has a caller outside the tests, every CLI option is
read, the CLI's import path stays clear of slow modules, no package
module imports the test-oracle module ``graphs``, every binding the
benchmark's tracer wraps still exists, and the memo kinds the tests
allow are the ones the package uses."""

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import lifelinesim
from lifelinesim import cli
from test_resume import MEMO_KINDS

ROOT = Path(__file__).resolve().parents[1]


def _scanned_files():
    package = [p for p in (ROOT / "src" / "lifelinesim").glob("*.py") if p.name != "__init__.py"]
    return sorted(package + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _unreferenced_private_definitions(path: Path) -> list[str]:
    """Top-level ``_name`` functions and classes, and their ``_name`` methods,
    that nothing else in the module mentions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = [node for node in tree.body if isinstance(node, kinds)]
    defined += [m for c in defined if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, kinds)]
    private = {d.name for d in defined if d.name.startswith("_") and not d.name.endswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(private - used)


def _identifiers(tree) -> list[str]:
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def _uncalled_public_definitions() -> list[str]:
    """Public top-level functions and classes of the package, and public
    methods, that no package module names outside their own definition,
    and no demo or benchmark script names at all. Re-exports and tests
    do not count."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted((ROOT / "src" / "lifelinesim").glob("*.py"))}
    callers = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
               if not p.name.startswith("test_")]
    named = Counter(name for tree in [*trees.values(), *callers] for name in _identifiers(tree))
    uncalled = []
    for path, tree in trees.items():
        top = [node for node in tree.body if isinstance(node, kinds)]
        methods = [(c, m) for c in top if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, kinds)]
        for owner, node in [(None, d) for d in top] + methods:
            if node.name.startswith("_"):
                continue
            own = _identifiers(node).count(node.name)  # a recursive call is no caller
            if named[node.name] <= own:
                uncalled.append(f"{path.stem}.{owner.name + '.' if owner else ''}{node.name}")
    return uncalled


def _args_reads(handler: str) -> set[str]:
    """Attributes that a ``cli.py`` function reads off its ``args``
    parameter, itself or in a ``cli.py`` function it passes ``args`` to."""
    tree = ast.parse((ROOT / "src" / "lifelinesim" / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads: set[str] = set()
    todo, seen = [(handler, 0)], set()
    while todo:
        name, position = todo.pop()
        if (name, position) in seen:
            continue
        seen.add((name, position))
        param = functions[name].args.args[position].arg
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
                todo += [(node.func.id, i) for i, a in enumerate(node.args)
                         if isinstance(a, ast.Name) and a.id == param]
    return reads


def _unread_cli_options() -> dict[str, list[str]]:
    """Per subcommand, the option ``dest``s its handler never reads."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for command, parser in commands.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        if missing := sorted(dests - _args_reads(parser.get_default("func").__name__)):
            unread[command] = missing
    return unread


def _memo_kinds() -> set[str]:
    """The first element of every key the package passes to ``cached``:
    a tuple literal's, or that of the tuple a package function returns."""
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted((ROOT / "src" / "lifelinesim").glob("*.py"))]
    returned = {node.name: ret.value for tree in trees for node in tree.body
                if isinstance(node, ast.FunctionDef)
                for ret in ast.walk(node) if isinstance(ret, ast.Return)}
    kinds = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cached":
                key = node.args[0]
                if isinstance(key, ast.Call):
                    key = returned[key.func.id]
                kinds.add(ast.literal_eval(key.elts[0]))
    return kinds


def test_scan_covers_package_tests_and_demos():
    dirs = {p.parent.name for p in _scanned_files()}
    assert dirs == {"lifelinesim", "tests", "demos"}


def test_no_unused_imports():
    unused = {str(p.relative_to(ROOT)): names for p in _scanned_files() if (names := _unused_imports(p))}
    assert unused == {}


def test_exported_names_resolve():
    assert [name for name in lifelinesim.__all__ if not hasattr(lifelinesim, name)] == []


def test_no_unreferenced_private_definitions():
    package = sorted((ROOT / "src" / "lifelinesim").glob("*.py"))
    unreferenced = {p.name: names for p in package if (names := _unreferenced_private_definitions(p))}
    assert unreferenced == {}


def test_every_public_definition_has_a_caller():
    assert _uncalled_public_definitions() == []


def test_every_cli_option_is_read():
    # an option its handler never reads is parsed and silently ignored
    assert _unread_cli_options() == {}


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats roughly doubles the start-up of every CLI
    # process; metrics takes its p-values from scipy.special instead
    src = str(Path(lifelinesim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, lifelinesim.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_package_module_imports_graphs():
    # graphs keeps only the reference Dijkstra; connectivity is answered
    # by network.component_roots
    importers = []
    for path in sorted((ROOT / "src" / "lifelinesim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("graphs" in name.split(".") for name in names):
                importers.append(path.stem)
    assert importers == []


def test_benchmark_tracer_finds_every_binding_it_wraps():
    # the tracer patches module attributes by name (recovery.solve_power,
    # simulation.assign_traffic, graphs.dijkstra, ...), so dropping one
    # breaks traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [b for spans in tracer.SPANS.values() for b in spans]
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(bindings, originals))
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(bindings, originals))


def test_memo_kinds_match_the_package():
    # test_resume asserts that a run leaves only these kinds in the memo
    assert _memo_kinds() == MEMO_KINDS
