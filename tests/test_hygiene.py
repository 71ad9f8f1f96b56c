"""Source hygiene: every imported name is used by the module importing it."""

import ast
from pathlib import Path

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


def test_scan_covers_package_tests_and_demos():
    dirs = {p.parent.name for p in _scanned_files()}
    assert dirs == {"lifelinesim", "tests", "demos"}


def test_no_unused_imports():
    unused = {str(p.relative_to(ROOT)): names for p in _scanned_files() if (names := _unused_imports(p))}
    assert unused == {}
