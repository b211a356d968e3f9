"""The package surface: every public top-level function, class and
UPPER_CASE constant of ldglimit has a caller in the package, the benchmark
or the acceptance gate, not only in the unit tests; and no module of the
package or the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "ldglimit").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]

# public names kept without a caller, each with its reason
ALLOWED = {"corrector_b_residual": "ROADMAP item 3"}
# (module, name) imports kept unused, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    ("test_acceptance", "fit_rate"): "the acceptance gate stays fixed",
}


def _references(path: Path) -> set[str]:
    """Names a module loads (not the ones it binds), reads as attributes
    or imports."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_public_definition_has_a_caller():
    defined = {}
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    defined[name] = f"{path.stem}.{name}"
    # the scan sees the package's functions and constants
    assert {"harmonic_rhs_array", "CACHE_BLOCK"} <= set(defined)
    referenced = set().union(*(_references(path) for path in CALLERS))
    orphans = sorted(
        qualified
        for name, qualified in defined.items()
        if name not in referenced and name not in ALLOWED
    )
    assert orphans == []
    # an allowlist entry that gains a caller or goes away must be dropped
    assert all(
        name in defined and name not in referenced for name in ALLOWED
    )


def _unused_imports(path: Path) -> set[str]:
    """Names a module binds by import and never loads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - loaded


def test_no_unused_imports():
    unused = {
        (path.stem, name)
        for path in SRC + sorted((ROOT / "tests").glob("*.py"))
        for name in _unused_imports(path)
    }
    # an allowlist entry that gets used or goes away must be dropped
    assert unused == set(UNUSED_IMPORTS_ALLOWED)
