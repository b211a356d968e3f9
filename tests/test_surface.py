"""The package surface: every public top-level function, class and
UPPER_CASE constant of ldglimit, every public method and property of its
classes, and every public field of its dataclasses, has a caller or reader
in the package, the benchmark or the acceptance gate, not only in the unit
tests; every private top-level function, class and constant of the package
is referenced in the package beyond its own definition; and no module of
the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "ldglimit").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"
]

# public definitions kept without a caller or reader, each with its reason
ALLOWED = {
    "asymptotics.corrector_b_residual": "ROADMAP item 1 (solve b and report it)",
    "solvers.SolveResult.backtracks": "ROADMAP item 3, step 2 (sweep.csv backtracks)",
}
# (module, name) imports kept unused, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    ("test_acceptance", "fit_rate"): "the acceptance gate stays fixed",
}


def _references(path: Path) -> set[str]:
    """Names a module loads (not the ones it binds), reads as attributes
    or imports.  An attribute read is also kept as ".name", the one way a
    method, property or dataclass field is read (an assignment or a keyword
    argument only writes it)."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                refs.add("." + node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _public_definitions(path: Path) -> dict[str, str]:
    """Qualified name of each public top-level function, class and
    UPPER_CASE constant of a module, and of each public method and property
    of its classes and field of its dataclasses, mapped to the reference
    that counts as its use (".name" for the members)."""
    defined = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif (
                    isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and _is_dataclass(node)
                ):
                    name = member.target.id
                else:
                    continue
                defined[f"{path.stem}.{node.name}.{name}"] = "." + name
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[f"{path.stem}.{node.name}"] = node.name
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    defined[f"{path.stem}.{t.id}"] = t.id
    return {
        q: ref for q, ref in defined.items() if not q.rsplit(".", 1)[1].startswith("_")
    }


def test_every_public_definition_has_a_caller():
    defined = {}
    for path in SRC:
        defined.update(_public_definitions(path))
    # the scan sees the package's functions, constants, methods, properties
    # and dataclass fields
    assert {
        "geometry.harmonic_rhs_array",
        "tensor_algebra.CACHE_BLOCK",
        "fields.GridSpec.axis_coords",
        "runner.SweepReport.fields_by_l",
        "asymptotics.DiagnosticFields.y_field",
        "asymptotics.DiagnosticFields.r_field",
        "solvers.SolveResult.backtracks",
    } <= set(defined)
    referenced = set().union(*(_references(path) for path in CALLERS))
    orphans = sorted(
        qualified
        for qualified, ref in defined.items()
        if ref not in referenced and qualified not in ALLOWED
    )
    assert orphans == []
    # an allowlist entry that gains a caller or goes away must be dropped
    assert all(
        qualified in defined and defined[qualified] not in referenced
        for qualified in ALLOWED
    )


def _private_definitions(path: Path) -> set[str]:
    """Names of a module's private (underscored, not dunder) top-level
    functions, classes and constants."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_every_private_definition_has_a_caller():
    defined = {
        f"{path.stem}.{name}": name
        for path in SRC
        for name in _private_definitions(path)
    }
    # the scan sees private functions and constants, lower-case ones too
    assert {
        "solvers._monotone_flow",
        "solvers._DT_FLOOR",
        "runner._IN",
        "cli._THREAD_VARS",
    } <= set(defined)
    # the unit tests do not count: the package itself must use the name
    referenced = set().union(*(_references(path) for path in SRC))
    unused = sorted(q for q, name in defined.items() if name not in referenced)
    assert unused == []


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
