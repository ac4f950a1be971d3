import ast
import re
import sys
import types
from pathlib import Path

import quadcf

SRC = Path(quadcf.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_frozen():
    # the README lists these, module by module; a new export must be added there too
    frozen = {
        # arith
        "Factorization", "InvariantError", "factorize",
        # surd
        "CFExpansion", "Surd", "cf_expand", "compare_to_fraction", "convergents",
        "make_surd", "mobius", "periodic_tail", "scale",
        # gauss_kuzmin
        "Cylinder", "GaussMeasure", "Pattern", "c_w", "cylinder", "pattern_frequency",
        # quad_orders
        "AlgInt", "FieldData", "Mat2", "OrderSpec", "R_of", "alg_pow", "alg_value",
        "conductor_of_surd", "field_data", "phi", "regulator_of_order", "unit_group_index",
        # matrix_orders
        "mat_order_mod",
        # hecke
        "HeckeChain", "are_neighbors", "chain_between", "conductor_bounds_check",
        "scale_chain", "unit_index_check",
        # class_geodesics
        "IndefForm", "TotalLength", "class_number", "reduced_forms", "rho", "total_length",
        # experiments
        "DeviationRow", "OrderRecord", "ScanConfig", "UsageError", "artin_scan", "artin_stats",
        "artin_summary_lines", "converge_scan", "converge_stats", "converge_summary_lines",
        "duke_scan", "duke_stats", "duke_summary_lines", "render_table",
    }
    public = {
        name for name, obj in vars(quadcf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == frozen


def test_only_checked_record_defines_make():
    # a validated record derives its _make from checked_record, which
    # builds through __new__; one defined or forgotten in a class body
    # would let _make and _replace skip the record's checks
    from quadcf.arith import checked_record

    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                else:
                    names = [t.id for t in ast.walk(stmt)
                             if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
                assert "_make" not in names, (path.name, cls.name, stmt.lineno)
    make = checked_record("Record", "x")._make.__func__
    validated = (quadcf.Surd, quadcf.CFExpansion, quadcf.Pattern, quadcf.Cylinder,
                 quadcf.OrderSpec, quadcf.OrderRecord, quadcf.HeckeChain, quadcf.IndefForm)
    for cls in validated:
        assert "__new__" in vars(cls), cls.__name__
        assert cls._make.__func__ is make, cls.__name__


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, (path.name, node.lineno, top)


def _imported_modules():
    """(file name, line, module name) of every import in the package, at
    any depth."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                yield path.name, node.lineno, node.module or ""


def test_every_imported_name_is_used():
    # a deletion must not leave its imports behind; __init__.py's imports are
    # the public surface, and a __future__ import is a compiler directive
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name} line {line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"imported but not used: {', '.join(unused)}"


def test_no_module_imports_dataclasses():
    # records are named tuples, one idiom, and cost no code generation at import
    for name, lineno, module in _imported_modules():
        assert module != "dataclasses", (name, lineno)


def test_no_module_imports_a_process_pool():
    # the item runner forks its workers itself: starting a pool cost more
    # than a two-worker scan of a few thousand items saved
    for name, lineno, module in _imported_modules():
        assert module.partition(".")[0] not in ("multiprocessing", "concurrent"), (name, lineno)


def test_every_public_definition_runs_outside_the_tests():
    # a public def or class reached only from tests/ belongs in tests/helpers.py
    used: set[tuple[str, str]] = set()  # (module, name)
    callers = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    for path in callers:
        if path.name.startswith("test_"):
            continue
        own = path.stem if path.parent == SRC else None
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                used.update((node.module.rpartition(".")[2], a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and own:
                used.add((own, node.id))
    # README names count when they are code: fenced blocks and `inline` spans
    parts = (ROOT / "README.md").read_text().split("```")
    code = parts[1::2] + [span for prose in parts[::2] for span in re.findall(r"`([^`]+)`", prose)]
    named = set(re.findall(r"\w+", " ".join(code)))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and (path.stem, node.name) not in used
                and node.name not in named
            ):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"only tests use: {', '.join(unused)}"


def _package_imports(node) -> list[str]:
    """The quadcf modules an import statement names, as module stems."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module.partition(".")[0] != "quadcf":
            return []
        if node.module in (None, "quadcf"):
            return [alias.name for alias in node.names]
        return [node.module.rpartition(".")[2]]
    if isinstance(node, ast.Import):
        return [alias.name.rpartition(".")[2] for alias in node.names
                if alias.name.partition(".")[0] == "quadcf"]
    return []


def test_no_function_imports_a_package_module():
    # a call-time import hides a dependency; a standard-library module imported
    # only on the path that needs it, as pickle in the runner's fork path, is fine
    late = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if _package_imports(node):
                        late.append(f"{path.stem}.{fn.name} line {node.lineno}")
    assert not late, f"imports inside a function: {', '.join(late)}"


def test_run_time_imports_have_no_cycle():
    # module-level imports, less those under `if TYPE_CHECKING:` (annotations only)
    def run_time(stmts):
        for node in stmts:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                yield from run_time(node.orelse)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from run_time(node.body)
                yield from run_time(node.orelse)
            else:
                yield from _package_imports(node)

    deps = {
        path.stem: set(run_time(ast.parse(path.read_text(), str(path)).body))
        for path in SRC.glob("*.py")
    }
    assert "quad_orders" not in deps["matrix_orders"]
    assert "matrix_orders" in deps["quad_orders"]
    done: set[str] = set()

    def visit(mod, stack):
        assert mod not in stack, " -> ".join([*stack, mod])
        if mod not in done:
            for dep in deps.get(mod, ()):
                visit(dep, [*stack, mod])
            done.add(mod)

    for mod in sorted(deps):
        visit(mod, [])
