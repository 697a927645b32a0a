"""Source hygiene: every module-level import is used, every export exists."""

import ast
import importlib
from pathlib import Path

import pytest

import pentagon

MODULES = sorted(Path(pentagon.__file__).parent.glob("*.py"))


def exported_names(tree):
    """The names a module-level ``__all__`` assignment lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def imported_names(tree):
    """(name, line) for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def private_definitions(node):
    """The private names a module-level statement defines: a function's,
    a class's, or a constant's."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, ast.Assign):
        names = {t.id for t in node.targets if isinstance(t, ast.Name)}
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = {node.target.id}
    else:
        names = set()
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_used_in_the_package():
    # a private helper that only tests still reach is dead code that
    # looks alive; a use inside the name's own definition does not count
    statements = [(path.name, node) for path in MODULES
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    used = set()
    for _, node in statements:
        loaded = {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        loaded |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        used |= loaded - private_definitions(node)
    unused = sorted(f"{name} ({module}, line {node.lineno})"
                    for module, node in statements
                    for name in private_definitions(node) - used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(
        "pentagon" if path.stem == "__init__" else f"pentagon.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_only_series_imports_the_coefficient_kernel_tools():
    # the coefficient kernels are built from these; another module that
    # reaches for them is growing a second copy of a kernel loop
    tools = {"itemgetter", "accumulate"}
    users = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & tools:
                users.add(path.name)
    assert users == {"series.py"}


def test_only_series_imports_operator():
    # series builds its kernels from operator's add and sub; matched by
    # module, as __init__ re-exports the ring ops under those same names
    users = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module == "operator")
                    or (isinstance(node, ast.Import)
                        and any(alias.name == "operator" for alias in node.names))):
                users.add(path.name)
    assert users == {"series.py"}


# math's functions that take and return ints; everything else in it is
# floating point
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def float_uses(tree):
    """(what, line) for each way a module could compute in floating point:
    a float or complex literal, true division, a power or the builtin pow
    (an int to a negative int is a float), cmath, or a function of math
    outside INTEGER_MATH, imported by name or reached as math.name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield f"literal {node.value!r}", node.lineno
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, (ast.Div, ast.Pow))):
            yield ("true division" if isinstance(node.op, ast.Div) else "power",
                   node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "pow"):
            yield "pow()", node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cmath":
                    yield "import cmath", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    yield f"from {node.module} import {alias.name}", node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math" and node.attr not in INTEGER_MATH):
            yield f"math.{node.attr}", node.lineno


def test_float_check_flags_powers_but_not_unpacking():
    tree = ast.parse("a = 2 ** -1\nb **= 2\nc = pow(2, -1)\n"
                     "d = {**a}\ne = f(*a, **b)\n")
    assert sorted(float_uses(tree), key=lambda use: use[1]) == [
        ("power", 1), ("power", 2), ("pow()", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_nothing_in_the_core_is_floating_point(path):
    # every verdict the package prints is decided in exact integers
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"{what} (line {line})" for what, line in float_uses(tree)] == []


def repeated_order_checks(tree):
    """(function, argument) for each type-only ``_require_int`` that a
    later ``_zeros`` call on the same argument in that function repeats:
    ``_zeros`` checks the type itself, and names a negative order or one
    no list can hold."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = sorted((node for node in ast.walk(func) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)),
                       key=lambda node: (node.lineno, node.col_offset))
        checked = set()
        for call in calls:
            if (call.func.id == "_require_int" and len(call.args) == 2
                    and not call.keywords):
                checked.add(ast.unparse(call.args[0]))
            elif call.func.id == "_zeros" and ast.unparse(call.args[0]) in checked:
                yield func.name, ast.unparse(call.args[0])


def test_no_order_is_checked_before_zeros_checks_it():
    repeats = [f"{path.name}: {func} ({arg})" for path in MODULES
               for func, arg in repeated_order_checks(
                   ast.parse(path.read_text(), filename=str(path)))]
    assert repeats == []
