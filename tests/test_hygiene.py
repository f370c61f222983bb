"""Source hygiene: no library module imports a name it never uses, only
`linalg`, `cones` and `indexing` import numpy, so the array format stays
behind `linalg` (`cones` pivots its simplex tableau as an integer array,
and `indexing` takes index grids elementwise: 1-D integer grids, not the
matrix array format that `linalg` hides), only `linalg` works in the
prime field or picks int64 storage, so `cones` asks `integer_kernel` and
`integer_array`, no module defines or names Bareiss's elimination, which
lives on only as a test oracle, the `entries` view
is read only by its own members, an `IntegerForm` is built only by the
two rational constructors, `perron` asks whether S is square only in
`_checked_inverse`, no module reaches numpy's `kron`, so `linalg._kron`
is the one Kronecker kernel, a tolerance's eps is read outside `linalg`
only by the LP's eps band and the report, and both strictness
certificates come from `perron._kron_certificate`, the one place that
calls `factor_cone_members` and `kron_factor`, inside `linalg` only
`_product`, `inverse` and `kron_factor` form a complex product by parts,
and `verification` builds no `Fraction`."""
import ast
from pathlib import Path

import pytest

import perronkron

PACKAGE = Path(perronkron.__file__).parent
# __init__ imports names only to export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "from .linalg import COMPLEX, RATIONAL\nimport numpy as np\nprint(RATIONAL)\n"
    assert _unused_imports(source) == [(1, "COMPLEX"), (2, "np")]


def _imports_numpy(source: str) -> bool:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return any(name.split(".")[0] == "numpy" for name in modules)


def test_only_linalg_and_cones_import_numpy():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    users = sorted(name for name, source in sources.items() if _imports_numpy(source))
    assert users == ["cones.py", "indexing.py", "linalg.py"]


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\n", True), ("import numpy.linalg\n", True),
    ("from numpy import array\n", True), ("def f():\n    import numpy\n", True),
    ("import numbers\nfrom .numpy import x\nfrom .linalg import np\n", False),
])
def test_the_scan_sees_a_numpy_import(source, expected):
    assert _imports_numpy(source) == expected


# Where the `Fraction`/`complex` view may be read: no module as a whole, and
# only the view's own members.  Everything else, the report and the wire
# format too, computes on the array state.
VIEW_CLIENTS = set()
VIEW_READERS = {
    "linalg.py": {"__repr__", "__iter__", "__getitem__"},
}


def _sites(source: str, hit):
    """(line, innermost enclosing function) of each node that ``hit`` accepts."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                sites.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), None)
    return sites


def _entries_reads(source: str):
    """(line, innermost enclosing function) of each read of `.entries`."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "entries"
        and isinstance(node.ctx, ast.Load)
    ))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in VIEW_CLIENTS], ids=lambda p: p.name
)
def test_entries_is_read_only_where_values_leave_the_library(path):
    allowed = VIEW_READERS.get(path.name, set())
    reads = _entries_reads(path.read_text(encoding="utf-8"))
    assert [(line, func) for line, func in reads if func not in allowed] == []


def test_the_scan_sees_an_entries_read():
    source = (
        "def f(x):\n    return sum(x.entries)\n"
        "def g(x):\n    x.entries = 1\n    return x._entries\n"
        "class A:\n    def h(self):\n        def k():\n            return self.entries\n"
    )
    assert _entries_reads(source) == [(2, "f"), (9, "k")]


# Where a rational state is put together: every other path reaches one of
# these two, through `from_pairs` (which clears) or `_of_values` (which
# reduces).
INTEGER_FORM_BUILDERS = {"_cleared", "_lowest_terms"}


def _integer_form_calls(source: str):
    """(line, innermost enclosing function) of each call of `IntegerForm`."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "IntegerForm"
             or getattr(node.func, "attr", None) == "IntegerForm")
    ))


def test_integer_form_is_built_only_by_the_two_constructors():
    calls = [
        (path.name, line, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, func in _integer_form_calls(path.read_text(encoding="utf-8"))
        if func not in INTEGER_FORM_BUILDERS
    ]
    assert calls == []


def test_the_scan_sees_an_integer_form_call():
    source = (
        "def _cleared(ps):\n    return IntegerForm(ps, 1, 0)\n"
        "def f(v):\n    return linalg.IntegerForm(v, 1, 0)\n"
        "x = IntegerForm\n"
        "class A:\n    def g(self):\n        return IntegerForm(0, 1, 0)._replace()\n"
    )
    assert _integer_form_calls(source) == [(2, "_cleared"), (4, "f"), (8, "g")]


# Where perron may ask whether S is square: only in the helper that refuses
# every malformed (S, x, sinv), so each entry point says so by one call.
SQUARE_CHECKERS = {"_checked_inverse"}


def _is_square_reads(source: str):
    """(line, innermost enclosing function) of each read of `.is_square`."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "is_square"
        and isinstance(node.ctx, ast.Load)
    ))


def test_perron_asks_whether_s_is_square_only_in_its_checked_inverse():
    reads = _is_square_reads((PACKAGE / "perron.py").read_text(encoding="utf-8"))
    assert reads
    assert [(line, func) for line, func in reads if func not in SQUARE_CHECKERS] == []


def test_the_scan_sees_an_is_square_read():
    source = (
        "def _checked_inverse(S):\n    return S.is_square\n"
        "def f(S):\n    if not S.is_square:\n        raise ValueError\n"
        "def g(S):\n    S.is_square = True\n    return S.is_squared\n"
        "square = M.is_square\n"
    )
    assert _is_square_reads(source) == [(2, "_checked_inverse"), (4, "f"), (9, None)]


# `kron` and `kron_vec` form every Kronecker product by `linalg._kron`, one
# broadcast product; `np.kron` stays a reference of the tests only.
def _numpy_kron_references(source: str):
    """(line, innermost enclosing function) of each reference to numpy's
    `kron`: `np.kron`, `numpy.kron` or a `kron` imported from numpy."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "kron"
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    ) or (
        isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "numpy"
        and any(alias.name == "kron" for alias in node.names)
    ))


def test_no_module_reaches_numpy_kron():
    references = [
        (path.name, line, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, func in _numpy_kron_references(path.read_text(encoding="utf-8"))
    ]
    assert references == []


def test_the_scan_sees_a_numpy_kron_reference():
    source = (
        "def kron(A, B):\n    return _product(Matrix, A, B, np.kron)\n"
        "def f(a, b):\n    return numpy.kron(a, b)\n"
        "from numpy import kron\n"
        "def g(a, b):\n    return linalg.kron(a, b), _kron(a, b), np.kron_vec\n"
    )
    assert _numpy_kron_references(source) == [(2, "kron"), (4, "f"), (5, None)]


# Where a tolerance's eps may be read outside `linalg`, whose entry tests
# hold every other comparison within eps: the LP's eps band and the
# report's echo of the tolerance.
EPS_READERS = {
    "cones.py": {"_membership_system"},
    "verification.py": {"run_verification_suite"},
}


def _eps_reads(source: str):
    """(line, innermost enclosing function) of each read of `.eps`."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "eps"
        and isinstance(node.ctx, ast.Load)
    ))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_eps_is_read_outside_linalg_only_by_the_lp_and_the_report(path):
    allowed = EPS_READERS.get(path.name, set())
    reads = _eps_reads(path.read_text(encoding="utf-8"))
    assert [(line, func) for line, func in reads if func not in allowed] == []


def test_the_scan_sees_an_eps_read():
    source = (
        "def has_unit_inf_norm(x, tol):\n    return abs(x - 1.0) <= tol.eps\n"
        "def f(tol):\n    tol.eps = 0\n    return tol.epsilon\n"
        "band = Tolerance().eps\n"
    )
    assert _eps_reads(source) == [(2, "has_unit_inf_norm"), (6, None)]


# Both strictness certificates are built by one construction in `perron`:
# only it finds the factors' cone members and asks for a factorization.
KRON_CERTIFICATE_CALLEES = {"factor_cone_members", "kron_factor"}


def _certificate_calls(source: str):
    """(line, innermost enclosing function) of each call of
    `factor_cone_members` or `kron_factor`, by name or as an attribute."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in KRON_CERTIFICATE_CALLEES
             or getattr(node.func, "attr", None) in KRON_CERTIFICATE_CALLEES)
    ))


def test_certificate_members_and_factorizations_come_from_one_construction():
    calls = [
        (path.name, line, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, func in _certificate_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls
    assert [(name, func) for name, _, func in calls] == [
        ("perron.py", "_kron_certificate")
    ] * len(calls)


def test_the_scan_sees_a_certificate_call():
    source = (
        "def _kron_certificate(S, T):\n    return factor_cone_members(S, T)\n"
        "def f(z):\n    return linalg.kron_factor(z, 2, 2)\n"
        "g = kron_factor\n"
        "absent = kron_factor(z, 2, 2) is None\n"
    )
    assert _certificate_calls(source) == [(2, "_kron_certificate"), (4, "f"), (6, None)]


# Where `linalg` forms a complex product by parts: `_product`, the one
# per-mode product of every array operation, and the two computations that
# multiply columns the array types do not hold, the complex Gauss-Jordan
# update of `inverse` and the residual x y^T of `kron_factor`.
COMPLEX_PRODUCT_CALLERS = {"_product", "inverse", "kron_factor"}


def _complex_product_calls(source: str):
    """(line, innermost enclosing function) of each call of
    `_complex_product`, by name or as an attribute."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "_complex_product"
             or getattr(node.func, "attr", None) == "_complex_product")
    ))


def test_linalg_forms_complex_products_only_in_product_inverse_and_kron_factor():
    calls = _complex_product_calls((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert calls
    assert [(line, func) for line, func in calls if func not in COMPLEX_PRODUCT_CALLERS] == []


def test_the_scan_sees_a_complex_product_call():
    source = (
        "def _product(cls, a, b, op):\n    return _complex_product(op, a, b)\n"
        "class A:\n    def scale(self, a):\n        return linalg._complex_product(m, self, a)\n"
        "f = _complex_product\n"
        "x = _complex_product(np.outer, c, y)\n"
    )
    assert _complex_product_calls(source) == [(2, "_product"), (5, "scale"), (7, None)]


# `verification` draws its seeded rational cases as reduced integer pairs
# that `from_pairs` takes, so it builds no `Fraction`.
def _fraction_uses(source: str):
    """(line, innermost enclosing function) of each import of `fractions`
    and each reference to a `Fraction`, by name or as an attribute."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    ) or (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "fractions"
    ) or (
        isinstance(node, ast.Name) and node.id == "Fraction"
    ) or (
        isinstance(node, ast.Attribute) and node.attr == "Fraction"
    ))


def test_verification_builds_no_fraction():
    source = (PACKAGE / "verification.py").read_text(encoding="utf-8")
    assert _fraction_uses(source) == []


def test_the_scan_sees_a_fraction_use():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "def _random_fraction(rng):\n    return Fraction(rng.randint(-6, 6), 1)\n"
        "def f():\n    return fractions.Fraction(1, 2)\n"
        "from .fractions import pairs\n"
        "g = Fractions\n"
    )
    assert _fraction_uses(source) == [(1, None), (2, None), (4, "_random_fraction"), (6, "f")]


def _names_imported_from(source: str, module: str):
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    )


def test_cones_imports_only_the_certificate_construction_from_perron():
    source = (PACKAGE / "cones.py").read_text(encoding="utf-8")
    assert _names_imported_from(source, "perron") == ["_kron_certificate"]


def test_the_scan_sees_a_relative_import():
    source = (
        "from .perron import in_spectracone, _kron_certificate\n"
        "from perron import factor_cone_members\n"
        "from .linalg import kron\n"
    )
    assert _names_imported_from(source, "perron") == ["_kron_certificate", "in_spectracone"]


# Only `linalg` knows the int64 and float64 thresholds or works in the
# prime field: every other module asks `integer_kernel` for a kernel
# vector, `integer_array` for an integer array's storage and `inverse` for
# an inverse.
LINALG_ONLY_NAMES = [
    "_INT64_SAFE",
    "_FLOAT64_EXACT",
    "_PRIME",
    "_primes",
    "_profile_mod_prime",
    "_reconstructed_denominator",
    "_lifted_inverse",
    "_rank_profile",
]


def _name_references(source: str, name: str):
    """(line, innermost enclosing function) of each reference to ``name``:
    as a name, as an attribute, or imported."""
    return _sites(source, lambda node: (
        isinstance(node, ast.Name) and node.id == name
    ) or (
        isinstance(node, ast.Attribute) and node.attr == name
    ) or (
        isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == name for alias in node.names)
    ))


@pytest.mark.parametrize("name", LINALG_ONLY_NAMES)
def test_only_linalg_names_the_elimination_and_the_int64_threshold(name):
    references = [
        (path.name, line, func)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for line, func in _name_references(path.read_text(encoding="utf-8"), name)
    ]
    assert references == []


@pytest.mark.parametrize("name", LINALG_ONLY_NAMES)
def test_the_scan_sees_a_name_reference(name):
    source = (
        f"from .linalg import Matrix, {name}\n"
        f"def f(A):\n    return {name}(A)\n"
        f"def g(A):\n    return linalg.{name}, {name}_cached, '{name}'\n"
        f"x = {name} < 1\n"
    )
    assert _name_references(source, name) == [(1, None), (3, "f"), (5, "g"), (6, None)]


def _definitions(source: str, name: str):
    """The line of each function or class that defines ``name``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name == name
    ]


def test_no_module_defines_or_names_bareiss_eliminate():
    """The prime field is the library's one exact elimination: Bareiss's
    lives on only as the oracle in ``tests/test_bareiss.py``."""
    sites = [
        (path.name, site)
        for path in sorted(PACKAGE.glob("*.py"))
        for scan in (_definitions, _name_references)
        for site in scan(path.read_text(encoding="utf-8"), "bareiss_eliminate")
    ]
    assert sites == []


# Exact integer matmuls are all ``integer_product(np.matmul, ...)``, and
# the Sylvester membership test is one such product: the transform and the
# lifting's own product are gone.
REMOVED_PRODUCTS = ["walsh_hadamard", "_butterflies", "_exact_matmul_by"]


@pytest.mark.parametrize("name", REMOVED_PRODUCTS)
def test_no_module_defines_or_names_a_removed_product(name):
    sites = [
        (path.name, site)
        for path in sorted(PACKAGE.glob("*.py"))
        for scan in (_definitions, _name_references)
        for site in scan(path.read_text(encoding="utf-8"), name)
    ]
    assert sites == []


def test_the_scan_sees_a_definition():
    source = (
        "def f(M):\n    def bareiss_eliminate(M):\n        return M\n"
        "class bareiss_eliminate:\n    pass\n"
    )
    assert sorted(_definitions(source, "bareiss_eliminate")) == [2, 4]
