"""No module of the package imports a name it never uses, only quadric builds models and calls
numpy's private linalg gufuncs, no module catches LinAlgError, only two functions condition a
cloud, two call the eigen-solve (``quadric.solve_rows``) and one the Cholesky screen, a module
takes only the listed private names from another, and every name the package exports has a user
outside it."""

import ast
import re
from pathlib import Path

import pytest

import casfit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "casfit"

# The users a name must have to stay in casfit.__all__: the README, a demo, an acceptance
# criterion or the benchmark.
USERS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*")),
         ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]

# Imported and never called: perfbench's tracer patches these names on consensus.
ALLOWED = {
    "consensus": {"gaussian_weights", "lls_fit", "wls_fit"},
}

# The check and the field builders behind quadric._ellipsoids, the one builder of checked models,
# and quadric.to_scene, which maps one exactly: _checked and _paired check nothing.
BUILDERS = {"check_ellipsoids", "_checked", "_paired"}

# numpy's private module behind np.linalg.eigh, det, solve and cholesky, which quadric._eigh,
# _solve, _definite and check_ellipsoids call: one module to follow if numpy moves or changes it.
PRIVATE_LINALG = {"_umath_linalg"}


def unused_imports(source: str) -> set:
    """The names bound by the imports of ``source`` that no other line reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    # an attribute chain such as np.linalg.eigh starts with the Name np
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_check_sees_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "import os.path\nfrom math import inf, nan as missing\nx = np.pi + inf\n")
    assert unused_imports(source) == {"os", "missing"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_no_unused_imports(module):
    unused = unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert unused == ALLOWED.get(module, set())


def name_uses(source: str, names: set) -> list:
    """The lines of ``source`` that import, call or otherwise name one of ``names``, also as a
    part of a dotted module path."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name", "module"):  # Name, Attribute, import alias, from
            if names.intersection((getattr(node, field, None) or "").split(".")):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_builder_use():
    source = ("from .quadric import EllipsoidGeometry, check_ellipsoids as verdicts\n"
              "geom = EllipsoidGeometry._checked(r, t, s)\n"
              "v = quadric.check_ellipsoids(q)\n"
              "model = EllipsoidModel._paired(q, geom)\n"
              "def _checked_rows(q):\n    return verdicts(q)\n")
    assert name_uses(source, BUILDERS) == [1, 2, 3, 4]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "quadric"))
def test_only_quadric_builds_models(module):
    assert name_uses((SRC / f"{module}.py").read_text(encoding="utf-8"), BUILDERS) == []


def test_the_check_sees_every_private_linalg_use():
    source = ("from numpy.linalg import _umath_linalg\n"
              "import numpy.linalg._umath_linalg as gufuncs\n"
              "w, v = np.linalg._umath_linalg.eigh_lo(a)\n"
              "from numpy.linalg._umath_linalg import det\n"
              "umath_linalg = np.linalg.eigh\n"
              "def _umath_linalg_free():\n    return np.linalg.det(a)\n")
    assert name_uses(source, PRIVATE_LINALG) == [1, 2, 3, 4]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "quadric"))
def test_only_quadric_calls_private_linalg(module):
    assert name_uses((SRC / f"{module}.py").read_text(encoding="utf-8"), PRIVATE_LINALG) == []


def linalg_catches(source: str) -> list:
    """The lines of ``source`` with an ``except`` clause that names LinAlgError."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ExceptHandler) and node.type is not None
                  and any("LinAlgError" in (getattr(name, "id", None), getattr(name, "attr", None))
                          for name in ast.walk(node.type)))


def test_the_check_sees_every_linalg_catch():
    source = ("try:\n    x = np.linalg.solve(a, b)\nexcept np.linalg.LinAlgError:\n    x = None\n"
              "try:\n    pass\nexcept (ValueError, LinAlgError) as exc:\n    pass\n"
              "try:\n    pass\nexcept ValueError:\n    raise np.linalg.LinAlgError('singular')\n"
              "def _nonconvergence(err, flag):\n    raise np.linalg.LinAlgError('no')\n")
    assert linalg_catches(source) == [3, 7]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_catches_linalg_errors(module):
    # one error for a whole stack of LAPACK solves would decide every row of it alike:
    # stacked calls decide row by row (quadric._solve), and raising the error stays allowed
    assert linalg_catches((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


# The functions that call leastsq.condition: consensus._frame, the one checked way into the
# conditioned frame for fit and local_optimize, and wls_fit, which raises RankDeficient, not
# NoModelFound, on a flat cloud and checks the lower end of the range after its solve.
CONDITIONERS = {("consensus", "_frame"), ("leastsq", "wls_fit")}


def callers(source: str, name: str) -> set:
    """The names of the functions of ``source`` that call ``name``, plainly or as an attribute;
    the innermost function holding the call counts, and ``<module>`` for a call outside any."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_sees_every_condition_call():
    source = ("from .leastsq import condition\n"
              "def _frame(points):\n    return condition(points)\n"
              "def fit(points):\n    def inner(p):\n        return max(leastsq.condition(p))\n"
              "    return inner\n"
              "class Fitter:\n    async def run(self, pts):\n        return condition(pts)[0]\n"
              "def conditioned(points, condition=None):\n    return points.conditioned()\n"
              "top = condition(cloud)\n")
    assert callers(source, "condition") == {"_frame", "inner", "run", "<module>"}


def test_only_the_frame_and_wls_fit_condition():
    # a third prologue would check the cloud its own way again
    assert {(path.stem, owner) for path in SRC.glob("*.py")
            for owner in callers(path.read_text(encoding="utf-8"), "condition")} == CONDITIONERS


# The functions that call quadric.solve_rows, the eigen-solve of the 10x10 normal matrix: the
# refit cascade and wls_fit.  quadric.solve_samples solves each minimal sample once, by LU.
EIGEN_SOLVERS = {("consensus", "_refine"), ("leastsq", "wls_fit")}


def test_the_check_sees_every_solve_rows_call():
    source = ("from .leastsq import solve_rows\n"
              "def _refine(rows, w):\n    return solve_rows(rows, w)\n"
              "def solve_samples(rows, keep):\n    return quadric.solve_rows(rows[keep])\n"
              "def _screen(rows):\n    solve = solve_rows\n    return rows\n")
    assert callers(source, "solve_rows") == {"_refine", "solve_samples"}


def test_only_refits_and_wls_fit_call_solve_rows():
    # a minimal sample that reached the eigen-solve would be solved twice
    assert {(path.stem, owner) for path in SRC.glob("*.py")
            for owner in callers(path.read_text(encoding="utf-8"), "solve_rows")} == EIGEN_SOLVERS


# The function that calls quadric._definite, the Cholesky screen: it drops no row that
# check_ellipsoids accepts only where q1 = a11 = 1, as on the LU rows of solve_samples.
SCREENERS = {("quadric", "solve_samples")}


def test_the_check_sees_every_screen_call():
    source = ("from .quadric import _definite\n"
              "def solve_samples(q):\n    return q[_definite(q)]\n"
              "def _refine(q):\n    return quadric._definite(normalize_rows(q))\n"
              "def _checked(q):\n    screen = _definite\n    return screen\n")
    assert callers(source, "_definite") == {"solve_samples", "_refine"}


def test_only_minimal_samples_are_screened():
    # on rows scaled otherwise the screen's argument that it drops no ellipsoid does not hold
    assert {(path.stem, owner) for path in SRC.glob("*.py")
            for owner in callers(path.read_text(encoding="utf-8"), "_definite")} == SCREENERS


# The private names one module of the package takes from another, as (importer, module, name):
# each crossing is a reviewed coupling, so a new one is a new line here.
PRIVATE_CROSSINGS = {
    ("bench", "distances", "_unit_terms"),
    ("cli", "bench", "_check_writable"),
    ("cli", "bench", "_instance_rng"),
    ("cli", "distances", "_blend"),
    ("cli", "distances", "_unit_terms"),
    ("cli", "synth", "_write_rows"),
    ("consensus", "distances", "_components"),
    ("consensus", "distances", "_evaluate"),
    ("consensus", "quadric", "_ellipsoids"),
}


def private_crossings(source: str) -> set:
    """(module, name) for each private name ``source`` takes from a module of the package: by
    ``from .module import _name`` (``from . import _name`` takes it from ``__init__``), or as
    ``name._attr`` on a name imported from one.  Dunder names such as ``__version__`` are not
    private."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree, found, origin = ast.parse(source), set(), {}
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.split(".")[0] == "casfit"):
            module = module if node.level else module.removeprefix("casfit").lstrip(".")
            for alias in node.names:
                # from . import name: a module of the package, or a name of __init__
                origin[alias.asname or alias.name] = ((module, f"{alias.name}.") if module
                                                      else (alias.name, ""))
                if private(alias.name):
                    found.add((module or "__init__", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in origin and private(node.attr)):
            module, prefix = origin[node.value.id]
            found.add((module, prefix + node.attr))
    return found


def test_the_check_sees_every_private_crossing():
    source = ("from .quadric import EllipsoidModel as Model, _solve, design_matrix\n"
              "from .distances import _blend as blend, cas\n"
              "from . import leastsq, _private, __version__\n"
              "from casfit.synth import _write_rows\n"
              "from numpy.linalg import _umath_linalg\n"
              "import casfit\n"
              "model = Model._paired(q, geometry)\n"
              "vals, vecs = leastsq._eigh(a)\n"
              "rows = design_matrix(points)._cached + cas().lam\n"
              "self._private = np._NoValue\n")
    assert private_crossings(source) == {
        ("quadric", "_solve"), ("distances", "_blend"), ("__init__", "_private"),
        ("synth", "_write_rows"), ("quadric", "EllipsoidModel._paired"), ("leastsq", "_eigh")}


def test_no_other_private_crossings():
    # a private name taken across modules is a decision with two homes: list it or make it public
    assert {(path.stem, *crossing) for path in SRC.glob("*.py")
            for crossing in private_crossings(path.read_text(encoding="utf-8"))} == PRIVATE_CROSSINGS


def unused_exports(exported, texts) -> list:
    """The names in ``exported``, bar ``__version__``, that no text in ``texts`` holds as a word."""
    return [name for name in exported if name != "__version__"
            and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]


def test_the_check_sees_unused_exports():
    texts = ["`fit(points, FitConfig(epsilon=0.05))`", "from casfit import cas_distance\n"]
    exported = ["__version__", "fit", "FitConfig", "cas", "cas_distance", "made_up_name"]
    assert unused_exports(exported, texts) == ["cas", "made_up_name"]


def test_every_export_has_a_user():
    texts = [path.read_text(encoding="utf-8") for path in USERS]
    assert unused_exports(casfit.__all__, texts) == []
