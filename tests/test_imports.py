"""No module of the package imports a name it never uses, only quadric builds models, and
every name the package exports has a user outside it."""

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

# The check and the field builder behind quadric._ellipsoids, the one builder of checked models.
BUILDERS = {"check_ellipsoids", "_checked"}


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


def builder_uses(source: str) -> list:
    """The lines of ``source`` that import, call or otherwise name one of BUILDERS."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name"):  # Name, Attribute, import alias
            if getattr(node, field, None) in BUILDERS:
                lines.add(node.lineno)
    return sorted(lines)


def test_the_check_sees_every_builder_use():
    source = ("from .quadric import EllipsoidGeometry, check_ellipsoids as verdicts\n"
              "geom = EllipsoidGeometry._checked(r, t, s)\n"
              "v = quadric.check_ellipsoids(q)\n"
              "model = EllipsoidModel._paired(q, geom)\n"
              "def _checked_rows(q):\n    return verdicts(q)\n")
    assert builder_uses(source) == [1, 2, 3]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "quadric"))
def test_only_quadric_builds_models(module):
    assert builder_uses((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


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
