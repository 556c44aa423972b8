"""The library keeps no public name that only tests use.

Every public module-level function and class in src/baroflow must be used:
referred to by name, as a bare name or an attribute, somewhere in src/
outside its own definition, or mentioned in the source text of
perfbench/*.py, which also looks names up as strings (the tracer's span
names).  Imports and re-exports do not count, and neither does a reference
inside the definition's own body: a field function that calls the grid
method of the same name does not keep itself in use.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "baroflow"

# public names that wait for a runtime caller
ALLOWED = {
    "disc.synthesize_and_classify": "ROADMAP item 6",
    "torus.torus_curvature_coefficient": "ROADMAP item 6",
}


def _public_and_referrers() -> tuple[list[str], dict[str, set]]:
    """The public module.name definitions of src/baroflow, and for every name
    that src/ refers to, the top-level definitions (module.name; None for
    module-level code) whose text refers to it."""
    public, referrers = [], defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{top.name}"
                if not top.name.startswith("_"):
                    public.append(owner)
            for n in ast.walk(top):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    referrers[n.id if isinstance(n, ast.Name) else n.attr].add(owner)
    return public, referrers


def _referred_elsewhere(qualified: str, referrers) -> bool:
    return bool(referrers[qualified.split(".", 1)[1]] - {qualified})


def test_every_public_name_is_used():
    public, referrers = _public_and_referrers()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = [q for q in public if q not in ALLOWED
              and not _referred_elsewhere(q, referrers)
              and not re.search(rf"\b{q.split('.', 1)[1]}\b", bench)]
    assert unused == []


def test_only_the_pressure_law_names_the_working_range():
    # the density range is one decision, tested in pressure._check_rho
    naming = {p.name for p in SRC.glob("*.py")
              if re.search(r"\bRHO_M(IN|AX)\b", p.read_text())}
    assert naming == {"pressure.py"}


def test_allowed_names_are_defined_and_unused():
    # an allowed name that gains a caller, or goes, leaves the list
    public, referrers = _public_and_referrers()
    for qualified in ALLOWED:
        assert qualified in public
        assert not _referred_elsewhere(qualified, referrers)
