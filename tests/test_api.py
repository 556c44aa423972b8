"""The library keeps no public name that only tests use.

Every public module-level function and class in src/baroflow must be used:
referred to by name, as a bare name or an attribute, somewhere in src/, or
mentioned in the source text of perfbench/*.py, which also looks names up
as strings (the tracer's span names).  Imports, re-exports and the
definition itself do not count.  The check is by name only: a grid method
called sgrad keeps the field function grids.sgrad in use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "baroflow"

# public names that wait for a runtime caller
ALLOWED = {
    "disc.synthesize_and_classify": "ROADMAP item 6",
    "torus.torus_curvature_coefficient": "ROADMAP item 6",
}


def _public_and_referenced() -> tuple[list[str], set[str]]:
    """The public module.name definitions of src/baroflow, and every name
    that src/ refers to."""
    public, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        public += [f"{path.stem}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]
        referenced |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute))}
    return public, referenced


def test_every_public_name_is_used():
    public, referenced = _public_and_referenced()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    names = {q: q.split(".", 1)[1] for q in public if q not in ALLOWED}
    unused = [q for q, name in names.items()
              if name not in referenced and not re.search(rf"\b{name}\b", bench)]
    assert unused == []


def test_allowed_names_are_defined_and_unused():
    # an allowed name that gains a caller, or goes, leaves the list
    public, referenced = _public_and_referenced()
    for qualified in ALLOWED:
        assert qualified in public
        assert qualified.split(".", 1)[1] not in referenced
