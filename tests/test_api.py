"""The library keeps no public name that only tests use.

Every public module-level function and class in src/baroflow must be used:
referred to by name, as a bare name or an attribute, somewhere in src/
outside its own definition, or mentioned in the source text of
perfbench/*.py, which also looks names up as strings (the tracer's span
names).  Imports and re-exports do not count, and neither does a reference
inside the definition's own body: a field function that calls the grid
method of the same name does not keep itself in use.

The same holds for the public methods and properties of public classes: a
member is used if src/ refers to it as an attribute outside the member's own
body, or if perfbench/*.py names it.

The library also stays within the line budget that ROADMAP.md sets for it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "baroflow"

# public names and members that wait for a runtime caller, each with the
# ROADMAP item that gives it one
ALLOWED: dict[str, str] = {}

SRC_LINE_CAP = 2450  # lines of src/baroflow/*.py, the ROADMAP's budget


def _definitions(src: Path = SRC):
    """The public module.name definitions of a source directory (src/baroflow
    by default); the public methods and properties module.Class.name of its
    public classes; for every name that it refers to, the top-level
    definitions (module.name; None for module-level code) whose text refers
    to it; and for every attribute name,
    the innermost definitions whose text refers to it as an attribute, where
    a class's member counts as its own definition (module.Class.name)."""
    public, members = [], []
    referrers, attributes = defaultdict(set), defaultdict(set)
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{top.name}"
                if not top.name.startswith("_"):
                    public.append(owner)
            for n in ast.walk(top):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    referrers[n.id if isinstance(n, ast.Name) else n.attr].add(owner)
            parts = [(top, owner)]
            if isinstance(top, ast.ClassDef):
                parts = [(n, f"{owner}.{n.name}" if isinstance(n, ast.FunctionDef) else owner)
                         for n in top.body]
                if not top.name.startswith("_"):
                    members += [inner for n, inner in parts if isinstance(n, ast.FunctionDef)
                                and not n.name.startswith("_")]
            for part, inner in parts:
                for n in ast.walk(part):
                    if isinstance(n, ast.Attribute):
                        attributes[n.attr].add(inner)
    return public, members, referrers, attributes


def _bench_text() -> str:
    return "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))


def _name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[1]


def _referred_elsewhere(qualified: str, referrers) -> bool:
    return bool(referrers[_name(qualified)] - {qualified})


def _unused(qualified_names, referrers, bench: str) -> list[str]:
    return [q for q in qualified_names if q not in ALLOWED
            and not _referred_elsewhere(q, referrers)
            and not re.search(rf"\b{_name(q)}\b", bench)]


def test_every_public_name_is_used():
    public, _, referrers, _ = _definitions()
    assert _unused(public, referrers, _bench_text()) == []


def test_every_public_member_is_used():
    _, members, _, attributes = _definitions()
    assert _unused(members, attributes, _bench_text()) == []


def test_the_member_lint_sees_members():
    # a sample of what it walks: a member used in src, and a property
    _, members, _, attributes = _definitions()
    assert {"torus.TorusModeSolution.j_at", "grids.TorusGrid.wavenumbers"} <= set(members)
    assert _referred_elsewhere("grids.TorusGrid.wavenumbers", attributes)


def test_the_member_lint_flags_an_unused_member(tmp_path):
    # a package of its own, so the sample does not depend on what the
    # library happens to leave unused
    (tmp_path / "shapes.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def unused(self):\n"
        "        return self.used()\n")
    _, members, _, attributes = _definitions(tmp_path)
    assert members == ["shapes.Box.used", "shapes.Box.unused"]
    assert _unused(members, attributes, "") == ["shapes.Box.unused"]


def test_the_library_stays_under_its_line_cap():
    lines = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CAP, (
        f"src/baroflow/*.py has {lines} lines, over the cap of {SRC_LINE_CAP}: "
        f"name the deletion that brings it back under the cap")


def test_only_the_pressure_law_names_the_working_range():
    # the density range is one decision, tested in pressure._check_rho
    naming = {p.name for p in SRC.glob("*.py")
              if re.search(r"\bRHO_M(IN|AX)\b", p.read_text())}
    assert naming == {"pressure.py"}


def test_only_the_scalar_check_names_the_number_classes():
    # whether a parameter is a real or an integer is one decision, made in
    # errors._check_scalar
    naming = {p.name for p in SRC.glob("*.py")
              if re.search(r"\bnumbers\.(Integral|Real)\b", p.read_text())}
    assert naming == {"errors.py"}


def test_allowed_names_are_defined_and_unused():
    # an allowed name that gains a caller, or goes, leaves the list
    public, members, referrers, attributes = _definitions()
    for qualified in ALLOWED:
        is_member = qualified.count(".") == 2
        assert qualified in (members if is_member else public)
        assert not _referred_elsewhere(qualified, attributes if is_member else referrers)
