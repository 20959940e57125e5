"""Every definition in src/orthlat is reached from a CLI command or a
perfbench workload.

The walk goes by name over the syntax trees of src/orthlat/*.py and
perfbench/*.py. Its roots are every name that perfbench uses (the
tracer patches by attribute name, so string constants count) and the
names used by module-level statements of src/orthlat that bind no
name, such as the call of ``cli.main`` in ``__main__.py``. A reached
name reaches each function, class, method and module-level constant
defined under it, and through them the names their bodies use. Dunder
methods are reached with their class. Matching by name alone can only
over-approximate (any ``.apply`` reaches every method ``apply``), so
the walk may miss dead code but never calls live code dead. Tests are
not roots: code that only tests call is dead here.

The over-approximation hides a dead method whose name is common, and
every dunder of a reached class. ``Lattice.divisor``, ``Mat.zero``,
``DiscElement.q`` and ``DiscElement.is_zero`` passed as reached because
live code uses the names ``divisor``, ``zero``, ``q`` and ``is_zero``
for other things, and ``Vec.__lt__`` passed with ``Vec``. They were
found by tracing, with ``sys.setprofile``, every CLI command of the
README and one pass of each perfbench workload, and were deleted as
never run; that trace is the way to find such cases.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Definitions kept although nothing reaches them, each with its reason.
# What they call (_rewrite_against_ef, atom_from_json) is reached
# through them.
KEPT = {
    "eichler.rewrite_reflection":
        "ROADMAP item 9 writes root reflections as transvection words with it",
    "discform.DiscAutomorphism.compose": "ROADMAP item 10 composes O(D) elements",
    "sampling.transvection_word":
        "test_acceptance.py::test_06_stable_plus_words calls it; ROADMAP item 8 plans to",
    "isometry.GroupWord.from_json":
        "reads back the witness JSON that `orbit transport` prints; the bad-atom "
        "fixtures of test_isometry.py are written in that JSON",
}


def used_names(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                out.add(n.value)
    return out


def index(sources: dict[str, str]):
    """For module sources {stem: text}: the definitions, as name ->
    [(qualname, names its body uses)], and the names that module-level
    statements binding no name use."""
    defs: dict[str, list] = {}
    roots: set[str] = set()

    def define(name, qual, used):
        defs.setdefault(name, []).append((qual, used))

    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                define(node.name, f"{module}.{node.name}", used_names([node]))
            elif isinstance(node, ast.ClassDef):
                body = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
                define(node.name, f"{module}.{node.name}",
                       used_names(body + node.bases + node.decorator_list))
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        dunder = m.name.startswith("__") and m.name.endswith("__")
                        define(node.name if dunder else m.name,
                               f"{module}.{node.name}.{m.name}", used_names([m]))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
                for t in node.targets:
                    if not t.id.startswith("__"):        # __version__ is metadata
                        define(t.id, f"{module}.{t.id}", used_names([node.value]))
            else:
                roots |= used_names([node])
    return defs, roots


def reached(defs, names) -> set[str]:
    """Qualnames of the definitions reachable from names."""
    seen, todo, out = set(), list(names), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qual, used in defs.get(name, ()):
            out.add(qual)
            todo.extend(used)
    return out


def library_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((REPO / "src" / "orthlat").glob("*.py"))}


def workload_names() -> set[str]:
    return used_names(ast.parse(p.read_text()) for p in sorted((REPO / "perfbench").glob("*.py")))


def unreached(sources) -> list[str]:
    defs, roots = index(sources)
    kept_uses = {name for entries in defs.values()
                 for qual, used in entries if qual in KEPT for name in used}
    live = reached(defs, roots | workload_names() | kept_uses) | set(KEPT)
    return sorted(qual for entries in defs.values() for qual, _ in entries if qual not in live)


def test_every_definition_is_reached():
    assert unreached(library_sources()) == []


def test_kept_entries_exist_and_are_not_reached_otherwise():
    """An entry that a command or workload now reaches, or whose
    definition is gone, is to be dropped from KEPT."""
    defs, roots = index(library_sources())
    quals = {qual for entries in defs.values() for qual, _ in entries}
    assert set(KEPT) <= quals
    assert set(KEPT) & reached(defs, roots | workload_names()) == set()


def test_a_dead_chain_is_reported():
    """A public function that nothing calls is reported, and so is the
    private helper that only it calls."""
    sources = library_sources()
    sources["eichler"] += (
        "\n\ndef so22_reduce(split, v):\n"
        "    return _plane_word(split, v)\n"
        "\n\ndef _plane_word(split, v):\n"
        "    return _reduce_into_l1(split, v)\n"
    )
    assert unreached(sources) == ["eichler._plane_word", "eichler.so22_reduce"]


def trusted_users(sources) -> list[str]:
    """Modules other than isometry that name Isometry._trusted."""
    return sorted(module for module, text in sources.items()
                  if module != "isometry" and "_trusted" in used_names([ast.parse(text)]))


def test_unchecked_isometries_stay_in_isometry():
    """Isometry._trusted skips Lattice.check_isometry. Only isometry.py,
    which wraps atoms and their products with it, may name it, so every
    Isometry built elsewhere went through the checking constructor."""
    assert trusted_users(library_sources()) == []
    sources = library_sources()
    sources["jacobi"] += "\n\ndef unchecked(lat, m):\n    return Isometry._trusted(lat, m)\n"
    assert trusted_users(sources) == ["jacobi"]
