"""The package defines only what its own modules run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ebstab"


def _loads(node) -> set:
    """Names read anywhere inside node."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_export_is_used_by_the_engine():
    # each top-level function and class of src/ebstab, exported or not, is
    # read somewhere in src/ebstab outside its own definition and outside
    # __init__.py; a read from inside a definition that is itself unused
    # does not count, so a chain of helpers that only tests call fails as
    # a whole
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = set()
    reads = []      # (name of the top-level definition or None, names read)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            if isinstance(node, defs):
                defined.add(name)
            reads.append((name, _loads(node)))
    assert len(defined) > 100
    unused: set = set()
    while True:
        more = {n for n in defined - unused
                if not any(n in names for owner, names in reads
                           if owner != n and owner not in unused)}
        if not more:
            break
        unused |= more
    assert sorted(unused) == []
