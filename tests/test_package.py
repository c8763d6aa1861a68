"""The package exports only what its own modules run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ebstab"


def _loads(node) -> set:
    """Names read anywhere inside node."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_export_is_used_by_the_engine():
    # each name the package exports is read somewhere in src/ebstab outside
    # its own definition and outside __init__.py; a read from inside an
    # export that is itself unused does not count, so a chain of wrappers
    # that nothing runs fails as a whole
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reads = []      # (name of the top-level definition or None, names read)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            reads.append((name, _loads(node)))
    unused: set = set()
    while True:
        more = {n for n in exported - unused
                if not any(n in names for owner, names in reads
                           if owner != n and owner not in unused)}
        if not more:
            break
        unused |= more
    assert sorted(unused) == []
