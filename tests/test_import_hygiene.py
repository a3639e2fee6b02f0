"""Every top-level import in src/manlab is used by the module that makes it."""

import ast
import os

from test_tracer_targets import ROOT, _load_tracer

SRC = os.path.join(ROOT, "src", "manlab")

# Names imported only so that perfbench/tracer.py can patch them where they
# are held; each carries `# noqa: F401` and is listed in the tracer's TARGETS.
TRACER_PINS = {
    "manlab.algebras": {"orthonormalize_hs"},
    "manlab.man": {"algebra_intersection"},
    "manlab.protocols": {"center", "haar_algebra_unitary"},
}


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each top-level import binding the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, alias.lineno) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


def test_every_top_level_import_is_used():
    patched = {}
    for _, attr, holders, _ in _load_tracer().TARGETS:
        for holder in holders:
            patched.setdefault(holder.__name__, set()).add(attr)
    unused, pins = [], {}
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        module = "manlab" if filename == "__init__.py" else f"manlab.{filename[:-3]}"
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for name, line in _unused_imports(ast.parse(source)):
            if "# noqa: F401" in lines[line - 1] and name in patched.get(module, ()):
                pins.setdefault(module, set()).add(name)
            else:
                unused.append(f"{filename}:{line} {name}")
    assert not unused, unused
    assert pins == TRACER_PINS
