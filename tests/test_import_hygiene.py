"""Every top-level import in src/manlab is used by the module that makes it, every
name manlab exports is used and resolves to its definition, every __all__ entry
is defined where it is listed, no module loads manlab.oracles at import time, no
function is a second name for another, and each report record has one constructor."""

import ast
import importlib
import os

import manlab

from test_tracer_targets import ROOT, _load_tracer

SRC = os.path.join(ROOT, "src", "manlab")

# Names imported only so that perfbench/tracer.py can patch them where they
# are held; each carries `# noqa: F401` and is listed in the tracer's TARGETS.
TRACER_PINS = {
    "manlab.algebras": {"orthonormalize_hs"},
    "manlab.man": {"algebra_intersection", "lattice_man", "masa_man", "quantumness"},
    "manlab.protocols": {"center", "haar_algebra_unitary"},
}


def _sources(*dirs: str):
    """(path relative to ROOT, source) of every .py file under the directories."""
    for top in dirs:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(files):
                if filename.endswith(".py"):
                    path = os.path.join(folder, filename)
                    with open(path, encoding="utf-8") as fh:
                        yield os.path.relpath(path, ROOT), fh.read()


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


def test_every_export_is_used():
    # a read of the name, not its definition, an import or a string in
    # __all__ or _EXPORTS
    used = set()
    for _, source in _sources("src", "tests", "scripts", "perfbench"):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(name for names in manlab._EXPORTS.values() for name in names
                    if name not in used)
    assert not unused, unused


def test_every_export_resolves_to_its_definition():
    # manlab.<name> is the object its listed module defines, not one it imports
    wrong = []
    for module, names in manlab._EXPORTS.items():
        home = importlib.import_module(f"manlab.{module}")
        for name in names:
            value = getattr(manlab, name)
            if value is not getattr(home, name, None) or value.__module__ != home.__name__:
                wrong.append(f"{module}.{name}")
    assert not wrong, wrong


def test_every_all_entry_is_defined_in_its_module():
    # a module's __all__ names what the module itself defines
    missing, listing = [], []
    for path, source in _sources(os.path.join("src", "manlab")):
        defined, listed = set(), []
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names and isinstance(node.value, (ast.List, ast.Tuple)):
                    listed = [elt.value for elt in node.value.elts]
        if listed:
            listing.append(os.path.basename(path))
        missing += [f"{os.path.basename(path)}:{name}" for name in listed if name not in defined]
    assert listing, "no module lists __all__"
    assert not missing, missing


def _import_time_nodes(node):
    """The nodes under `node` that run when its module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_nodes(child)


def test_no_module_imports_the_oracles_at_top_level():
    # `import manlab.man, manlab.protocols` must load no d^2 x d^2 code: only a
    # function body, run by an oracle caller, may import manlab.oracles
    offenders = []
    for path, source in _sources(os.path.join("src", "manlab")):
        for node in _import_time_nodes(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["manlab" if node.level else "", node.module]))
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            if "manlab.oracles" in targets:
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not offenders, offenders


def _forwarded_callee(func: ast.FunctionDef):
    """The callee's name when the body, after any docstring, is one `return`
    of a call of another function, or of a method of a parameter, whose
    arguments are exactly the function's other parameters; else None."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    call = body[0].value
    if not isinstance(call, ast.Call):
        return None
    params = [a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs]
    if isinstance(call.func, ast.Name) and call.func.id != func.name:
        callee, others = call.func.id, params
    elif (isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)
          and call.func.value.id in params):
        callee = f"{call.func.value.id}.{call.func.attr}"
        others = [p for p in params if p != call.func.value.id]
    else:
        return None
    passed = [a.id for a in call.args if isinstance(a, ast.Name)]
    passed += [k.arg for k in call.keywords
               if isinstance(k.value, ast.Name) and k.arg == k.value.id]
    if len(passed) != len(call.args) + len(call.keywords) or sorted(passed) != sorted(others):
        return None
    return callee


def test_no_function_is_a_forwarding_alias():
    # one name per operation: call the code behind an alias directly
    aliases = []
    for path, source in _sources(os.path.join("src", "manlab")):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = _forwarded_callee(node)
                if callee is not None:
                    aliases.append(f"{os.path.basename(path)}:{node.name} -> {callee}")
    assert not aliases, aliases


def _constructors(tree: ast.Module, classes: set[str]) -> dict[str, set[str]]:
    """For each class, the functions that call it, `cls(...)` in its own methods included."""
    found = {name: set() for name in classes}

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, func)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, f"{cls}.{child.name}" if cls else child.name)
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                    target = cls if child.func.id == "cls" else child.func.id
                    if target in found:
                        found[target].add(func)
                visit(child, cls, func)

    visit(tree, None, "<module>")
    return found


def test_each_report_record_has_one_constructor():
    # dataclasses.replace builds a record too, past its one constructor
    # (a frame has three: only algebras.py builds or permutes one)
    sites = {name: set() for name in ("ManReport", "StructuralSummary", "EstimatorResult",
                                      "MarkovCheckReport", "QuantumnessReport",
                                      "StructuralDecomposition", "OperatorAlgebra")}
    copies = []
    for path, source in _sources(os.path.join("src", "manlab")):
        tree = ast.parse(source)
        for name, funcs in _constructors(tree, set(sites)).items():
            sites[name] |= {f"{os.path.basename(path)}:{func}" for func in funcs}
        copies += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) in
                   ("replace", "dataclasses.replace")]
    assert not copies, copies
    assert sites == {
        "ManReport": {"report.py:_report"},
        "StructuralSummary": {"report.py:StructuralSummary.from_shapes"},
        "EstimatorResult": {"protocols.py:_result"},
        "MarkovCheckReport": {"protocols.py:markov_bound_check"},
        "QuantumnessReport": {"masa.py:quantumness"},
        "StructuralDecomposition": {"algebras.py:_algebra_from_frame",
                                    "algebras.py:_compute_decomposition",
                                    "algebras.py:_conjugate_decomposition"},
        # an algebra is born from its decomposition; a bare basis is solved at birth
        "OperatorAlgebra": {"algebras.py:_algebra_from_frame",
                            "algebras.py:algebra_from_generators",
                            "algebras.py:algebra_from_basis",
                            "algebras.py:OperatorAlgebra.conjugated"},
    }
