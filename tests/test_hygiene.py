"""Source hygiene: no unused module-level imports in the package, no
import inside a function or class, no private module-level helper or
private method that nothing references, no public function or class that
nothing references unless the package exports it, no defaulted parameter
that no call passes, every name the package exports resolves, and every
function and method the benchmark tracer (perfbench/tracer.py) wraps still
exists to be wrapped, with the jet argument it counts points from still in
its place."""

import ast
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import discde
from discde.ode import ContinuableSystem

PACKAGE = Path(discde.__file__).resolve().parent


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)  # re-exports count as uses
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    unused = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


def _nested_imports(path):
    """``file:line`` of every import inside a function or class body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.update(f"{path.name}:{inner.lineno}"
                         for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return found


def test_no_imports_inside_functions_or_classes():
    """Imports sit at module level, where the benchmark tracer patches the
    bindings they make and a reader sees a module's dependencies."""
    nested = [n for path in sorted(PACKAGE.glob("*.py"))
              for n in sorted(_nested_imports(path))]
    assert nested == []


def _private_definitions(tree):
    """Module-level functions, classes and assignments named _x (one
    leading underscore) of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _public_definitions(tree):
    """Module-level functions and classes of a parsed module whose names
    are public and not exported by discde.__all__."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in discde.__all__):
            yield node.name, node


def _references(tree):
    """Names read, attributes taken and names imported anywhere in the
    tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unreferenced(trees, definitions):
    """``file:line name`` of every (name, statement) that ``definitions``
    yields for a module of ``trees`` and that nothing references outside
    that statement.  The references are counted once per top-level
    statement: a name is used when another module references it, or when
    its own module does more often than the defining statement alone."""
    counts = {name: {id(stmt): Counter(_references(stmt)) for stmt in tree.body}
              for name, tree in trees.items()}
    totals = {name: sum(per.values(), Counter()) for name, per in counts.items()}
    unreferenced = []
    for name, tree in trees.items():
        for defined, node in definitions(tree):
            used = (totals[name][defined] > counts[name][id(node)][defined]
                    or any(totals[other][defined]
                           for other in trees if other != name))
            if not used:
                unreferenced.append(f"{name}:{node.lineno} {defined}")
    return unreferenced


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(trees, _private_definitions) == []


def _private_methods(tree):
    """(class name, definition) of every method named _x (one leading
    underscore) of a module-level class of a parsed module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and member.name.startswith("_")
                        and not member.name.startswith("__")):
                    yield node.name, member


def test_no_unreferenced_private_methods():
    """A private method must be referenced, by attribute or by name,
    somewhere in the package outside its own body."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    totals = sum((Counter(_references(tree)) for tree in trees.values()),
                 Counter())
    unreferenced = [f"{name}:{method.lineno} {cls}.{method.name}"
                    for name, tree in trees.items()
                    for cls, method in _private_methods(tree)
                    if totals[method.name]
                    == Counter(_references(method))[method.name]]
    assert unreferenced == []


def test_no_unreferenced_public_definitions():
    """A public module-level function or class that no other definition in
    the package references is API that nothing calls; only the names of
    discde.__all__ may be called from outside alone.  The re-exports of
    __init__.py are not references."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert _unreferenced(trees, _public_definitions) == []


def _calls():
    """Per called name (a function, a method, or a class for its
    __init__), the (positional count, keywords, splat) of every call in
    the package and in perfbench/; splat is whether a *args or **kwargs
    argument may pass any parameter."""
    calls = {}
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        (PACKAGE.parents[1] / "perfbench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            splat = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (positional, {k.arg for k in node.keywords}, splat))
    return calls


def _defaulted_parameters(tree):
    """(called name, definition, [(position, parameter)]) of every
    module-level function, private ones too, every public method and every
    __init__ of a module-level class; a method's positions count after self
    or cls."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(node.name if m.name == "__init__" else m.name, m, 1)
                    for m in node.body if isinstance(m, ast.FunctionDef)
                    and (m.name == "__init__" or not m.name.startswith("_"))]
        elif isinstance(node, ast.FunctionDef):
            defs = [(node.name, node, 0)]
        else:
            continue
        for name, fn, skip in defs:
            args = fn.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            found = [(k - skip, p.arg) for k, p in enumerate(params)
                     if k >= first]
            found += [(None, p.arg) for p, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                      if d is not None]
            yield name, fn, found


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter of a function or method that code in the
    package or the benchmark calls, matched by name, must be passed by one
    of those calls: by keyword, by position or through a splat.  One that
    no call passes is a setting with one value in use, a constant in the
    body.  Functions that nothing calls are left to the __all__ rule."""
    calls = _calls()
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn, params in _defaulted_parameters(
                ast.parse(path.read_text())):
            sites = calls.get(name)
            if not sites:
                continue
            for position, param in params:
                if not any(splat or param in keywords
                           or (position is not None and position < positional)
                           for positional, keywords, splat in sites):
                    unpassed.append(f"{path.name}:{fn.lineno} {name}: {param}")
    assert unpassed == []


def test_exports_resolve():
    missing = [name for name in discde.__all__ if not hasattr(discde, name)]
    assert missing == []


def _bindings():
    """Every module-level and class-level binding of the loaded package."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "discde"
                               or mod_name.startswith("discde.")):
            continue
        for name, obj in vars(mod).items():
            found[(mod_name, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod_name:
                for attr, member in vars(obj).items():
                    found[(mod_name, name, attr)] = member
    return found


def test_tracer_patch_sites_resolve():
    """perfbench/tracer.py patches discde from outside; every name it
    traces must still bind somewhere, and restore() must undo it all."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    for name in ("cli", "expr", "functionals", "geometry", "ode",
                 "schwarzian", "series", "stopping", "suites", "zeros"):
        importlib.import_module(f"discde.{name}")
    requested = []

    class Recording(tracer_mod.Tracer):
        def patch_function(self, module, attr, name, coarse, **opts):
            requested.append(name)
            super().patch_function(module, attr, name, coarse, **opts)

        def patch_method(self, cls, attr, name, coarse, **opts):
            requested.append(name)
            super().patch_method(cls, attr, name, coarse, **opts)

    before = _bindings()
    tracer = Recording()
    try:
        tracer_mod.install(tracer)
        unpatched = [n for n in requested if not tracer.patched_sites.get(n)]
    finally:
        tracer.restore()
    assert requested and unpatched == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_tracer_reads_z_where_the_jet_takes_it():
    """The tracer's _after_jet counts points from a positional slot of
    ContinuableSystem.jet; that slot must stay the parameter ``z``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    after_jet = next(node for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_after_jet")
    slots = {node.slice.value for node in ast.walk(after_jet)
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name) and node.value.id == "args"
             and isinstance(node.slice, ast.Constant)}
    params = list(inspect.signature(ContinuableSystem.jet).parameters)
    assert slots and {params[k] for k in slots} == {"z"}
