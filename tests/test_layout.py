"""The package holds only what a command or the benchmark runs."""
import ast
from pathlib import Path

import hjhomog

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_in_src_is_used_by_src_or_the_benchmark():
    # a name that only tests reach belongs in the tests (exact oracles live
    # in conftest.py); a reference is a name or an attribute read, so an
    # import or an __all__ entry alone does not keep a name alive.  The
    # names are the module's functions and classes and its classes' methods.
    src = sorted((ROOT / "src" / "hjhomog").glob("*.py"))
    defined, used = {}, set()
    for path in src + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path in src:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    defined.update((f"{path.stem}.{node.name}.{fn.name}", fn.name)
                                   for fn in node.body if isinstance(fn, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "pde.Grid.box" in defined and "pde.probe_stencil" in defined
    assert sorted(qual for qual, name in defined.items()
                  if not name.startswith("_") and name not in used) == []


def test_the_package_exports_the_refusals():
    assert sorted(hjhomog.__all__) == ["CFLError", "DomainError", "OrientationError",
                                       "__version__"]
    for name in hjhomog.__all__:
        assert hasattr(hjhomog, name)


def test_every_defaulted_parameter_in_src_is_passed_by_src_or_the_benchmark():
    # a default that no caller overrides is a constant; a call passes a
    # parameter when it names it, reaches its position, or unpacks * or **.
    # Calls match by the callee's name.  The console script calls main() bare
    # and the tests drive the CLI through main(argv).
    src = sorted((ROOT / "src" / "hjhomog").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in src + sorted((ROOT / "bench").glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    defaulted = []
    for path in src:
        methods = {id(fn) for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and "staticmethod" not in [getattr(d, "id", None) for d in fn.decorator_list]}
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            first = len(names) - len(fn.args.defaults)
            defaulted += [(path.stem, fn.name, names[i], i - (id(fn) in methods))
                          for i in range(first, len(names))]
            defaulted += [(path.stem, fn.name, a.arg, None)
                          for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]

    def passes(call, param, index):
        return (any(k.arg in (param, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or index is not None and len(call.args) > index)

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    unpassed = [f"{mod}.{fn}({param}=)" for mod, fn, param, index in defaulted
                if not any(callee(c) == fn and passes(c, param, index) for c in calls)]
    assert defaulted
    assert unpassed == ["cli.main(argv=)"]
