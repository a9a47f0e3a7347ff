"""The package holds only what a command or the benchmark runs."""
import ast
from pathlib import Path

import hjhomog

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_in_src_is_used_by_src_or_the_benchmark():
    # a name that only tests reach belongs in the tests (exact oracles live
    # in conftest.py); a reference is a name or an attribute read, so an
    # import or an __all__ entry alone does not keep a name alive
    src = sorted((ROOT / "src" / "hjhomog").glob("*.py"))
    defined, used = {}, set()
    for path in src + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path in src:
            defined.update((node.name, path.stem) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert sorted(f"{mod}.{name}" for name, mod in defined.items() if name not in used) == []


def test_the_package_exports_the_refusals():
    assert sorted(hjhomog.__all__) == ["CFLError", "DomainError", "OrientationError",
                                       "__version__"]
    for name in hjhomog.__all__:
        assert hasattr(hjhomog, name)
