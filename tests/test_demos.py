"""Every name a demo imports from expander_cutoff exists.  The demos are
parsed, never run, so removing a public name cannot break them silently."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(tree):
    """(module, name) for every `from expander_cutoff[.sub] import name`,
    and (module, None) for every `import expander_cutoff[.sub]`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "expander_cutoff":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "expander_cutoff":
                    yield alias.name, None


def _exists(module, name) -> bool:
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:                      # a submodule the package does not import
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(_package_imports(ast.parse(path.read_text(),
                                              filename=str(path))))
    assert imports
    missing = [f"{m}.{n}" for m, n in imports if not _exists(m, n)]
    assert not missing, f"{path.name} imports missing names: {missing}"
