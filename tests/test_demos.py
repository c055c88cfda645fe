"""Every name a demo or the README's Python quick start imports from
expander_cutoff exists.  Both are parsed, never run, so removing a public
name cannot break them silently."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def _missing(source, filename):
    imports = list(_package_imports(ast.parse(source, filename=filename)))
    assert imports
    return [f"{m}.{n}" for m, n in imports if not _exists(m, n)]


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = _missing(path.read_text(), str(path))
    assert not missing, f"{path.name} imports missing names: {missing}"


def test_readme_quick_start_imports_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md")
                        .read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        missing = _missing(block, "README.md")
        assert not missing, f"README.md imports missing names: {missing}"
