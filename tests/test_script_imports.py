"""The scripts import library names that refactors rename or delete:
every ``from lighthouse_ray... import name`` in ``scripts/*.py``,
``bench.py`` and ``__ray_entry__.py`` must resolve.  The scripts are
parsed with ``ast``, never run."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "bench.py", ROOT / "__ray_entry__.py"]


def _library_imports():
    """(file, module, name) per imported name; name None for ``import mod``."""
    for f in FILES:
        for node in ast.walk(ast.parse(f.read_text(), filename=str(f))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "lighthouse_ray":
                    for alias in node.names:
                        yield f.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "lighthouse_ray":
                        yield f.name, alias.name, None


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_script_library_imports_resolve():
    found = list(_library_imports())
    assert len(found) >= 50, "the walk found too few imports to be reading the scripts"
    missing = [f"{f}: from {m} import {n}" for f, m, n in found if not _resolves(m, n)]
    assert not missing, "\n".join(missing)
