"""The package's public names agree with each module's ``__all__``, and
the README names only what the package holds.

A name left in ``__all__`` after its definition is deleted breaks
``from rogetkb.<module> import *``, and a name the package re-exports
without listing it in its module's ``__all__`` is public by accident. A
README example that imports a deleted name, or prose that names a deleted
module, documents code that is gone.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import rogetkb


def _modules() -> list:
    return [
        importlib.import_module(f"rogetkb.{info.name}")
        for info in pkgutil.iter_modules(rogetkb.__path__)
    ]


def test_every_listed_name_resolves():
    listed = [module for module in _modules() if hasattr(module, "__all__")]
    assert listed
    missing = [
        f"{module.__name__}.{name}"
        for module in listed
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


def test_package_exports_are_listed_by_their_modules():
    tree = ast.parse(Path(rogetkb.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = [
        f"rogetkb.{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"rogetkb.{node.module}").__all__
    ]
    assert unlisted == []


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_examples_import_only_what_the_package_holds():
    blocks = re.findall(r"^```python\n(.*?)^```", _README, flags=re.M | re.S)
    imports = [
        node
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rogetkb"
    ]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == []


def test_readme_names_only_modules_that_import():
    missing = []
    for name in sorted(set(re.findall(r"`(rogetkb\.\w+)`", _README))):
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            missing.append(name)
    assert missing == []
