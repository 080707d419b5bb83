"""No package module imports a private name from another package module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entclone"


def private_imports(source: str) -> list[str]:
    """Every `from entclone... import _name` (or relative import) in source, dunders excepted, as "module._name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "entclone"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.append(f"{node.module}.{alias.name}")
    return found


def test_detector_sees_parenthesized_imports():
    source = "from entclone.sdp import (\n    solve,\n    _block_cone,\n)\nfrom entclone import __version__\n"
    assert private_imports(source) == ["entclone.sdp._block_cone"]
    assert private_imports("from .channel import _party_reductions\n") == ["channel._party_reductions"]


def test_no_cross_module_private_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = {f.name: private_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in offenders.items() if names} == {}
