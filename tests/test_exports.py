"""The package's export list matches what its __init__ imports."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import jurymarkets


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(jurymarkets.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves_once():
    repeated = [name for name, count in Counter(jurymarkets.__all__).items() if count > 1]
    assert not repeated, repeated
    missing = [name for name in jurymarkets.__all__ if not hasattr(jurymarkets, name)]
    assert not missing, missing


def test_exports_are_the_imported_public_names():
    imported = imported_public_names()
    exported = set(jurymarkets.__all__)
    assert exported == imported, (
        f"exported but not imported: {sorted(exported - imported)}; "
        f"imported but not exported: {sorted(imported - exported)}"
    )
