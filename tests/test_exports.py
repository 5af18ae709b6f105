"""Exports are exactly what __init__ imports, and the README's library example runs."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np

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


def readme_library_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs_and_reads_as_commented():
    source = readme_library_example()
    imported = {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported <= set(jurymarkets.__all__), sorted(imported - set(jurymarkets.__all__))
    namespace: dict = {}
    exec(compile(source, "README.md", "exec"), namespace)
    checked = []
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # a remark such as "Newton on the price and on stakes", not a value
        actual = eval(code, namespace)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12, err_msg=code)
        checked.append(code.strip())
    assert len(checked) == 4, checked
