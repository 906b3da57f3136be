"""The package's public surface: what ``import latticerect`` exports."""
import ast
from pathlib import Path

import latticerect
from latticerect import CellRegion, LatticeRect, oeis


def test_all_is_sorted_unique_and_resolves():
    names = latticerect.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(latticerect, name) is not None


def test_every_public_import_is_exported():
    tree = ast.parse(Path(latticerect.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(latticerect.__all__)


def test_removed_names_stay_removed():
    for name in ("Dihedral", "transform", "format_bfile"):
        assert name not in latticerect.__all__ and not hasattr(latticerect, name)
    assert not hasattr(oeis, "format_bfile")
    assert not any(hasattr(CellRegion, name)
                   for name in ("from_cells", "row_span", "__contains__", "rows"))
    assert not hasattr(LatticeRect, "cells")
