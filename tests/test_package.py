"""The package's public surface: what ``import latticerect`` exports."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticerect
from latticerect import CellRegion, LatticeRect, bijections, geometry, oeis


def test_all_is_sorted_unique_and_resolves():
    names = latticerect.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(latticerect, name) is not None


def test_every_public_name_loads_from_its_home_module():
    homes = latticerect._HOMES
    assert sorted(homes) == latticerect.__all__
    for name, home in homes.items():
        module = importlib.import_module(f"latticerect.{home}")
        assert getattr(latticerect, name) is getattr(module, name)
        assert getattr(latticerect, home) is module
    assert set(latticerect.__all__) <= set(dir(latticerect))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        latticerect.no_such_name


def test_a_fresh_import_loads_each_module_on_first_use():
    src = str(Path(latticerect.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys, latticerect\n"
              "loaded = lambda: sorted(m[12:] for m in sys.modules if m.startswith('latticerect.'))\n"
              "print(loaded())\n"
              "latticerect.oeis.check\n"
              "print(loaded())\n"
              "latticerect.render_svg\n"
              "print(loaded(), 'render_svg' in vars(latticerect))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert (result.returncode, result.stdout.splitlines()) == (0, [
        "[]", "['formulas', 'geometry', 'oeis']",
        "['formulas', 'geometry', 'oeis', 'render'] True"])


def test_removed_names_stay_removed():
    maps = ("staircase_to_quadruple", "quadruple_to_staircase", "fold_left_heavy",
            "unfold_left_heavy", "anchor_centered", "unanchor_centered",
            "expand_to_aztec_half", "shrink_to_biscuit_half")
    for name in ("Dihedral", "transform", "format_bfile", "binomial", "split_half",
                 "split_staircases", *maps):
        assert name not in latticerect.__all__ and not hasattr(latticerect, name)
        assert name not in dir(latticerect)
    assert not any(hasattr(bijections, name) for name in (*maps, "_require"))
    assert not hasattr(oeis, "format_bfile")
    assert not any(hasattr(geometry, name) for name in ("split_half", "split_staircases"))
    assert not any(hasattr(CellRegion, name)
                   for name in ("from_cells", "row_span", "__contains__", "rows"))
    assert not hasattr(LatticeRect, "cells")
