import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refuse_type_l_forward, refuse_type_l_inverse
import latticerect
from latticerect import Family, LatticeRect, SequenceId, bijections, cli, counting, evaluate
from latticerect.cli import entry_point, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- JSON report golden outputs ------------------------------------------------

@pytest.mark.parametrize("argv,fixture", [
    (["count", "aztec:5", "--method", "all"], "count_aztec5_all.json"),
    (["verify", "--max-n", "4", "--families", "s,a"], "verify_max4_s_a.json"),
    (["bijections", "--max-n", "3"], "bijections_max3.json"),
    (["oeis", "--terms", "5"], "oeis_terms5.json"),
    (["render", "biscuit:2", "--format", "svg"], "render_biscuit2_svg.json"),
])
def test_json_report_matches_golden(capsys, argv, fixture):
    code, out, err = run(capsys, *argv, "--json", "--no-timing")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / fixture).read_text()


def test_family_and_sequence_share_member_names():
    # the CLI and count_formula map between the two enums by member name
    assert {f.name for f in Family} == {s.name for s in SequenceId}


# --- render golden outputs -----------------------------------------------------

@pytest.mark.parametrize("spec,fixture", [
    ("aztec:1", "render_aztec1.txt"),
    ("biscuit:2", "render_biscuit2.txt"),
    ("staircase:3:dl", "render_staircase3dl.txt"),
])
def test_render_ascii_matches_golden(capsys, spec, fixture):
    code, out, _ = run(capsys, "render", spec)
    assert code == 0
    assert out == (GOLDEN / fixture).read_text()


def test_render_ascii_with_axis(capsys):
    code, out, _ = run(capsys, "render", "biscuit:2", "--axis")
    assert code == 0
    assert out == "..#|#..\n###|###\n..#|#..\n"


def test_render_ascii_axis_on_lattice_line(capsys):
    code, out, _ = run(capsys, "render", "aztec:1", "--axis")
    assert code == 0
    assert out == "##|##\n##|##\n"


@pytest.mark.parametrize("spec,x,y2", [("biscuit:2", "1.5", "3.5"), ("aztec:1", "1", "2.5")])
def test_render_svg_draws_the_axis(capsys, spec, x, y2):
    code, out, _ = run(capsys, "render", spec, "--axis", "--format", "svg")
    assert code == 0
    assert out.endswith(f'</g>\n<line x1="{x}" y1="-0.5" x2="{x}" y2="{y2}" stroke="#c03020" '
                        'stroke-width="0.06" stroke-dasharray="0.3 0.2"/>\n</svg>\n')


def test_render_axis_needs_symmetric_shape(capsys):
    code, _, err = run(capsys, "render", "aztec-half:2:left", "--axis")
    assert code == 2
    assert "no vertical symmetry axis" in err


def test_render_svg_deterministic(capsys):
    _, first, _ = run(capsys, "render", "aztec:2", "--format", "svg")
    _, second, _ = run(capsys, "render", "aztec:2", "--format", "svg")
    assert first == second
    assert first.startswith("<svg ")
    assert first.count("<rect") == 12  # one per cell


def test_render_out_file(capsys, tmp_path):
    target = tmp_path / "shape.svg"
    code, out, _ = run(capsys, "render", "biscuit:3", "--format", "svg",
                       "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.count("<rect") == 13
    assert "wrote" in out


@pytest.mark.parametrize("fmt,expected", [
    ("ascii", ""),
    ("svg", '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1"/>\n'),
])
def test_render_empty_region(capsys, fmt, expected):
    code, out, err = run(capsys, "render", "biscuit-half:1:smaller", "--format", fmt)
    assert (code, out, err) == (0, expected, "")


def test_render_out_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "shape.txt"
    code, out, err = run(capsys, "render", "biscuit:2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


def test_render_parse_error(capsys):
    code, _, err = run(capsys, "render", "staircase:0")
    assert code == 2
    assert "order must be >= 1" in err


def test_render_guard_fails_before_building(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "render", "aztec:10000000", "--format", "svg")
    assert (code, out) == (2, "")
    assert "render guard (1000)" in err
    assert time.perf_counter() - started < 1.0
    assert run(capsys, "render", "aztec:1001")[0] == 2
    assert run(capsys, "render", "staircase:1000")[0] == 0


# --- count -----------------------------------------------------------------------

def test_count_all_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "aztec:1", "--method", "all")
    assert code == 0
    assert "aztec:1: 9" in out
    assert "agree" in out


def test_count_biscuit_2(capsys):
    code, out, _ = run(capsys, "count", "biscuit:2", "--method", "all")
    assert code == 0
    assert "biscuit:2: 11" in out


def test_count_single_method(capsys):
    code, out, _ = run(capsys, "count", "staircase:4", "--method", "formula")
    assert code == 0
    assert out.strip() == "staircase:4:dl: 35"


def test_count_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "count", "staircase:0")
    assert code == 2
    assert "order must be >= 1" in err


def test_count_naive_guard(capsys):
    code, _, err = run(capsys, "count", "aztec:41", "--method", "naive")
    assert code == 2
    assert "naive" in err
    assert run(capsys, "count", "aztec:41", "--method", "fast")[0] == 0


def test_count_fast_guard_fails_before_building(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "count", "aztec:10000000")
    assert code == 2
    assert "fast-method guard (20000)" in err
    assert out == ""
    assert time.perf_counter() - started < 1.0
    assert run(capsys, "count", "aztec:10000000", "--method", "formula")[0] == 0


@pytest.fixture
def int_max_str_digits():
    """``sys.set_int_max_str_digits`` for one test; the old limit comes back after it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
@pytest.mark.parametrize("extra", [[], ["--json", "--no-timing"]])
@pytest.mark.parametrize("limit,digits,code", [(4300, 1074, 0), (4300, 1075, 2), (0, 1080, 0)])
def test_count_formula_guard_refuses_a_count_past_the_int_string_limit(
        capsys, monkeypatch, int_max_str_digits, extra, limit, digits, code):
    # a d-digit order counts at most 4d + 1 digits; 1080 digits exited 1 with a ValueError
    int_max_str_digits(limit)
    evaluated = []
    monkeypatch.setattr(counting, "count_formula",
                        lambda spec, count=counting.count_formula: evaluated.append(spec) or count(spec))
    n = int("9" * digits)
    result = run(capsys, "count", f"staircase:{n}", "--method", "formula", *extra)
    if code:
        assert result == (2, "", f"error: a {digits}-digit order exceeds the formula guard: its "
                                 f"count may pass Python's {limit}-digit int string limit\n")
        assert evaluated == []
    elif extra:
        assert (result[0], json.loads(result[1])["counts"]) == (
            0, {"formula": evaluate(SequenceId.STAIRCASE, n)})
    else:
        assert result == (0, f"staircase:{n}:dl: {evaluate(SequenceId.STAIRCASE, n)}\n", "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
def test_count_formula_guard_reads_no_limit_where_python_has_none(
        capsys, monkeypatch, int_max_str_digits):
    # Python 3.10 before 3.10.7 has no int string limit and no sys.get_int_max_str_digits
    int_max_str_digits(0)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(capsys, "count", f"staircase:{'9' * 1080}", "--method", "formula")[0] == 0


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_count_all_names_the_naive_guard_first(monkeypatch, seed):
    # aztec:20001 passes the fast guard too; the guards go in methods order, so the
    # one named may not hang on string hashing, which differs from seed to seed
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    result = run_python("-m", "latticerect", "count", "aztec:20001", "--method", "all")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: order 20001 exceeds the naive-method guard (40)\n"


def test_count_report_names_backend_and_region(capsys):
    _, out, _ = run(capsys, "count", "aztec:3", "--json", "--no-timing")
    report = json.loads(out)
    assert report["backend"] == "numpy-bands"
    assert report["region"] == {"width": 6, "height": 6, "cells": 24}
    assert report["counts"] == {"fast": 166}
    _, out, _ = run(capsys, "count", "aztec:3", "--method", "formula", "--json")
    report = json.loads(out)
    assert report["backend"] is None and report["region"] is None


def test_count_empty_region_reports_zero_width(capsys):
    code, out, _ = run(capsys, "count", "biscuit-half:1:smaller", "--method", "all",
                       "--json", "--no-timing")
    report = json.loads(out)
    assert code == 0
    assert report["counts"] == {"naive": 0, "fast": 0, "formula": 0}
    assert report["agreement"] is True
    assert report["region"] == {"width": 0, "height": 0, "cells": 0}


def test_count_json_deterministic_without_timing(capsys):
    args = ("count", "biscuit:2", "--method", "all", "--json", "--no-timing")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    report = json.loads(first)
    assert report["counts"] == {"naive": 11, "fast": 11, "formula": 11}
    assert report["agreement"] is True
    assert report["exit_status"] == 0
    assert "timing_ms" not in report
    assert list(report) == sorted(report)


def test_count_json_includes_timing_by_default(capsys):
    _, out, _ = run(capsys, "count", "aztec:1", "--json")
    assert "timing_ms" in json.loads(out)


@pytest.mark.parametrize("method,timed", [
    ("naive", True), ("fast", True), ("all", True), ("formula", False)])
def test_count_times_the_numpy_import_only_for_region_methods(capsys, method, timed):
    _, out, _ = run(capsys, "count", "aztec:2", "--method", method, "--json")
    assert ("numpy_import" in json.loads(out)["timing_ms"]) is timed


def test_count_disagreement_exits_3(capsys, monkeypatch):
    fast = counting.count_fast
    monkeypatch.setattr(counting, "count_fast", lambda region: fast(region) + 1)
    code, out, err = run(capsys, "count", "aztec:3", "--method", "all")
    assert (code, out, err) == (
        3, "aztec:3: METHOD DISAGREEMENT naive=166 fast=167 formula=166\n", "")
    code, out, _ = run(capsys, "count", "aztec:3", "--method", "all", "--json", "--no-timing")
    report = json.loads(out)
    assert (code, report["agreement"], report["exit_status"]) == (3, False, 3)
    assert report["counts"] == {"naive": 166, "fast": 167, "formula": 166}


# --- verify ------------------------------------------------------------------------

def test_verify_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert "all counts agree" in out
    assert out.count("ok") == 5


def test_verify_zero_max_n_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "0")
    assert code == 2
    assert "--max-n" in err


def test_verify_restricted_families(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--families", "s,a", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["families"] == ["s", "a"]
    assert all(entry["ok"] for entry in report["results"].values())


def test_verify_drops_repeated_families(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--families", "a,s,aztec,A",
                       "--json", "--no-timing")
    assert code == 0
    assert json.loads(out)["families"] == ["a", "s"]


def test_verify_mismatch_reports_every_family_and_exits_3(capsys, monkeypatch):
    fast = counting.count_fast
    monkeypatch.setattr(counting, "count_fast",
                        lambda region: fast(region) + (region.height >= 6))
    code, out, err = run(capsys, "verify", "--max-n", "4")
    assert (code, err) == (3, "")
    assert out == (
        "staircase     n=1..4: ok\n"
        "aztec-half    n=1..4: ok\n"
        "biscuit-half  n=1..4: ok\n"
        "aztec         MISMATCH at n=3: naive=166 fast=167 formula=166\n"
        "biscuit       MISMATCH at n=4: naive=170 fast=171 formula=170\n"
        "FAILED\n")
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--json", "--no-timing")
    assert code == 3
    ok = {"ok": True, "counterexample": None}
    assert json.loads(out) == {
        "command": "verify",
        "exit_status": 3,
        "families": ["s", "ah", "bh", "a", "b"],
        "max_n": 4,
        "results": {
            "s": ok, "ah": ok, "bh": ok,
            "a": {"ok": False, "counterexample":
                  {"n": 3, "naive": 166, "fast": 167, "formula": 166}},
            "b": {"ok": False, "counterexample":
                  {"n": 4, "naive": 170, "fast": 171, "formula": 170}},
        },
    }


def test_verify_builds_each_shape_once(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build", lambda spec, _build=cli.build:
                        built.append(spec) or _build(spec))
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0, out
    assert len(built) == len(set(built)) == 3 * len(SequenceId), built


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "--families", "zz")
    assert code == 2
    assert "unknown family" in err


@pytest.mark.parametrize("argv,fragment", [
    (["verify", "--max-n", "1", "--families", ""], "unknown family ''"),
    (["oeis", "--ids", "", "--terms", "1"], "'' is not a supported OEIS id"),
])
def test_empty_list_is_usage_error(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert fragment in err


@pytest.mark.parametrize("option", [("verify", "--max-n"), ("bijections", "--max-n"),
                                    ("oeis", "--terms")])
@pytest.mark.parametrize("value", ["٣", "６", "1_0", " +4", "-2"])
def test_integer_options_take_ascii_digits_only(capsys, option, value):
    # int() would read "٣" as 3, fullwidth "６" as 6, "1_0" as 10 and " +4" as 4
    with pytest.raises(SystemExit) as exited:
        main([*option, value])
    assert exited.value.code == 2
    assert f"invalid ascii_int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["bijections", "--max-n", "0"], "--max-n must be in 1..20, got 0"),
    (["oeis", "--terms", "0"], "--terms must be >= 1, got 0"),
])
def test_zero_reaches_the_range_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


# --- bijections ----------------------------------------------------------------------

def test_bijections_all_verified(capsys):
    code, out, _ = run(capsys, "bijections", "--max-n", "4")
    assert code == 0
    assert out.count("verified") == 4


def test_bijections_single_map_reports_sizes(capsys):
    code, out, _ = run(capsys, "bijections", "--map", "type_l", "--max-n", "2")
    assert code == 0
    assert "domain sizes 0, 1" in out


def test_bijections_unknown_map_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bijections", "--map", "nosuch"])
    assert excinfo.value.code == 2


def test_bijections_max_n_guard(capsys):
    code, _, err = run(capsys, "bijections", "--max-n", "21")
    assert code == 2
    assert "--max-n" in err


def test_bijections_failure_is_reported_and_exits_3(capsys, monkeypatch):
    sides = bijections._MAPS["type_l"]

    def widened_sides(n):
        domain, codomain, forward, inverse = sides(n)

        def widened(rect, order):
            image = forward(rect, order)
            return (image[0], image[1] + 1, *image[2:]) if order >= 3 else image
        return domain, codomain, widened, inverse
    monkeypatch.setitem(bijections._MAPS, "type_l", widened_sides)
    counterexample = "(LatticeRect(a=-3, b=1, c=0, d=1), (1, 4, 0, 1))"
    code, out, err = run(capsys, "bijections", "--max-n", "4")
    assert (code, err) == (3, "")
    assert out == (
        "quadruple       n=1..4: verified (domain sizes 1, 5, 15, 35)\n"
        "type_l          FAILED at n=3: injective=False surjective=False "
        f"roundtrip=False counterexample={counterexample}\n"
        "type_c          n=1..4: verified (domain sizes 1, 4, 10, 20)\n"
        "biscuit_expand  n=1..4: verified (domain sizes 1, 6, 20, 50)\n")
    code, out, _ = run(capsys, "bijections", "--max-n", "3", "--json", "--no-timing")
    assert code == 3
    expected = json.loads((GOLDEN / "bijections_max3.json").read_text())
    expected["exit_status"] = 3
    expected["results"]["type_l"] = {
        "verified": False, "domain_sizes": [0, 1, 5], "counterexample": counterexample}
    assert json.loads(out) == expected


def test_bijections_raising_inverse_is_reported_and_exits_3(capsys, monkeypatch):
    refuse_type_l_inverse(monkeypatch, 3)
    code, out, err = run(capsys, "bijections", "--max-n", "3")
    assert (code, err) == (3, "")
    assert ("type_l          FAILED at n=3: injective=True surjective=True roundtrip=False "
            "counterexample=(LatticeRect(a=-3, b=1, c=0, d=1), (1, 3, 0, 1), "
            "'refused (1, 3, 0, 1)')\n") in out


def test_bijections_exit_3_when_a_forward_map_raises(monkeypatch, capsys):
    refuse_type_l_forward(monkeypatch, LatticeRect(-3, 2, 0, 1))
    code, out, err = run(capsys, "bijections", "--map", "type_l")
    assert (code, err) == (3, "")
    assert out == ("type_l          FAILED at n=3: injective=False surjective=False "
                   "roundtrip=False counterexample=(LatticeRect(a=-3, b=2, c=0, d=1), "
                   "'refused [-3,2]x[0,1]')\n")


# --- oeis ----------------------------------------------------------------------------

def test_oeis_fixture_check(capsys):
    code, out, _ = run(capsys, "oeis", "--terms", "20")
    assert code == 0
    for sequence_id in ("A004320", "A002417", "A330805", "A213840"):
        assert f"{sequence_id}" in out
    assert out.count("20/20") == 4


def test_oeis_terms_past_the_bfile_exit_2(capsys):
    code, out, err = run(capsys, "oeis", "--terms", "21")
    assert (code, out) == (2, "")
    assert err == "error: A004320 b-file lacks terms for n=21 (has indices 1..20)\n"


def test_oeis_single_id_single_term(capsys):
    code, out, _ = run(capsys, "oeis", "--ids", "A004320", "--terms", "1")
    assert code == 0
    assert "1/1" in out


def test_oeis_drops_repeated_ids(capsys):
    code, out, _ = run(capsys, "oeis", "--ids", "A004320,a213840, A004320",
                       "--terms", "3", "--json", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["ids"] == ["A004320", "A213840"]
    assert [c["sequence_id"] for c in report["checks"]] == ["A004320", "A213840"]


def test_oeis_unsupported_id_exits_2(capsys):
    code, _, err = run(capsys, "oeis", "--ids", "A999999")
    assert code == 2
    assert "A999999" in err


def test_oeis_mismatch_exits_3(capsys, tmp_path):
    lines = [f"{n} {evaluate(SequenceId.AZTEC_HALF, n)}" for n in range(1, 21)]
    lines[4] = "5 240"
    (tmp_path / "A004320.bfile").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "oeis", "--ids", "A004320", "--source", "cache",
                       "--cache-dir", str(tmp_path))
    assert code == 3
    assert "first mismatch at n=5" in out
    assert "reference=240" in out and "computed=245" in out


def test_oeis_one_mismatch_among_two_ids_exits_3(capsys, tmp_path):
    for seq, damaged in ((SequenceId.AZTEC_HALF, True), (SequenceId.BISCUIT_HALF, False)):
        lines = [f"{n} {evaluate(seq, n)}" for n in range(1, 6)]
        if damaged:
            lines[4] = "5 240"
        (tmp_path / f"{latticerect.OEIS_IDS[seq]}.bfile").write_text("\n".join(lines) + "\n")
    argv = ("oeis", "--ids", "A004320,A002417", "--terms", "5", "--source", "cache",
            "--cache-dir", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "")
    assert out == (
        "A004320 (aztec-half): 4/5 match; first mismatch at n=5: "
        "reference=240, computed=245 [cache]\n"
        "A002417 (biscuit-half): 5/5 terms match [cache]\n")
    code, out, _ = run(capsys, *argv, "--json", "--no-timing")
    assert code == 3
    report = json.loads(out)
    assert report["exit_status"] == 3
    assert [(c["sequence_id"], c["matches"], c["first_mismatch"]) for c in report["checks"]] \
        == [("A004320", 4, [5, 240, 245]), ("A002417", 5, None)]


def test_oeis_network_failure_exits_4(capsys, tmp_path, monkeypatch):
    # unroutable loopback port fails fast on every platform
    monkeypatch.setenv("LATTICERECT_OEIS_URL", "http://127.0.0.1:9")
    code, _, err = run(capsys, "oeis", "--ids", "A004320", "--source", "network",
                       "--cache-dir", str(tmp_path))
    assert code == 4
    assert "download failed" in err


def test_oeis_truncated_download_exits_4(capsys, tmp_path, truncated_oeis_server):
    code, out, err = run(capsys, "oeis", "--ids", "A004320", "--source", "network",
                         "--cache-dir", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.startswith("error: download failed")
    assert "Traceback" not in err


def test_oeis_unwritable_cache_dir_exits_2(capsys, tmp_path, monkeypatch):
    served = tmp_path / "served" / "A004320"
    served.mkdir(parents=True)
    lines = [f"{n} {evaluate(SequenceId.AZTEC_HALF, n)}" for n in range(1, 21)]
    (served / "b004320.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("LATTICERECT_OEIS_URL", (tmp_path / "served").as_uri())
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    code, out, err = run(capsys, "oeis", "--ids", "A004320", "--source", "network",
                         "--cache-dir", str(blocker / "cache"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {blocker / 'cache'}")


def test_oeis_json_report(capsys):
    code, out, _ = run(capsys, "oeis", "--terms", "5", "--json", "--no-timing")
    report = json.loads(out)
    assert code == 0
    assert report["exit_status"] == 0
    assert [c["matches"] for c in report["checks"]] == [5, 5, 5, 5]


# --- process-level smoke ----------------------------------------------------------------

def run_python(*argv):
    """``python *argv`` in a fresh process that imports this checkout."""
    src = str(Path(latticerect.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    result = run_python("-m", "latticerect", "count", "aztec:1", "--method", "all")
    assert result.returncode == 0
    assert "aztec:1: 9" in result.stdout


def test_module_entry_point_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["latticerect", "count", "aztec:1"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("latticerect", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out == "aztec:1: 9\n"


@pytest.mark.parametrize("argv,code", [(["oeis", "--terms", "1"], 0), (["count", "aztec:0"], 2)])
def test_console_script_entry_point(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["latticerect", *argv])
    # nothing calls BLAS, so the process starts no OpenBLAS thread pool unless the user asks
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # so that the test restores the variable
    for preset, expected in [(None, "1"), ("3", "3")]:
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        with pytest.raises(SystemExit) as exited:
            entry_point()
        assert exited.value.code == code
        assert os.environ["OPENBLAS_NUM_THREADS"] == expected


def test_usage_error_exit_code():
    assert run_python("-m", "latticerect", "count").returncode == 2


def test_cli_import_leaves_urllib_request_unloaded():
    # urllib.request pulls in http.client, email and ssl; only a download needs it
    result = run_python("-c", "import sys, latticerect.cli; "
                        "print('urllib.request' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_count_method_timers_leave_out_the_numpy_import():
    # numpy loads with the first region count of a fresh process, in about 85 ms;
    # the fast kernel on aztec:30 takes about 1 ms
    result = run_python("-m", "latticerect", "count", "aztec:30", "--json")
    assert result.returncode == 0
    timing = json.loads(result.stdout)["timing_ms"]
    assert timing["fast"] < timing["numpy_import"]


def loaded_modules(*argv):
    """The latticerect modules, and numpy, dataclasses and inspect, loaded by a fresh process
    that runs ``main(argv)``."""
    result = run_python("-c", "import contextlib, io, sys, latticerect.cli as cli\n"
                        "if sys.argv[1:]:\n"
                        "    with contextlib.redirect_stdout(io.StringIO()):\n"
                        "        assert cli.main(sys.argv[1:]) == 0\n"
                        "print(*sorted(m for m in sys.modules\n"
                        "              if m in ('numpy', 'dataclasses', 'inspect')\n"
                        "              or m.split('.')[0] == 'latticerect'))",
                        *argv)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_import_loads_only_the_package_the_cli_and_geometry():
    assert loaded_modules() == {"latticerect", "latticerect.cli", "latticerect.geometry"}


@pytest.mark.parametrize("argv,unloaded", [
    ("render aztec:2 --format svg", "counting formulas bijections oeis"),
    ("oeis --terms 3", "counting bijections render"),
    ("count aztec:3 --method formula", "bijections oeis render"),
    ("bijections --max-n 3", "oeis render"),
])
def test_each_command_loads_only_the_modules_it_runs(argv, unloaded):
    # numpy imports inspect itself; these commands load neither
    loaded = loaded_modules(*argv.split())
    assert not loaded & {"numpy", "dataclasses", "inspect",
                         *(f"latticerect.{name}" for name in unloaded.split())}


@pytest.mark.parametrize("argv", ["count aztec:3", "verify --max-n 3"])
def test_region_counts_load_numpy_but_no_dataclasses(argv):
    loaded = loaded_modules(*argv.split())
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_only_region_counts_load_numpy():
    # numpy is most of a cold start; bijections, oeis, render and formula counts skip it
    result = run_python("-c", "import contextlib, io, sys, latticerect, latticerect.cli as cli\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        "    codes = [cli.main(argv.split()) for argv in (\n"
                        "        'bijections --max-n 3', 'oeis --terms 3',\n"
                        "        'render aztec:2 --format svg', 'count aztec:3 --method formula')]\n"
                        "    before = 'numpy' in sys.modules\n"
                        "    codes.append(cli.main(['count', 'aztec:3']))\n"
                        "print(codes, before, 'numpy' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, "[0, 0, 0, 0, 0] False True\n")


# --- exit-code contract over arbitrary argvs ------------------------------------------

# Orders past every region guard, long ones around the formula guard (1075 digits at
# Python's default int string limit) and the limit itself, or not ASCII decimal;
# "٣" is an Arabic-Indic 3.
BAD_ORDERS = ["0", "-1", "", " +4", "1_0", "1.5", "x", "٣", "20001", "10" * 16,
              "9" * 1074, "9" * 1100, "9" * 4301]
SPEC_FAMILIES = ["aztec", "biscuit", "staircase", "aztec-half", "biscuit-half", "AZTEC",
                 "nosuch", "", "äztec"]
SPEC_VARIANTS = ["ul", "top", "left", "larger", "smaller", "zz", "", "TÖP"]
FAMILY_TOKENS = ["s", "ah", "bh", "a", "b", "aztec", "biscuit-half", "nosuch", "", " S "]
OEIS_TOKENS = ["A004320", "a002417", "A330805", "A213840", "A000001", "", "Ａ004320"]
NO_DIGITS = st.characters(blacklist_characters="0123456789")


@st.composite
def specs(draw, cap):
    """Shape spec text: half well-formed with orders up to cap, half malformed in any field."""
    if draw(st.booleans()):
        return f"{draw(st.sampled_from(Family)).value}:{draw(st.integers(1, cap))}"
    order = draw(st.integers(1, cap).map(str) | st.sampled_from(BAD_ORDERS)
                 | st.text(NO_DIGITS, max_size=3))
    fields = [draw(st.sampled_from(SPEC_FAMILIES)), order,
              *draw(st.lists(st.sampled_from(SPEC_VARIANTS), max_size=2))]
    return ":".join(fields[:draw(st.integers(1, len(fields)))])


def max_ns(past_guard):
    # only ASCII digits parse: "٣", "６" (fullwidth) and "-2" are argparse usage errors
    return st.integers(1, 6).map(str) | st.sampled_from(
        ["0", "-2", past_guard, "10" * 8, "", "x", "٣", "６"])


def id_lists(tokens):
    """Comma lists: empty, repeated or unknown ids included."""
    return st.lists(st.sampled_from(tokens), max_size=3).map(",".join)


@st.composite
def argvs(draw, tmp: Path):
    command = draw(st.sampled_from(
        ["count", "verify", "bijections", "oeis", "render", "nosuch", "--version"]))

    def optional(flag, values):
        return draw(st.just([]) | values.map(lambda v: [flag, v]))

    argv = [command]
    if command == "count":
        method = draw(st.sampled_from(["fast", "naive", "formula", "all", "bogus"]))
        argv += [draw(specs(12 if method in ("naive", "all") else 300)), "--method", method]
    elif command == "verify":
        argv += ["--max-n", draw(max_ns("41"))] + optional("--families", id_lists(FAMILY_TOKENS))
    elif command == "bijections":
        argv += ["--max-n", draw(max_ns("21"))] + optional(
            "--map", st.sampled_from([*bijections.BIJECTION_NAMES, "nosuch"]))
    elif command == "oeis":  # never --source network: the test stays offline
        argv += ["--source", draw(st.sampled_from(["fixture", "cache", "bogus"])),
                 "--cache-dir", str(tmp), *optional("--ids", id_lists(OEIS_TOKENS)),
                 *optional("--terms", st.integers(1, 25).map(str)
                           | st.sampled_from(["0", "-1", "1000", "x"]))]
    elif command == "render":  # in-range orders stay small: a render writes every cell
        argv += [draw(specs(30)), "--format", draw(st.sampled_from(["ascii", "svg", "bogus"])),
                 *draw(st.sampled_from([[], ["--axis"]])),
                 *optional("--out", st.sampled_from([str(tmp / "shape.txt"),
                                                     str(tmp / "missing" / "shape.txt")]))]
    return argv + draw(st.lists(st.sampled_from(["--json", "--no-timing"]), max_size=2))


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(tmp_path_factory, data):
    argv = data.draw(argvs(tmp_path_factory.getbasetemp()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exited:  # argparse: 2 for a bad argv, 0 for --version
            code = exited.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
