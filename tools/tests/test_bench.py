"""Tests of tools/bench.py: pair order, seeds, statistics, the BENCH file, one real pair.

Run from the repository root with ``python3 -m pytest tools/tests``.
"""
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TOOLS))

import bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]


def test_pairs_alternate_which_side_runs_first():
    assert [bench.order(i) for i in range(4)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]


def test_pair_i_runs_seed_seed0_plus_i():
    assert bench.seeds(300, 4) == [300, 301, 302, 303]
    assert bench.seeds(0, 1) == [0]


def test_quartiles_are_inclusive_and_one_value_is_all_three():
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_lower_is_better_metric():
    row = bench.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 5.0], "lower", 0.25)
    assert row["base"]["median"] == 3.0 and row["change"]["median"] == 2.5
    assert (row["base"]["q1"], row["base"]["q3"], row["base"]["iqr"]) == (2.0, 4.0, 2.0)
    assert row["ratio"] == pytest.approx(2.5 / 3.0)
    assert row["wins"] == 3 and row["pairs"] == 5  # a tie (5.0 against 5.0) is no win
    assert row["losses"] == 1 and row["p_sign"] == pytest.approx(10 / 16)  # 3 of 4, no tie
    assert row["change_median_in_base_iqr"] and not row["gap_exceeds_base_iqr"]
    assert row["within_bound"]


def test_summary_of_a_higher_is_better_metric():
    row = bench.summarize([10.0, 10.0, 10.0], [12.0, 9.0, 13.0], "higher", 0.1)
    assert row["wins"] == 2 and row["better"] == "higher"
    assert row["ratio"] == pytest.approx(1.2)
    assert row["base"]["iqr"] == 0.0
    assert not row["change_median_in_base_iqr"] and row["gap_exceeds_base_iqr"]
    assert row["within_bound"]


@pytest.mark.parametrize("better, change, within", [
    ("lower", 1.25, True), ("lower", 1.26, False), ("lower", 0.5, True),
    ("higher", 0.75, True), ("higher", 0.74, False), ("higher", 2.0, True),
])
def test_within_bound_allows_a_worse_median_by_at_most_the_bound(better, change, within):
    assert bench.summarize([1.0], [change], better, 0.25)["within_bound"] is within


@pytest.mark.parametrize("change, wins, losses, p", [
    ([0.5] * 9 + [2.0], 9, 1, 22 / 1024),
    ([2.0] * 9 + [0.5], 1, 9, 22 / 1024),  # two-sided
    ([0.5] * 10, 10, 0, 2 / 1024),
    ([0.5] * 9 + [1.0], 9, 0, 2 / 512),  # the tie is dropped: 9 of 9
    ([0.5] * 4 + [1.0] * 6, 4, 0, 2 / 16),
    ([0.5] * 5 + [2.0] * 5, 5, 5, 1.0),
    ([1.0] * 10, 0, 0, 1.0),
])
def test_a_summary_row_carries_its_exact_sign_test(change, wins, losses, p):
    row = bench.summarize([1.0] * 10, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["pairs"]) == (wins, losses, 10)
    assert row["p_sign"] == pytest.approx(p)


def test_the_summary_line_names_every_row_below_the_sign_level(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    _fake_runs(monkeypatch)  # the change differs from the base in every pair
    for pairs, named in ((5, []), (6, METRICS)):  # 5 of 5 has p = 2/32, 6 of 6 p = 2/64
        assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", str(pairs),
                           "--seconds", "2", "--workloads", "verify"]) == 0
        line = capsys.readouterr().out.splitlines()[-2]
        assert line.startswith("sign test p < 0.05: ")
        # the change's values are higher: better only for cells_per_s
        wins = {name: 6 if name == "cells_per_s" else 0 for name in named}
        assert line.split(": ", 1)[1] == "; ".join(
            f"verify {name} ({wins[name]} better, {6 - wins[name]} worse, p 0.0312)"
            for name in named) or "no row"


def test_a_zero_base_median_has_no_ratio():
    assert bench.summarize([0.0], [1.0], "lower", 0.25)["ratio"] is None


def _fake_runs(monkeypatch, fail=None, traced=None):
    """Replace the run.py subprocess: each side's solve_s is 1 (base) or 2 (change)
    plus the seed / 1000; returns the list of (side, workload, seed) untraced runs
    made.  A traced run gives every per-layer metric 4 (base) or 3 (change) plus
    the seed / 1000, and is listed in ``traced`` instead; ``fail`` names the
    (side, workload, trace) run that reports a wrong value."""
    calls, traced = [], [] if traced is None else traced

    def run_side(tree, workload, seed, seconds, trace=0):
        side = tree.name
        (traced if trace else calls).append((side, workload, seed))
        names, value = (LAYERS, 4.0 if side == "base" else 3.0) if trace else (
            METRICS, 1.0 if side == "base" else 2.0)
        result = {"correct": fail not in ((side, workload), (side, workload, trace)),
                  "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": value + seed / 1000, "unit": "x"}
                              for name in names}}
        return 0, {"machine": {"src_lines": 10 if side == "base" else 11}}, result

    monkeypatch.setattr(bench, "run_side", run_side)
    return calls


def test_compare_writes_every_field_of_the_bench_file(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    calls = _fake_runs(monkeypatch)
    assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", "3",
                       "--seconds", "2", "--workloads", "verify,count_tall",
                       "--seed0", "40"]) == 0
    assert calls == [("base", "verify", 40), ("change", "verify", 40),
                     ("base", "count_tall", 40), ("change", "count_tall", 40),
                     ("change", "verify", 41), ("base", "verify", 41),
                     ("change", "count_tall", 41), ("base", "count_tall", 41),
                     ("base", "verify", 42), ("change", "verify", 42),
                     ("base", "count_tall", 42), ("change", "count_tall", 42)]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(report) == {"label", "base", "change", "pairs", "seconds", "seeds", "first",
                           "measured", "machine", "workloads", "layers"}
    head = bench.git("rev-parse", "HEAD")
    assert report["base"] == {"rev": "HEAD", "commit": head, "dirty": False}
    assert report["change"]["commit"] == head and isinstance(report["change"]["dirty"], bool)
    assert (report["pairs"], report["seconds"], report["seeds"]) == (3, 2.0, [40, 41, 42])
    assert report["first"] == ["base", "change", "base"]
    assert "per-process time only" in report["measured"]
    assert report["machine"] == {"base": {"src_lines": 10}, "change": {"src_lines": 11}}
    assert set(report["workloads"]) == {"verify", "count_tall"}
    for table in report["workloads"].values():
        assert list(table) == METRICS
        solve = table["solve_s"]
        assert solve["base"]["values"] == [1.04, 1.041, 1.042]
        assert solve["change"]["median"] == 2.041 and solve["wins"] == 0
        assert solve["unit"] == "s" and solve["better"] == "lower"
        assert table["cells_per_s"]["wins"] == 3  # higher is better there
        # solve_s doubles, past its 0.25 bound; cells_per_s doubles, which is better
        assert solve["within_bound"] is False and table["cells_per_s"]["within_bound"] is True


def test_compare_adds_one_traced_run_per_side_and_workload(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    traced = []
    calls = _fake_runs(monkeypatch, traced=traced)
    assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", "2",
                       "--seconds", "1", "--workloads", "count_wide,verify",
                       "--seed0", "7"]) == 0
    assert len(calls) == 8  # the timed pairs are unchanged
    # one traced run per side and workload on each pair's seed, up to three seeds
    assert traced == [("base", "count_wide", 7), ("change", "count_wide", 7),
                      ("base", "verify", 7), ("change", "verify", 7),
                      ("change", "count_wide", 8), ("base", "count_wide", 8),
                      ("change", "verify", 8), ("base", "verify", 8)]
    layers = json.loads((tmp_path / "BENCH_t.json").read_text())["layers"]
    assert set(layers) == {"count_wide", "verify"}
    for table in layers.values():
        assert list(table) == LAYERS  # every per-layer metric of BENCHMARK.json
        build = table["geometry.build.ms"]
        assert build == {"unit": "ms", "better": "lower",
                         "base": {"values": [4.007, 4.008], "median": pytest.approx(4.0075)},
                         "change": {"values": [3.007, 3.008], "median": pytest.approx(3.0075)},
                         "ratio": pytest.approx(3.0075 / 4.0075)}


def test_a_traced_layer_stores_the_median_of_three_seeds(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    traced = []
    _fake_runs(monkeypatch, traced=traced)
    fake, spread = bench.run_side, {7: 1.0, 8: 3.0, 9: 10.0}  # only the median reads 3

    def run_side(tree, workload, seed, seconds, trace=0):
        code, info, result = fake(tree, workload, seed, seconds, trace)
        if trace:
            scale = 1 if tree.name == "base" else 2
            result["metrics"]["geometry.build.ms"]["value"] = scale * spread[seed]
        return code, info, result

    monkeypatch.setattr(bench, "run_side", run_side)
    assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", "5",
                       "--seconds", "1", "--workloads", "verify", "--seed0", "7"]) == 0
    assert [(side, seed) for side, _, seed in traced] == [
        ("base", 7), ("change", 7), ("change", 8), ("base", 8), ("base", 9), ("change", 9)]
    build = json.loads((tmp_path / "BENCH_t.json").read_text())["layers"]["verify"][
        "geometry.build.ms"]
    assert build["base"] == {"values": [1.0, 3.0, 10.0], "median": 3.0}
    assert build["change"] == {"values": [2.0, 6.0, 20.0], "median": 6.0}
    assert build["ratio"] == 2.0


def test_an_incorrect_traced_run_exits_1_and_writes_no_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    _fake_runs(monkeypatch, fail=("base", "verify", 1), traced=[])
    assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", "1",
                       "--seconds", "1", "--workloads", "verify"]) == 1
    assert "traced verify base" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_an_incorrect_run_exits_1_and_writes_no_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    _fake_runs(monkeypatch, fail=("change", "count_tall"))
    assert bench.main(["compare", "--base", "HEAD", "--label", "t", "--pairs", "2",
                       "--seconds", "1", "--workloads", "verify,count_tall"]) == 1
    assert "count_tall change" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--workloads", "no_such_workload"],
    ["--base", "no-such-revision-anywhere"],
])
def test_a_bad_workload_or_revision_exits_2(monkeypatch, tmp_path, argv):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    calls = _fake_runs(monkeypatch)
    args = {"--base": "HEAD", "--label": "t", **dict(zip(argv[::2], argv[1::2]))}
    assert bench.main(["compare", *[x for kv in args.items() for x in kv]]) == 2
    assert calls == [] and not list(tmp_path.iterdir())


def test_a_label_that_is_not_a_file_name_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_:
        bench.main(["compare", "--base", "HEAD", "--label", "../x"])
    assert exit_.value.code == 2


def test_one_real_pair_of_head_against_head(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "TRAIL", tmp_path)
    assert bench.main(["compare", "--base", "HEAD", "--label", "head", "--pairs", "1",
                       "--seconds", "0.3", "--workloads", "verify"]) == 0
    report = json.loads((tmp_path / "BENCH_head.json").read_text())
    assert report["base"]["commit"] == bench.git("rev-parse", "HEAD")
    assert {side: set(info) >= {"src_lines", "python", "numpy"}
            for side, info in report["machine"].items()} == {"base": True, "change": True}
    solve = report["workloads"]["verify"]["solve_s"]
    assert solve["pairs"] == 1 and solve["base"]["values"][0] > 0
    naive = report["layers"]["verify"]["counting.count_naive.calls"]
    assert naive["base"]["values"] == naive["change"]["values"]  # one traced run a side
    assert naive["base"]["median"] == naive["change"]["median"] > 0  # same seed, same work
