"""Alternated A/B benchmark pairs: the working tree's ``src/`` against a base revision's.

Usage, from anywhere inside the checkout::

    python tools/bench.py compare --base <rev> --label <L> [--pairs N] [--seconds S]
                                  [--workloads a,b] [--seed0 K]

Under a temporary directory it builds two trees, each with its own copy of
the working tree's ``perfbench/``, so both sides run the same harness:

* the base tree holds ``git archive <rev> src``;
* the change tree holds the working tree's ``src/``.

In each tree it runs ``perfbench/run.py --trace 0`` as a subprocess, once a
side per pair and workload.  Pair i gives both sides the seed K + i; even
pairs run the base first and odd pairs the change first, so drift on the host
does not favour one side.  After the pairs it runs ``--trace 1`` once a side
per workload on each of the first min(3, N) seeds, in the same alternated
order, for the per-layer metrics.  The workloads, the
end-to-end and the per-layer metrics, with the direction each one improves
in and each end-to-end metric's bound, come from ``BENCHMARK.json``.

It writes ``BENCH_<L>.json`` at the repository root: both revisions, the
seeds, the run length, and for each workload and metric both sides' values,
medians and quartiles, the ratio change / base, the pairs the change won and
lost, the exact two-sided sign-test p-value ``p_sign`` of those pairs (ties
dropped), and whether the change median is within the metric's ``bound`` of the
base median;
under ``layers``, each workload's per-layer metrics from the traced runs,
both sides' values and medians and the ratio of the medians, which show where
a change lands.  The last line before the file name names every end-to-end row
with ``p_sign`` < 0.05: one run can reach that by chance, so a claim needs a repeat.
Exit status 0 on success; 1 if any run fails or reports a wrong value (no file
is written then); 2 for a bad argument or a revision git cannot archive.
Only per-process time is measured, as ``perfbench/run.py`` measures it.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Where BENCH_<label>.json goes.
TRAIL = ROOT
#: A row whose sign test falls below this is named in the summary line.
SIGN_LEVEL = 0.05
#: The traced runs per side and workload, at most: one sample can read 1.44x on unrun code.
TRACED_SEEDS = 3
SIDES = ("base", "change")
MEASURED = ("per-process time only, as perfbench/run.py measures it: no system-wide "
            "tracing, no file-cache dropping; both sides run the working tree's perfbench/")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair ``pair`` runs them: the base first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def seeds(seed0: int, pairs: int) -> list[int]:
    """The seed of each pair; both sides of a pair share it."""
    return [seed0 + i for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of ``wins`` against ``losses`` under a fair
    coin: twice the chance of a split at least as uneven, at most 1 (1 for no pairs)."""
    pairs = wins + losses
    return min(1.0, 2 * sum(math.comb(pairs, k) for k in range(min(wins, losses) + 1))
               / 2 ** pairs)


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' pair values, medians and quartiles, the median ratio change / base,
    the pairs whose change value is strictly better (wins) or strictly worse (losses)
    than its base value, the sign test of those, ties dropped, and whether the change
    median is worse than the base median by at most ``bound`` of it."""
    sides = {}
    for side, values in zip(SIDES, (base, change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    b, c = sides["base"], sides["change"]
    beats = (lambda new, old: new < old) if better == "lower" else (lambda new, old: new > old)
    sign = 1 if better == "lower" else -1
    wins, losses = sum(map(beats, change, base)), sum(map(beats, base, change))
    return {**sides, "better": better,
            "ratio": c["median"] / b["median"] if b["median"] else None,
            "wins": wins, "losses": losses, "pairs": len(base),
            "p_sign": sign_test(wins, losses),
            "change_median_in_base_iqr": b["q1"] <= c["median"] <= b["q3"],
            "gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > b["iqr"],
            "within_bound": sign * (c["median"] - b["median"]) <= bound * abs(b["median"])}


def layer_medians(base: list, change: list) -> dict:
    """Both sides' traced values and medians, and the ratio change / base of the
    medians; a side that missed the metric in any run has no median."""
    sides = {side: {"values": values,
                    "median": None if None in values else statistics.median(values)}
             for side, values in zip(SIDES, (base, change))}
    b, c = sides["base"]["median"], sides["change"]["median"]
    return {**sides, "ratio": c / b if b and c is not None else None}


def build_trees(base: str, tmp: Path) -> dict[str, Path]:
    """The base and change trees under ``tmp``, each with the working tree's perfbench/."""
    trees = {side: tmp / side for side in SIDES}
    archive = subprocess.run(["git", "archive", "--format=tar", base, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["base"], filter="data")
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=skip)
    shutil.copytree(ROOT / "perfbench", tmp / "perfbench", ignore=skip)
    for tree in trees.values():
        shutil.copytree(tmp / "perfbench", tree / "perfbench")
    return trees


def run_side(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[int, dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: (exit code, its info line, its result)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        info = {}
        result = {"correct": False, "error": done.stderr.strip()[-500:]}
    return done.returncode, info, result


def refused(code: int, result: dict, what: str) -> bool:
    """Report a run that failed or gave a wrong value; True if it did."""
    if code != 0 or not result.get("correct") or result.get("failed"):
        print(f"error: {what} exit {code}: {json.dumps(result)[:500]}", file=sys.stderr)
        return True
    return False


def compare(base: str, label: str, pairs: int, seconds: float, workloads: list[str] | None,
            seed0: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    known = [w["name"] for w in spec["workloads"]]
    workloads = workloads or known
    for workload in workloads:
        if workload not in known:
            print(f"error: unknown workload {workload!r}; known: {', '.join(known)}",
                  file=sys.stderr)
            return 2
    try:
        commit = git("rev-parse", "--verify", f"{base}^{{commit}}")
        head = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    except subprocess.CalledProcessError as err:
        print(f"error: git {' '.join(err.cmd[1:])}: {err.stderr.strip()}", file=sys.stderr)
        return 2
    values = {w: {m: {side: [] for side in SIDES} for m in metrics} for w in workloads}
    layers = {w: {m: {side: [] for side in SIDES} for m in per_layer} for w in workloads}
    machine: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="latticerect-bench-") as tmp:
        trees = build_trees(commit, Path(tmp))
        for pair, seed in enumerate(seeds(seed0, pairs)):
            for workload in workloads:
                for side in order(pair):
                    code, info, result = run_side(trees[side], workload, seed, seconds)
                    if refused(code, result, f"pair {pair + 1} {workload} {side} (seed {seed})"):
                        return 1
                    machine.setdefault(side, info.get("machine", {}))
                    for name in metrics:
                        values[workload][name][side].append(result["metrics"][name]["value"])
                    print(f"pair {pair + 1}/{pairs} {workload} {side} seed {seed}: solve_s "
                          f"{result['metrics']['solve_s']['value']:.5g}", file=sys.stderr)
        for pair, seed in enumerate(seeds(seed0, min(TRACED_SEEDS, pairs))):
            for workload in workloads:
                for side in order(pair):
                    code, _, result = run_side(trees[side], workload, seed, seconds, trace=1)
                    if refused(code, result, f"traced {workload} {side} (seed {seed})"):
                        return 1
                    for name, row in layers[workload].items():
                        row[side].append(result["metrics"].get(name, {}).get("value"))
                    print(f"traced {workload} {side} seed {seed}", file=sys.stderr)
    report = {
        "label": label,
        "base": {"rev": base, "commit": commit, "dirty": False},
        "change": {"rev": "working tree", "commit": head, "dirty": dirty},
        "pairs": pairs, "seconds": seconds, "seeds": seeds(seed0, pairs),
        "first": [order(pair)[0] for pair in range(pairs)],
        "measured": MEASURED,
        "machine": machine,
        "workloads": {w: {name: {"unit": metrics[name]["unit"],
                                 **summarize(sides["base"], sides["change"],
                                             metrics[name]["better"],
                                             metrics[name]["bound"])}
                          for name, sides in values[w].items()}
                      for w in workloads},
        "layers": {w: {name: {"unit": per_layer[name]["unit"],
                              "better": per_layer[name]["better"],
                              **layer_medians(row["base"], row["change"])}
                       for name, row in layers[w].items()}
                   for w in workloads},
    }
    path = TRAIL / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    signed = []
    for workload, table in report["workloads"].items():
        for name, row in table.items():
            print(f"{workload} {name}: base {row['base']['median']:.5g} "
                  f"(IQR {row['base']['iqr']:.3g}) change {row['change']['median']:.5g} "
                  f"ratio {row['ratio'] if row['ratio'] is None else round(row['ratio'], 4)} "
                  f"wins {row['wins']}/{row['pairs']} losses {row['losses']} "
                  f"p_sign {row['p_sign']:.3g} within_bound {row['within_bound']}")
            if row["p_sign"] < SIGN_LEVEL:
                signed.append(f"{workload} {name} ({row['wins']} better, {row['losses']} "
                              f"worse, p {row['p_sign']:.3g})")
        for name, row in report["layers"][workload].items():
            base, change = row["base"]["median"], row["change"]["median"]
            if name.endswith(".ms") and base and change:
                print(f"{workload} {name} (traced): base {base:.4g} change {change:.4g}")
    print(f"sign test p < {SIGN_LEVEL}: {'; '.join(signed) or 'no row'}")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmp = commands.add_parser("compare", help="alternated pairs: a base revision against "
                                              "the working tree's src/")
    cmp.add_argument("--base", required=True, help="the revision to compare against")
    cmp.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    cmp.add_argument("--pairs", type=int, default=10)
    cmp.add_argument("--seconds", type=float, default=20.0, help="run length of each side")
    cmp.add_argument("--workloads", type=lambda s: s.split(","), default=None,
                     help="comma-separated; default: every workload in BENCHMARK.json")
    cmp.add_argument("--seed0", type=int, default=0, help="pair i runs seed seed0 + i")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    return compare(args.base, args.label, args.pairs, args.seconds, args.workloads, args.seed0)


if __name__ == "__main__":
    sys.exit(main())
