"""List the ``src/`` lines that the tier-1 tests never run.

Usage, from anywhere::

    python tools/coverage.py

It runs tier-1 (``pytest tests``) in this process under the standard
library's ``trace`` and writes its ``.cover`` files to a temporary directory;
only the package's, ``latticerect.*.cover``, are read. Each line those files
mark as never run is printed as ``file:line: text``. The exit status is 1 if
tier-1 fails, if a module is never imported, or if a never-run line is missing
from ``ALLOWED``; otherwise 0. It is slower than a plain tier-1 run, so it runs
on demand and is not itself a test.
"""
from __future__ import annotations

import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticerect"
#: The ``trace`` prefix of a line that could run and never did.
MISSED = ">>>>>> "

#: (file name in ``src/latticerect``, stripped line text) -> why no tier-1 test runs it.
ALLOWED: dict[tuple[str, str], str] = {}


def run_traced(coverdir: Path) -> int:
    """Run tier-1 under ``trace`` and write one ``.cover`` file per traced module."""
    # As PYTHONPATH=src does for tier-1; this also names the files latticerect.*.cover,
    # and keeps this file's directory off the path, where it would shadow a ``coverage`` package.
    sys.path[0] = str(PACKAGE.parent)
    import pytest  # imported before tracing starts; latticerect is imported by the tests

    tracer = trace.Trace(count=1, trace=0)
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            f"--rootdir={ROOT}", str(ROOT / "tests")]
    scope = {"pytest": pytest, "args": args}
    tracer.runctx("status = pytest.main(args)", scope, scope)  # threads are traced too
    tracer.results().write_results(show_missing=True, summary=False, coverdir=str(coverdir))
    return int(scope["status"])


def never_run(coverdir: Path) -> list[tuple[str, int, str]]:
    """(file, line number, text) of every package line the ``.cover`` files mark missed;
    a module with no ``.cover`` file was never imported and is listed at line 0."""
    missed = []
    for source in sorted(PACKAGE.glob("*.py")):
        cover = coverdir / f"latticerect.{source.stem}.cover"
        if not cover.exists():
            missed.append((source.name, 0, "(never imported)"))
            continue
        for number, line in enumerate(cover.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith(MISSED):
                missed.append((source.name, number, line[len(MISSED):].strip()))
    return missed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="latticerect-cover-") as tmp:
        status = run_traced(Path(tmp))
        missed = never_run(Path(tmp))
    if status != 0:
        print(f"tier-1 failed (pytest exit {status}): coverage not judged", file=sys.stderr)
        return 1
    unexplained = 0
    for name, number, text in missed:
        reason = ALLOWED.get((name, text))
        unexplained += reason is None
        print(f"{PACKAGE.relative_to(ROOT) / name}:{number}: {text}"
              + (f"  [allowed: {reason}]" if reason else ""))
    print(f"{len(missed)} never-run src/ lines, {unexplained} not on the allow-list")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
