"""Traced stand-in for ``python3 -m latticerect``: same argv, same output.

Run by run.py in traced cli_cold passes as ``python3 cli_child.py <args>``,
with the checkout's ``src/`` on PYTHONPATH as for untraced passes.  It times
the import of ``latticerect.cli`` and the call to ``cli.main`` and prints
them as the last line of stderr, ``PERFBENCH_SPANS {json}``, as
``[start_s, end_s]`` pairs on the monotonic clock all processes share.
"""
import json
import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    from latticerect import cli
    imported = time.perf_counter()
    code = cli.main(sys.argv[1:])
    ended = time.perf_counter()
    sys.stdout.flush()
    spans = {"import": [started, imported], "main": [imported, ended]}
    print("PERFBENCH_SPANS " + json.dumps(spans), file=sys.stderr)
    sys.exit(code)
