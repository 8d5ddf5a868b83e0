#!/usr/bin/env python3
"""Gate semantics of tools/bench_diff.py: at --threshold 0, a leaf present
on only one side or a changed non-numeric leaf fails the gate just like a
moved number; identical documents pass.

Usage: bench_diff_test.py path/to/bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile


def run(tool, before, after, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("before.json", before), ("after.json", after)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, tool, *flags, *paths],
            stdout=subprocess.DEVNULL).returncode


def main():
    tool = sys.argv[1]
    cases = [
        # (before, after, flags, expected exit status)
        ({"a": 1, "b": 2, "s": "x"}, {"a": 1, "s": "y"},
         ["--threshold", "0"], 1),
        ({"a": 1, "b": 2}, {"a": 1}, ["--threshold", "0"], 1),
        ({"a": 1}, {"a": 1, "b": [2]}, ["--threshold", "0"], 1),
        ({"s": "x"}, {"s": "y"}, ["--threshold", "0"], 1),
        ({"a": 1}, {"a": "1"}, ["--threshold", "0"], 1),
        ({"a": 100}, {"a": 101}, ["--threshold", "0"], 1),
        ({"a": 100}, {"a": 101}, ["--threshold", "5"], 0),
        ({"a": 1, "s": "x", "l": [1, {"b": True}]},
         {"a": 1, "s": "x", "l": [1, {"b": True}]}, ["--threshold", "0"], 0),
        # Without --threshold the tool only reports.
        ({"a": 1, "b": 2, "s": "x"}, {"a": 1, "s": "y"}, [], 0),
    ]
    failures = 0
    for before, after, flags, want in cases:
        got = run(tool, before, after, *flags)
        if got != want:
            print(f"FAIL: {before} vs {after} {flags}: exit {got}, "
                  f"want {want}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
