#!/usr/bin/env python3
"""Diff two benchmark JSON files (bench_results/BENCH_*.json or the
*.metrics.json dumps the bench binaries write).

Walks both documents in parallel and reports every numeric leaf that
changed, as `path: before -> after (delta%)`, plus leaves present on only
one side. Non-numeric leaves are compared for equality only. With
--threshold, exit status is 1 when a numeric leaf moved by more than that
many percent, a leaf is present on only one side, or a non-numeric leaf
changed; without it the tool only reports and always exits 0. That makes it
usable as a gate:

    tools/bench_diff.py old/BENCH_query_obs.json new/BENCH_query_obs.json
    tools/bench_diff.py --threshold 5 old/serving.metrics.json \
        new/serving.metrics.json

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def walk(before, after, path, out):
    """Appends (path, before_leaf, after_leaf) tuples for every leaf."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            walk(before.get(key, _MISSING), after.get(key, _MISSING),
                 f"{path}.{key}" if path else key, out)
    elif isinstance(before, list) and isinstance(after, list):
        for i in range(max(len(before), len(after))):
            walk(before[i] if i < len(before) else _MISSING,
                 after[i] if i < len(after) else _MISSING,
                 f"{path}[{i}]", out)
    else:
        out.append((path, before, after))


class _Missing:
    def __repr__(self):
        return "<absent>"


_MISSING = _Missing()


def fmt(value):
    if is_number(value):
        return f"{value:g}"
    return repr(value)


def main():
    parser = argparse.ArgumentParser(
        description="Diff numeric leaves of two benchmark JSON files.")
    parser.add_argument("before", help="Baseline JSON file")
    parser.add_argument("after", help="Candidate JSON file")
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="PCT",
        help="Exit 1 if any numeric leaf changed by more than PCT percent "
             "(absolute), any leaf is present on only one side, or any "
             "non-numeric leaf changed. Default: report only, always exit 0.")
    parser.add_argument(
        "--all", action="store_true",
        help="Also print unchanged leaves.")
    args = parser.parse_args()

    try:
        with open(args.before) as f:
            before = json.load(f)
        with open(args.after) as f:
            after = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    leaves = []
    walk(before, after, "", leaves)

    changed = 0
    failed = 0  # Leaves that break the gate when --threshold is given.
    for path, old, new in leaves:
        if old is _MISSING or new is _MISSING:
            side = "only in after" if old is _MISSING else "only in before"
            present = new if old is _MISSING else old
            print(f"  {path}: {side} ({fmt(present)})")
            changed += 1
            failed += 1
            continue
        if is_number(old) and is_number(new):
            if old == new:
                if args.all:
                    print(f"  {path}: {fmt(old)} (unchanged)")
                continue
            if old != 0:
                pct = 100.0 * (new - old) / abs(old)
                pct_text = f"{pct:+.1f}%"
            else:
                pct = float("inf")
                pct_text = "from 0"
            print(f"  {path}: {fmt(old)} -> {fmt(new)} ({pct_text})")
            changed += 1
            if args.threshold is not None and abs(pct) > args.threshold:
                failed += 1
        elif old != new:
            print(f"  {path}: {fmt(old)} -> {fmt(new)}")
            changed += 1
            failed += 1

    if changed == 0:
        print("no differences")
    else:
        print(f"{changed} leaves differ")
    if args.threshold is not None and failed > 0:
        print(f"FAIL: {failed} leaves moved more than {args.threshold:g}%, "
              "changed value, or are present on only one side")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
