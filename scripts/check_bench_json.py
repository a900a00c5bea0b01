#!/usr/bin/env python3
"""Strict parse of bench artifacts.

Usage: python3 scripts/check_bench_json.py BENCH_a.json [BENCH_b.json ...]

Every file must be one JSON document that Python's json module accepts
with NaN, Infinity and -Infinity rejected (the module takes them by
default; JSON does not). Exits non-zero listing each file that fails, or
when no file is named.
"""

import json
import sys


def reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def main(paths):
    if not paths:
        print("no artifacts named", file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f, parse_constant=reject_constant)
        except (OSError, ValueError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            failed += 1
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
