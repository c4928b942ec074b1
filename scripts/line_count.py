#!/usr/bin/env python3
"""Line count: the size measure simplicity changes report.

A non-test line is one before the first `#[cfg(test)]` of a .rs file
under crates/*/src or src (the umbrella crate). Prints each crate's
non-test lines and their total, then the lines of the examples under
examples/ (every line: an example has no test module).

Usage, from anywhere in the repo:

    python3 scripts/line_count.py
"""

import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rs_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in names:
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "#[cfg(test)]" in line:
                break
            count += 1
    return count


def all_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().count("\n")


def main():
    sources = sorted(glob.glob(os.path.join(ROOT, "crates", "*", "src")))
    sources.append(os.path.join(ROOT, "src"))
    total = 0
    for src in sources:
        lines = sum(non_test_lines(p) for p in rs_files(src))
        total += lines
        print(f"{os.path.relpath(src, ROOT):<22} {lines:>6}")
    print(f"{'non-test total':<22} {total:>6}")
    examples = sum(all_lines(p) for p in rs_files(os.path.join(ROOT, "examples")))
    print(f"{'examples':<22} {examples:>6}")


if __name__ == "__main__":
    main()
