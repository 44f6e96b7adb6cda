"""Say how far two trees of CLI outputs moved, number by number.

    python .github/output_diff.py BASE HEAD

BASE and HEAD are two directories written by ``.github/cli_outputs.py``.
Every file whose bytes differ is compared line by line: each line is split
into numeric tokens and the text between them.  Per moved file the report
gives the number of moved lines, the largest |Δ| over numeric tokens (with
the two values it was found at), and every line whose non-numeric text
changed.  Lines that carry a sha256 digest (64 hex digits) are left out,
since any moved byte in the input they hash moves them.  The report goes
to stdout as Markdown, and the exit status is 0 whatever moved.
"""

from __future__ import annotations

import filecmp
import math
import os
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf|NaN|Infinity)\b")
SHA256 = re.compile(r"\b[0-9a-f]{64}\b")
SHOWN = 5  # text changes listed per file


def moved_files(base: str, head: str) -> list[str]:
    """Relative paths present on either side whose bytes differ, sorted."""
    paths = set()
    for root in (base, head):
        for parent, _, names in os.walk(root):
            paths.update(os.path.relpath(os.path.join(parent, n), root) for n in names)

    def same(p: str) -> bool:
        a, b = os.path.join(base, p), os.path.join(head, p)
        return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)

    return sorted(p for p in paths if not same(p))


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def compare(a_lines: list[str], b_lines: list[str]) -> tuple[int, float, str, list[str]]:
    """(moved lines, largest |Δ|, where it is, text changes) of two files."""
    moved, largest, where, text = 0, 0.0, "", []
    if len(a_lines) != len(b_lines):
        text.append(f"{len(a_lines)} lines against {len(b_lines)}")
    for a, b in zip(a_lines, b_lines):
        if a == b or SHA256.search(a) or SHA256.search(b):
            continue
        moved += 1
        a_nums, b_nums = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.split(a) != NUMBER.split(b) or len(a_nums) != len(b_nums):
            text.append(f"`{a.strip()}` → `{b.strip()}`")
            continue
        for x, y in zip(a_nums, b_nums):
            fx, fy = float(x), float(y)
            if fx == fy or (math.isnan(fx) and math.isnan(fy)):
                continue
            delta = abs(fx - fy)
            if math.isnan(delta):  # NaN against a number, or inf against -inf
                delta = math.inf
            if delta > largest:
                largest, where = delta, f"{x} → {y}"
    return moved, largest, where, text


def report(base: str, head: str) -> list[str]:
    paths = moved_files(base, head)
    if not paths:
        return ["byte-identical"]
    lines = [
        f"{len(paths)} files moved",
        "",
        "| file | moved lines | largest abs Δ | at | text changes |",
        "|---|---:|---:|---|---|",
    ]
    overall = 0.0
    for p in paths:
        sides = [os.path.join(root, p) for root in (base, head)]
        missing = [s for s in sides if not os.path.isfile(s)]
        if missing:
            lines.append(f"| {p} | | | | only in {'head' if missing[0] == sides[0] else 'base'} |")
            continue
        moved, largest, where, text = compare(*map(read_lines, sides))
        if not moved and not text:
            text = ["only lines with a sha256 digest"]
        overall = max(overall, largest)
        shown = "<br>".join(text[:SHOWN]) + (f"<br>… {len(text) - SHOWN} more" if len(text) > SHOWN else "")
        lines.append(f"| {p} | {moved} | {largest:.3g} | {where} | {shown} |")
    lines[0] += f"; largest abs Δ over all numbers: {overall:.3g}"
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: output_diff.py BASE HEAD", file=sys.stderr)
        return 2
    print("\n".join(report(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
