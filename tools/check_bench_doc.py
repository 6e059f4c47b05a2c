#!/usr/bin/env python3
"""Checks a doc's BENCH table against the BENCH file it quotes.

The table is the one whose header names the file's sections in backticks:

  | Benchmark | `baseline` (...) | `current` (...) |
  |---|---|---|
  | `BM_SimulatorFarFuture` | 6.9 M/s | 7.5 M/s |

Each cell is the benchmark's items_per_second in that section, printed as
"<number> <k|M|G>/s", or "—" where the section has no such benchmark. A cell
fails when it differs from the file by more than half a unit in its last
printed digit; the check also fails when a benchmark of a quoted section has
no row. Exits 1 and names every mismatch.

Usage: tools/check_bench_doc.py BENCH_JSON DOC_MD
"""
import json
import re
import sys

SCALE = {"": 1.0, "k": 1e3, "M": 1e6, "G": 1e9}
CELL = re.compile(r"([0-9]+(?:\.([0-9]+))?) ([kMG]?)/s")
NAME = re.compile(r"`([^`]+)`")
ABSENT = "—"


def cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def find_table(lines, sections):
    """(column sections, rows) of the first table whose header quotes
    sections of the BENCH file."""
    for at, line in enumerate(lines):
        if not line.startswith("| Benchmark |"):
            continue
        columns = []
        for cell in cells(line)[1:]:
            name = NAME.search(cell)
            columns.append(name.group(1) if name else None)
        if not columns or any(c not in sections for c in columns):
            continue
        rows = []
        for row in lines[at + 2:]:
            if not row.startswith("|"):
                break
            rows.append(cells(row))
        return columns, rows
    return None, None


def mismatch(cell, recorded):
    """Why @p cell does not quote @p recorded (None when it does)."""
    if cell == ABSENT:
        return None if recorded is None else f"reads {ABSENT} but the file "\
            f"records {recorded:,.0f}/s"
    if recorded is None:
        return f"reads {cell} but the file records no such benchmark"
    match = CELL.fullmatch(cell)
    if match is None:
        return f"cannot read {cell!r} as '<number> <k|M|G>/s'"
    scale = SCALE[match.group(3)]
    printed = float(match.group(1)) * scale
    decimals = len(match.group(2) or "")
    tolerance = 0.5 * 10.0 ** -decimals * scale
    if abs(printed - recorded) > tolerance * (1 + 1e-9):
        return f"reads {cell} but the file records {recorded:,.0f}/s"
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_path, doc_path = sys.argv[1:]
    with open(bench_path) as f:
        bench = json.load(f)
    with open(doc_path) as f:
        lines = f.read().splitlines()
    sections = {k: {b["name"]: b.get("items_per_second")
                    for b in v["benchmarks"]}
                for k, v in bench.items() if isinstance(v, dict)}
    columns, rows = find_table(lines, sections)
    if columns is None:
        print(f"{doc_path}: no '| Benchmark |' table quotes a section of "
              f"{bench_path}", file=sys.stderr)
        return 1

    problems = []
    quoted = set()
    for row in rows:
        name = NAME.fullmatch(row[0])
        if name is None or len(row) != len(columns) + 1:
            problems.append(f"row {row!r} is not '| `name` |' and one cell "
                            "per section")
            continue
        quoted.add(name.group(1))
        for section, cell in zip(columns, row[1:]):
            why = mismatch(cell, sections[section].get(name.group(1)))
            if why:
                problems.append(f"{name.group(1)}, `{section}`: {why}")
    for section in columns:
        for missing in sorted(set(sections[section]) - quoted):
            problems.append(f"{missing} is recorded in `{section}` but has "
                            "no row")
    for p in problems:
        print(f"{doc_path}: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
