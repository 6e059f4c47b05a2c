#!/usr/bin/env python3
"""Checks a doc's BENCH table against the BENCH file it quotes.

The table is the one whose header names the file's sections in backticks:

  | Benchmark | `baseline` (...) | `current` (...) |
  |---|---|---|
  | `BM_SimulatorFarFuture` | 6.9 M/s | 7.5 M/s |
  | `BM_LpResolveCold/4` | 19.3 µs | 12.0 µs |

Each cell quotes the benchmark in that section: its items_per_second,
printed as "<number> <k|M|G>/s", or its real_time, printed as
"<number> <ns|µs|ms>"; "—" where the section has no such benchmark. A cell
fails when it differs from the file by more than half a unit in its last
printed digit; the check also fails when a benchmark of a quoted section has
no row. With NAME_PREFIX, only the benchmarks whose names start with it are
quoted: the others need no row, and a row naming one fails. Exits 1 and
names every mismatch.

Usage: tools/check_bench_doc.py BENCH_JSON DOC_MD [NAME_PREFIX]
"""
import json
import re
import sys

RATE = re.compile(r"([0-9]+(?:\.([0-9]+))?) ([kMG]?)/s")
RATE_SCALE = {"": 1.0, "k": 1e3, "M": 1e6, "G": 1e9}
TIME = re.compile(r"([0-9]+(?:\.([0-9]+))?) (ns|µs|ms)")
# Nanoseconds per printed unit and per google-benchmark time_unit.
TIME_SCALE = {"ns": 1.0, "µs": 1e3, "ms": 1e6}
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
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


def quoted_value(cell, entry):
    """(printed, recorded, tolerance, unit) for a rate or time @p cell, or
    None when the cell is neither."""
    match = RATE.fullmatch(cell)
    if match is not None:
        scale = RATE_SCALE[match.group(3)]
        recorded = entry.get("items_per_second")
        unit = "/s"
    else:
        match = TIME.fullmatch(cell)
        if match is None:
            return None
        scale = TIME_SCALE[match.group(3)]
        recorded = (entry["real_time"] * UNIT_NS[entry["time_unit"]]
                    if "real_time" in entry else None)
        unit = " ns"
    decimals = len(match.group(2) or "")
    return (float(match.group(1)) * scale, recorded,
            0.5 * 10.0 ** -decimals * scale, unit)


def mismatch(cell, entry):
    """Why @p cell does not quote @p entry (None when it does)."""
    if cell == ABSENT:
        return None if entry is None else \
            f"reads {ABSENT} but the file records the benchmark"
    if entry is None:
        return f"reads {cell} but the file records no such benchmark"
    value = quoted_value(cell, entry)
    if value is None:
        return (f"cannot read {cell!r} as '<number> <k|M|G>/s' or "
                "'<number> <ns|µs|ms>'")
    printed, recorded, tolerance, unit = value
    if recorded is None:
        return f"reads {cell} but the file records no such figure"
    if abs(printed - recorded) > tolerance * (1 + 1e-9):
        return f"reads {cell} but the file records {recorded:,.0f}{unit}"
    return None


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    bench_path, doc_path = sys.argv[1:3]
    prefix = sys.argv[3] if len(sys.argv) == 4 else ""
    with open(bench_path) as f:
        bench = json.load(f)
    with open(doc_path) as f:
        lines = f.read().splitlines()
    sections = {k: {b["name"]: b for b in v["benchmarks"]
                    if b["name"].startswith(prefix)}
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
