#!/usr/bin/env python3
"""Diff two BENCH_*.json files produced by the scenario engine.

Comparator for the perf trajectory: loads two scenario-JSON documents
(``wsnctl run bench-hotpath --format=json``, ``wsnctl run netsim-scale
--format=json``, ...), matches tables by name and rows by their first
cell, and prints per-cell deltas for every numeric column.

Both files carry the machine fingerprint in ``meta`` (``cpu``, ``nproc``,
``compiler``, ``build-type``).  A ``WARNING:`` line names each field that
differs or that only one file has: the timings of two hosts or builds
are not comparable.

With ``--warn-drop=PCT`` it additionally prints a ``WARNING:`` line for
every throughput-like column (header containing ``speedup`` or ending in
``/s``) where the candidate dropped more than PCT percent below the
baseline.  The warning is *soft*: the exit code stays 0 — timings are
machine-dependent, so CI surfaces regressions without gating on them.
Wire hard thresholds in once enough same-machine history exists.

Usage: tools/bench_compare.py [--warn-drop=PCT] BASELINE.json CANDIDATE.json
"""
import json
import sys

FINGERPRINT = ("cpu", "nproc", "compiler", "build-type")


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    tables = {}
    for table in doc.get("tables", []):
        headers = table.get("headers", [])
        rows = {row[0]: row for row in table.get("rows", []) if row}
        tables[table.get("name", "?")] = (headers, rows)
    return doc.get("meta", {}), tables


def compare_fingerprints(base_meta, cand_meta):
    """Print a WARNING per fingerprint field that differs or is one-sided."""
    for field in FINGERPRINT:
        if field not in base_meta and field not in cand_meta:
            continue
        base = base_meta.get(field, "<missing>")
        cand = cand_meta.get(field, "<missing>")
        if base != cand:
            print(f"WARNING: machine fingerprint differs in {field!r}: "
                  f"{base!r} -> {cand!r} (timings are not comparable)")


def as_float(cell):
    try:
        return float(str(cell).replace(",", ""))
    except ValueError:
        return None


def throughput_like(label):
    label = label.lower()
    return "speedup" in label or label.rstrip(")").endswith("/s")


def main(argv):
    warn_drop = None
    args = []
    for arg in argv[1:]:
        if arg.startswith("--warn-drop="):
            warn_drop = as_float(arg.split("=", 1)[1])
            if warn_drop is None or warn_drop < 0:
                print(f"bad --warn-drop value in {arg!r}: expected a "
                      "non-negative percentage", file=sys.stderr)
                print(__doc__.strip(), file=sys.stderr)
                return 2
        else:
            args.append(arg)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (base_meta, baseline), (cand_meta, candidate) = load(args[0]), load(args[1])
    compare_fingerprints(base_meta, cand_meta)

    warnings = 0
    for name in sorted(set(baseline) | set(candidate)):
        if name not in baseline or name not in candidate:
            where = "baseline" if name in baseline else "candidate"
            print(f"table {name!r}: only in {where}")
            continue
        headers, base_rows = baseline[name]
        _, cand_rows = candidate[name]
        print(f"table {name!r}:")
        for key in base_rows:
            if key not in cand_rows:
                print(f"  row {key!r}: missing from candidate")
                continue
            for col, (b, c) in enumerate(zip(base_rows[key], cand_rows[key])):
                fb, fc = as_float(b), as_float(c)
                if fb is None or fc is None or fb == fc:
                    continue
                pct = (fc - fb) / fb * 100.0 if fb else float("inf")
                label = headers[col] if col < len(headers) else f"col{col}"
                print(f"  {key} / {label}: {fb:g} -> {fc:g} ({pct:+.1f}%)")
                if (warn_drop is not None and throughput_like(label)
                        and fb > 0 and pct < -warn_drop):
                    warnings += 1
                    print(f"  WARNING: possible regression in {name!r} / "
                          f"{key} / {label}: {pct:+.1f}% "
                          f"(threshold -{warn_drop:g}%)")
    if warnings:
        print(f"{warnings} soft regression warning(s); exit code stays 0 "
              "(timings are machine-dependent)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
