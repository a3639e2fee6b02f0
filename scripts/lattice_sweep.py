#!/usr/bin/env python3
"""Extensivity of the log-MAN over a lattice net.

Slides a window region against a fixed prefix region on a chain of qudits
and tabulates S, S2 and the conditional S2: the log-MAN grows linearly with
the shared support and the conditional version with the exclusive one.

Usage:
    python scripts/lattice_sweep.py --site-dim 2 --sites 6 [--csv out.csv]
"""

import argparse

from manlab.cli import _csv_row, emit_csv
from manlab.report import lattice_man


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--site-dim", type=int, default=2)
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--window", type=int, default=2, help="size of the sliding region")
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    n = args.sites
    site_dims = [args.site_dim] * n
    s1 = tuple(range(n // 2))  # fixed prefix block
    rows = []
    print(f"fixed S1 = {list(s1)} on {n} sites of dimension {args.site_dim}")
    print(f"{'S2 region':>14} {'overlap':>8} {'S':>10} {'log-MAN':>8} {'S2(A|B)':>8}")
    for start in range(n - args.window + 1):
        s2 = tuple(range(start, start + args.window))
        report = lattice_man(site_dims, s1, s2)
        print(f"{str(list(s2)):>14} {len(set(s1) & set(s2)):>8} "
              f"{report.S:>10.6f} {report.S2:>8.3f} "
              f"{report.extras['s2_conditional']:>8.3f}")
        rows.append(_csv_row(f"S1={list(s1)}|S2={list(s2)}", report.to_dict(), ""))
    if args.csv:
        emit_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
