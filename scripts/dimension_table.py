#!/usr/bin/env python3
"""Print the graded dimensions (y1 = y2 = 1 specialization) of the principal
subspaces for a few levels side by side with the cap-free column.

The cap-free column is the 6-colored partition count; each level column
agrees with it up to q^level and falls below it afterwards.

    python3 scripts/dimension_table.py --qmax 10 --levels 1 2 3
"""

import argparse

from qpchar.fermionic import ModuleSpec, character_fermionic


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=10)
    ap.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    if args.qmax < 0:
        ap.error(f"--qmax must be >= 0, got {args.qmax}")
    if any(k < 1 for k in args.levels):
        ap.error(f"--levels must all be >= 1, got {args.levels}")

    columns = [(f"L(k={k})", character_fermionic(ModuleSpec.standard(k), args.qmax))
               for k in args.levels]
    columns.append(("N (cap-free)", character_fermionic(ModuleSpec.verma(), args.qmax)))

    counts = {name: series.counts_by_q() for name, series in columns}
    width = max(12, *(len(name) + 2 for name, _ in columns))
    header = "q".rjust(4) + "".join(name.rjust(width) for name, _ in columns)
    print(header)
    print("-" * len(header))
    for m in range(args.qmax + 1):
        row = str(m).rjust(4)
        row += "".join(str(counts[name][m]).rjust(width) for name, _ in columns)
        print(row)
    print()
    for name, series in columns:
        print(f"{name}: {len(series)} distinct (q, y1, y2) keys, "
              f"total dimension {sum(counts[name])} through q^{args.qmax}")


if __name__ == "__main__":
    main()
