#!/usr/bin/env python3
"""Scan truncation orders and verify the product identity at each one,
reporting term counts and wall-clock growth of the two sides.

    python3 scripts/identity_scan.py --qmax 12
"""

import argparse
import sys
import time

from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import product_side


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=12)
    args = ap.parse_args()

    verma = ModuleSpec.verma()
    print(f"{'q':>4} {'terms':>7} {'product s':>10} {'sum s':>8}  identity")
    ok = True
    for qmax in range(args.qmax + 1):
        t0 = time.perf_counter()
        prod = product_side(qmax)
        t1 = time.perf_counter()
        ferm = character_fermionic(verma, qmax)
        t2 = time.perf_counter()
        agree = prod == ferm
        ok = ok and agree
        print(f"{qmax:>4} {len(prod):>7} {t1 - t0:>10.3f} {t2 - t1:>8.3f}  "
              f"{'ok' if agree else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
