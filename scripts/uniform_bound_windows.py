#!/usr/bin/env python3
"""Window requirements of the staged uniform-bound construction.

The construction dominates a ladder of small-Gevrey members by factor k at
stage k; each stage needs (1 - a_k)(B(j_{k+1}) - B(j_k)) > 2 ln k with
B(j) = ln(j!)/j, so the reachable number of stages is capped by the window.
This script reports, per window size, whether a K-stage ladder fits, which
is why K = 4 cannot complete inside 5000 entries while K = 3 can.

Usage:
    python scripts/uniform_bound_windows.py
"""

import sys

from weightseq import small_gevrey_family
from weightseq.errors import CensoredWindowError
from weightseq.weights import uniform_bound_construct

CASES = [
    (3, 5000, [0.05, 0.08, 0.28, 0.50]),
    (4, 5000, [0.05, 0.08, 0.28, 0.50, 0.70]),
    (4, 5000, [0.01, 0.02, 0.24, 0.42, 0.56]),
    (4, 200_000, [0.01, 0.02, 0.24, 0.42, 0.56]),
]


def main():
    fam = small_gevrey_family(P=200_000, name="small-gevrey-direct")
    for K, P, params in CASES:
        label = f"K={K} P={P:>7d} orders={params}"
        try:
            res = uniform_bound_construct(fam, K=K, P=P, params=params)
        except CensoredWindowError as exc:
            print(f"{label}: EXHAUSTED ({exc})")
            continue
        print(f"{label}: stages at j = {res.j_breaks}, "
              f"a_P^(1/P) = {res.roots_final:.4f}, "
              f"roots non-increasing = {res.roots_nonincreasing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
