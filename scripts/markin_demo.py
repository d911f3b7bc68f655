#!/usr/bin/env python3
"""Boundedness-detection demonstration on the diagonal operator model.

Builds the growth gauge from the log-power bound a_j = 1/ln(j)^j, places
ring eigenvalues where the gauge crosses its thresholds, and prints the
certificate table: spectral sums against exponential weights e^(2t|lambda|)
converge for every tested t while the sums against each small-Gevrey
associated weight diverge term-by-term.  Run with --minimal-k for the
threshold-exact variant (its scale parameters reach ln k ~ 4 n^2, which is
why everything is carried in log domain).

Usage:
    python scripts/markin_demo.py [--terms 120] [--minimal-k] [--csv out.csv]
"""

import argparse
import csv
import sys

import mpmath as mp

from weightseq.operator_lab import T_WEIGHTED, ring_demonstration


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--terms", type=int, default=120)
    ap.add_argument("--minimal-k", action="store_true",
                    help="threshold-exact rings g(k(n)) = n (converges only "
                         "for t below ln of the last ring index)")
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    demo = ring_demonstration(args.terms, minimal_k=args.minimal_k)
    model, vec = demo.model, demo.vec
    print(f"rings: {args.terms}, ln k(n) in "
          f"[{model.logk[0]:.4g}, {model.logk[-1]:.4g}]")
    l2 = vec.l2_report()
    print(f"coefficients square-summable: {l2['summable']} "
          f"(log sum {mp.nstr(l2['log_sum'], 6)})")

    print("\nexponential weights  e^(2t|lambda|):")
    for t, rep in demo.exponential.items():
        print(f"  t = {t:5.1f}: {rep.certificate}")

    print("\nassociated weights of small Gevrey sequences:")
    for name in dict.fromkeys(name for name, _ in demo.weighted):
        certs = []
        for t in T_WEIGHTED:
            rep = demo.weighted[name, t]
            tag = rep.certificate
            if rep.diverged_from is not None:
                tag += f" (terms >= 1 from n = {rep.diverged_from})"
            certs.append(f"t={t:g}: {tag}")
        print(f"  {name:14s} {' | '.join(certs)}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("n", "log_k", "eps", "log_g", "log_c"))
            for i in range(model.n_terms):
                w.writerow((i + 1, f"{model.logk[i]:.17g}",
                            f"{model.eps[i]:.17g}",
                            f"{model.log_g_at_k[i]:.17g}",
                            mp.nstr(vec.logc[i], 10)))
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
