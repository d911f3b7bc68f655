#!/usr/bin/env python3
"""Profile associated weight functions across builtin families.

Writes one CSV per sequence with columns (t, omega, argmax, trusted) on a
geometric grid inside the trusted range, and prints the sampled doubling
ratios omega(2t)/omega(t) whose boundedness the scaling predicates certify.

Usage:
    python scripts/omega_profile.py [--outdir profiles] [specs ...]
"""

import argparse
import pathlib
import sys

import numpy as np

from weightseq import make_family
from weightseq.weights import AssociatedWeight, default_t_grid, valid_to


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("specs", nargs="*",
                    default=["gevrey:0.5", "gevrey:1", "gevrey:2", "qgevrey:2"])
    ap.add_argument("--P", type=int, default=2048)
    ap.add_argument("--outdir", default="omega_profiles")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in args.specs:
        M = make_family(spec, P=args.P)
        aw = AssociatedWeight.of(M)
        grid = default_t_grid(M, t_min=1.0)
        grid = grid[grid < valid_to(M) * 0.9]
        path = outdir / (spec.replace(":", "_") + ".csv")
        rows = aw.write_csv(path, grid)
        vals = np.array([r[1] for r in rows])
        ts = np.array([r[0] for r in rows])
        mask = vals > 1e-9
        ratios = []
        for t, v in zip(ts[mask], vals[mask]):
            if 2 * t < ts[-1]:
                v2 = aw.eval(float(2 * t))
                ratios.append(v2 / v)
        tail = ratios[-5:] if len(ratios) >= 5 else ratios
        print(f"{spec:12s} -> {path}  doubling ratio tail: "
              + ", ".join(f"{r:.3f}" for r in tail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
