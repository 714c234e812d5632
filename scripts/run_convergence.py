#!/usr/bin/env python3
"""Reproduce the convergence-rate tables for all three schemes.

Writes one CSV per (scheme, problem) into --outdir and prints them.
"""

import argparse
import pathlib

from biharmfem.biharmonic import convergence_study, manufactured
from biharmfem.schemes import SCHEMES

#: mesh sizes of each scheme's study, those of acceptance criterion 6
LEVELS = {name: [4, 8, 16] if name == "quartic" else [8, 16, 32]
          for name in SCHEMES}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--problems", nargs="+", default=["poly8", "sin2"])
    ap.add_argument("--schemes", nargs="+", default=list(SCHEMES))
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.problems:
        problem = manufactured(name)
        for scheme in args.schemes:
            table = convergence_study(problem, scheme, LEVELS[scheme])
            text = table.to_csv()
            path = outdir / f"rates_{scheme}_{name}.csv"
            path.write_text(text)
            print(f"== {scheme} / {name}  ->  {path}")
            print(text)


if __name__ == "__main__":
    main()
