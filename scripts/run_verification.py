#!/usr/bin/env python3
"""Structural verification: element unisolvence, complex exactness, inf-sup.

A compact driver over the library's verification reports; the same checks run
under pytest (tests/test_acceptance.py) with tolerances pinned.
"""

import argparse

from biharmfem.biharmonic import infsup_study
from biharmfem.elements import (VERIFIED_ELEMENTS, element_catalog,
                                unisolvence_check)
from biharmfem.mesh import generate_structured
from biharmfem.schemes import DECOMPOSED, SCHEMES
from biharmfem.stokes_complex import exactness_report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1234)
    args = ap.parse_args()

    print("== element unisolvence")
    for name in VERIFIED_ELEMENTS:
        rep = unisolvence_check(element_catalog(name), trials=args.trials,
                                seed=args.seed)
        extra = ""
        if rep.det_formula_max_rel_err is not None:
            extra = (", det closed-form rel err "
                     f"{rep.det_formula_max_rel_err:.2e}")
        print(f"  {name}: failures {rep.failures}, min sigma ratio "
              f"{rep.min_sigma_ratio:.2e}{extra}")

    for order in DECOMPOSED:
        print(f"== {order} complex")
        for n in args.levels:
            rep = exactness_report(generate_structured(n), order)
            print(f"-- n = {n}")
            print("   " + rep.to_text().replace("\n", "\n   "))

    print("== inf-sup constants")
    for pair in (SCHEMES[order][1] for order in DECOMPOSED):
        vals = infsup_study(pair, [2, 4, 8, 16])
        print(f"  {pair}: " + ", ".join(f"n={n}: {c:.4f}" for n, c in vals))


if __name__ == "__main__":
    main()
