"""Command-line front end.

Subcommands: mesh, solve, study, verify {complex, elements, infsup}.
Exit codes: 0 success, 1 usage error or unwritable --out, 2 numerical failure.
All numeric output uses 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys

from .biharmonic import (_decomposed_solve, convergence_study, infsup_study,
                         manufactured, solve_morley)
from .elements import VERIFIED_ELEMENTS, element_catalog, unisolvence_check
from .linalg import SolverError
from .mesh import Mesh, MeshError, generate_structured
from .schemes import DECOMPOSED, PAIRS, SCHEMES
from .spaces import error_norms, sample_field_csv
from .stokes_complex import ComplexError, exactness_report

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


def fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list '{text}'")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad mesh sizes '{text}'")
    return values


def _positive(kind):
    """An argparse type: a positive finite kind (float or int)."""
    def parse(text: str):
        value = kind(text)  # ValueError: "invalid <kind> value: '<text>'"
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a positive finite {kind.__name__}, got '{text}'")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="biharmfem",
                description="Nonconforming finite element schemes for the "
                            "planar biharmonic equation")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="write a structured mesh file")
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--out", required=True)

    ps = sub.add_parser("solve", help="run one scheme on one mesh")
    ps.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--problem", choices=("poly8", "sin2", "zero"),
                    default="poly8")
    ps.add_argument("--tol", type=_positive(float), default=1e-10)
    ps.add_argument("--out", help="write a field sample CSV here")

    pt = sub.add_parser("study", help="convergence-rate study")
    pt.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    pt.add_argument("--levels", type=_parse_n_list, required=True,
                    help="comma-separated mesh sizes, each double the last")
    pt.add_argument("--problem", choices=("poly8", "sin2"), default="poly8")
    pt.add_argument("--tol", type=_positive(float), default=1e-10)
    pt.add_argument("--out", help="write the rate table CSV here")

    pv = sub.add_parser("verify", help="verification reports")
    pv.add_argument("what", choices=("complex", "elements", "infsup"))
    pv.add_argument("--order", choices=DECOMPOSED, default="cubic")
    pv.add_argument("--n", type=_parse_n_list, default=[2])
    pv.add_argument("--pair", choices=tuple(PAIRS), default="g2p1")
    pv.add_argument("--trials", type=_positive(int), default=100)
    pv.add_argument("--seed", type=int, default=1234)
    pv.add_argument("--tol", type=_positive(float), default=1e-10)
    pv.add_argument("--out", help="write a CSV report here")
    return p


def cmd_mesh(args) -> int:
    mesh = generate_structured(args.n)
    mesh.save(args.out)
    reread = Mesh.load(args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{mesh.n_cells} cells, {mesh.n_edges} edges "
          f"(round-trip {'ok' if reread.n_cells == mesh.n_cells else 'FAILED'})")
    return 0


def cmd_solve(args) -> int:
    mesh = generate_structured(args.n)
    problem = manufactured(args.problem)
    if SCHEMES[args.scheme] is None:
        u_h = solve_morley(mesh, problem.f, tol=args.tol)
        diag = {"dofs": u_h.space.ndof}
    else:
        res = _decomposed_solve(mesh, problem.f, args.scheme, args.tol)
        u_h = res.u_h
        # the PCG iteration count stays out of the pinned output format
        diag = {k: v for k, v in res.diagnostics.items()
                if k != "stage2_iterations"}
    for key in sorted(diag):
        val = diag[key]
        print(f"{key}: {fmt(val) if isinstance(val, float) else val}")
    e0, e1, e2 = error_norms(u_h, problem.u, problem.grad_u, problem.hess_u)
    print(f"errL2: {fmt(e0)}")
    print(f"errH1: {fmt(e1)}")
    print(f"errH2: {fmt(e2)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(sample_field_csv(u_h))
        print(f"field sample written to {args.out}")
    return 0


def cmd_study(args) -> int:
    problem = manufactured(args.problem)
    table = convergence_study(problem, args.scheme, args.levels, tol=args.tol)
    text = table.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    if args.what == "complex":
        csv_chunks = []
        ok = True
        for n in args.n:
            rep = exactness_report(generate_structured(n), args.order)
            print(f"-- n = {n}")
            print(rep.to_text())
            csv_chunks.append(rep.to_csv())
            ok = ok and rep.exact
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv_chunks[0].splitlines()[0] + "\n")
                for chunk in csv_chunks:
                    fh.write(chunk.splitlines()[1] + "\n")
        return 0 if ok else NUMERICAL_EXIT
    if args.what == "elements":
        lines = ["element,dim,dof_list,trials,min_abs_det,min_sigma_ratio,"
                 "max_condition,failures"]
        ok = True
        for name in VERIFIED_ELEMENTS:
            elem = element_catalog(name)
            rep = unisolvence_check(elem, trials=args.trials, seed=args.seed)
            status = "PASS" if rep.passed() else "FAIL"
            ok = ok and rep.passed()
            dof_list = _dof_summary(elem)
            print(f"{name}: dim {elem.dim}, dofs [{dof_list}], "
                  f"min|det| {fmt(rep.min_abs_det)}, "
                  f"min sigma ratio {fmt(rep.min_sigma_ratio)}, {status}")
            if rep.det_formula_max_rel_err is not None:
                print(f"  veq determinant closed-form max rel err: "
                      f"{fmt(rep.det_formula_max_rel_err)}")
            lines.append(f"{name},{elem.dim},{dof_list},{rep.trials},"
                         f"{fmt(rep.min_abs_det)},{fmt(rep.min_sigma_ratio)},"
                         f"{fmt(rep.max_condition)},{rep.failures}")
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        print("all elements PASS" if ok else "element verification FAILED")
        return 0 if ok else NUMERICAL_EXIT
    # infsup
    values = infsup_study(args.pair, args.n, tol=args.tol)
    lines = ["n,constant"]
    for n, c in values:
        print(f"n={n}: C_h = {fmt(c)}")
        lines.append(f"{n},{fmt(c)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if any(c <= 0 for _, c in values):
        print("pair unstable: nonpositive constant")
        return NUMERICAL_EXIT
    return 0


def _dof_summary(elem) -> str:
    counts: dict[str, int] = {}
    for d in elem.dofs:
        weight_deg = d.weight.degree if d.weight is not None else 0
        key = d.kind if d.kind in ("vertex", "point", "cell_vec") else \
            f"{d.kind}(deg {weight_deg})"
        counts[key] = counts.get(key, 0) + 1
    return " + ".join(f"{n}x {k}" for k, n in counts.items())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mesh":
            return cmd_mesh(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "study":
            return cmd_study(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (SolverError, ComplexError, MeshError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (ValueError, OSError) as exc:    # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
