"""The benchmark's four workloads: inputs, one operation, and its checks.

Each workload has a ``setup(seed, span)`` that builds every input and warms
the library's process-global caches, an ``operation(state, i)`` that is the
timed unit of work, and a ``check(state, i, result)`` that verifies the
result against golden values and returns a ``Checks`` record.  The library
is reached only through its public functions, looked up on the ``biharmfem``
package at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import biharmfem as bf
import inputs

PROBLEM = "sin2"
#: solver tolerance used by every solve (the library default)
SOLVER_TOL = 1e-10
#: relative tolerance for reproducing a golden error norm, on the natural
#: and on a relabeled numbering alike
NORM_RTOL = 1e-6
#: relative tolerance for reproducing a golden inf-sup constant
INFSUP_RTOL = 1e-6
#: broken-H2 error on the jittered mesh over the criss value at the same n
JITTER_H2_BAND = (0.95, 1.20)
JITTER_N = 12
QUARTIC_MIN_H2_RATE = 2.8
QUARTIC_LEVELS = (4, 6, 8)
#: seeded inputs drawn in set-up; operation i runs on input i modulo this,
#: so a run's median spans as many different inputs as it has operations
INPUTS_PER_RUN = 32
VERIFY_CUBIC_N = 4
VERIFY_QUARTIC_N = 8
INFSUP_LEVELS = (2, 4, 8)

# Golden values of the natural (criss) numbering, sin2 problem, quad degree
# 17: (L2, broken H1, broken H2) errors and (potential, velocity, pressure)
# DoF counts.
GOLDEN_NORMS = {
    ("cubic", 12): (0.00012778622277316657, 0.0032742126926939693,
                    0.2631768442903941),
    ("cubic", 32): (2.5744392672013077e-06, 0.0001695385931193973,
                    0.03716063195712352),
    ("quartic", 4): (0.0009533111048577765, 0.01751145201548508,
                     0.5336007249612563),
    ("quartic", 6): (9.084124707037598e-05, 0.003068145714480296,
                     0.15155521157215654),
    ("quartic", 8): (1.7973968998867425e-05, 0.0009036578585994321,
                     0.06212066648500607),
}
GOLDEN_DOFS = {
    ("cubic", 12): (1681, 1634, 863),
    ("cubic", 32): (12161, 12034, 6143),
    ("quartic", 4): (225, 304, 191),
    ("quartic", 6): (529, 720, 431),
    ("quartic", 8): (961, 1312, 767),
}
GOLDEN_INFSUP_G3P2 = (0.20712237355074642, 0.22341305269148326,
                      0.22367658209137228)
GOLDEN_B3_COUNT = {4: 67, 8: 323}


@dataclass
class Checks:
    """Failed checks of one operation, plus the correctness figures the
    traced run reports (largest value over the operation)."""

    failures: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def figure(self, name: str, value: float):
        self.figures[name] = max(self.figures.get(name, 0.0), float(value))

    def close(self, label: str, got: float, want: float, rtol: float) -> float:
        dev = abs(got - want) / abs(want)
        self.expect(dev <= rtol, f"{label}: {got!r} deviates from {want!r} "
                                 f"by {dev:.3e} relative (> {rtol:g})")
        return dev

    def solution(self, label: str, res, errs, problem, golden_key=None):
        """Stage residuals, DoF counts and (if golden) error norms."""
        d = res.diagnostics
        scale = max(1.0, float(np.linalg.norm(
            bf.assemble_load(res.r_h.space, problem.f))))
        for key in ("stage1_residual", "stage2_residual", "stage2_constraint",
                    "stage3_residual"):
            self.expect(d[key] <= SOLVER_TOL * scale,
                        f"{label}: {key} {d[key]:.3e} > {SOLVER_TOL:g} * "
                        f"|load| ({scale:.3e})")
        self.figure("stage2_residual", d["stage2_residual"])
        self.figure("stage2_constraint", d["stage2_constraint"])
        if golden_key is None:
            return
        dofs = (d["dofs_potential"], d["dofs_velocity"], d["dofs_pressure"])
        self.expect(dofs == GOLDEN_DOFS[golden_key],
                    f"{label}: DoFs {dofs} != {GOLDEN_DOFS[golden_key]}")
        for name, got, want in zip(("err_l2", "err_h1", "err_h2"), errs,
                                   GOLDEN_NORMS[golden_key]):
            dev = self.close(f"{label} {name}", got, want, NORM_RTOL)
            if name == "err_h2":
                self.figure("rel_dev_h2", dev)


def _problem():
    return bf.manufactured(PROBLEM)


def _solve_with_norms(scheme: str, mesh, problem):
    solve = bf.solve_cubic if scheme == "cubic" else bf.solve_quartic
    res = solve(mesh, problem.f, tol=SOLVER_TOL)
    errs = bf.error_norms(res.u_h, problem.u, problem.grad_u, problem.hess_u)
    return res, errs


def _warm_up(scheme: str, problem):
    """One tiny solve: fills the quadrature and element-catalog caches."""
    _solve_with_norms(scheme, bf.generate_structured(2), problem)


# ---------------------------------------------------------------------------
# cubic-criss-32 and cubic-jitter-12
# ---------------------------------------------------------------------------

def setup_cubic_criss(seed: int, span=None):
    problem = _problem()
    with (span or _untraced)("mesh.build") as rec:
        mesh = bf.generate_structured(32)
    _annotate(rec, [mesh])
    _warm_up("cubic", problem)
    return {"problem": problem, "inputs": [[mesh]]}


def op_cubic(state, i: int):
    (mesh,) = meshes_for(state, i)
    return _solve_with_norms("cubic", mesh, state["problem"])


def check_cubic_criss(state, i: int, result) -> Checks:
    checks = Checks()
    checks.solution("cubic criss n=32", *result, state["problem"],
                    golden_key=("cubic", 32))
    return checks


def setup_cubic_jitter(seed: int, span=None):
    problem = _problem()
    rng = np.random.default_rng(seed)
    with (span or _untraced)("mesh.build") as rec:
        meshes = [inputs.jittered(JITTER_N, rng)
                  for _ in range(INPUTS_PER_RUN)]
    _annotate(rec, meshes)
    _warm_up("cubic", problem)
    return {"problem": problem, "inputs": [[m] for m in meshes]}


def check_cubic_jitter(state, i: int, result) -> Checks:
    checks = Checks()
    res, errs = result
    label = f"cubic jitter n={JITTER_N}"
    checks.solution(label, res, errs, state["problem"])
    d = res.diagnostics
    dofs = (d["dofs_potential"], d["dofs_velocity"], d["dofs_pressure"])
    checks.expect(dofs == GOLDEN_DOFS[("cubic", JITTER_N)],
                  f"{label}: DoFs {dofs} changed under jitter")
    ratio = errs[2] / GOLDEN_NORMS[("cubic", JITTER_N)][2]
    lo, hi = JITTER_H2_BAND
    checks.expect(lo <= ratio <= hi,
                  f"{label}: err_h2 {errs[2]:.6g} is {ratio:.4f} x "
                  f"the criss value, outside [{lo}, {hi}]")
    checks.figure("rel_dev_h2", abs(ratio - 1.0))
    return checks


# ---------------------------------------------------------------------------
# quartic-relabel-study
# ---------------------------------------------------------------------------

def setup_quartic_relabel(seed: int, span=None):
    problem = _problem()
    rng = np.random.default_rng(seed)
    with (span or _untraced)("mesh.build") as rec:
        natural = [bf.generate_structured(n) for n in QUARTIC_LEVELS]
        studies = [[inputs.relabeled(m, rng) for m in natural]
                   for _ in range(INPUTS_PER_RUN)]
    _annotate(rec, natural + [m for s in studies for m in s])
    _warm_up("quartic", problem)
    return {"problem": problem, "inputs": studies}


def op_quartic_relabel(state, i: int):
    results = [_solve_with_norms("quartic", m, state["problem"])
               for m in meshes_for(state, i)]
    rates = [math.log(prev[1][2] / cur[1][2]) / math.log(n1 / n0)
             for (n0, prev), (n1, cur)
             in zip(zip(QUARTIC_LEVELS, results),
                    zip(QUARTIC_LEVELS[1:], results[1:]))]
    return results, rates


def check_quartic_relabel(state, i: int, result) -> Checks:
    checks = Checks()
    results, rates = result
    for n, (res, errs) in zip(QUARTIC_LEVELS, results):
        checks.solution(f"quartic relabeled n={n}", res, errs,
                        state["problem"], golden_key=("quartic", n))
    for (n0, n1), rate in zip(zip(QUARTIC_LEVELS, QUARTIC_LEVELS[1:]), rates):
        checks.expect(rate >= QUARTIC_MIN_H2_RATE,
                      f"quartic H2 rate n={n0}->{n1}: {rate:.4f} < "
                      f"{QUARTIC_MIN_H2_RATE}")
    return checks


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def setup_verify(seed: int, span=None):
    with (span or _untraced)("mesh.build") as rec:
        meshes = [bf.generate_structured(VERIFY_CUBIC_N),
                  bf.generate_structured(VERIFY_QUARTIC_N)]
    _annotate(rec, meshes)
    tiny = bf.generate_structured(2)
    bf.exactness_report(tiny, "cubic", with_basis=True)
    bf.exactness_report(tiny, "quartic")
    bf.infsup_study("g3p2", [2, 4])  # n=4 takes the sparse eigensolver path
    return {"inputs": [meshes]}


def op_verify(state, i: int):
    cubic_mesh, quartic_mesh = meshes_for(state, i)
    return (bf.exactness_report(cubic_mesh, "cubic", with_basis=True),
            bf.exactness_report(quartic_mesh, "quartic"),
            bf.infsup_study("g3p2", list(INFSUP_LEVELS)))


def check_verify(state, i: int, result) -> Checks:
    checks = Checks()
    cubic, quartic, infsup = result
    n_c, n_q = VERIFY_CUBIC_N, VERIFY_QUARTIC_N
    want = GOLDEN_B3_COUNT[n_c]
    checks.expect(cubic.exact, f"cubic n={n_c} complex is not exact")
    checks.expect(cubic.basis_count == want,
                  f"cubic n={n_c} B3 basis has {cubic.basis_count} "
                  f"functions, expected {want}")
    checks.expect(cubic.basis_kernel_residual <= SOLVER_TOL,
                  "B3 basis kernel residual "
                  f"{cubic.basis_kernel_residual:.3e}")
    checks.expect(cubic.basis_membership_violation <= SOLVER_TOL,
                  "B3 basis membership violation "
                  f"{cubic.basis_membership_violation:.3e}")
    checks.expect(quartic.exact, f"quartic n={n_q} complex is not exact")
    checks.expect([n for n, _ in infsup] == list(INFSUP_LEVELS),
                  f"inf-sup study levels {[n for n, _ in infsup]}")
    for (n, c_h), want in zip(infsup, GOLDEN_INFSUP_G3P2):
        checks.close(f"g3p2 inf-sup n={n}", c_h, want, INFSUP_RTOL)
    return checks


@contextmanager
def _untraced(name: str):
    yield None


def _annotate(rec, meshes):
    if rec is not None:
        rec.attrs["cells"] = sum(m.n_cells for m in meshes)


@dataclass(frozen=True)
class Workload:
    setup: object
    operation: object
    check: object


# Why each workload exists: see BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "cubic-criss-32": Workload(setup_cubic_criss, op_cubic,
                               check_cubic_criss),
    "cubic-jitter-12": Workload(setup_cubic_jitter, op_cubic,
                                check_cubic_jitter),
    "quartic-relabel-study": Workload(setup_quartic_relabel,
                                      op_quartic_relabel,
                                      check_quartic_relabel),
    "verify": Workload(setup_verify, op_verify, check_verify),
}


def meshes_for(state, i: int) -> list:
    """The meshes operation i runs on."""
    return state["inputs"][i % len(state["inputs"])]
