"""Where the traced run puts its spans, and how spans become layer metrics.

Layers are named after the library's modules.  ``install`` wraps the names
callers look up: the package-level entry points the benchmark calls, and
inside the library the functions that ``biharmonic``, ``spaces``,
``stokes_complex`` and ``linalg`` reach through their own module globals,
including ``scipy.sparse.linalg.splu`` as ``biharmonic`` and ``linalg`` call
it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

import biharmfem as bf
import biharmfem.biharmonic as bh
import biharmfem.linalg as la
import biharmfem.spaces as spc
import biharmfem.stokes_complex as sc

FORMS = ("grad_grad", "rot_pressure", "vecfield_grad", "mass")
SPACE_CLASSES = ("potential", "velocity", "pressure")
#: a stored matrix entry counts as useful above this share of max |a|
USEFUL_ENTRY_RTOL = 1e-14

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("linalg.saddle_solve_s", "s", "lower"),
     ("linalg.splu_s", "s", "lower"),
     ("linalg.splu_calls", "count", "lower"),
     ("linalg.lu_fill.saddle", "count", "lower"),
     ("linalg.lu_fill.spd", "count", "lower"),
     ("linalg.infsup_constant_s", "s", "lower"),
     ("linalg.kernel_dimension_s", "s", "lower"),
     ("linalg.kernel_dimension_calls", "count", "lower"),
     ("biharmonic.solve_s", "s", "lower"),
     ("biharmonic.solve_self_s", "s", "lower")]
    + [(f"spaces.build_space_s.{k}", "s", "lower") for k in SPACE_CLASSES]
    + [(f"spaces.assemble_bilinear_s.{f}", "s", "lower") for f in FORMS]
    + [("spaces.assemble_load_s", "s", "lower"),
       ("spaces.error_norms_s", "s", "lower"),
       ("elements.nodal_coefficients_s", "s", "lower"),
       ("elements.nodal_coefficients_calls", "count", "lower"),
       ("spaces.congruence_classes", "count", "lower"),
       ("spaces.cells_per_class", "ratio", "higher")]
    + [(f"spaces.dofs.{k}", "count", "lower") for k in SPACE_CLASSES]
    + [(f"spaces.nnz.{f}", "count", "lower") for f in FORMS]
    + [(f"spaces.nnz_useful_frac.{f}", "ratio", "higher") for f in FORMS]
    + [("stokes_complex.b3_basis_s", "s", "lower"),
       ("stokes_complex.exactness_report_self_s", "s", "lower"),
       ("stokes_complex.basis_count", "count", "higher"),
       ("mesh.build_s", "s", "lower"),
       ("mesh.cells", "count", "higher"),
       ("biharmonic.stage2_residual", "1", "lower"),
       ("biharmonic.stage2_constraint", "1", "lower"),
       ("biharmonic.rel_dev_h2", "1", "lower"),
       ("bench.op_self_s", "s", "lower"),
       ("trace.op_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.hook_s", "s", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def space_class(kind: str) -> str:
    k = kind.lower()
    if k.startswith(("s2", "g2", "g3")):
        return "velocity"
    if k.startswith(("p", "dg")):
        return "pressure"
    return "potential"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _space_hook(args, kwargs, space):
    return {"kind": _arg(args, kwargs, 1, "kind"), "ndof": space.ndof}


def _matrix_hook(args, kwargs, M):
    data = np.abs(M.data)
    amax = float(data.max()) if data.size else 0.0
    return {"form": _arg(args, kwargs, 2, "form"), "nnz": int(M.nnz),
            "useful": int(np.count_nonzero(data > USEFUL_ENTRY_RTOL * amax))}


def _lu_hook(args, kwargs, lu):
    A = _arg(args, kwargs, 0, "A")
    saddle = bool(np.any(A.diagonal() == 0.0))
    return {"kind": "saddle" if saddle else "spd",
            "fill": int(lu.L.nnz + lu.U.nnz), "n": int(A.shape[0])}


def _report_hook(args, kwargs, report):
    return {"basis_count": report.basis_count or 0}


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    tracer.wrap(bf, "solve_cubic", "biharmonic.solve")
    tracer.wrap(bf, "solve_quartic", "biharmonic.solve")
    tracer.wrap(bf, "error_norms", "spaces.error_norms")
    tracer.wrap(bf, "exactness_report", "stokes_complex.exactness_report",
                _report_hook)
    tracer.wrap(bf, "infsup_study", "biharmonic.infsup_study")
    for owner in (bh, sc):
        tracer.wrap(owner, "build_space", "spaces.build_space", _space_hook)
        tracer.wrap(owner, "assemble_bilinear", "spaces.assemble_bilinear",
                    _matrix_hook)
    tracer.wrap(bh, "assemble_load", "spaces.assemble_load")
    tracer.wrap(bh, "saddle_solve", "linalg.saddle_solve")
    tracer.wrap(bh, "infsup_constant", "linalg.infsup_constant")
    tracer.wrap(bh, "generate_structured", "mesh.generate_structured")
    tracer.wrap(spc, "nodal_coefficients", "elements.nodal_coefficients")
    tracer.wrap(sc, "b3_basis", "stokes_complex.b3_basis")
    tracer.wrap(sc, "matrix_rank", "linalg.matrix_rank")
    for owner in (sc, la):
        tracer.wrap(owner, "kernel_dimension", "linalg.kernel_dimension")
    for owner in (bh, la):
        tracer.wrap_module_function(owner, "spla", "splu", "linalg.splu",
                                    _lu_hook)


def congruence_classes(meshes) -> int:
    return sum(len({m.geometry(c).signature() for c in range(m.n_cells)})
               for m in meshes)


def op_metrics(tracer, op: int, meshes, figures: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    m = defaultdict(float)
    nnz = defaultdict(int)
    useful = defaultdict(int)
    for s, self_t in tracer.op_spans(op):
        a = s.attrs
        if s.name == "bench.op":
            m["trace.op_s"] += s.duration
            m["bench.op_self_s"] += self_t
        elif s.name == "biharmonic.solve":
            m["biharmonic.solve_s"] += s.duration
            m["biharmonic.solve_self_s"] += self_t
        elif s.name == "linalg.splu":
            m["linalg.splu_s"] += s.duration
            m["linalg.splu_calls"] += 1
            m[f"linalg.lu_fill.{a['kind']}"] += a["fill"]
        elif s.name == "spaces.build_space":
            cls = space_class(a["kind"])
            m[f"spaces.build_space_s.{cls}"] += s.duration
            m[f"spaces.dofs.{cls}"] = max(m[f"spaces.dofs.{cls}"], a["ndof"])
        elif s.name == "spaces.assemble_bilinear":
            m[f"spaces.assemble_bilinear_s.{a['form']}"] += s.duration
            nnz[a["form"]] += a["nnz"]
            useful[a["form"]] += a["useful"]
        elif s.name == "stokes_complex.exactness_report":
            m["stokes_complex.exactness_report_self_s"] += self_t
            m["stokes_complex.basis_count"] += a["basis_count"]
        elif s.name in ("linalg.kernel_dimension",
                        "elements.nodal_coefficients"):
            m[f"{s.name}_s"] += s.duration
            m[f"{s.name}_calls"] += 1
        elif s.name == "trace.hook":
            m["trace.hook_s"] += s.duration
        else:
            m[f"{s.name}_s"] += s.duration
    for form in FORMS:
        m[f"spaces.nnz.{form}"] = nnz[form]
        m[f"spaces.nnz_useful_frac.{form}"] = (useful[form] / nnz[form]
                                               if nnz[form] else 0.0)
    classes = congruence_classes(meshes)
    m["spaces.congruence_classes"] = classes
    m["spaces.cells_per_class"] = sum(x.n_cells for x in meshes) / classes
    for key, value in figures.items():
        m[f"biharmonic.{key}"] = value
    return m


def per_layer(op_rows: list[dict], setup_spans, untraced_s: list[float],
              traced_s: list[float]):
    """Median over traced operations of every per-layer metric; the tracing
    overhead is the median over pairs of the traced minus the untraced time
    of the same input."""
    out = {}
    for name, _, _ in PER_LAYER:
        out[name] = float(statistics.median(row.get(name, 0.0)
                                            for row in op_rows))
    out["mesh.build_s"] = sum(s.duration for s in setup_spans)
    out["mesh.cells"] = float(sum(s.attrs.get("cells", 0)
                                  for s in setup_spans))
    out["trace.overhead_s"] = float(statistics.median(
        t - u for u, t in zip(untraced_s, traced_s)))
    return out
