import io
import sys

import numpy as np
import pytest

from biharmfem.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_mesh_n1_header(tmp_path):
    path = tmp_path / "m.txt"
    code, out, _ = run_cli(["mesh", "--n", "1", "--out", str(path)])
    assert code == 0
    assert path.read_text().splitlines()[0] == "4 2"


def test_mesh_roundtrip_byte_identical(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    run_cli(["mesh", "--n", "3", "--out", str(p1)])
    from biharmfem.mesh import Mesh
    Mesh.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_n2_parses_to_8_cells(tmp_path):
    path = tmp_path / "m.txt"
    run_cli(["mesh", "--n", "2", "--out", str(path)])
    from biharmfem.mesh import Mesh
    assert Mesh.load(path).n_cells == 8


def test_solve_zero_problem():
    code, out, _ = run_cli(["solve", "--scheme", "cubic", "--n", "2",
                            "--problem", "zero"])
    assert code == 0
    err_h2 = [ln for ln in out.splitlines() if ln.startswith("errH2:")][0]
    assert float(err_h2.split(":")[1]) == 0.0


def test_solve_matches_library_call():
    code, out, _ = run_cli(["solve", "--scheme", "cubic", "--n", "4",
                            "--problem", "poly8"])
    assert code == 0
    err_h2 = float([ln for ln in out.splitlines()
                    if ln.startswith("errH2:")][0].split(":")[1])
    from biharmfem.biharmonic import manufactured, solve_cubic
    from biharmfem.mesh import generate_structured
    from biharmfem.spaces import error_norms
    p = manufactured("poly8")
    res = solve_cubic(generate_structured(4), p.f)
    _, _, e2 = error_norms(res.u_h, p.u, p.grad_u, p.hess_u)
    assert err_h2 == pytest.approx(e2, rel=1e-10)


def test_solve_out_writes_field_sample(tmp_path):
    path = tmp_path / "field.csv"
    code, out, _ = run_cli(["solve", "--scheme", "cubic", "--n", "2",
                            "--out", str(path)])
    assert code == 0
    assert f"field sample written to {path}" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 2501
    x, y, val = np.array([[float(t) for t in ln.split(",")]
                          for ln in lines[1:]]).T
    grid = np.linspace(0.0, 1.0, 50)
    gx, gy = np.tile(grid, 50), np.repeat(grid, 50)
    assert np.allclose(x, gx, rtol=0, atol=1e-12)
    assert np.allclose(y, gy, rtol=0, atol=1e-12)
    from biharmfem.biharmonic import manufactured, solve_cubic
    from biharmfem.mesh import generate_structured
    from biharmfem.spaces import eval_field
    u_h = solve_cubic(generate_structured(2), manufactured("poly8").f).u_h
    ref = np.array([eval_field(u_h, pt) for pt in zip(gx, gy)])
    # 1e-12 of the largest value, plus the rounding to 12 significant digits
    assert np.all(np.abs(val - ref)
                  <= 1e-12 * np.abs(ref).max() + 5e-12 * np.abs(ref))


def test_unknown_scheme_usage_error():
    code, _, err = run_cli(["solve", "--scheme", "quintic", "--n", "2"])
    assert code == 1


def test_study_csv_and_determinism(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    argv = ["study", "--scheme", "morley", "--levels", "2,4",
            "--problem", "poly8"]
    code, out, _ = run_cli(argv + ["--out", str(p1)])
    assert code == 0
    assert out.splitlines()[0] == "n,h,dofs,errH2,rateH2,errH1,rateH1,errL2,rateL2"
    run_cli(argv + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_study_rejects_bad_levels():
    code, _, _ = run_cli(["study", "--scheme", "cubic", "--levels", "2,5"])
    assert code == 1


def test_verify_complex_output():
    code, out, _ = run_cli(["verify", "complex", "--order", "cubic",
                            "--n", "2"])
    assert code == 0
    assert "rank 23, kernel 11, exact: PASS" in out


def test_verify_elements(tmp_path):
    path = tmp_path / "elements.csv"
    code, out, _ = run_cli(["verify", "elements", "--trials", "10",
                            "--out", str(path)])
    assert code == 0
    assert "all elements PASS" in out
    assert path.read_text().startswith("element,dim,dof_list,trials")


def test_verify_infsup():
    code, out, _ = run_cli(["verify", "infsup", "--pair", "g3p2",
                            "--n", "2,4"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("n=")]
    assert len(lines) == 2
    for ln in lines:
        assert float(ln.split("=")[-1]) > 0
