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
    from oracles import field_at
    u_h = solve_cubic(generate_structured(2), manufactured("poly8").f).u_h
    ref = field_at(u_h.space, u_h.coeffs, np.column_stack([gx, gy]))[:, 0]
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


def test_verify_complex_quartic_n32():
    # 12288 pressure DoFs: the kernel count needs no dense Gram
    code, out, _ = run_cli(["verify", "complex", "--order", "quartic",
                            "--n", "32"])
    assert code == 0
    assert "kernel dimension: derived 9857, closed form 9857, measured " \
           "9857" in out


@pytest.mark.parametrize("order,levels,code", [("quartic", "1", 2),
                                               ("cubic", "1", 0),
                                               ("cubic", "2,4", 0)])
def test_verify_complex_exit_code(tmp_path, order, levels, code):
    # a report that is not exact is a numerical failure; the report and
    # the CSV are written all the same
    path = tmp_path / "complex.csv"
    got, out, _ = run_cli(["verify", "complex", "--order", order,
                           "--n", levels, "--out", str(path)])
    assert got == code
    assert out.count("exact: FAIL" if code else "exact: PASS") \
        == len(levels.split(","))
    assert len(path.read_text().splitlines()) == 1 + len(levels.split(","))


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


def test_verify_infsup_singular_pair_exits_2():
    # g3p2 on criss n=1 has fewer velocity DoFs than mean-zero pressures
    code, out, _ = run_cli(["verify", "infsup", "--pair", "g3p2", "--n", "1"])
    assert code == 2
    assert out == "n=1: C_h = 0\npair unstable: nonpositive constant\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--scheme", "cubic", "--n", "4", "--tol", "0"],
    ["solve", "--scheme", "cubic", "--n", "4", "--tol", "-1"],
    ["study", "--scheme", "cubic", "--levels", "2", "--tol", "inf"],
    ["verify", "infsup", "--pair", "g3p2", "--n", "2", "--tol", "nan"],
])
def test_tol_must_be_positive_and_finite(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert ("error: argument --tol: expected a positive finite float, got "
            f"'{argv[-1]}'") in err


def test_tol_must_be_a_number():
    code, out, err = run_cli(["verify", "complex", "--tol", "1e-10x"])
    assert code == 1 and out == ""
    assert "error: argument --tol: invalid float value: '1e-10x'" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_elements_needs_a_trial(trials):
    # zero trials check nothing, so they cannot report PASS
    code, out, err = run_cli(["verify", "elements", "--trials", trials])
    assert code == 1 and out == ""
    assert ("error: argument --trials: expected a positive finite int, got "
            f"'{trials}'") in err


@pytest.mark.parametrize("argv", [
    ["mesh", "--n", "1"],
    ["solve", "--scheme", "cubic", "--n", "2"],
    ["study", "--scheme", "cubic", "--levels", "2,4"],
    ["verify", "complex", "--n", "1"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "missing" / "x"
    code, out, err = run_cli(argv + ["--out", str(path)])
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    # what was printed before the write stays; study prints after it
    assert (out == "") == (argv[0] in ("mesh", "study"))
