"""The scripts run in-process, so a library name they use that is renamed or
removed fails here rather than in a user's shell."""

import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_verification(monkeypatch, capsys):
    run_script(monkeypatch, "run_verification.py", "--levels", "2",
               "--trials", "2")
    out = capsys.readouterr().out
    for header in ("== element unisolvence", "== cubic complex",
                   "== quartic complex", "== inf-sup constants"):
        assert header in out
    assert "g3p2: n=2:" in out


def test_run_convergence(monkeypatch, capsys, tmp_path):
    run_script(monkeypatch, "run_convergence.py", "--schemes", "morley",
               "--problems", "poly8", "--outdir", str(tmp_path))
    text = (tmp_path / "rates_morley_poly8.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "n,h,dofs,errH2,rateH2,errH1,rateH1,errL2,rateL2"
    assert len(lines) == 4
    assert text in capsys.readouterr().out
