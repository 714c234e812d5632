"""The traced benchmark run wraps library attributes by name
(bench/layers.py); a rename in src/ must fail here, not only in a traced
benchmark run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracer

    t = tracer.Tracer()
    try:
        layers.install(t)
        patched = list(t._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
