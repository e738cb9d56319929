"""The benchmark tracer's patch points exist in the library and are all used.

``bench/tracer.py`` times a run by replacing module attributes of
``probcone`` for the length of one pass. A refactor that drops or stops
calling one of those names makes the benchmark's layer numbers silently
wrong, so this runs one small traced ``solve`` in the tier-1 suite.
"""

import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIG = {
    "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
    "mapping": "rotation-half",
    "solve": {"x0": [1.0, 0.0], "eps": 1e-6, "max_iter": 200, "uniqueness_starts": 3},
}


def test_traced_solve_restores_every_patch(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    from probcone import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    run = tracer.Tracer(0)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patch_points(tracer.Tracer(1))]
    with tracer.installed(run):
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    # one stop test per step of the main orbit; the uniqueness probe stacks
    # its orbits and calls neither picard nor tau_converged
    assert run.counts["solver.picard_iters"] > 0
    assert run.calls["solver.tau_converged"] == run.counts["solver.picard_iters"]
