"""The benchmark tracer's patch points exist in the library and are all used.

``bench/tracer.py`` times a run by replacing module attributes of
``probcone`` for the length of one pass. A refactor that drops or stops
calling one of those names makes the benchmark's layer numbers silently
wrong, so this runs one small traced ``solve`` and one traced ``classify``
in the tier-1 suite.
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


def test_traced_classify_counts_one_span_per_distinct_certificate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    from probcone import cli

    # all four kinds; the sweep repeats the default alpha, 0.3, whose Kannan certificate the run reuses
    n_pairs, sweep = 150, [0.1, 0.3, 0.4]
    cfg = tmp_path / "cfg.json"
    config = {"space": CONFIG["space"], "mapping": "scale:0.2", "classify": {"n_pairs": n_pairs, "alpha_sweep": sweep}}
    cfg.write_text(json.dumps(config))
    run = tracer.Tracer(0)
    with tracer.installed(run):
        assert cli.main(["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    spans = sorted(name for _, name, *_ in run.spans if name.startswith("contract."))
    kinds = ["banach", "chatterjea", "kannan", "zamfirescu"]
    assert spans == sorted([f"contract.check_{kind}" for kind in kinds] + ["contract.check_kannan"] * 2)
    assert run.counts["contract.pairs"] == len(spans) * n_pairs
