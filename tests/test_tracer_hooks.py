"""The benchmark's layer tracer (perfbench/tracer.py) still finds every name
it wraps and every field its hooks read.

perfbench/run.py --trace wraps the LatticeSimplex methods that tracer.py
lists by name and reads ConstructionPlan.lifts in its realize hook, so a
rename or deletion of any of them must fail here and not only in a traced
benchmark run.  The tracer is imported as it is; nothing under perfbench/
is written.
"""

import importlib
import json
import os

import ehrhart
from ehrhart.simplex import LatticeSimplex, dump_simplex

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_records_spans_through_the_cli(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer_module = importlib.import_module("tracer")
    modules = {"ehrhart": ehrhart}
    for layer in tracer_module.LAYERS:
        modules[layer] = importlib.import_module(f"ehrhart.{layer}")
    path = tmp_path / "s2.json"
    dump_simplex(LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]), str(path))
    originals = dict(vars(LatticeSimplex))
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        cli = modules["cli"]
        assert cli.main(["--json", "realize", "1", "0", "1", "0"]) == 0
        realized = json.loads(capsys.readouterr().out)
        assert cli.main(["--json", "delta", "--method", "both", str(path)]) == 0
        delta = json.loads(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert realized["status"] == "ok" and realized["verified"] == "yes"
    assert delta["status"] == "ok" and delta["delta"] == [1, 0, 1, 0]
    for name in ("cli.main", "realizer.realize", "simplex.construct", "simplex.lifted_matrix"):
        assert tracer.stat(name)[0] > 0, name
    # The realize hook adds ConstructionPlan.lifts, so the counter exists once it ran.
    assert "realizer.lifts" in tracer.counters
    assert dict(vars(LatticeSimplex)) == originals
    assert modules["cli"].main.__module__ == "ehrhart.cli"
