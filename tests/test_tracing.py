"""The span table of the traced benchmark names functions that exist.

``bench/tracing.py`` reads each ``SPANS`` target from its owner's
``__dict__``, so deleting or inheriting one breaks ``bench/run.py
--trace 1``.  It finds each owner module in ``sys.modules``, so
``import dimcalc.cli``, which is all ``bench/run.py`` imports beside the
package, must load every one of them.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import dimcalc
from dimcalc.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """Load ``bench/<name>.py`` by path, read-only, as a fresh module."""
    spec = importlib.util.spec_from_file_location(f"dimcalc_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_defined_by_its_owner():
    tracing = load_bench("tracing")
    missing = []
    for module, path, _, _ in tracing.SPANS:
        owner = importlib.import_module(f"dimcalc.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert len(tracing.SPANS) == 30 and missing == []


def test_instrument_traces_and_restores(capsys):
    tracing = load_bench("tracing")
    parse = dimcalc.exprs.parse
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert main(["sigma", "Z/12"]) == 0
    assert dimcalc.exprs.parse is parse
    assert {"cli.main", "exprs.parse", "groups.sigma"} <= set(tracer.names)
    assert capsys.readouterr().out == "{Z_2, Z_3}\n"


def test_importing_the_cli_loads_every_traced_module():
    modules = {f"dimcalc.{module}" for module, *_ in load_bench("tracing").SPANS}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dimcalc.cli\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert modules - set(proc.stdout.split()) == set()
