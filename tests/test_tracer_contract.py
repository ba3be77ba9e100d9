"""The benchmark tracer wraps amalgext functions by name; every name must resolve,
and the counters it reads off them must see the work they name."""

import importlib
import types
from pathlib import Path

from amalgext import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing() -> dict:
    # compiled in memory, so no bytecode cache is written next to the benchmark
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves():
    wrapped = load_tracing()["WRAPPED"]
    assert wrapped
    for module_name, qualname, _ in wrapped:
        module = importlib.import_module(f"amalgext.{module_name}")
        if "." in qualname:
            # the tracer replaces the attribute in the class's own namespace
            cls_name, attr = qualname.split(".")
            raw = vars(getattr(module, cls_name)).get(attr)
            if isinstance(raw, classmethod):
                raw = raw.__func__
        else:
            raw = getattr(module, qualname, None)
        assert isinstance(raw, types.FunctionType), f"{module_name}.{qualname} is not a function"


def test_traced_les_counts_the_lift_solves():
    """Every lift degree above 0 is one Field.solve called from chain_lift_pi."""
    tracer = load_tracing()["Tracer"]()
    argv = ["les", str(ROOT / "fixtures" / "sl2z.amg"), "--degree", "3", "--v2", "std2"]
    with tracer.installed():
        code, _ = cli.run(argv)
    metrics = tracer.layer_metrics()
    assert code == 0
    assert metrics["mayer_vietoris.lift_solves"][0] > 0
    assert metrics["linalg.solve_calls"][0] > 0
