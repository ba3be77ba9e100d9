"""The benchmark tracer wraps amalgext functions by name; every name must resolve."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_wrapped():
    # compiled in memory, so no bytecode cache is written next to the benchmark
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["WRAPPED"]


def test_every_traced_name_resolves():
    wrapped = load_wrapped()
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
