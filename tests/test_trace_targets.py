"""The benchmark's trace targets resolve in the package.

`bench/run.py --trace 1` wraps every `TARGETS` entry of `bench/tracing.py`
and fails the run when one is gone. This loads that file by path, so a
rename under `src/` that would break the traced run fails here too.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("span,module_name,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(span, module_name, attr):
    module = importlib.import_module(module_name)
    assert module.__name__.split(".")[0] == "tmeg"
    if "." in attr:     # a method: the tracer replaces it on its own class
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), span
    else:
        assert callable(getattr(module, attr, None)), span
