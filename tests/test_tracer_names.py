"""The benchmark tracer binds package names; a rename must fail here first.

perfbench/spans.py wraps layer entry points by module attribute and reads
some of their bound arguments by parameter name. A renamed function or
parameter would otherwise surface only as a failed traced benchmark run.
"""

import importlib.util
import inspect
import re
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arguments_read(fn) -> set[str]:
    # the counters and namers read bound arguments as a["name"]
    return set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(fn)))


def test_every_traced_target_resolves():
    targets = _load_spans()._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert inspect.isfunction(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_counters_read_existing_parameters():
    read = set()
    for module, attr, name, counters in _load_spans()._targets():
        params = inspect.signature(getattr(module, attr)).parameters
        for fn in (name, counters):
            if callable(fn):
                wanted = _arguments_read(fn)
                assert wanted <= set(params), (f"{module.__name__}.{attr}", wanted - set(params))
                read |= wanted
    assert read == {"params", "spec", "K", "L", "engine"}
