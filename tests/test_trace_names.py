"""The benchmark tracer's function list must name functions that exist.

``perfbench/trace_child.py`` wraps each name in its ``TRACED`` table by
attribute lookup; a name that no longer resolves would fail every traced
benchmark operation.  The file is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    missing = []
    for mod_name, functions in trace_child.TRACED.items():
        for qual in functions:
            target = importlib.import_module(f"maxmin_auction.{mod_name}")
            for part in qual.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{mod_name}.{qual}")
    assert missing == []
