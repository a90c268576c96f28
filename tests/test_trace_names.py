"""The benchmark tracer's function list must name functions that exist, and
its counters must find the arguments they count.

``perfbench/trace_child.py`` wraps each name in its ``TRACED`` table by
attribute lookup; a name that no longer resolves would fail every traced
benchmark operation.  Its counters read arguments by position or keyword:
``_grid_points`` takes K as ``minimize_revenue``'s third positional argument
or its keyword ``K``, and ``_mc_samples`` the third of ``mc_revenue``.  The
file is only read and run here; its spans go under ``tmp_path``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


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


def traced_counts(tmp_path, argv):
    """Run ``argv`` under the tracer and return each span name's counts, in call order."""
    spans_path = tmp_path / "spans.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(spans_path), "0", "--", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    counts: dict[str, list[dict]] = {}
    for _, _, _, name, _, _, error, span_counts in json.loads(spans_path.read_text()):
        assert error == 0, name
        counts.setdefault(name, []).append(span_counts)
    return counts


@pytest.mark.parametrize(
    ("argv", "want"),
    [
        (
            ["adversary", "--mu", "0.5", "--grid-k", "1000"],
            {"adversary.minimize_revenue": [{"grid_points": 1000}]},
        ),
        (
            ["verify", "--mu", "0.5", "--seed", "7", "--samples", "2000"],
            {
                "adversary.minimize_revenue": [{"grid_points": 500}],
                "mechanism.mc_revenue": [{"samples": 2000}],
            },
        ),
    ],
    ids=["adversary", "verify"],
)
def test_counters_read_their_arguments(tmp_path, argv, want):
    counts = traced_counts(tmp_path, argv)
    assert {name: counts.get(name) for name in want} == want
