"""Import weight: each command loads only the scipy subpackages it calls.

``import maxmin_auction`` loads numpy and nothing from scipy;
``isotonic_regression`` is imported inside the ironing of a non-monotone
argmin, the one runtime use of scipy, and ``concurrent.futures`` inside the
Monte Carlo run that starts a thread pool.  ``verify``, ``simulate`` and
``upper-bound --dump-mechanism`` load no scipy at all, and print the same
bytes where scipy cannot be imported.
``csvrows``, the CSV row formatter, is imported by the first
``write_cdf_csv`` call.  No command loads ``numpy.ma``, which numpy 2.4's
``np.unique`` imports on its first call: the package sorts and masks instead
(``quadrature.sorted_unique``).  Each case runs in a fresh interpreter, since the
test process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxmin_auction import write_cdf_csv

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY = ("scipy.special", "scipy.optimize", "scipy.sparse")
WATCHED = SCIPY + ("concurrent.futures", "maxmin_auction.csvrows", "numpy.ma")

# Runs its arguments as ``python -m maxmin_auction`` would, then writes the
# watched modules loaded by exit time as the last line of stderr.  The command
# line leaves through ``os._exit``, which runs no ``atexit`` handler, so the
# probe reports from a wrapper around it as well.
PROBE = f"""
import atexit, json, os, runpy, sys

def report():
    print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]), file=sys.stderr, flush=True)

def report_and_exit(code, _exit=os._exit):
    report()
    _exit(code)

atexit.register(report)
os._exit = report_and_exit
if len(sys.argv) > 1:
    sys.argv[0] = "maxmin_auction"
    runpy.run_module("maxmin_auction", run_name="__main__", alter_sys=True)
else:
    import maxmin_auction
"""


# Runs its arguments as ``python -m maxmin_auction`` would, with every import
# of scipy or of one of its subpackages raising ImportError.
BLOCK_SCIPY = """
import runpy, sys

sys.modules["scipy"] = None
sys.argv[0] = "maxmin_auction"
runpy.run_module("maxmin_auction", run_name="__main__", alter_sys=True)
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def loaded_modules(*argv: str) -> set[str]:
    proc = run_python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def test_package_import_loads_no_scipy():
    assert loaded_modules() == set()


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (("adversary", "--mu", "0.5", "--grid-k", "500"), set()),
        (("simulate", "--mu", "0.5", "--samples", "1000", "--seed", "1"), set()),
        (("verify", "--mu", "0.5", "--seed", "7"), set()),
        (("upper-bound", "--mu", "0.5", "--grid-n", "50"), set()),
    ],
    ids=["adversary", "simulate", "verify", "upper-bound"],
)
def test_command_loads_only_what_it_calls(argv, expected):
    assert loaded_modules(*argv) & set(SCIPY) == expected


# numpy.ma costs 10-17 ms of a cold run; the panel edges of verify and the
# candidates of mps-check are made unique without np.unique, which imports it
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--mu", "0.5", "--seed", "7"),
        ("simulate", "--mu", "0.5", "--samples", "1000", "--seed", "1"),
        ("adversary", "--mu", "0.5", "--grid-k", "500"),
        ("mps-check", "--mu", "0.5"),
    ],
    ids=["verify", "simulate", "adversary", "mps-check"],
)
def test_command_loads_no_masked_arrays(argv, tmp_path):
    if argv[0] == "mps-check":
        path = tmp_path / "prior.csv"
        write_cdf_csv(path, [0.0, 0.5, 1.0], [0.25, 0.75, 1.0], [0.25, 0.5, 0.25])
        argv += ("--prior", str(path))
    assert "numpy.ma" not in loaded_modules(*argv)


# the antiderivative of H is numpy alone, so the winner payments of verify's
# checks and of a pooled Monte Carlo run need no scipy
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--mu", "0.5", "--seed", "7"),
        ("simulate", "--mu", "0.5", "--samples", "2000000", "--seed", "7"),
    ],
    ids=["verify", "simulate"],
)
def test_runs_without_scipy(argv):
    normal = run_python("-m", "maxmin_auction", *argv)
    blocked = run_python("-c", BLOCK_SCIPY, *argv)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


# the dumped mechanism is a closed form: no solver, no scipy
def test_dump_mechanism_loads_no_scipy(tmp_path):
    dump = str(tmp_path / "mech.json")
    loaded = loaded_modules("upper-bound", "--mu", "0.5", "--grid-n", "12", "--dump-mechanism", dump)
    assert loaded == set()


def test_dump_mechanism_runs_without_scipy(tmp_path):
    argv = ("upper-bound", "--mu", "0.5", "--grid-n", "25", "--dump-mechanism")
    normal = run_python("-m", "maxmin_auction", *argv, str(tmp_path / "normal.json"))
    blocked = run_python("-c", BLOCK_SCIPY, *argv, str(tmp_path / "blocked.json"))
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout
    assert (tmp_path / "blocked.json").read_bytes() == (tmp_path / "normal.json").read_bytes()


def test_mps_check_loads_no_scipy(tmp_path):
    path = tmp_path / "prior.csv"
    write_cdf_csv(path, [0.0, 0.5, 1.0], [0.25, 0.75, 1.0], [0.25, 0.5, 0.25])
    assert loaded_modules("mps-check", "--mu", "0.5", "--prior", str(path)) == set()
