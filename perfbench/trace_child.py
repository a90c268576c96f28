"""Run one CLI command in-process with the package's public functions traced.

    PYTHONPATH=src python perfbench/trace_child.py SPANS_JSON OP_ID -- ARGV...

Imports ``maxmin_auction`` (the import is itself a span), wraps every
function in ``TRACED`` at every module attribute that binds it -- names
brought in with ``from .x import f`` are separate bindings and each one is
replaced -- and calls ``cli.main(ARGV)``.  Stdout and the exit status are the
CLI's own.  Spans stay in memory and are written to SPANS_JSON once, when the
command ends, as ``[span_id, parent_id, op_id, name, start, end, error,
counts]`` rows.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf_counter = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    """Element count of an array, sequence or scalar, without importing numpy
    before the import span is taken."""
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _points(index, name):
    """Count the elements of the array argument at ``index``/``name``."""

    def count(args, kwargs, counts):
        counts["points"] = _size(_arg(args, kwargs, index, name))
        return args, kwargs

    return count


def _simpson_f_evals(args, kwargs, counts):
    f = _arg(args, kwargs, 0, "f")
    counts["f_evals"] = 0

    def counted(t):
        counts["f_evals"] += 1
        return f(t)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def _simpson_panels(args, kwargs, counts):
    counts["panels"] = _size(_arg(args, kwargs, 1, "edges")) - 1
    return args, kwargs


def _mc_samples(args, kwargs, counts):
    counts["samples"] = int(_arg(args, kwargs, 2, "n_samples"))
    return args, kwargs


def _grid_points(args, kwargs, counts):
    counts["grid_points"] = int(args[2] if len(args) > 2 else kwargs.get("K", 500))
    return args, kwargs


def _csv_rows_written(args, kwargs, counts):
    counts["rows"] = _size(_arg(args, kwargs, 1, "x"))
    return args, kwargs


def _linprog_size(args, kwargs, counts):
    mats = [kwargs.get(k) for k in ("A_ub", "A_eq")]
    counts["rows"] = sum(int(m.shape[0]) for m in mats if m is not None)
    counts["nnz"] = sum(int(m.nnz) for m in mats if m is not None)
    return args, kwargs


def _csv_rows_read(result, counts):
    counts["rows"] = int(result.knots.size)


def _linprog_nit(result, counts):
    counts["nit"] = int(result.nit)


# module -> {function (Class.method for methods): (argument counter, result counter)}
TRACED = {
    "constants": {
        "solve_a": (None, None),
        "reserve_cdf": (_points(1, "x"), None),
        "reserve_pdf": (_points(1, "x"), None),
        "reserve_cdf_integral": (_points(1, "x"), None),
        "signal_quantile": (_points(1, "u"), None),
    },
    "quadrature": {
        "adaptive_simpson": (_simpson_f_evals, None),
        "composite_simpson": (_simpson_panels, None),
    },
    "functional": {
        "revenue_functional": (None, None),
        "check_ode": (None, None),
    },
    "mechanism": {
        "mc_revenue": (_mc_samples, None),
        "uniform_pairs": (None, None),
        "outcome": (None, None),
        "dominated_equilibrium_revenue": (None, None),
    },
    "distributions": {
        "PiecewiseCdf.quantile": (_points(1, "u"), None),
        "PiecewiseCdf.cdf": (_points(1, "x"), None),
        "write_cdf_csv": (_csv_rows_written, None),
        "read_cdf_csv": (None, _csv_rows_read),
    },
    "adversary": {
        "minimize_revenue": (_grid_points, None),
        "pav_nondecreasing": (_points(0, "y"), None),
        "verify_pointwise_saddle": (None, None),
        "check_p1_p2": (None, None),
    },
    "upper_bound": {
        "lp_max_revenue": (None, None),
        "linprog": (_linprog_size, _linprog_nit),
    },
    "extensions": {"mps_check": (None, None)},
    "cli": {
        "run_verification": (None, None),
        "dump_json": (None, None),
    },
}

class Tracer:
    """In-memory spans of one operation, nested through a stack of open ids."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([len(self.spans), parent, self.op_id, name, start, end, 0, {}])

    def wrap(self, name, fn, count_args, count_result):
        spans, stack, op_id = self.spans, self.stack, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            counts: dict = {}
            rec = [span_id, stack[-1] if stack else -1, op_id, name, 0.0, 0.0, 0, counts]
            spans.append(rec)
            if count_args is not None:
                args, kwargs = count_args(args, kwargs, counts)
            stack.append(span_id)
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = 1
                raise
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if count_result is not None:
                count_result(result, counts)
            return result

        return traced

    def install(self, package) -> None:
        """Replace every binding of each traced function in every loaded module
        of the package."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        for mod_name, functions in TRACED.items():
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            for qual, (count_args, count_result) in functions.items():
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), count_args, count_result))
                    continue
                original = getattr(home, qual)
                wrapped = self.wrap(name, original, count_args, count_result)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON OP_ID -- ARGV...")
    tracer = Tracer(int(op_id))
    start = perf_counter()
    import maxmin_auction
    from maxmin_auction import cli  # what ``python -m maxmin_auction`` imports

    tracer.record("import", start, perf_counter())
    tracer.install(maxmin_auction)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
