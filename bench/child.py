"""One benchmark sample, run in a fresh interpreter by ``bench/run.py``.

    python3 bench/child.py REPORT_FILE TRACE [CLI ARGS...]

Imports ``chipsplit.cli``, records when the import finished, and, when
CLI ARGS are given, runs the command exactly as the ``chipsplit``
console script would, with its standard output going wherever the
parent pointed it.  REPORT_FILE receives one JSON object with the
timestamps (``time.perf_counter``, a system-wide monotonic clock on
Linux, so the parent can subtract its own spawn time), the exit code,
the peak resident memory and, when TRACE is 1, the aggregated spans of every wrapped layer.

Tracing wraps library functions at the module attribute their callers
look up, so the library itself is not modified.  Spans are aggregated
in memory per name as ``[calls, inclusive seconds, self seconds]`` and
written once at exit; self time is a span's duration minus the time of the wrapped
spans it contains.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._children: list[float] = []
        self.entry_end: float | None = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), on_result))

    def install(self) -> None:
        from chipsplit import cli, criteria, enumeration, grid, hyperfield, models, pascal, pipeline

        def search_done(result):
            survivors, nodes = result
            self.count("enumeration.search_nodes", nodes)
            self.count("enumeration.sign_survivors", len(survivors))

        def excluded(name):
            return lambda verdict: self.count(name, int(verdict.excluded))

        self.patch(enumeration, "sign_survivor_search", "enumeration.sign_survivor_search", search_done)
        self.patch(enumeration, "hyperfield_excludes", "hyperfield.hyperfield_excludes",
                   excluded("hyperfield.hyperfield_excludes.excluded"))
        self.patch(enumeration, "invertibility_excludes", "criteria.invertibility_excludes",
                   excluded("criteria.invertibility_excludes.excluded"))
        self.patch(enumeration, "fundamentality", "models.fundamentality")
        # Both call sites of outcome_space share one wrapper, so one span name.
        space = self.wrap("pascal.outcome_space", pascal.outcome_space)
        enumeration.outcome_space = space
        models.outcome_space = space
        self.patch(criteria, "det", "linalg.det")
        self.patch(pascal, "kernel_basis", "linalg.kernel_basis")
        self.patch(hyperfield, "gamma_set", "hyperfield.gamma_set")
        self.patch(pipeline, "lambda_set", "hyperfield.lambda_set")
        self.patch(pipeline, "poly_det", "linalg.poly_det")
        for stage in ("invertibility", "symmetry", "hexagon", "special"):
            self.patch(pipeline, f"{stage}_eliminates", f"pipeline.{stage}_eliminates")
        self.patch(pipeline, "relset_pipeline", "pipeline.relset_pipeline")

        def entry_done(_result):
            self.entry_end = time.perf_counter()

        for attr in ("enumerate_fundamental", "sweep_no_valid_outcomes", "pipeline_summary"):
            self.patch(cli, attr, "cli.entry", entry_done)

        config_init = grid.ChipConfiguration.__init__

        @functools.wraps(config_init)
        def counted_init(obj, *args, **kwargs):
            self.counts["grid.ChipConfiguration.count"] += 1
            config_init(obj, *args, **kwargs)

        self.counts["grid.ChipConfiguration.count"] = 0
        grid.ChipConfiguration.__init__ = counted_init


def main(argv: list[str]) -> int:
    report_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    import chipsplit
    import chipsplit.cli
    import numpy

    report = {
        "imported": time.perf_counter(),
        "chipsplit_file": chipsplit.__file__,
        "numpy": numpy.__version__,
    }
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    code = 0
    if cli_args:
        try:
            chipsplit.cli.main.main(args=cli_args, prog_name="chipsplit")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        sys.stdout.flush()
        report["finished"] = time.perf_counter()
    report["exit_code"] = code
    report["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["entry_end"] = tracer.entry_end
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
