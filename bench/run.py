"""Benchmark of the chipsplit exhaustive computations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` of that checkout.  Every sample is one ``chipsplit`` command in
a fresh interpreter (``bench/child.py``), one at a time (a closed loop
with one client), with ``CHIPSPLIT_CACHE_DIR`` pointing at an empty
directory so that no cached census cell can serve a result.  Samples
are taken until S seconds have passed, at least one.  Every sample's
output is checked against the committed reference artifacts
(``bench/workloads.py``).

The workloads are fixed exhaustive instances taken from the paper's
claims; sampling a subset of degrees or cells would make the verdicts
non-exhaustive, so the seed is recorded but changes no input.

The harness and every process it spawns are pinned to one vCPU, and a
speed probe (``SpeedProbe``) measures that vCPU's speed while each
process runs.  Every time the benchmark reports is the measured time
scaled to the probe's reference speed, so that the shared host's speed
phases (up to 1.5x) cancel out; the raw times are in the context line.

With ``--trace 0`` the result holds the end-to-end metrics: the median
wall time of a sample, the median set-up time (interpreter start until
``chipsplit.cli`` is imported, over several import-only processes) and
the median peak resident memory of a sample.  With ``--trace 1`` each
round runs one untraced and one traced sample, and the result holds the
per-layer metrics read from the traced sample's spans.  The last line
of standard output is the result object; the line before it holds the
machine and noise context (CPU, versions, load averages, every sample).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import REFERENCES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

# Import-only processes timed before and again after the samples, so
# that the median of setup_s spans the machine's slow and fast spells.
SETUP_SAMPLES = 4
# A run must end within 180 s: stop starting samples after 150 s, and
# kill a sample still running 165 s into the run.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 165.0

SPAN_LAYERS = (
    "enumeration.sign_survivor_search",
    "hyperfield.hyperfield_excludes",
    "hyperfield.gamma_set",
    "criteria.invertibility_excludes",
    "linalg.det",
    "linalg.kernel_basis",
    "linalg.poly_det",
    "pascal.outcome_space",
    "models.fundamentality",
    "pipeline.invertibility_eliminates",
    "pipeline.symmetry_eliminates",
    "pipeline.hexagon_eliminates",
    "pipeline.special_eliminates",
)
# Metric label -> counter in the census report's stats.totals.
CENSUS_STAGES = {"signs": "signs", "invertibility": "invertibility", "kernel": "kernel", "found": "fundamental"}
# Fields of a span record written by bench/child.py.
CALLS, TOTAL_S, SELF_S = 0, 1, 2

# The speed probe: a fixed burst of interpreter work, timed in the
# harness's thread CPU time on the vCPU that runs the sample.  Its
# duration at the reference speed (near the fast phase of a 2-vCPU Xeon
# VM) sets the scale of the normalised times.
PROBE_REFERENCE_S = 0.0005
PROBE_INTERVAL_S = 0.05
PROBE_BRACKET = 20


def machine_context() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def probe_burst() -> float:
    """Time one fixed burst of pure-Python work in this thread's CPU time."""
    start = time.thread_time()
    total, table = 0, {}
    for i in range(4000):
        total += i * i % 7
        table[i & 63] = total
    return time.thread_time() - start


class SpeedProbe:
    """Track the speed of the vCPU that runs a sample, while it runs.

    The vCPUs of a shared host run at speeds up to 1.5x apart, in phases
    of seconds to minutes, and CPU time follows wall time.  Harness and
    sample are pinned to one vCPU; a probe thread runs a short burst every
    ``PROBE_INTERVAL_S`` (about 1% of the vCPU) and bursts bracket the
    sample.  ``factor`` is the mean speed over the sample, relative to the
    reference speed; a time times ``factor`` is that time at the reference
    speed.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.speeds.append(PROBE_REFERENCE_S / max(probe_burst(), 1e-9))

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._sample(PROBE_BRACKET)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample(PROBE_BRACKET)

    def factor(self) -> float:
        # Mean speed, without the 5% fastest and slowest bursts (a burst
        # hit by an interrupt or a cold cache).
        speeds = sorted(self.speeds)
        cut = len(speeds) // 20
        return statistics.fmean(speeds[cut : len(speeds) - cut])


def pin_to_one_cpu() -> int:
    """Pin this process, and so every sample it spawns, to one vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def spawn(self, cli_args: list[str], trace: bool, timeout: float) -> dict:
        """Run one fresh interpreter; return its timings, exit code and output."""
        self.count += 1
        tag = f"{self.count:03d}"
        cache = self.work / f"cache-{tag}"
        tmp = self.work / f"tmp-{tag}"
        cache.mkdir()
        tmp.mkdir()
        report_path = self.work / f"report-{tag}.json"
        stdout_path = self.work / f"stdout-{tag}"
        stderr_path = self.work / f"stderr-{tag}"
        # A fixed hash seed keeps the iteration order of sets of strings
        # (such as the pipeline's symbolic variables) the same in every sample.
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            CHIPSPLIT_CACHE_DIR=str(cache),
            TMPDIR=str(tmp),
        )
        command = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0", *cli_args]
        load_before = os.getloadavg()
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err, SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        factor = probe.factor()
        sample = {
            "trace": trace,
            "exit_code": code,
            "raw_wall_s": end - start,
            "speed": factor,
            "wall_s": (end - start) * factor,
            "load_before": load_before,
            "load_after": os.getloadavg(),
            "stdout": stdout_path.read_bytes(),
            "stderr": stderr_path.read_text(errors="replace")[-2000:],
        }
        if report_path.exists():
            report = json.loads(report_path.read_text())
            sample["report"] = report
            sample["raw_setup_s"] = report["imported"] - start
            sample["setup_s"] = sample["raw_setup_s"] * factor
        for path in (stdout_path, stderr_path, report_path):
            path.unlink(missing_ok=True)
        shutil.rmtree(cache)
        shutil.rmtree(tmp)
        return sample


def import_only(runner: Runner) -> dict:
    """Spawn a process that only imports ``chipsplit.cli``; return its sample."""
    sample = runner.spawn([], trace=False, timeout=60.0)
    if sample["exit_code"] != 0 or "report" not in sample:
        raise RuntimeError(f"chipsplit.cli does not import: {sample['stderr']}")
    return sample


def check_sample(name: str, sample: dict) -> list[str]:
    if sample["exit_code"] != 0:
        return [f"exit code {sample['exit_code']}: {sample['stderr']}"]
    if "report" not in sample:
        return ["the sample wrote no report"]
    try:
        return WORKLOADS[name][1](sample["stdout"], ROOT)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    reports = [s["report"] for s in traced]
    first = reports[0]
    # Times are scaled, like wall_s, by each traced sample's speed factor.
    speeds = [s["speed"] for s in traced]
    counts = first["counts"]

    def span(report, name, field):
        return report["spans"].get(name, [0, 0.0, 0.0])[field]

    def median_time(name, field=SELF_S):
        return statistics.median(span(r, name, field) * f for r, f in zip(reports, speeds))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = metric(span(first, name, CALLS), "count")
        out[f"{name}.self_s"] = metric(median_time(name), "s")
    out["pipeline.relset_pipeline.calls"] = metric(span(first, "pipeline.relset_pipeline", CALLS), "count")
    out["hyperfield.lambda_set.self_s"] = metric(median_time("hyperfield.lambda_set"), "s")
    nodes = counts.get("enumeration.search_nodes", 0)
    out["enumeration.search_nodes"] = metric(nodes, "count")
    out["enumeration.search_nodes_per_s"] = metric(
        statistics.median(
            ratio(nodes, span(r, "enumeration.sign_survivor_search", TOTAL_S) * f) for r, f in zip(reports, speeds)
        ),
        "1/s",
    )
    out["enumeration.sign_survivors"] = metric(counts.get("enumeration.sign_survivors", 0), "count")
    for name in ("hyperfield.hyperfield_excludes", "criteria.invertibility_excludes"):
        out[f"{name}.excluded_ratio"] = metric(ratio(counts.get(f"{name}.excluded", 0), span(first, name, CALLS)), "ratio")

    totals = json.loads(traced[0]["stdout"]).get("stats", {}).get("totals", {})
    candidates = totals.get("candidates", 0)
    out["enumeration.census.candidates"] = metric(candidates, "count")
    for label, key in CENSUS_STAGES.items():
        out[f"enumeration.census.{label}_ratio"] = metric(ratio(totals.get(key, 0), candidates), "ratio")

    out["grid.ChipConfiguration.count"] = metric(counts.get("grid.ChipConfiguration.count", 0), "count")
    out["cli.entry_s"] = metric(median_time("cli.entry", TOTAL_S), "s")
    out["cli.output_s"] = metric(
        statistics.median((r["finished"] - r["entry_end"]) * f for r, f in zip(reports, speeds)), "s"
    )
    out["trace.coverage_ratio"] = metric(
        statistics.median(
            ratio(sum(v[SELF_S] for k, v in r["spans"].items() if k != "cli.entry"), span(r, "cli.entry", TOTAL_S))
            for r in reports
        ),
        "ratio",
    )
    out["trace.overhead_ratio"] = metric(
        statistics.median(s["wall_s"] for s in traced) / statistics.median(s["wall_s"] for s in untraced),
        "ratio",
    )
    return out


def run(args) -> int:
    missing = [p for p in ("src/chipsplit/cli.py", *REFERENCES) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    cli_args = WORKLOADS[args.workload][0]
    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cpu = pin_to_one_cpu()
        runner = Runner(work)
        began = time.perf_counter()
        # The first import compiles the bytecode, so it is not timed.
        first = import_only(runner)["report"]
        source = Path(first["chipsplit_file"]).resolve()
        if ROOT / "src" not in source.parents:
            raise RuntimeError(f"imported chipsplit from {source}, not from this checkout")
        setups = [import_only(runner) for _ in range(SETUP_SAMPLES)]
        untraced, traced, failures = [], [], []
        measuring = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            batch = [runner.spawn(cli_args, trace=False, timeout=RUN_LIMIT_S - (round_start - began))]
            untraced.append(batch[0])
            if args.trace:
                timeout = RUN_LIMIT_S - (time.perf_counter() - began)
                batch.append(runner.spawn(cli_args, trace=True, timeout=timeout))
                traced.append(batch[-1])
            for sample in batch:
                problems = check_sample(args.workload, sample)
                sample["correct"] = not problems
                if problems:
                    failures.append(problems)
            now = time.perf_counter()
            if now - measuring >= args.seconds or now - began + 1.5 * (now - round_start) > RUN_BUDGET_S:
                break
        setups += [import_only(runner) for _ in range(SETUP_SAMPLES)]
        samples = untraced + traced
        failed = sum(not s["correct"] for s in samples)
        context = dict(
            machine_context(),
            numpy=first["numpy"],
            workload=args.workload,
            command=["chipsplit", *cli_args],
            seed=args.seed,
            seed_note="fixed exhaustive instance: the seed changes no input",
            cpu=cpu,
            setup_samples=[{k: s[k] for k in ("raw_setup_s", "speed", "setup_s")} for s in setups],
            samples=[
                {
                    k: s.get(k)
                    for k in ("trace", "exit_code", "raw_wall_s", "speed", "wall_s", "load_before", "load_after", "correct")
                }
                for s in samples
            ],
            failures=failures,
        )
        print(json.dumps({"context": context}))
        if args.trace:
            good = [s for s in traced if s["correct"]]
            if not good:
                raise RuntimeError("no traced sample completed correctly")
            metrics = layer_metrics(good, untraced)
        else:
            rss = [s["report"]["max_rss_kb"] / 1024 for s in untraced if "report" in s]
            if not rss:
                raise RuntimeError("no sample completed")
            metrics = {
                "wall_s": metric(statistics.median(s["wall_s"] for s in untraced), "s"),
                "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
                "peak_rss_mb": metric(statistics.median(rss), "MB"),
            }
        print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        return run(parser.parse_args())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
