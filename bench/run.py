#!/usr/bin/env python3
"""Benchmark of the socicnn library: one closed-loop workload per run.

    python3 bench/run.py --workload {certify,fit,decide} --seed N --seconds S --trace {0,1}

Run from any directory; the library is imported from ``src/`` next to this
directory, with one worker, the BLAS thread count pinned to 1 and
``SOCICNN_THREADS`` unset.  Every item is timed through the library's public
functions and checked by its workload's gate.  Times are scaled to reference
speed with the kernel of ``reference.py``, run between items; the detail line
also gives them unscaled.  Standard output ends with two JSON lines: a detail
line (environment, tail percentile, per-class medians, wall times, failed
fraction and the workload's result metrics), then the result line with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the run measures half its time untraced, repeats the same items
with every public function wrapped, reports the per-layer metrics of
BENCHMARK.json per item, and writes the spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# set-up is measured in this many fresh interpreters plus the run's own
SETUP_PROBES = 4
# reference-kernel runs that scale one set-up time
SETUP_SCALE_SAMPLES = 5
# the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
# fit and decide hold their slowest class twice in a round, so eight rounds
# put sixteen samples of that class in a run and the tail, with ten beyond it,
# falls well inside that class on every run instead of on its edge.  Only
# decide, whose rounds take several seconds, runs longer than --seconds for it;
# certify's rounds are short enough that --seconds gives it over a hundred.
MIN_ROUNDS = 8
# failed items listed in the detail line
MAX_REPORTED_FAILURES = 5


class ItemTimeout(BaseException):
    """Raised into an item that runs past its workload's time limit; a
    BaseException, so that no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout


class Record(NamedTuple):
    index: int
    cls: str
    seconds: float  # wall time of the library call, less kernel sampling
    failures: Tuple[str, ...]
    observed: Optional[dict]
    scale: float = 1.0  # reference seconds per wall second next to the item

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "fit", "decide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Serial run: one BLAS thread, set before numpy loads, and no sweep pool."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SOCICNN_THREADS", None)


def timed_setup(workload: str, seed: int):
    """Import the library and build the workload's fixed inputs.  Returns the
    workload, the wall seconds it took and those seconds at reference speed."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import socicnn
    import workloads

    if not Path(socicnn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"socicnn was imported from {socicnn.__file__}, not from src/")
    built = workloads.WORKLOADS[workload](seed)
    wall = time.perf_counter() - start
    import reference

    return built, wall, wall * reference.scale_now(SETUP_SCALE_SAMPLES)


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "SOCICNN_THREADS": os.environ.get("SOCICNN_THREADS"),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def run_item(workload, index: int, tracer=None, speed=None) -> Record:
    """Time one item's library call, then gate its result outside the timer.
    With a Speedometer the record carries the item's reference scale, and the
    time spent sampling the kernel inside the item is not counted."""
    cls = workload.classes[index % workload.round_size]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if speed is not None:
        speed.start()
    signal.setitimer(signal.ITIMER_REAL, workload.timeout_s)
    if tracer is not None:
        tracer.begin_item(index)
    start = time.perf_counter()
    try:
        try:
            result = workload.call(index)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if speed is not None:
                speed.pause()
        error = None
    except ItemTimeout:
        result, error = None, f"stopped after the {workload.timeout_s:g} s item limit"
    except Exception as exc:  # a raising item counts as failed; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
        if speed is not None:
            speed.pause()  # again, in case the item limit struck inside the first finally
    end = time.perf_counter()
    seconds = end - start
    if tracer is not None:
        tracer.end_item(start, end)
    scale = 1.0
    if speed is not None:
        scale, stolen = speed.finish()
        seconds -= stolen
    if error is not None:
        return Record(index, cls, seconds, (error,), None, scale)
    try:
        failures = tuple(workload.gate(index, result))
        return Record(index, cls, seconds, failures, workload.observe(result), scale)
    except Exception as exc:  # a result the gate cannot read is a wrong result
        return Record(index, cls, seconds, (f"gate raised {type(exc).__name__}: {exc}",), None, scale)


def run_rounds(workload, seconds: float = 0.0, min_rounds: int = 1, rounds: Optional[int] = None,
               tracer=None) -> List[Record]:
    """Whole rounds from item 0: exactly ``rounds`` of them when given, else
    until ``seconds`` have passed and at least ``min_rounds`` are done."""
    from reference import Speedometer

    records: List[Record] = []
    speed = Speedometer()
    start = time.perf_counter()
    done = 0
    while True:
        for _ in range(workload.round_size):
            records.append(run_item(workload, len(records), tracer, speed))
        done += 1
        if rounds is not None:
            if done >= rounds:
                return records
        elif done >= min_rounds and time.perf_counter() - start >= seconds:
            return records


def throughput(records: List[Record], scaled: bool = True) -> float:
    """Items that passed the gate per second of timed time."""
    passed = sum(1 for r in records if not r.failures)
    return passed / sum(r.ref_seconds if scaled else r.seconds for r in records)


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timings(records: List[Record], scaled: bool = True) -> dict:
    """Throughput and latencies at reference speed (or in wall time), plus
    the tail's percentile and sample count and the median of every class."""
    passed = [r for r in records if not r.failures]
    latencies = [r.ref_seconds if scaled else r.seconds for r in passed]
    out = {
        "throughput_per_s": throughput(records, scaled),
        "latency_p50_ms": None,
        "latency_tail_ms": None,
        "tail": {"percentile": None, "samples_beyond": 0, "samples": len(latencies)},
        "latency_p50_ms_by_class": {},
    }
    if latencies:
        value, percentile, beyond = tail(latencies)
        out["latency_p50_ms"] = statistics.median(latencies) * 1e3
        out["latency_tail_ms"] = value * 1e3
        out["tail"].update(percentile=percentile, samples_beyond=beyond)
        for cls in dict.fromkeys(r.cls for r in passed):
            out["latency_p50_ms_by_class"][cls] = 1e3 * statistics.median(
                lat for r, lat in zip(passed, latencies) if r.cls == cls
            )
    return out


def per_layer(names: List[str], tracer, records: List[Record], overhead: float) -> dict:
    """Per-item value of each per-layer metric, times at reference speed;
    None when a wrapped function no longer exists in the library."""
    totals = tracer.totals({r.index: r.scale for r in records})
    n_items = len(records)
    values = {}
    for name in names:
        if name == "trace_overhead_frac":
            values[name] = overhead
            continue
        if name == "training.adam_steps":
            needed = ("gradients.parameter_gradients", "training.train")
            count = tracer.child_count(*needed)
        else:
            key, stat = name.rsplit(".", 1)
            needed = (".".join(key.split(".")[:2]),)
            count = totals.get(key, {}).get(stat, 0.0)
        values[name] = None if any(n in tracer.missing for n in needed) else count / n_items
    return values


def quality(workload, records: List[Record]) -> dict:
    observed = [r.observed for r in records if r.observed is not None]
    out = {"failed_frac": {"value": sum(1 for r in records if r.failures) / len(records), "unit": "1"}}
    if observed:
        out.update({k: {"value": v, "unit": u} for k, (v, u) in workload.summarize(observed).items()})
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "socicnn" / "__init__.py").is_file():
        print("error: the library source src/socicnn is missing beside bench/", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    pin_environment()

    if args.setup_probe:
        _, wall, scaled = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": scaled, "wall_s": wall}))
        return 0

    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload, wall, scaled = timed_setup(args.workload, args.seed)
    setup.append({"setup_s": scaled, "wall_s": wall})
    run_item(workload, 0)  # warm-up: first-call costs in numpy are not per-item work

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples": setup,
    }
    if args.trace == 0:
        records = run_rounds(workload, args.seconds, MIN_ROUNDS)
        values = timings(records)
        values.update(peak_rss_mb=peak_rss_mb(), setup_s=statistics.median(s["setup_s"] for s in setup))
        detail["latency_tail_ms"] = values["tail"]
        detail["latency_p50_ms_by_class"] = values["latency_p50_ms_by_class"]
        detail["wall"] = {k: v for k, v in timings(records, scaled=False).items() if k != "tail"}
        detail["wall"]["setup_s"] = statistics.median(s["wall_s"] for s in setup)
        detail["reference_scale_median"] = statistics.median(r.scale for r in records)
        metric_specs = spec["end_to_end"]
    else:
        from tracing import Tracer

        untraced = run_rounds(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, rounds=len(untraced) // workload.round_size, tracer=tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        overhead = 1.0 - throughput(traced) / throughput(untraced)
        values = per_layer([m["name"] for m in spec["per_layer"]], tracer, traced, overhead)
        detail["missing_layers"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"detail": detail, "trace": tracer.to_json()}, fh)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        metric_specs = spec["per_layer"]

    failed = [r for r in records if r.failures]
    detail["rounds"] = len(records) // workload.round_size
    detail["classes"] = {c: sum(1 for r in records if r.cls == c) for c in dict.fromkeys(workload.classes)}
    detail["quality"] = quality(workload, records)
    detail["failures"] = [{"item": r.index, "class": r.cls, "why": list(r.failures)}
                          for r in failed[:MAX_REPORTED_FAILURES]]
    for entry in detail["failures"]:
        print(f"item {entry['item']} ({entry['class']}) failed: {'; '.join(entry['why'])}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
