"""One workload process of the benchmark.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE

The process sets up (for in-process workloads: imports ``jcpulse.cli``,
builds the request stream and runs one warm-up command), prints "ready",
and reads one line from stdin: "go" starts the measurement, anything
else exits.  One closed-loop client sends the requests: the next starts
only after the previous one has finished.  The result is printed as one
JSON line on stdout.

TRACE 0 runs whole cycles of the stream until the next cycle would end
past SECONDS, then the precision probe.  TRACE 1 replays a fixed trace
list in pairs of passes, untraced then traced, and reports the per-layer
metrics of the traced passes and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracer import Tracer, layer_metrics, scipy_import_s

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = str(Path(__file__).resolve().parent / "traced_cli.py")
OUT_DIR = ROOT / ".perfbench"
REQUEST_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 20


class Outcomes:
    """Latencies and check results of the requests one run sent."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.evals = 0
        self.failed = 0
        self.problems: list[str] = []   # failures that are not known defects

    def record(self, request, code, seconds, stdout, stderr) -> None:
        problems = checks.check(request, code, stdout, stderr)
        self.latencies_ms.append(seconds * 1e3)
        self.evals += request.evals
        if problems:
            self.failed += 1
            if not request.known_defect:
                self.problems.append(f"{' '.join(request.argv)}: {problems[0]}")


class InProcess:
    """Runs requests through ``jcpulse.cli.main`` in this process."""

    def __init__(self) -> None:
        import jcpulse.cli

        source = Path(jcpulse.cli.__file__).resolve()
        if not source.is_relative_to((ROOT / "src").resolve()):
            raise SystemExit(f"jcpulse was imported from {source}, not from {ROOT / 'src'}")
        self.cli = jcpulse.cli

    def run(self, request):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(request.argv))
            except Exception:   # an uncaught error fails the request, as it would the CLI
                traceback.print_exc()
                code = 1
        return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


class Fresh:
    """Runs each request as a fresh ``python -m jcpulse`` process."""

    def run(self, request):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "jcpulse", *request.argv],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, time.perf_counter() - start, "", "timed out"
        return proc.returncode, time.perf_counter() - start, proc.stdout, proc.stderr

    def run_traced(self, request, spans_file: Path):
        """Like ``run`` through traced_cli.py; also returns its trace record."""
        args = ["--import-only"] if request is None else list(request.argv)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", TRACED_CLI,
                                   str(spans_file), *args],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, time.perf_counter() - start, "", "timed out", None
        seconds = time.perf_counter() - start
        record = json.loads(spans_file.read_text(encoding="utf-8"))
        record["scipy_s"] = scipy_import_s(proc.stderr)
        stderr = "".join(line for line in proc.stderr.splitlines(keepends=True)
                         if not line.startswith("import time:"))
        return proc.returncode, seconds, proc.stdout, stderr, record


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


def measure(runner, cycles, seconds: float, in_process: bool) -> dict:
    outcomes = Outcomes()
    cycle_rates = []   # control evaluations per busy second, one per cycle
    start = time.perf_counter()
    for cycle in cycles:
        cycle_start = time.perf_counter()
        first = len(outcomes.latencies_ms)
        for request in cycle:
            outcomes.record(request, *runner.run(request))
        busy_s = sum(outcomes.latencies_ms[first:]) / 1e3
        cycle_rates.append(sum(r.evals for r in cycle) / busy_s)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    measured_s = time.perf_counter() - start
    rss = peak_rss_mb(in_process)

    probe_outputs = []
    for request in workloads.probe_requests():
        code, _, stdout, stderr = runner.run(request)
        problems = checks.check(request, code, stdout, stderr)
        if problems:
            outcomes.problems.append(f"probe {' '.join(request.argv)}: {problems[0]}")
        else:
            probe_outputs.append((request, stdout))
    probe = checks.probe_rel_err(probe_outputs) if len(probe_outputs) == 2 else None
    return {"latencies_ms": outcomes.latencies_ms, "evals": outcomes.evals,
            "cycle_rates": cycle_rates,
            "attempted": len(outcomes.latencies_ms), "failed": outcomes.failed,
            "problems": outcomes.problems[:MAX_REPORTED_PROBLEMS],
            "measured_s": measured_s, "peak_rss_mb": rss, "probe_rel_err": probe}


def traced_pass_in_process(runner: InProcess, requests, outcomes: Outcomes,
                           spans_file: Path):
    tracer = Tracer()
    tracer.install()
    seconds = 0.0
    try:
        for i, request in enumerate(requests):
            tracer.request = i
            code, dt, stdout, stderr = runner.run(request)
            outcomes.record(request, code, dt, stdout, stderr)
            seconds += dt
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    _, _, _, _, record = Fresh().run_traced(None, spans_file)
    metrics["cli.import_s"] = record["import_s"]
    metrics["cli.import_scipy_s"] = record["scipy_s"]
    return seconds, metrics, tracer.spans


def traced_pass_fresh(runner: Fresh, requests, outcomes: Outcomes, spans_file: Path):
    spans, import_s, scipy_s, seconds = [], 0.0, 0.0, 0.0
    for i, request in enumerate(requests):
        code, dt, stdout, stderr, record = runner.run_traced(request, spans_file)
        outcomes.record(request, code, dt, stdout, stderr)
        seconds += dt
        if record is None:
            continue
        offset = len(spans)
        for span in record["spans"]:
            span[3] = span[3] + offset if span[3] >= 0 else -1
            span[4] = i
            spans.append(span)
        import_s += record["import_s"]
        scipy_s += record["scipy_s"]
    metrics = layer_metrics(spans)
    metrics["cli.import_s"] = import_s
    metrics["cli.import_scipy_s"] = scipy_s
    return seconds, metrics, spans


def trace(runner, workload: str, cycles, seconds: float, seed: int) -> dict:
    requests = [r for cycle in itertools.islice(cycles, workloads.TRACE_CYCLES[workload])
                for r in cycle]
    in_process = isinstance(runner, InProcess)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"child-spans-{os.getpid()}.json"
    outcomes = Outcomes()
    passes, overheads, first_spans = [], [], None
    start = time.perf_counter()
    try:
        while True:
            pair_start = time.perf_counter()
            untraced = 0.0
            for request in requests:
                code, dt, stdout, stderr = runner.run(request)
                outcomes.record(request, code, dt, stdout, stderr)
                untraced += dt
            traced_pass = traced_pass_in_process if in_process else traced_pass_fresh
            traced, metrics, spans = traced_pass(runner, requests, outcomes, spans_file)
            overheads.append((traced - untraced) / untraced)
            passes.append(metrics)
            if first_spans is None:
                first_spans = spans
            now = time.perf_counter()
            if now - start + (now - pair_start) > seconds:
                break
    finally:
        spans_file.unlink(missing_ok=True)
    (OUT_DIR / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(first_spans), encoding="utf-8")
    per_layer = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    per_layer["trace_overhead_frac"] = statistics.median(overheads)
    return {"per_layer": per_layer, "passes": len(passes), "trace_requests": len(requests),
            "attempted": len(outcomes.latencies_ms), "failed": outcomes.failed,
            "problems": outcomes.problems[:MAX_REPORTED_PROBLEMS],
            "measured_s": time.perf_counter() - start}


def main(argv: list[str]) -> int:
    workload, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    in_process = workload in workloads.IN_PROCESS
    runner = InProcess() if in_process else Fresh()
    cycles = workloads.stream(workload, seed)
    if in_process:
        first = next(cycles)
        code, _, stdout, stderr = runner.run(first[0])
        warm_problems = checks.check(first[0], code, stdout, stderr)
        cycles = itertools.chain([first], cycles)
    else:
        warm_problems = []
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    if traced:
        result = trace(runner, workload, cycles, seconds, seed)
    else:
        result = measure(runner, cycles, seconds, in_process)
    result["problems"] = [f"warm-up: {p}" for p in warm_problems] + result["problems"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
