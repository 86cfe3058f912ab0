"""jcpulse benchmark: seeded command workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--trace 0`` a run reports the end-to-end metrics (END_TO_END),
with ``--trace 1`` the per-layer metrics (tracer.PER_LAYER).  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers with their
sample counts.  jcpulse runs from ``src/`` of the checkout, with one
client thread and single-threaded BLAS, so the load never exceeds two
threads.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = str(Path(__file__).resolve().parent / "worker.py")

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
READY_TIMEOUT_S = 120
RESULT_GRACE_S = 120

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "cmd_ms_p50": ("ms", "lower"),
    "cmd_ms_tail": ("ms", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "probe_rel_err": ("frac", "lower"),
    "ok_frac": ("frac", "higher"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Spawned:
    """A child process that prints "ready" once set up."""

    def __init__(self, cmd: list[str]) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - self.start
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"{cmd[1:]} did not become ready (exit {self.proc.returncode})")

    def finish(self, command: str, timeout: float) -> str:
        """Send ``command``; return stdout after "ready" once the process exits."""
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn-to-ready time of one workload process.

    In-process workloads are ready after importing jcpulse.cli, building
    the request stream and one warm-up command; cli-cold is ready once a
    fresh interpreter has imported jcpulse.cli, with no command run.
    """
    if workload in workloads.IN_PROCESS:
        cmd = [sys.executable, WORKER, workload, str(seed), "0", "0"]
    else:
        cmd = [sys.executable, "-c", "import jcpulse.cli; print('ready', flush=True)"]
    spawned = Spawned(cmd)
    spawned.finish("exit", READY_TIMEOUT_S)
    return spawned.setup_s


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spawned = Spawned([sys.executable, WORKER, workload, str(seed), str(seconds), str(trace)])
    out = spawned.finish("go", seconds + RESULT_GRACE_S)
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    # Set-ups run before and after the measurement, so their median spans
    # the whole run rather than the machine's state at its start.
    before = SETUP_REPEATS // 2
    setups = [setup_seconds(workload, seed) for _ in range(before)]
    raw = run_worker(workload, seed, seconds, 0)
    setups += [setup_seconds(workload, seed) for _ in range(SETUP_REPEATS - before)]
    latencies = raw["latencies_ms"]
    pct, tail_ms = tail(latencies)
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {
        "cmd_ms_p50": statistics.median(latencies),
        "cmd_ms_tail": tail_ms,
        "evals_per_s": statistics.median(raw["cycle_rates"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "probe_rel_err": raw["probe_rel_err"],
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "cmd_ms_p50": f"median of {attempted} commands",
        "cmd_ms_tail": f"p{pct:.1f} of {attempted} commands, 10 beyond it",
        "evals_per_s": f"median of {len(raw['cycle_rates'])} cycles; whole run: "
                       f"{raw['evals']} control evaluations in {sum(latencies) / 1e3:.3f} s busy",
        "setup_s": f"median of {SETUP_REPEATS} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "workload process" if workload in workloads.IN_PROCESS
                       else "largest jcpulse process",
        "probe_rel_err": f"max |N*P/coef - 1| at N={workloads.PROBE_N:g}, half rotations",
        "ok_frac": f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})",
    }
    summary = {"attempted": attempted, "failed": failed, "measured_s": raw["measured_s"]}
    return metrics, {"notes": notes, **summary}, raw["problems"]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    raw = run_worker(workload, seed, seconds, 1)
    notes = {name: PER_LAYER[name][2] for name in PER_LAYER}
    summary = {"attempted": raw["attempted"], "failed": raw["failed"],
               "measured_s": raw["measured_s"],
               "passes": f"{raw['passes']} traced passes of {raw['trace_requests']} requests"}
    return raw["per_layer"], {"notes": notes, **summary}, raw["problems"]


def report(workload: str, seed: int, trace: int, metrics: dict, info: dict,
           problems: list[str]) -> dict:
    units = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    extra = f", {info['passes']}" if "passes" in info else ""
    print(f"# {workload} seed={seed} trace={trace}: {info['attempted']} requests, "
          f"{info['failed']} failed, {info['measured_s']:.1f} s measured{extra}")
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {units[name]:<6} {info['notes'][name]}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    correct = not problems and all(v is not None for v in metrics.values())
    return {"correct": correct, "attempted": info["attempted"], "failed": info["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both when --workload all, else 0)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jcpulse" / "__init__.py").is_file():
        print(f"perfbench: no jcpulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))

    results = {}
    for name in names:
        for trace in traces:
            measure = per_layer if trace else end_to_end
            try:
                metrics, info, problems = measure(name, args.seed, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                print(f"perfbench: {name} trace={trace} failed: {exc}", file=sys.stderr)
                return 1
            results[f"{name}/trace{trace}"] = report(name, args.seed, trace, metrics, info,
                                                     problems)
    final = results.popitem()[1] if len(results) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
