"""Spans around calls into jcpulse's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name it is
bound under.  ``from .x import y`` copies a binding, so
``error_metrics.build_kraus``, ``pulse_sequence.build_kraus`` and the
``cli`` and package-level aliases are wrapped as well as the defining
module's own name.  A span records its name, start, end, parent span and
request; spans stay in memory until the caller writes them out.
``layer_metrics`` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("jcpulse", "jcpulse.fock_field", "jcpulse.jc_channel", "jcpulse.error_metrics",
           "jcpulse.pulse_sequence", "jcpulse.cli")

#: Span name -> (defining module, functions recorded under that name).
LAYERS = {
    "fock_field.make_coherent": ("jcpulse.fock_field", ("make_coherent",)),
    "jc_channel.build_kraus": ("jcpulse.jc_channel", ("build_kraus",)),
    "jc_channel.apply_channel": ("jcpulse.jc_channel", ("apply_channel",)),
    "error_metrics.error_report": ("jcpulse.error_metrics", ("error_report",)),
    "error_metrics.error_rate_exact": ("jcpulse.error_metrics", ("error_rate_exact",)),
    "pulse_sequence.run_sequence": ("jcpulse.pulse_sequence", ("run_sequence",)),
    "pulse_sequence.compare_sequence_vs_single": ("jcpulse.pulse_sequence",
                                                  ("compare_sequence_vs_single",)),
    "cli.command": ("jcpulse.cli", ("cmd_sweep", "cmd_table2", "cmd_sequence", "cmd_landscape",
                                    "cmd_moments", "cmd_kraus_dump")),
    "cli.emit": ("jcpulse.cli", ("_emit",)),
}

#: Per-layer metrics: name -> (unit, better, the end-to-end metric it should
#: move and on which workload).  Times are seconds summed over one traced
#: pass of the workload's trace list.
PER_LAYER = {
    "fock_field.make_coherent.calls": ("count", "lower", "evals_per_s on deep-sweep"),
    "fock_field.make_coherent.self_s": ("s", "lower", "evals_per_s on deep-sweep"),
    "fock_field.levels": ("count", "lower",
                          "evals_per_s on deep-sweep; a log-pmf change also probe_rel_err"),
    "fock_field.rebuild_frac": ("frac", "lower", "cmd_ms_* on shared-field; ~0 on deep-sweep"),
    "jc_channel.build_kraus.calls": ("count", "lower",
                                     "evals_per_s, peak_rss_mb on deep-sweep; cmd_ms_* on shared-field"),
    "jc_channel.build_kraus.self_s": ("s", "lower",
                                      "evals_per_s, peak_rss_mb on deep-sweep; cmd_ms_* on shared-field"),
    "jc_channel.kraus_bytes": ("B", "lower", "peak_rss_mb, evals_per_s on deep-sweep"),
    "jc_channel.build_kraus.rebuild_frac": ("frac", "lower",
                                            "cmd_ms_* on shared-field; ~0 on deep-sweep"),
    "jc_channel.apply_channel.calls": ("count", "lower",
                                       "evals_per_s on deep-sweep; cmd_ms_* on shared-field; "
                                       "nothing on cli-cold"),
    "jc_channel.apply_channel.self_s": ("s", "lower",
                                        "evals_per_s on deep-sweep; cmd_ms_* on shared-field; "
                                        "nothing on cli-cold"),
    "error_metrics.error_report.calls": ("count", "lower",
                                         "evals_per_s on deep-sweep; cmd_ms_* on shared-field"),
    "error_metrics.error_report.self_s": ("s", "lower",
                                          "evals_per_s on deep-sweep; cmd_ms_* on shared-field"),
    "error_metrics.error_rate_exact.calls": ("count", "lower", "cmd_ms_* on shared-field"),
    "error_metrics.error_rate_exact.self_s": ("s", "lower", "cmd_ms_* on shared-field"),
    "pulse_sequence.run_sequence.calls": ("count", "lower", "cmd_ms_* on shared-field"),
    "pulse_sequence.run_sequence.self_s": ("s", "lower", "cmd_ms_* on shared-field"),
    "pulse_sequence.kraus_per_step": ("count", "lower", "cmd_ms_* on shared-field"),
    "pulse_sequence.compare_sequence_vs_single.calls": ("count", "lower",
                                                        "cmd_ms_* on shared-field"),
    "pulse_sequence.compare_sequence_vs_single.self_s": ("s", "lower",
                                                         "cmd_ms_* on shared-field"),
    "cli.import_s": ("s", "lower", "cmd_ms_*, setup_s on cli-cold"),
    "cli.import_scipy_s": ("s", "lower", "cmd_ms_*, setup_s on cli-cold"),
    "cli.parse_s": ("s", "lower", "cmd_ms_* on cli-cold"),
    "cli.command.self_s": ("s", "lower", "cmd_ms_* on cli-cold"),
    "cli.emit.self_s": ("s", "lower", "cmd_ms_* on cli-cold"),
    "trace_overhead_frac": ("frac", "lower", "none: the cost of tracing itself"),
}


def _field_key(field) -> tuple:
    return (field.kind, field.mean_photon_number, field.coherent_phase, field.tail_mass,
            field.n_offset, field.size)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, request, info]
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1,
                          self.request, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                spans[idx][5] = observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, name: str, fn):
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            ba = signature.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        if name == "fock_field.make_coherent":
            return lambda a, k, field: {
                "key": [float(v) for v in bound(a, k).values()], "levels": field.size}
        if name == "jc_channel.build_kraus":
            def kraus(a, k, result):
                arguments = bound(a, k)
                field = arguments["field"]
                return {"key": [*_field_key(field), arguments["pulse"].kappa_for(field)],
                        "operators": len(result)}
            return kraus
        if name == "pulse_sequence.run_sequence":
            return lambda a, k, result: {"steps": len(bound(a, k)["steps"])}
        return None

    def _replace(self, original, wrapper) -> int:
        """Rebind every module-level name bound to ``original``."""
        count = 0
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))
                    count += 1
        return count

    def install(self) -> dict[str, int]:
        """Wrap every traced function; returns the bindings wrapped per function."""
        bindings = {}
        for name, (module_name, functions) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original, self._observer(name, original))
                bindings[f"{module_name}.{fn_name}"] = self._replace(original, wrapper)

        cli = importlib.import_module("jcpulse.cli")
        build_parser = cli.build_parser
        traced_build = self._wrap("cli.parse", build_parser)

        def build_traced_parser(*args, **kwargs):
            parser = traced_build(*args, **kwargs)
            parser.parse_args = self._wrap("cli.parse", parser.parse_args)
            return parser

        bindings["jcpulse.cli.build_parser"] = self._replace(build_parser, build_traced_parser)
        return bindings

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _rebuild_frac(spans: list[list], name: str) -> float:
    """Share of calls whose key was already built within the same request.

    Calls that raised carry no key and are left out.
    """
    calls, seen = 0, set()
    for span in spans:
        if span[0] == name and span[5]:
            calls += 1
            seen.add((span[4], tuple(span[5]["key"])))
    return (calls - len(seen)) / calls if calls else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one pass's spans.

    Spans from several processes may be concatenated as long as parent
    indices point into the combined list.  Self time is a span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + (span[2] - span[1]) - child_time[i]

    def under_sequence(i: int) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == "pulse_sequence.run_sequence":
                return True
            parent = spans[parent][3]
        return False

    kraus = [i for i, s in enumerate(spans) if s[0] == "jc_channel.build_kraus"]
    steps = sum(s[5]["steps"] for s in spans if s[0] == "pulse_sequence.run_sequence" and s[5])
    metrics = {}
    for name in LAYERS:
        if name.startswith("cli."):
            continue
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["fock_field.levels"] = sum(s[5]["levels"] for s in spans
                                       if s[0] == "fock_field.make_coherent" and s[5])
    metrics["fock_field.rebuild_frac"] = _rebuild_frac(spans, "fock_field.make_coherent")
    metrics["jc_channel.kraus_bytes"] = sum(spans[i][5]["operators"] * 4 * 16
                                            for i in kraus if spans[i][5])
    metrics["jc_channel.build_kraus.rebuild_frac"] = _rebuild_frac(spans, "jc_channel.build_kraus")
    metrics["pulse_sequence.kraus_per_step"] = (
        sum(under_sequence(i) for i in kraus) / steps if steps else 0.0)
    metrics["cli.parse_s"] = self_s.get("cli.parse", 0.0)
    metrics["cli.command.self_s"] = self_s.get("cli.command", 0.0)
    metrics["cli.emit.self_s"] = self_s.get("cli.emit", 0.0)
    return {name: metrics[name] for name in PER_LAYER if name in metrics}


def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing scipy, from ``-X importtime`` output.

    Sums the cumulative time of each scipy module that no other scipy
    module imported, so what scipy pulls in (numpy.f2py, numpy.testing)
    counts too.  The output lists a module after the ones it imports,
    indented one level less, so reading it backwards gives each line's
    importers.
    """
    def is_scipy(module: str) -> bool:
        return module.split(".")[0] == "scipy"

    total_us = 0
    importers: list[str] = []
    for line in reversed(importtime_stderr.splitlines()):
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue   # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        del importers[depth:]
        if is_scipy(name) and not any(map(is_scipy, importers)):
            total_us += int(fields[1])
        importers.append(name)
    return total_us * 1e-6
