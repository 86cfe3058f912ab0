"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics, scipy_import_s  # noqa: E402


def _take(workload, seed, cycles=3):
    stream = workloads.stream(workload, seed)
    return [next(stream) for _ in range(cycles)]


def _traced(*argvs):
    import jcpulse.cli

    tracer = Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(argvs):
            tracer.request = i
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert jcpulse.cli.main(list(argv)) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_same_seed_gives_identical_command_lines():
    for workload in workloads.WORKLOADS:
        assert _take(workload, 7) == _take(workload, 7)
        assert _take(workload, 7) != _take(workload, 8)


def test_deep_sweep_blocks_send_every_control_once():
    argvs = [cycle[0].argv for cycle in _take("deep-sweep", 5, cycles=24)]
    for block in (argvs[:12], argvs[12:]):
        assert len({(a[2], a[4], a[12]) for a in block}) == 12


def test_shared_field_cycles_span_the_n_range():
    for cycle in _take("shared-field", 5, cycles=20):
        n = sorted(float(r.argv[2]) for r in cycle)
        assert 5e5 <= n[0] < 8.75e5 and 1.625e6 <= n[-1] < 2e6
        assert all(1.5e6 / 4 * 0.999 < b - a < 1.5e6 / 4 * 1.001 for a, b in zip(n, n[1:]))


def test_cli_cold_cycle_sends_every_subcommand_and_the_known_defects():
    for cycle in _take("cli-cold", 3):
        assert len(cycle) == workloads.CLI_COLD_CYCLE
        assert {r.argv[0] for r in cycle} == set(checks.COLUMNS)
        assert {"--n", "--number"} <= {r.argv[1] for r in cycle if r.argv[0] == "kraus-dump"}
        assert {r.argv for r in cycle if r.known_defect} == set(workloads.KNOWN_DEFECTS)
        assert sum(r.expect_exit == 2 for r in cycle) == 1 + len(workloads.KNOWN_DEFECTS)


def test_table2_records_eight_fields_and_eight_kraus_sets():
    metrics = layer_metrics(_traced(("table2", "--n", "1e4")).spans)
    assert metrics["fock_field.make_coherent.calls"] == 8
    assert metrics["jc_channel.build_kraus.calls"] == 8
    assert metrics["jc_channel.apply_channel.calls"] == 8
    assert metrics["fock_field.rebuild_frac"] == 7 / 8
    assert metrics["jc_channel.build_kraus.rebuild_frac"] == 6 / 8


def test_sequence_builds_three_kraus_sets_per_step():
    metrics = layer_metrics(_traced(("sequence", "--n", "1e4")).spans)
    assert metrics["pulse_sequence.run_sequence.calls"] == 2
    assert metrics["pulse_sequence.kraus_per_step"] == 3


def test_rebuilds_are_counted_within_one_request_only():
    metrics = layer_metrics(_traced(("sweep", "--n-min", "1e3", "--n-max", "1e4", "--points", "3"),
                                    ("sweep", "--n-min", "1e3", "--n-max", "1e4", "--points", "3"))
                            .spans)
    assert metrics["fock_field.make_coherent.calls"] == 6
    assert metrics["fock_field.rebuild_frac"] == 0.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import jcpulse
    from jcpulse import cli, error_metrics, fock_field, jc_channel, pulse_sequence

    original = jc_channel.build_kraus
    tracer = Tracer()
    bindings = tracer.install()
    try:
        assert bindings["jcpulse.jc_channel.build_kraus"] == 5
        assert bindings["jcpulse.fock_field.make_coherent"] == 6
        assert bindings["jcpulse.cli.build_parser"] == 1
        for module in (jcpulse, jc_channel, error_metrics, pulse_sequence, cli):
            assert module.build_kraus is not original
        assert error_metrics.make_coherent is fock_field.make_coherent
    finally:
        tracer.uninstall()
    for module in (jcpulse, jc_channel, error_metrics, pulse_sequence, cli):
        assert module.build_kraus is original


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["cli.command", 0.0, 10.0, -1, 0, None],
        ["error_metrics.error_report", 1.0, 9.0, 0, 0, None],
        ["jc_channel.apply_channel", 2.0, 5.0, 1, 0, None],
        ["jc_channel.apply_channel", 5.0, 6.0, 1, 0, None],
    ]
    metrics = layer_metrics(spans)
    assert metrics["cli.command.self_s"] == 2.0
    assert metrics["error_metrics.error_report.self_s"] == 4.0
    assert metrics["jc_channel.apply_channel.self_s"] == 4.0
    assert metrics["jc_channel.apply_channel.calls"] == 2


def test_scipy_import_time_counts_what_scipy_imports():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.f2py",
        "import time:        50 |        150 |     scipy._lib",
        "import time:        20 |        170 |   scipy.special",
        "import time:         5 |          5 |   math",
        "import time:        30 |        205 | jcpulse.fock_field",
        "import time:        40 |         40 | scipy",
    ])
    assert math.isclose(scipy_import_s(sample), 210e-6)


def _run_cli(argv):
    import jcpulse.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = jcpulse.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_checks_accept_correct_outputs():
    for argv in [("table2", "--n", "2e3", "--format", "json"),
                 ("landscape", "--n", "2e3", "--theta", "0.75"),
                 ("landscape", "--n", "2e3", "--format", "json"),
                 ("sequence", "--n", "2e3", "--start", "plus", "--mode", "quarter-pi"),
                 ("sweep", "--n-max", "3e3", "--theta0", "0.5", "--vartheta-mode", "bias-free"),
                 ("moments", "--n", "2e3"),
                 ("kraus-dump", "--n", "2e3", "--kappa", "0.0175"),
                 ("kraus-dump", "--n", "2e3", "--kappa", "0.0175", "--format", "json"),
                 ("kraus-dump", "--number", "0", "--kappa", "0.7", "--format", "json")]:
        request = workloads.Request(argv)
        assert checks.check(request, *_run_cli(argv)) == [], argv


def test_checks_reject_wrong_outputs():
    request = workloads.Request(("table2", "--n", "2e3"))
    code, out, err = _run_cli(request.argv)
    lines = out.splitlines()
    assert checks.check(request, code, "\n".join(lines[:-1]) + "\n", err)   # a row short
    assert checks.check(request, code, out.replace(lines[1].split(",")[2], "0.05"), err)
    assert checks.check(request, code, out, "warning\n")
    nan_request = workloads.Request(("sweep", "--theta0", "nan"), expect_exit=0)
    assert checks.check(nan_request, *_run_cli(nan_request.argv))
    usage = workloads.Request(("landscape", "--grid", "1"), expect_exit=2)
    assert checks.check(usage, *_run_cli(usage.argv)) == []
    assert checks.check(usage, 2, "", "Traceback (most recent call last):\n")
    assert checks.check(usage, 2, "x\n", "jcpulse: error: bad\n")


def test_probe_measures_the_half_rotation_error():
    outputs = [(r, _run_cli(r.argv)[1]) for r in workloads.probe_requests()]
    err = checks.probe_rel_err(outputs)
    assert 0.0 < err < workloads.LAW_REL_TOL


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    assert spec["paths"] == ["perfbench"]
