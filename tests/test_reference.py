"""The library against the dense Hamiltonian reference (tests/reference.py).

The library's fields are built at tail_tol=1e-16, so both sides hold the
same field to rounding.  The bounds are about three times the worst
deviation seen over these cases, and are set by the reference: its expm is
unitary only to about 6e-14 at N = 100 (its own completeness residual),
while the library's residual there is about 1e-16.
"""

import functools
import math

import numpy as np
import pytest

import reference as ref
from jcpulse import (
    ControlSpec,
    PulseSpec,
    QubitState,
    apply_channel,
    build_kraus,
    error_report,
    make_coherent,
    make_number_state,
    resolve_pulse,
    run_sequence,
)

PI = math.pi
TAIL_TOL = 1e-16
P_REL = 5e-12  # relative, on each error
RHO_ABS = 2e-13  # absolute, on each entry of a state and on the residual

CONTROLS = ((0.0, PI / 4), (PI / 2, PI / 4), (PI / 4, PI / 2), (0.3, 0.7), (3 * PI / 4, -0.4))

# (field, half pulse area or kappa): coherent fields at three phases, and number states.
COHERENT = [pytest.param(("coherent", n_mean, phase), area,
                         id=f"N{n_mean:g}-phi{phase:.3g}-{area:.3g}")
            for n_mean, area in ((4.0, PI / 4), (4.0, 0.37 * PI), (25.0, PI / 4),
                                 (25.0, 0.37 * PI), (100.0, PI / 4))
            for phase in (0.0, PI / 2, 0.37 * PI)]
NUMBER = [pytest.param(("number", m, 0.0), kappa, id=f"m{m}-kappa{kappa:.3g}")
          for m, kappa in ((0, 0.7), (5, 0.3), (16, PI / 16))]
CASES = COHERENT + NUMBER


@functools.cache
def both_sides(spec, area):
    """(library KrausSet, reference Kraus operators) of one field and pulse."""
    kind, size, phase = spec
    if kind == "coherent":
        field = make_coherent(size, phase=phase, tail_tol=TAIL_TOL)
        pulse = PulseSpec.from_vartheta(area, size)
        amplitudes = ref.coherent_amplitudes(size, phase, ref.levels(size))
    else:
        field = make_number_state(size)
        pulse = PulseSpec.from_kappa(area, size)
        amplitudes = ref.number_amplitudes(size, size + 30)
    return build_kraus(field, pulse), ref.kraus_operators(amplitudes, pulse.kappa)


def twins(controls):
    """Each control's twin ControlSpec(theta0, -theta0): its target is |0>, so
    its error is the population left on |1>."""
    return tuple(ControlSpec(theta0, -theta0) for theta0, _ in controls)


@pytest.mark.parametrize("spec,area", CASES)
def test_error_report_matches_dense(spec, area):
    kraus, ops = both_sides(spec, area)
    errors = error_report(tuple(ControlSpec(*control) for control in CONTROLS), kraus)
    excited = error_report(twins(CONTROLS), kraus)
    for (theta0, theta), error_exact, population in zip(CONTROLS, errors, excited):
        out = ref.channel(ops, ref.pure(theta0))
        error = ref.population(out, theta0 + theta + PI / 2)
        assert error_exact == pytest.approx(error, rel=P_REL, abs=0.0)
        delta = abs(out[0, 0].real - math.sin(theta0 + theta) ** 2)
        assert abs(population - math.sin(theta0 + theta) ** 2) == pytest.approx(
            delta, rel=0.0, abs=RHO_ABS)


@pytest.mark.parametrize("spec,area", CASES)
def test_twin_error_is_the_excited_population(spec, area):
    kraus, ops = both_sides(spec, area)
    for (theta0, _), population in zip(CONTROLS, error_report(twins(CONTROLS), kraus)):
        out = ref.channel(ops, ref.pure(theta0))
        assert population == pytest.approx(out[0, 0].real, rel=0.0, abs=RHO_ABS)


@pytest.mark.parametrize("spec,area", CASES)
def test_apply_channel_matches_dense(spec, area):
    kraus, ops = both_sides(spec, area)
    rng = np.random.default_rng(5)
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        out = apply_channel(QubitState(rho=rho), kraus).rho
        assert np.max(np.abs(out - ref.channel(ops, rho))) <= RHO_ABS


@pytest.mark.parametrize("spec,area", CASES)
def test_completeness_residual_matches_dense(spec, area):
    kraus, ops = both_sides(spec, area)
    assert kraus.completeness_residual() == pytest.approx(
        ref.completeness_residual(ops), rel=0.0, abs=RHO_ABS)


@pytest.mark.parametrize("n_mean,mode", [(25.0, "bias-free"), (25.0, "optimal-fidelity"),
                                         (100.0, "quarter-pi")])
@pytest.mark.parametrize("start", [0.0, PI / 4, PI / 2, 3 * PI / 4],
                         ids=["ground", "plus", "excited", "threequarter"])
def test_run_sequence_matches_dense(start, n_mean, mode):
    """Two dense pulses, a fresh copy of the field for each, from the same start.

    The mixture is composed from dense single-pulse errors: the faithful
    branch starts on R(a)|0> and errs into R(a + theta)|1>, the leaked one
    starts on R(a)|1> and ends on R(a + theta)|0>.
    """
    report = run_sequence(start, [PI / 4] * 2, make_coherent(n_mean, tail_tol=TAIL_TOL), mode)
    amplitudes = ref.coherent_amplitudes(n_mean, PI / 2, ref.levels(n_mean))
    rho, angle, mixture = ref.pure(start), start, 0.0
    for step in range(2):
        # The pulse is the run's input; resolve_pulse only picks its area.
        pulse = resolve_pulse(mode, n_mean, base=PI / 4, start_angle=angle)
        ops = ref.kraus_operators(amplitudes, pulse.kappa)
        target = angle + PI / 4
        rho = ref.channel(ops, rho)
        p_follow = ref.population(ref.channel(ops, ref.pure(angle)), target + PI / 2)
        p_leaked = ref.population(ref.channel(ops, ref.pure(angle + PI / 2)), target)
        mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture
        assert report.per_step_error[step] == pytest.approx(
            ref.population(rho, target + PI / 2), rel=P_REL, abs=0.0)
        assert report.per_step_mixture[step] == pytest.approx(mixture, rel=P_REL, abs=0.0)
        angle = target
