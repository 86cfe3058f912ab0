"""The library against the references of tests/reference.py.

Dense reference, N <= 100: the library's fields are built at
tail_tol=1e-16, so both sides hold the same field to rounding.  The bounds
are about three times the worst deviation seen over these cases, and are
set by the reference: its expm is unitary only to about 6e-14 at N = 100
(its own completeness residual), while the library's residual there is
about 1e-16.

mpmath references, N >= QUAD_MIN_N = 1e3, where the library sums a coherent
field by its Gauss-Hermite rule: the 50-digit level sum (at N = 1e3 and
1e4) and the 50-digit Gauss-Hermite rule of 32 nodes (up to N = 1e10)
agree with each other within 1e-30; the library's errors, sequence errors
and mixtures, unit Gram and channel lie within MP_REL of them.  The
worst deviation seen is 2.2e-15 relative.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

import reference as ref
from jcpulse.fock_field import QUAD_MIN_N
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
MP_REL = 1e-13  # relative, against the mpmath references

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


LARGE_N = [1e3, 1e4, 1e6, 1e8, 1e10]
STARTS = pytest.mark.parametrize("start", [0.0, PI / 4, PI / 2, 3 * PI / 4],
                                 ids=["ground", "plus", "excited", "threequarter"])


def test_mp_references_agree_at_1e4():
    kappa = PulseSpec.from_vartheta(PI / 4, 1e4).kappa
    levels, rule = ref.level_gram(1e4, kappa), ref.hermite_gram(1e4, kappa)
    assert max(abs(levels[i][j] - rule[i][j]) for i in range(4) for j in range(4)) < 1e-30


def test_error_report_matches_mp_level_sum_at_the_threshold():
    pulse = PulseSpec.from_vartheta(PI / 4, QUAD_MIN_N)
    kraus = build_kraus(make_coherent(QUAD_MIN_N), pulse)
    assert kraus.levels is None
    gram = ref.level_gram(QUAD_MIN_N, pulse.kappa)
    controls = tuple(ControlSpec(theta0, PI / 4) for theta0 in (0.0, PI / 4, PI / 2, 3 * PI / 4))
    for control, error in zip(controls, error_report(controls, kraus)):
        exact = ref.mp_weight(gram, ref.mp_perp(control.target_angle),
                              ref.mp_pure(control.theta0))
        assert error == pytest.approx(float(exact), rel=MP_REL, abs=0.0)


@pytest.mark.parametrize("theta", [PI / 4, PI / 2], ids=["half", "flip"])
@pytest.mark.parametrize("n_mean", LARGE_N)
def test_error_report_matches_mp_rule(n_mean, theta):
    pulse = PulseSpec.from_vartheta(theta, n_mean)
    kraus = build_kraus(make_coherent(n_mean), pulse)
    gram = ref.hermite_gram(n_mean, pulse.kappa)
    controls = tuple(ControlSpec(theta0, theta) for theta0 in (0.0, PI / 4, PI / 2, 3 * PI / 4))
    for control, error in zip(controls, error_report(controls, kraus)):
        exact = ref.mp_weight(gram, ref.mp_perp(control.target_angle),
                              ref.mp_pure(control.theta0))
        assert error == pytest.approx(float(exact), rel=MP_REL, abs=0.0)


@pytest.mark.parametrize("theta", [PI / 4, PI / 2], ids=["half", "flip"])
@pytest.mark.parametrize("n_mean", LARGE_N)
def test_unit_gram_and_apply_channel_match_mp_rule(n_mean, theta):
    pulse = PulseSpec.from_vartheta(theta, n_mean)
    kraus = build_kraus(make_coherent(n_mean), pulse)
    gram = ref.hermite_gram(n_mean, pulse.kappa)
    # h[2k + a, 2l + b] = sum R[a, k] R[b, l], relative to its largest entry:
    # an O(1/N) entry such as sum R[0, 0] R[0, 1] of a flip carries the
    # absolute rounding of its O(1) column, about 1e-16, on either rule.
    h = kraus.unit_gram
    scale = max(abs(float(x)) for row in gram for x in row)
    for a, k, b, l in itertools.product(range(2), repeat=4):
        assert abs(h[2 * k + a, 2 * l + b] - float(gram[2 * a + k][2 * b + l])) <= MP_REL * scale
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        out = apply_channel(QubitState(rho=rho), kraus).rho
        exact = np.array(ref.mp_channel(gram, rho.tolist()), dtype=complex)
        assert np.max(np.abs(out - exact)) <= MP_REL * np.max(np.abs(exact))


@pytest.mark.parametrize("mode", ["bias-free", "quarter-pi"])
@pytest.mark.parametrize("n_mean", LARGE_N)
@STARTS
def test_run_sequence_matches_mp_rule(start, n_mean, mode):
    """Two pulses by the 50-digit rule, composed in the lab basis (at 50 digits
    the O(1/N) entries keep their digits), and the two-branch mixture."""
    report = run_sequence(start, [PI / 4] * 2, make_coherent(n_mean), mode)
    rho, angle, mixture = ref.mp_pure_state(start), start, 0.0
    for step in range(2):
        pulse = resolve_pulse(mode, n_mean, base=PI / 4, start_angle=angle)
        gram = ref.hermite_gram(n_mean, pulse.kappa)
        target = angle + PI / 4
        rho = ref.mp_channel(gram, rho)
        p_follow = ref.mp_weight(gram, ref.mp_perp(target), ref.mp_pure(angle))
        p_leaked = ref.mp_weight(gram, ref.mp_pure(target), ref.mp_perp(angle))
        with mpmath.workdps(ref.DIGITS):
            mixture = p_follow * (1 - mixture) + (1 - p_leaked) * mixture
        assert report.per_step_error[step] == pytest.approx(
            float(ref.mp_population(rho, ref.mp_perp(target))), rel=MP_REL, abs=0.0)
        assert report.per_step_mixture[step] == pytest.approx(float(mixture), rel=MP_REL, abs=0.0)
        angle = target
