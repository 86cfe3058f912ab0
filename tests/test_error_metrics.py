import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from jcpulse import (
    ControlSpec,
    PulseSpec,
    QubitState,
    apply_channel,
    asymptote,
    asymptotic_p,
    build_kraus,
    error_rate_exact,
    error_report,
    gea_banacloche,
    landscape_asymptote,
    make_coherent,
    make_number_state,
    ozawa_bound,
    resolve_pulse,
    run_sequence,
)
from jcpulse.jc_channel import CHUNK_LEVELS
from paper_sums import diagonal_deviation, p_minus, p_plus, pi_pulse_error
from qubit_helpers import whole_window_reports

PI = math.pi
QUARTER_PI = PI / 4


def direct_error_sum(theta0, theta, n_mean, kappa):
    """Independent oracle: the error rate as an explicit Poisson sum.

    Uses scipy's pmf and the per-photon-number propagator elements, with
    its own window; shares no code with the library paths it checks.
    """
    n = np.arange(0, int(n_mean + 60 * math.sqrt(n_mean)) + 60, dtype=float)
    pmf = poisson.pmf(n, n_mean)
    m11 = np.cos(kappa * np.sqrt(n + 1.0))
    m10 = np.sqrt(n_mean / (n + 1.0)) * np.sin(kappa * np.sqrt(n + 1.0))
    m01 = -np.sqrt(n / n_mean) * np.sin(kappa * np.sqrt(n))
    m00 = np.cos(kappa * np.sqrt(n))
    target = theta0 + theta
    amp = (math.sin(theta0) * (m11 * math.cos(target) - m01 * math.sin(target))
           + math.cos(theta0) * (m10 * math.cos(target) - m00 * math.sin(target)))
    return float(np.sum(pmf * amp ** 2))


def nominal_report(theta0, theta, n_mean):
    """(P, delta) of one control with the nominal pulse area, fresh field: its
    exact error and the distance of the excited population, the error of its
    twin ControlSpec(theta0, -theta0), from its target sin^2(theta0 + theta)."""
    kraus = build_kraus(make_coherent(n_mean), resolve_pulse("quarter-pi", n_mean, base=theta))
    error, excited = error_report((ControlSpec(theta0, theta), ControlSpec(theta0, -theta0)),
                                  kraus)
    return error, abs(excited - math.sin(theta0 + theta) ** 2)


class TestErrorRateExact:
    @pytest.mark.parametrize("theta0,theta", [
        (0.0, QUARTER_PI), (PI / 2, QUARTER_PI), (0.3, 0.9), (QUARTER_PI, PI / 2),
    ])
    @pytest.mark.parametrize("n_mean", [10.0, 1e3])
    def test_matches_direct_summation(self, theta0, theta, n_mean):
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(theta, n_mean)
        channel_value = error_rate_exact(ControlSpec(theta0, theta), field, pulse)
        oracle = direct_error_sum(theta0, theta, n_mean, pulse.kappa)
        assert channel_value == pytest.approx(oracle, abs=1e-12)

    def test_ground_start_scaled_error(self):
        n_mean = 1e4
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
        value = error_rate_exact(ControlSpec(0.0, QUARTER_PI), field, pulse)
        assert n_mean * value == pytest.approx((PI - 2) ** 2 / 64, rel=0.02)

    def test_excited_start_scaled_error(self):
        n_mean = 1e4
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
        value = error_rate_exact(ControlSpec(PI / 2, QUARTER_PI), field, pulse)
        assert n_mean * value == pytest.approx((PI + 2) ** 2 / 64, rel=0.02)

    def test_vacuum_field(self):
        # No photons: the ground state stays put and the excited state
        # decays with probability sin^2(kappa).
        vacuum, pulse = make_number_state(0), PulseSpec.from_kappa(0.7, 0)
        assert error_rate_exact(ControlSpec(0.0, 0.3), vacuum, pulse) == pytest.approx(
            math.sin(0.3) ** 2, abs=1e-15)
        assert error_rate_exact(ControlSpec(PI / 2, 0.0), vacuum, pulse) == pytest.approx(
            math.sin(0.7) ** 2, abs=1e-15)

    def test_identity_control_has_zero_error(self):
        field = make_coherent(100.0)
        pulse = PulseSpec.from_kappa(0.0, 100.0)
        assert error_rate_exact(ControlSpec(0.7, 0.0), field, pulse) <= 1e-12


class TestControlSpec:
    @pytest.mark.parametrize("name", ["theta0", "theta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, name, value):
        angles = {"theta0": 0.1, "theta": 0.3, name: value}
        with pytest.raises(ValueError, match=f"angle {name} must be finite"):
            ControlSpec(**angles)


class TestOneOverNLaw:
    @pytest.mark.parametrize("theta0,coeff", [
        pytest.param(0.0, (PI - 2) ** 2 / 64, id="ground"),
        pytest.param(PI / 2, (PI + 2) ** 2 / 64, id="excited"),
    ])
    @pytest.mark.parametrize("n_mean", [10.0 ** k for k in range(2, 9)])
    def test_second_order_residual_stays_bounded(self, theta0, coeff, n_mean):
        # N * P = c1 + O(1/N) for a half rotation with the nominal pulse, so
        # N * (N * P / c1 - 1) stays O(1) out to N = 1e8 (about 0.13 from the
        # ground and -0.18 from the excited pole, plus window truncation).
        error, _ = nominal_report(theta0, QUARTER_PI, n_mean)
        assert abs(n_mean * (n_mean * error / coeff - 1.0)) <= 0.5

    @pytest.mark.parametrize("theta0,coeff,second", [
        pytest.param(0.0, (PI - 2) ** 2 / 64, 0.130937, id="ground"),
        pytest.param(PI / 2, (PI + 2) ** 2 / 64, -0.180215, id="excited"),
    ])
    @pytest.mark.parametrize("n_mean", [10.0 ** k for k in range(3, 11)])
    def test_second_order_coefficient_on_the_quadrature(self, theta0, coeff, second, n_mean):
        # From N = QUAD_MIN_N = 1e3 on the Gauss-Hermite rule truncates
        # nothing, so N * (N * P / c1 - 1) is the second-order coefficient
        # plus O(1/N); at N = 1e10 a relative error of 1e-13 in P would move it by 1e-3.
        error, _ = nominal_report(theta0, QUARTER_PI, n_mean)
        assert n_mean * (n_mean * error / coeff - 1.0) == pytest.approx(second, rel=0, abs=1e-3)


class TestClosedFormSums:
    @pytest.mark.parametrize("n_mean", [10.0, 100.0, 1e3])
    def test_agree_with_channel_path(self, n_mean):
        field = make_coherent(n_mean).window  # both sides sum its levels
        pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
        assert p_plus(field, pulse) == pytest.approx(
            error_rate_exact(ControlSpec(PI / 2, QUARTER_PI), field, pulse), abs=1e-12)
        assert p_minus(field, pulse) == pytest.approx(
            error_rate_exact(ControlSpec(0.0, QUARTER_PI), field, pulse), abs=1e-12)

    def test_small_field_value(self):
        field = make_coherent(100.0)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, 100.0)
        assert p_minus(field, pulse) == pytest.approx(2.04e-4, rel=0.15)

    def test_pole_ratio_near_twenty(self):
        field = make_coherent(100.0)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, 100.0)
        assert 15.0 <= p_plus(field, pulse) / p_minus(field, pulse) <= 25.0

    def test_zero_kappa_gives_half(self):
        field = make_coherent(100.0)
        pulse = PulseSpec.from_kappa(0.0, 100.0)
        assert p_plus(field, pulse) == pytest.approx(0.5, abs=1e-12)
        assert p_minus(field, pulse) == pytest.approx(0.5, abs=1e-12)

    def test_requires_coherent_field(self):
        with pytest.raises(ValueError):
            p_plus(make_number_state(4), PulseSpec.from_kappa(0.1, 4))


class TestAsymptoticP:
    def test_reduces_to_quarter_coefficients(self):
        n_mean = 123.0
        plus = asymptotic_p(QUARTER_PI, n_mean, 1)
        minus = asymptotic_p(QUARTER_PI, n_mean, -1)
        assert plus == pytest.approx((PI + 2) ** 2 / (64 * n_mean), rel=1e-12, abs=0)
        assert minus == pytest.approx((PI - 2) ** 2 / (64 * n_mean), rel=1e-12, abs=0)

    def test_infinite_field_limit(self):
        for vartheta in (0.2, QUARTER_PI, 1.1):
            value = asymptotic_p(vartheta, 1e12, 1)
            assert value == pytest.approx((1 - math.sin(2 * vartheta)) / 2, abs=1e-11)

    def test_convergence_rate_to_exact(self):
        # The 1/N^2 remainder makes N * (P_exact - asymptote) shrink ~10x
        # per decade of N.
        for sign in (1, -1):
            devs = []
            for n_mean in (1e3, 1e4):
                field = make_coherent(n_mean)
                pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
                exact = p_plus(field, pulse) if sign == 1 else p_minus(field, pulse)
                devs.append(abs(n_mean * exact
                                - n_mean * asymptotic_p(QUARTER_PI, n_mean, sign)))
            assert 5.0 <= devs[0] / devs[1] <= 20.0

    def test_semiclassical_average(self):
        n_mean = 1e4
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
        avg = n_mean * (p_plus(field, pulse) + p_minus(field, pulse)) / 2
        reference = (PI ** 2 + 4) / 64
        assert abs(avg - reference) / reference <= 0.02
        # sanity on the runtime-computed reference constants
        assert gea_banacloche(n_mean) == reference / n_mean
        assert ozawa_bound(n_mean) == 1.0 / (16 * (n_mean + 1))

    def test_reference_curve_ordering(self):
        for n_mean in np.geomspace(1e2, 1e4, 10):
            field = make_coherent(float(n_mean))
            pulse = PulseSpec.from_vartheta(QUARTER_PI, float(n_mean))
            assert p_minus(field, pulse) < ozawa_bound(n_mean) \
                < gea_banacloche(n_mean) < p_plus(field, pulse)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            asymptotic_p(QUARTER_PI, 10.0, 0)

    @pytest.mark.parametrize("n_mean", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("law", [
        lambda n: asymptotic_p(QUARTER_PI, n, 1),
        lambda n: landscape_asymptote(0.4, 0.9, n),
        lambda n: asymptote(ControlSpec(0.0, QUARTER_PI), QUARTER_PI, n),
        lambda n: asymptote(ControlSpec(0.3, 0.9), QUARTER_PI, n),
        gea_banacloche,
    ], ids=["asymptotic_p", "landscape", "asymptote-pole", "asymptote-generic",
            "gea_banacloche"])
    def test_non_positive_n_rejected(self, law, n_mean):
        with pytest.raises(ValueError, match="N must be positive, got"):
            law(n_mean)


def corrected_area(mode, n_mean):
    return resolve_pulse(mode, n_mean).vartheta


class TestOptimalAngles:
    def test_closed_forms(self):
        n_mean = 1e3
        assert corrected_area("optimal-fidelity-minus", n_mean) == pytest.approx(
            QUARTER_PI - (3 * PI / 32 - (PI + 2) / 16) / n_mean, rel=1e-14)
        assert corrected_area("optimal-fidelity-plus", n_mean) == pytest.approx(
            QUARTER_PI - (3 * PI / 32 + (PI + 2) / 16) / n_mean, rel=1e-14)
        assert corrected_area("bias-free-minus", n_mean) == pytest.approx(
            QUARTER_PI + PI / (32 * n_mean), rel=1e-14)
        assert corrected_area("bias-free-plus", n_mean) == pytest.approx(
            QUARTER_PI - 3 * PI / (32 * n_mean), rel=1e-14)

    def test_all_reduce_to_quarter_pi(self):
        for mode in ("optimal-fidelity-plus", "optimal-fidelity-minus",
                     "bias-free-plus", "bias-free-minus"):
            assert abs(corrected_area(mode, 1e8) - QUARTER_PI) <= 1e-7

    def test_brute_force_scan_confirms_minimizer(self):
        # Oracle: parabola vertex of P-(vartheta) sampled around pi/4.
        n_mean = 1e3
        field = make_coherent(n_mean)
        offsets = np.linspace(-3e-4, 3e-4, 61)
        values = [p_minus(field, PulseSpec.from_vartheta(QUARTER_PI + o, n_mean))
                  for o in offsets]
        coeffs = np.polyfit(offsets, values, 2)
        vertex = QUARTER_PI - coeffs[1] / (2 * coeffs[0])
        predicted = corrected_area("optimal-fidelity-minus", n_mean)
        assert vertex == pytest.approx(predicted, abs=3e-6)

    def test_flatness_of_optimum(self):
        # Moving from pi/4 to the optimum changes P- only at order 1/N^2.
        ratios = []
        for n_mean in (1e3, 1e4):
            field = make_coherent(n_mean)
            best = corrected_area("optimal-fidelity-minus", n_mean)
            delta = abs(p_minus(field, PulseSpec.from_vartheta(best, n_mean))
                        - p_minus(field, PulseSpec.from_vartheta(QUARTER_PI, n_mean)))
            ratios.append(delta * n_mean ** 2)
        assert ratios[0] / ratios[1] <= 3.0
        assert ratios[1] / ratios[0] <= 3.0


class TestDiagonalDeviation:
    def test_leading_coefficients(self):
        n_mean = 1e3
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, n_mean)
        assert n_mean * diagonal_deviation(field, pulse, 1) == pytest.approx(
            3 * PI / 32, rel=0.05)
        assert n_mean * diagonal_deviation(field, pulse, -1) == pytest.approx(
            PI / 32, rel=0.05)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bias_free_area_cancels_leading_term(self, sign):
        n_mean = 1e3
        field = make_coherent(n_mean)
        tilde = corrected_area("bias-free-plus" if sign == 1 else "bias-free-minus", n_mean)
        baseline = diagonal_deviation(field, PulseSpec.from_vartheta(QUARTER_PI, n_mean), sign)
        cancelled = diagonal_deviation(field, PulseSpec.from_vartheta(tilde, n_mean), sign)
        assert cancelled <= 0.05 * baseline

    def test_matches_population_deviation_of_channel(self):
        # Same number as |excited population - 1/2| after the half rotation.
        _, delta = nominal_report(0.0, QUARTER_PI, 500.0)
        field = make_coherent(500.0)
        pulse = PulseSpec.from_vartheta(QUARTER_PI, 500.0)
        assert delta == pytest.approx(diagonal_deviation(field, pulse, -1), abs=1e-13)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            diagonal_deviation(make_coherent(10.0), PulseSpec.from_vartheta(QUARTER_PI, 10.0), 2)


class TestPiPulse:
    @pytest.mark.parametrize("theta0", [0.0, QUARTER_PI, PI / 2, 3 * PI / 4])
    @pytest.mark.parametrize("n_mean", [10.0, 100.0, 1e3])
    def test_specialized_sums_match_channel(self, theta0, n_mean):
        field = make_coherent(n_mean).window  # both sides sum its levels
        pulse = PulseSpec.from_vartheta(PI / 2, n_mean)
        assert pi_pulse_error(theta0, field, pulse) == pytest.approx(
            error_rate_exact(ControlSpec(theta0, PI / 2), field, pulse), abs=1e-12)

    def test_scaled_coefficients(self):
        n_mean = 1e4
        field = make_coherent(n_mean)
        pulse = PulseSpec.from_vartheta(PI / 2, n_mean)
        assert n_mean * pi_pulse_error(0.0, field, pulse) == pytest.approx(
            PI ** 2 / 16, rel=0.02)
        assert n_mean * pi_pulse_error(QUARTER_PI, field, pulse) == pytest.approx(
            (PI + 2) ** 2 / 16, rel=0.02)
        assert n_mean * pi_pulse_error(3 * PI / 4, field, pulse) == pytest.approx(
            (PI - 2) ** 2 / 16, rel=0.03)

    def test_fallback_for_generic_start(self):
        field = make_coherent(200.0)
        pulse = PulseSpec.from_vartheta(PI / 2, 200.0)
        assert pi_pulse_error(0.1234, field, pulse) == error_rate_exact(
            ControlSpec(0.1234, PI / 2), field, pulse)


class TestLandscape:
    def test_extreme_midpoints(self):
        assert landscape_asymptote(PI / 2, PI / 2, 1.0) == pytest.approx(
            (PI / 2 + 1) ** 2 / 4, rel=1e-12)
        assert landscape_asymptote(0.0, PI / 2, 1.0) == pytest.approx(
            (PI / 2 - 1) ** 2 / 4, rel=1e-12)

    def test_zero_rotation(self):
        for midpoint in (0.0, 0.4, PI / 2):
            assert landscape_asymptote(midpoint, 0.0, 10.0) == 0.0

    def test_overflow_raises(self):
        # A finite 1/N times a huge squared rotation overflows.
        with pytest.raises(ValueError, match="not a finite float"):
            landscape_asymptote(0.4, 1e20 * PI, 1e-296)

    def test_grid_consistency_with_exact(self):
        n_mean = 1e4
        worst = 0.0
        for theta in (PI / 8, QUARTER_PI, PI / 2, 3 * PI / 4):
            field = make_coherent(n_mean)
            pulse = PulseSpec.from_vartheta(theta, n_mean)
            for midpoint in np.arange(0.0, PI / 2 + 1e-9, PI / 8):
                exact = error_rate_exact(
                    ControlSpec(midpoint - theta / 2, theta), field, pulse)
                asym = landscape_asymptote(midpoint, theta, n_mean)
                worst = max(worst, abs(exact - asym) / asym)
        assert worst <= 0.05


class TestPulseResolution:
    def test_quarter_pi_takes_base_angle(self):
        pulse = resolve_pulse("quarter-pi", 100.0, base=PI / 2)
        assert pulse.vartheta == PI / 2
        assert pulse.kappa == pytest.approx(PI / 2 / 10.0)

    @pytest.mark.parametrize("n_mean", [1e2, 1e3, 1e8])
    def test_signed_modes(self, n_mean):
        # The closed forms as the first-order theory writes them, bit for bit.
        assert corrected_area("optimal-fidelity-plus", n_mean) == \
            QUARTER_PI - (3 * PI / 32 + (PI + 2) / 16) / n_mean
        assert corrected_area("optimal-fidelity-minus", n_mean) == \
            QUARTER_PI - (3 * PI / 32 - (PI + 2) / 16) / n_mean
        assert corrected_area("bias-free-plus", n_mean) == QUARTER_PI - 3 * PI / (32 * n_mean)
        assert corrected_area("bias-free-minus", n_mean) == QUARTER_PI + PI / (32 * n_mean)

    @pytest.mark.parametrize("n_mean", [1e2, 1e3, 1e8])
    def test_auto_sign_follows_start_altitude(self, n_mean):
        def area(mode, start_angle):
            return resolve_pulse(mode, n_mean, start_angle=start_angle).vartheta

        # Nearer the excited pole (sin^2 > 1/2) the plus branch, else the minus.
        for start in (PI / 2, 0.4 * PI, 0.6 * PI):
            assert area("bias-free", start) == QUARTER_PI - 3 * PI / (32 * n_mean)
            assert area("optimal-fidelity", start) == \
                QUARTER_PI - (3 * PI / 32 + (PI + 2) / 16) / n_mean
        for start in (0.0, 0.1 * PI, 0.2 * PI, None):
            assert area("bias-free", start) == QUARTER_PI + PI / (32 * n_mean)
            assert area("optimal-fidelity", start) == \
                QUARTER_PI - (3 * PI / 32 - (PI + 2) / 16) / n_mean

    @pytest.mark.parametrize("mode", ["bias-free", "bias-free-minus", "optimal-fidelity-plus",
                                      "quarter-pi"])
    @pytest.mark.parametrize("n_mean", [0.0, -1.0, math.nan])
    def test_corrections_reject_non_positive_n(self, mode, n_mean):
        # Checked before the 1/N correction is divided out; the nominal
        # quarter-pi pulse rejects the same N, NaN included.
        with pytest.raises(ValueError, match="mean photon number"):
            resolve_pulse(mode, n_mean)

    def test_corrections_only_apply_to_half_rotations(self):
        pulse = resolve_pulse("bias-free-minus", 100.0, base=PI / 2)
        assert pulse.vartheta == PI / 2

    def test_explicit_requires_value(self):
        with pytest.raises(ValueError):
            resolve_pulse("explicit", 100.0)
        assert resolve_pulse("explicit", 100.0, vartheta=0.7).vartheta == 0.7

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_pulse("sometimes-optimal", 100.0)


class TestErrorReport:
    def test_pole_reports_use_pulse_area_asymptote(self):
        assert asymptote(ControlSpec(0.0, QUARTER_PI), QUARTER_PI, 1e3) == pytest.approx(
            asymptotic_p(QUARTER_PI, 1e3, -1), rel=1e-12, abs=0)
        assert asymptote(ControlSpec(PI / 2, QUARTER_PI), QUARTER_PI, 1e3) == pytest.approx(
            asymptotic_p(QUARTER_PI, 1e3, 1), rel=1e-12, abs=0)

    def test_generic_reports_use_landscape(self):
        assert asymptote(ControlSpec(0.3, 0.9), 0.9, 1e3) == pytest.approx(
            landscape_asymptote(0.3 + 0.45, 0.9, 1e3), rel=1e-12)

    def test_report_fields(self):
        error, delta = nominal_report(0.0, QUARTER_PI, 1e3)
        assert 0.0 <= error <= 1.0
        assert delta >= 0.0
        assert ozawa_bound(1e3) == 1.0 / (16 * (1e3 + 1))

    @pytest.mark.parametrize("n_mean", [-1.0, -2.0, math.nan])
    def test_ozawa_bound_rejects_negative_and_nan(self, n_mean):
        with pytest.raises(ValueError, match=f"N must be non-negative, got {n_mean!r}"):
            ozawa_bound(n_mean)

    def test_ozawa_bound_of_the_vacuum_is_finite(self):
        assert ozawa_bound(0.0) == 1.0 / 16


@functools.lru_cache(maxsize=None)
def shared_field(n_mean, phase):
    """The window of a coherent field: its Kraus sets sum the levels at every N,
    as the whole-window reference does."""
    return make_coherent(n_mean, phase=phase).window


BATCH_CONTROLS = tuple(ControlSpec(theta0, theta) for theta0, theta in
                        ((0.0, QUARTER_PI), (PI / 2, QUARTER_PI), (0.3 * PI, 0.7 * PI)))
BATCH_MODES = ("quarter-pi", "bias-free", "explicit")
#: table2's controls: four start altitudes, each turned by pi/4 and by pi/2.
TABLE2_CONTROLS = tuple(ControlSpec(theta0, theta) for theta in (QUARTER_PI, PI / 2)
                        for theta0 in (0.0, QUARTER_PI, PI / 2, 3 * QUARTER_PI))


def assert_batch_is_exact(field, pulse, controls=BATCH_CONTROLS):
    """One batched error_report equals the same controls one at a time and the
    reports from rows stored whole, with ``==``."""
    kraus = build_kraus(field, pulse)
    batched = error_report(controls, kraus)
    assert batched == tuple(error_report((control,), kraus)[0] for control in controls)
    assert batched == whole_window_reports(controls, kraus)


class TestBatchedReport:
    """A batch of controls on one pulse, walked in pieces, equals its controls
    one at a time and the whole-window reference bit for bit."""

    @pytest.mark.parametrize("phase", [PI / 2, 0.13 * PI], ids=["real-c", "complex-c"])
    @pytest.mark.parametrize("n_mean", [1.0, 10.0, 1e2, 1e4, 1e6, 1e7, 1e8])
    def test_equals_the_stored_report(self, n_mean, phase):
        field = shared_field(n_mean, phase)
        for control, mode in itertools.product(BATCH_CONTROLS, BATCH_MODES):
            pulse = resolve_pulse(mode, n_mean, base=control.theta, start_angle=control.theta0,
                                  vartheta=0.2 * PI)
            assert_batch_is_exact(field, pulse)

    @pytest.mark.parametrize("levels", [CHUNK_LEVELS - 1, CHUNK_LEVELS, CHUNK_LEVELS + 1])
    def test_equals_the_stored_report_at_a_piece_edge(self, levels):
        # A Kraus set spans its window plus one level on each side.
        wide = shared_field(2e6, 0.13 * PI)
        cut = (wide.size - levels + 2) // 2
        field = dataclasses.replace(wide, n_offset=wide.n_offset + cut,
                                    log_magnitude=wide.log_magnitude[cut:cut + levels - 2])
        for control in BATCH_CONTROLS:
            pulse = resolve_pulse("bias-free", 2e6, base=control.theta,
                                  start_angle=control.theta0)
            assert len(build_kraus(field, pulse)) == levels
            assert_batch_is_exact(field, pulse)

    @pytest.mark.parametrize("phase", [PI / 2, 0.13 * PI], ids=["real-c", "complex-c"])
    @pytest.mark.parametrize("n_mean", [1e3, 1e8])
    def test_equals_its_controls_one_at_a_time_on_the_quadrature(self, n_mean, phase):
        kraus = build_kraus(make_coherent(n_mean, phase=phase), resolve_pulse("bias-free", n_mean))
        assert kraus.levels is None
        batched = error_report(TABLE2_CONTROLS, kraus)
        assert batched == tuple(error_report((control,), kraus)[0] for control in TABLE2_CONTROLS)

    @pytest.mark.parametrize("number", [0, 5])
    def test_equals_the_stored_report_for_number_states(self, number):
        assert_batch_is_exact(make_number_state(number), PulseSpec.from_kappa(0.3, number))

    def test_equals_the_stored_report_for_table2(self):
        assert_batch_is_exact(shared_field(1e6, PI / 2), resolve_pulse("quarter-pi", 1e6),
                              TABLE2_CONTROLS)

    def test_error_rate_exact_is_the_batched_report(self):
        field = shared_field(1e7, PI / 2)
        pulse = resolve_pulse("quarter-pi", 1e7)
        control = ControlSpec(PI / 2, QUARTER_PI)
        kraus = build_kraus(field, pulse)
        assert error_rate_exact(control, field, pulse) == error_report((control,), kraus)[0]
        assert error_rate_exact(control, field, pulse) == whole_window_reports((control,),
                                                                               kraus)[0]

    def test_raises_as_the_stored_path(self):
        field = shared_field(10.0, PI / 2)
        pulse = resolve_pulse("explicit", 10.0, vartheta=1e308)
        message = r"kappa\*sqrt\(n\) must be finite"
        for evaluate in (error_report, whole_window_reports):
            with pytest.raises(ValueError, match=message):
                evaluate(BATCH_CONTROLS, build_kraus(field, pulse))
        with pytest.raises(ValueError, match=message):
            error_rate_exact(BATCH_CONTROLS[0], field, pulse)

    def test_asymptote_raises_on_an_overflowing_first_order_term(self):
        pulse = resolve_pulse("explicit", 10.0, vartheta=1e300)
        for control in BATCH_CONTROLS[:2]:  # the half rotations from a pole
            with pytest.raises(ValueError, match="1/N term"):
                asymptote(control, pulse.vartheta, 10.0)


@pytest.mark.parametrize("phase", [PI / 2, 0.13 * PI], ids=["real-c", "complex-c"])
@pytest.mark.parametrize("evaluate", [
    lambda field, pulse: error_report(BATCH_CONTROLS[:1], build_kraus(field, pulse)),
    lambda field, pulse: error_report(TABLE2_CONTROLS, build_kraus(field, pulse)),
    lambda field, pulse: run_sequence(0.0, [QUARTER_PI] * 2, field),
    lambda field, pulse: apply_channel(QubitState.ground(), build_kraus(field, pulse)),
], ids=["one-control", "table2-batch", "run_sequence", "apply_channel"])
def test_memory_beyond_the_field_is_one_piece(evaluate, phase):
    # Rows stored whole would take 5 MB at N = 1e8 (160 003 levels).
    field = shared_field(1e8, phase)
    pulse = resolve_pulse("quarter-pi", 1e8)
    tracemalloc.start()
    try:
        evaluate(field, pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_batched_report_memory_per_control():
    # One coupling column per control: about 1 KB each; two columns took 2 KB.
    kraus = build_kraus(make_coherent(100.0), resolve_pulse("quarter-pi", 100.0))
    controls = tuple(ControlSpec(1e-4 * i, QUARTER_PI) for i in range(10_000))
    tracemalloc.start()
    try:
        error_report(controls, kraus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1400 * len(controls)
