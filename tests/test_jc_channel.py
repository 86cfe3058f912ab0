import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from jcpulse import (
    ControlSpec,
    PulseSpec,
    QubitState,
    apply_channel,
    bloch_rotation,
    build_kraus,
    classical_limit_distance,
    error_report,
    make_coherent,
    make_number_state,
)
from jcpulse.fock_field import NODES, QUAD_MIN_N
from jcpulse.jc_channel import CHUNK_LEVELS, QUAD_MAX_KAPPA
from qubit_helpers import (amplitude, complex_operators, dumped_operators, fsum_gram,
                           fsum_sandwich, maximally_mixed, operator, sum_of_squares, validate)

QUARTER_PI = math.pi / 4


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return QubitState(rho=rho / rho.trace())


class TestSumOfSquares:
    """The whole-window reference sums its squares as KrausSet.grams sums a piece."""

    @pytest.mark.parametrize("size", [0, 1, 7, 1000, CHUNK_LEVELS - 1, CHUNK_LEVELS])
    def test_one_piece_is_np_sum(self, size):
        rng = np.random.default_rng(size)
        x, y = rng.standard_normal(size), rng.standard_normal(size)
        assert sum_of_squares(x) == float(np.sum(x * x))
        assert sum_of_squares(x + 1j * y) == float(np.sum(x * x)) + float(np.sum(y * y))

    def test_pieces_are_combined_to_within_one_ulp(self):
        x = np.random.default_rng(0).standard_normal(3 * CHUNK_LEVELS + 5)
        reference = math.fsum(x * x)
        assert abs(sum_of_squares(x) - reference) <= math.ulp(reference)


class TestQubitState:
    def test_pure_state_matches_altitude_parametrization(self):
        state = QubitState.pure(0.3)
        v = np.array([math.sin(0.3), math.cos(0.3)])
        assert np.allclose(state.rho, np.outer(v, v))

    def test_ground_and_excited(self):
        assert np.allclose(QubitState.ground().rho, np.diag([0.0, 1.0]))
        assert np.allclose(QubitState.excited().rho, np.diag([1.0, 0.0]))

    def test_copies_the_callers_matrix(self):
        a = np.eye(2, dtype=complex) / 2
        state = QubitState(rho=a)
        a[0, 0] = 1.0
        assert np.array_equal(state.rho, np.eye(2) / 2)
        assert not state.rho.flags.writeable


class TestKrausStructure:
    def test_vacuum_field_operators(self):
        kappa = 0.7
        kraus = build_kraus(make_number_state(0), PulseSpec.from_kappa(kappa, 0))
        assert kraus.levels == range(0, 2)
        assert np.allclose(operator(kraus, 0), np.diag([math.cos(kappa), 1.0]))
        expected_m1 = np.zeros((2, 2), complex)
        expected_m1[1, 0] = -1j * math.sin(kappa)
        assert np.allclose(operator(kraus, 1), expected_m1)
        assert np.allclose(operator(kraus, 5), 0.0)
        assert kraus.completeness_residual() <= 1e-15

    def test_entry_pattern_against_amplitudes(self):
        field = make_coherent(30.0, phase=0.4)
        kappa = 0.05
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, 30.0))
        for n in (field.n_offset, field.n_offset + 7, field.n_max):
            op = operator(kraus, n)
            assert op[0, 0] == pytest.approx(amplitude(field, n) * math.cos(kappa * math.sqrt(n + 1)))
            assert op[0, 1] == pytest.approx(-1j * amplitude(field, n + 1) * math.sin(kappa * math.sqrt(n + 1)))
            assert op[1, 0] == pytest.approx(-1j * amplitude(field, n - 1) * math.sin(kappa * math.sqrt(n)))
            assert op[1, 1] == pytest.approx(amplitude(field, n) * math.cos(kappa * math.sqrt(n)))

    @pytest.mark.parametrize("n_mean,vartheta", [
        (10.0, QUARTER_PI), (100.0, QUARTER_PI), (1e4, QUARTER_PI), (1e4, math.pi / 2),
    ])
    def test_completeness(self, n_mean, vartheta):
        field = make_coherent(n_mean, tail_tol=1e-12).window  # the reference sums its levels
        kraus = build_kraus(field, PulseSpec.from_vartheta(vartheta, n_mean))
        # independent accumulation of sum M^dag M
        gram = np.zeros((2, 2), complex)
        for op in complex_operators(kraus):
            gram += op.conj().T @ op
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-11
        assert kraus.completeness_residual() <= 1e-11

    def test_zero_kappa_is_identity_channel(self):
        field = make_coherent(50.0)
        kraus = build_kraus(field, PulseSpec.from_kappa(0.0, 50.0))
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_density(rng)
            out = apply_channel(rho, kraus)
            assert np.max(np.abs(out.rho - rho.rho)) <= 1e-12

    def test_vacuum_field_needs_explicit_kappa(self):
        # A half pulse area cannot be converted to kappa at N = 0, and a
        # spec cannot be built without its kappa.
        with pytest.raises(ValueError):
            PulseSpec.from_vartheta(0.5, make_number_state(0).mean_photon_number)
        with pytest.raises(TypeError):
            PulseSpec(vartheta=0.5)


class TestRuleChoice:
    """build_kraus sums a coherent field from N = QUAD_MIN_N on by its
    Gauss-Hermite rule, unless the pulse oscillates too fast in n for it."""

    def test_quadrature_above_the_threshold(self):
        kraus = build_kraus(make_coherent(QUAD_MIN_N), PulseSpec.from_vartheta(QUARTER_PI, 1e3))
        assert kraus.levels is None and len(kraus) == NODES
        assert kraus.completeness_residual() <= 1e-15
        with pytest.raises(ValueError, match="no per-level rows"):
            kraus.to_json_rows()

    def test_levels_below_it_for_windows_and_for_number_states(self):
        pulse = PulseSpec.from_vartheta(QUARTER_PI, 999.0)
        below = make_coherent(999.0)
        assert build_kraus(below, pulse).levels == range(below.n_offset - 1, below.n_max + 2)
        window = make_coherent(1e4).window
        assert len(build_kraus(window, pulse)) == window.size + 2
        assert build_kraus(make_number_state(5000), pulse).levels == range(4999, 5002)

    @pytest.mark.parametrize("vartheta", [5.0 * math.sqrt(1e3), -5.0 * math.sqrt(1e3)])
    def test_fast_pulses_sum_the_levels(self, vartheta):
        # At kappa = 5 the 24-node rule is off by about 1e-6 relative.
        field, pulse = make_coherent(1e3), PulseSpec.from_vartheta(vartheta, 1e3)
        assert abs(pulse.kappa) > QUAD_MAX_KAPPA
        kraus = build_kraus(field, pulse)
        assert kraus.levels is not None
        controls = (ControlSpec(0.0, QUARTER_PI), ControlSpec(0.3, 0.7))
        assert error_report(controls, kraus) == error_report(
            controls, build_kraus(field.window, pulse))

    def test_an_evaluation_builds_no_window(self):
        # The window of N = 1e10 holds 1.6e6 levels (13 MB).
        tracemalloc.start()
        try:
            field = make_coherent(1e10)
            kraus = build_kraus(field, PulseSpec.from_vartheta(QUARTER_PI, 1e10))
            error_report((ControlSpec(0.0, QUARTER_PI),), kraus)
            apply_channel(QubitState.ground(), kraus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert "window" not in vars(field)


class TestChannelFixtures:
    def test_number_state_half_rotation_fully_mixes_ground(self):
        # kappa sqrt(m) = pi/4 turns |0><0| into exactly I/2.
        m = 16
        kraus = build_kraus(make_number_state(m), PulseSpec.from_kappa(math.pi / (4 * math.sqrt(m)), m))
        out = apply_channel(QubitState.ground(), kraus)
        assert abs(out.rho[0, 0] - 0.5) <= 1e-12
        assert abs(out.rho[1, 1] - 0.5) <= 1e-12
        assert out.rho[0, 1] == 0.0 and out.rho[1, 0] == 0.0

    def test_coherent_output_matches_table_sums(self):
        # Diagonals of the evolved ground state against direct Poisson sums.
        n_mean = 100.0
        field = make_coherent(n_mean)
        out = apply_channel(QubitState.ground(),
                            build_kraus(field, PulseSpec.from_vartheta(QUARTER_PI, n_mean)))
        n = np.arange(0, 400)
        pmf = poisson.pmf(n, n_mean)
        kappa = QUARTER_PI / math.sqrt(n_mean)
        up = float(np.sum(pmf * np.sin(kappa * np.sqrt(n)) ** 2))
        down = float(np.sum(pmf * np.cos(kappa * np.sqrt(n)) ** 2))
        assert abs(out.rho[0, 0].real - up) <= 1e-10
        assert abs(out.rho[1, 1].real - down) <= 1e-10

    def test_channel_output_is_deterministic(self):
        field = make_coherent(200.0)
        kraus = build_kraus(field, PulseSpec.from_vartheta(QUARTER_PI, 200.0))
        rho = QubitState.pure(0.4)
        first = apply_channel(rho, kraus).rho
        second = apply_channel(rho, kraus).rho
        assert np.array_equal(first, second)


class TestBlochRotation:
    def test_identity_at_zero(self):
        assert np.allclose(bloch_rotation(0.0), np.eye(2))

    def test_quarter_rotation_of_ground(self):
        v = bloch_rotation(QUARTER_PI) @ np.array([0.0, 1.0])
        assert np.allclose(v, [math.sin(QUARTER_PI), math.cos(QUARTER_PI)])

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50)
    def test_composition(self, a, b):
        assert np.allclose(bloch_rotation(a) @ bloch_rotation(b),
                           bloch_rotation(a + b), atol=1e-12)


class TestClassicalLimit:
    def test_strong_field_reproduces_rotation(self):
        # At N = 1e6 the channel output is within 1e-5 of the Bloch rotation.
        assert classical_limit_distance(QubitState.ground(), 1e6, QUARTER_PI) <= 1e-5

    def test_one_over_n_convergence(self):
        d3 = classical_limit_distance(QubitState.ground(), 1e3, QUARTER_PI)
        d4 = classical_limit_distance(QubitState.ground(), 1e4, QUARTER_PI)
        assert 7.0 <= d3 / d4 <= 13.0

    def test_monotone_and_slope(self):
        grid = [1e2, 1e3, 1e4, 1e5]
        dists = [classical_limit_distance(QubitState.ground(), n, QUARTER_PI) for n in grid]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        slope = np.polyfit(np.log(grid), np.log(dists), 1)[0]
        assert abs(slope + 1.0) <= 0.15

    def test_zero_area_pulse_has_zero_distance(self):
        assert classical_limit_distance(QubitState.pure(0.3), 500.0, 0.0) <= 1e-12

    def test_maximally_mixed_residual_is_pure_decoherence(self):
        # Rotation fixes I/2; what remains is the channel's non-unitary
        # residual.  Past the half-rotation area the largest entry sits
        # strictly off the diagonal; at pi/4 the diagonal and off-diagonal
        # parts coincide to leading order in 1/N.
        n_mean = 1e3
        field = make_coherent(n_mean)

        def residual(vartheta):
            out = apply_channel(maximally_mixed(),
                                build_kraus(field, PulseSpec.from_vartheta(vartheta, n_mean)))
            res = out.rho - 0.5 * np.eye(2)
            distance = classical_limit_distance(maximally_mixed(), n_mean, vartheta)
            assert distance == pytest.approx(np.max(np.abs(res)), abs=1e-15)
            return res

        for vartheta in (1.2, 2.0):
            res = residual(vartheta)
            assert np.max(np.abs(res)) == abs(res[0, 1])
            assert abs(res[0, 1]) > 1.5 * abs(res[0, 0])

        res = residual(QUARTER_PI)
        assert abs(res[0, 1]) == pytest.approx(np.max(np.abs(res)), rel=1e-3)
        assert np.max(np.abs(res)) == pytest.approx(QUARTER_PI / (4 * n_mean), rel=1e-2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            classical_limit_distance(QubitState.ground(), 0.5, QUARTER_PI)


class TestChannelProperties:
    def test_cptp_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n_mean = 10 ** rng.uniform(0, 4)
            vartheta = rng.uniform(0.0, math.pi)
            field = make_coherent(n_mean)
            kraus = build_kraus(field, PulseSpec.from_vartheta(vartheta, n_mean))
            out = apply_channel(random_density(rng), kraus)
            validate(out, atol=1e-11)

    @given(st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha, seed):
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng), random_density(rng)
        field = make_coherent(50.0)
        kraus = build_kraus(field, PulseSpec.from_vartheta(QUARTER_PI, 50.0))
        mixed = QubitState(rho=alpha * rho1.rho + (1 - alpha) * rho2.rho)
        lhs = apply_channel(mixed, kraus).rho
        rhs = (alpha * apply_channel(rho1, kraus).rho
               + (1 - alpha) * apply_channel(rho2, kraus).rho)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def operator_sandwich(kraus, rho):
    """sum_n M_n rho M_n^dag from the complex operators, summed before projecting."""
    ops = complex_operators(kraus)
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


fields = st.one_of(
    # Windows: the references build every level's operator.
    st.builds(lambda n_mean, phase: make_coherent(n_mean, phase=phase).window,
              st.floats(1.0, 1e4), st.floats(0.0, 2 * math.pi, exclude_max=True)),
    st.builds(make_number_state, st.integers(0, 40)),
)
angles = st.floats(-math.pi, math.pi)


class TestPhaseFactoring:
    """The phase-free rows reproduce the complex Kraus map for any field phase."""

    @given(fields, st.floats(0.0, math.pi), angles, angles)
    @settings(max_examples=60, deadline=None)
    def test_error_report_matches_operator_sandwich(self, field, vartheta, theta0, theta):
        kappa = vartheta / math.sqrt(max(field.mean_photon_number, 1.0))
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, field.mean_photon_number))
        error, excited = error_report((ControlSpec(theta0, theta), ControlSpec(theta0, -theta0)),
                                      kraus)

        start = np.array([math.sin(theta0), math.cos(theta0)])
        out = operator_sandwich(kraus, np.outer(start, start))
        target = theta0 + theta
        perp = np.array([math.cos(target), -math.sin(target)])
        assert abs(error - float(np.real(perp @ out @ perp))) <= 1e-14
        delta = abs(excited - math.sin(target) ** 2)
        assert abs(delta - abs(out[0, 0].real - math.sin(target) ** 2)) <= 1e-14

    @given(fields, st.floats(0.0, math.pi), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_channel_matches_operator_sandwich(self, field, vartheta, seed):
        kappa = vartheta / math.sqrt(max(field.mean_photon_number, 1.0))
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, field.mean_photon_number))
        rho = random_density(np.random.default_rng(seed))
        out = apply_channel(rho, kraus).rho
        assert np.max(np.abs(out - operator_sandwich(kraus, rho.rho))) <= 1e-14

    # 1e-15 is three times the worst of 3000 random cases, not a proven
    # bound, so the examples are fixed (derandomize) and the suite stays
    # deterministic.
    @given(fields, st.floats(0.0, math.pi), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_apply_channel_matches_fsum_sandwich(self, field, vartheta, seed):
        kappa = vartheta / math.sqrt(max(field.mean_photon_number, 1.0))
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, field.mean_photon_number))
        rho = random_density(np.random.default_rng(seed))
        out = apply_channel(rho, kraus).rho
        assert np.max(np.abs(out - fsum_sandwich(kraus, rho.rho))) <= 1e-15


class TestDumpAgainstComplexBuild:
    """kraus-dump's rows and residual against the M_n built from complex amplitudes.

    The tolerances are about 3.5 times the worst of 7500 random cases of the
    same strategies: an entry's deviation relative to its modulus reached
    5.7e-16 and the residual's 4.4e-16.  They are not proven bounds, so the
    examples are fixed (derandomize).
    """

    @given(fields, st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_json_rows_match_complex_build(self, field, vartheta):
        kappa = vartheta / math.sqrt(max(field.mean_photon_number, 1.0))
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, field.mean_photon_number))
        reference = complex_operators(kraus)
        assert [row["n"] for row in kraus.to_json_rows()] == list(kraus.levels)
        # 1e-322, twenty subnormal ulps, covers entries that a subnormal kappa makes subnormal.
        deviation = np.abs(dumped_operators(kraus) - reference)
        assert np.all(deviation <= 2e-15 * np.abs(reference) + 1e-322)

    @given(fields, st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_residual_matches_fsum_of_complex_build(self, field, vartheta):
        kappa = vartheta / math.sqrt(max(field.mean_photon_number, 1.0))
        kraus = build_kraus(field, PulseSpec.from_kappa(kappa, field.mean_photon_number))
        # Rows (n, k) of conj(M_n)[k, i]: their Gram is sum_n M_n^dag M_n, one fsum per part.
        gram = fsum_gram(complex_operators(kraus).conj().reshape(-1, 2))
        reference = float(np.max(np.abs(gram - np.eye(2))))
        assert abs(kraus.completeness_residual() - reference) <= 1.5e-15
