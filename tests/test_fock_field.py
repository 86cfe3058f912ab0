import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from jcpulse import (
    FieldState,
    central_moments_direct,
    central_moments_recursive,
    make_coherent,
    make_number_state,
)
from jcpulse.fock_field import MAX_LEVELS, NODES, QUAD_MIN_N, coherent_window, hermite_nodes
from qubit_helpers import amplitude

TWO_PI = 2.0 * math.pi


class TestCoherentConstruction:
    def test_poisson_weights_at_unit_mean(self):
        field = make_coherent(1.0, phase=0.0)
        probs = field.probabilities()
        assert field.n_offset == 0
        # Poisson(1) pmf: |C_0|^2 = |C_1|^2 = 1/e
        assert probs[0] == pytest.approx(math.exp(-1), rel=1e-12, abs=0)
        assert probs[1] == pytest.approx(math.exp(-1), rel=1e-12, abs=0)

    def test_phase_law(self):
        # arg(C_n) = n*phi mod 2pi; C_3 at phi = pi/2 points along 3pi/2.
        field = make_coherent(1.0, phase=math.pi / 2)
        assert math.atan2(amplitude(field, 3).imag, amplitude(field, 3).real) % TWO_PI == \
            pytest.approx(3 * math.pi / 2, abs=1e-12)

        field = make_coherent(100.0, phase=math.pi / 2)
        n = field.photon_numbers()
        expected = np.mod(n * math.pi / 2, TWO_PI)
        assert np.allclose(np.mod(np.angle(amplitude(field, n)), TWO_PI), expected,
                           atol=1e-9)

    def test_adjacent_ratio_matches_coherent_law(self):
        field = make_coherent(50.0, phase=1.1)
        n = field.photon_numbers()
        amps = amplitude(field, n)
        ratio = amps[1:] / amps[:-1]
        expected = np.sqrt(field.mean_photon_number / (n[:-1] + 1.0)) * np.exp(1.1j)
        assert np.allclose(ratio, expected, rtol=1e-8)

    def test_retained_mass_within_tail_tolerance(self):
        field = make_coherent(1e4, tail_tol=1e-12)
        total = float(field.probabilities().sum())
        assert 1.0 - 1e-12 <= total <= 1.0 + 1e-14
        assert total == pytest.approx(1.0 - field.tail_mass, abs=1e-14)
        # independent check of the window mass against scipy's pmf
        direct = float(poisson.pmf(field.photon_numbers(), 1e4).sum())
        assert total == pytest.approx(direct, abs=1e-9)

    def test_log_space_stability_at_1e6(self):
        # Mode weight of Poisson(N) approaches (2 pi N)^(-1/2) (Stirling).
        field = make_coherent(1e6)
        peak = float(field.probabilities().max())
        assert np.isfinite(field.log_magnitude).all()
        assert peak == pytest.approx((2 * math.pi * 1e6) ** -0.5, rel=1e-2)
        assert field.tail_mass <= 1e-12

    def test_window_is_sqrt_n_sized(self):
        field = make_coherent(1e4)
        assert field.n_offset >= 1e4 - 50 * 100 - 100
        assert field.n_max <= 1e4 + 50 * 100 + 100
        assert field.size < 4000

    @pytest.mark.parametrize("n_mean", [1e4, 1e6])
    def test_log_magnitudes_match_exact_integer_ratios(self, n_mean):
        # |C_n|^2 / |C_lo|^2 = N^(n-lo) lo! / n!, a ratio of integers that
        # Python's int true division rounds correctly.
        field = make_coherent(n_mean)
        lo, big_n = field.n_offset, int(n_mean)
        for n in (lo + 1, big_n - 1, big_n, big_n + 1, field.n_max):
            exact = math.log(big_n ** (n - lo) / math.prod(range(lo + 1, n + 1)))
            got = 2.0 * (field.log_magnitude[n - lo] - field.log_magnitude[0])
            assert abs(got - exact) <= 1e-12, (n, got - exact)

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, math.nan])
    def test_rejects_nonpositive_mean(self, bad):
        with pytest.raises(ValueError):
            make_coherent(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_phase(self, bad):
        # inf % 2 pi is nan: the phase must be checked before it is stored.
        with pytest.raises(ValueError, match="phase must be finite"):
            make_coherent(10.0, phase=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 2.0, -1e-3])
    def test_rejects_bad_tail_tol(self, bad):
        with pytest.raises(ValueError):
            make_coherent(10.0, tail_tol=bad)

    def test_unattainable_tail_raises(self):
        # At N=1 the hard cap n_max ~ 151 leaves pmf(151) ~ 1e-265.  The
        # window, and with it the error, comes when something reads it.
        field = make_coherent(1.0, tail_tol=1e-300)
        with pytest.raises(ValueError, match="unattainable"):
            field.window

    def test_oversized_window_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"MAX_LEVELS={MAX_LEVELS}"):
                make_coherent(1e20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_mean", [1e2, 1e4, 1e6, 1e8])
    def test_window_helper_gives_the_default_window(self, n_mean):
        field = make_coherent(n_mean)
        assert coherent_window(n_mean) == (field.n_offset, field.n_max)

    def test_window_helper_rejects_oversized_n(self):
        with pytest.raises(ValueError, match=f"MAX_LEVELS={MAX_LEVELS}"):
            coherent_window(1e20)

    def test_amplitude_outside_window_is_zero(self):
        field = make_coherent(100.0)
        assert amplitude(field, 0) == 0
        assert amplitude(field, field.n_max + 1) == 0

    def test_json_dict_keys(self):
        field = make_coherent(10.0)
        payload = field.to_json_dict()
        assert set(payload) == {"n_offset", "magnitudes-log", "phase", "N", "tail_mass"}
        assert payload["N"] == 10.0
        assert len(payload["magnitudes-log"]) == field.size
        assert np.allclose(np.exp(1j * np.array(payload["phase"])),
                           amplitude(field, field.photon_numbers()) / field.probabilities() ** 0.5,
                           rtol=0, atol=1e-12)


class TestQuadrature:
    def test_nodes_match_hermegauss(self):
        from numpy.polynomial.hermite_e import hermegauss
        z, w = hermite_nodes()
        z_ref, w_ref = hermegauss(NODES)
        assert np.max(np.abs(z - z_ref)) <= 5e-15
        assert np.max(np.abs(w / (w_ref / math.sqrt(TWO_PI)) - 1.0)) <= 2e-14

    @pytest.mark.parametrize("n_mean", [QUAD_MIN_N, 1e5, 1e8, 1e12])
    def test_weights_hold_the_poisson_moments(self, n_mean):
        # Poisson: mean N, variance N, third central moment N, so in
        # z = (n - N) / sqrt(N) the moments are 1, 0, 1 and 1/sqrt(N).
        z, weights = make_coherent(n_mean).quadrature
        moments = [math.fsum(weights * z ** k) for k in range(4)]
        assert moments[0] == pytest.approx(1.0, rel=0, abs=2e-15)
        assert moments[1] == pytest.approx(0.0, rel=0, abs=2e-15)
        assert moments[2] == pytest.approx(1.0, rel=0, abs=1e-14)
        assert moments[3] == pytest.approx(1.0 / math.sqrt(n_mean), rel=1e-12, abs=1e-14)

    def test_starts_at_the_threshold(self):
        assert make_coherent(QUAD_MIN_N * (1 - 1e-12)).quadrature is None
        assert len(make_coherent(QUAD_MIN_N).quadrature[0]) == NODES
        assert make_number_state(5000).quadrature is None
        assert make_coherent(1e4).window.quadrature is None

    def test_builds_no_window(self):
        # The window of N = 1e11 would hold 5e6 levels (40 MB).
        tracemalloc.start()
        try:
            field = make_coherent(1e11)
            field.quadrature
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert "window" not in vars(field)


class TestFieldState:
    @staticmethod
    def field_of(log_magnitude):
        return FieldState(n_offset=0, log_magnitude=log_magnitude, mean_photon_number=1.0,
                          coherent_phase=0.0, tail_mass=0.0, kind="coherent")

    def test_copies_the_callers_array(self):
        a = np.zeros(3)
        field = self.field_of(a)
        a[0] = 1.0
        assert np.array_equal(field.log_magnitude, np.zeros(3))
        assert not field.log_magnitude.flags.writeable

    def test_keeps_a_read_only_array(self):
        # make_coherent hands over its frozen window, so no sweep point copies it.
        field = make_coherent(100.0)
        assert not field.log_magnitude.flags.writeable
        assert self.field_of(field.log_magnitude).log_magnitude is field.log_magnitude


class TestNumberState:
    def test_vacuum(self):
        field = make_number_state(0)
        assert field.n_offset == 0 and field.n_max == 0
        assert amplitude(field, 0) == 1.0
        assert amplitude(field, 1) == 0.0

    def test_occupation_and_mean(self):
        field = make_number_state(5)
        assert field.mean_photon_number == 5.0
        assert field.tail_mass == 0.0
        assert float(field.probabilities().sum()) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_number_state(-1)


class TestCentralMoments:
    def test_direct_matches_known_values(self):
        field = make_coherent(10.0)
        mu = central_moments_direct(field, 2)
        assert mu[0] == pytest.approx(1.0, abs=1e-12)
        assert mu[1] == pytest.approx(0.0, abs=1e-12)
        assert mu[2] == pytest.approx(0.1, rel=1e-9)  # mu_2 = 1/N

        mu100 = central_moments_direct(make_coherent(100.0), 3)
        assert mu100[3] == pytest.approx(1e-4, rel=1e-6)  # mu_3 = 1/N^2

    def test_recursive_known_values(self):
        mu = central_moments_recursive(10.0, 6)
        assert mu[0] == 1.0 and mu[1] == 0.0
        assert mu[2] == pytest.approx(0.1, rel=1e-15, abs=0)
        assert mu[3] == pytest.approx(0.01, rel=1e-15, abs=0)
        # one more unrolling: mu_4 = 3/N^2 + 1/N^3
        assert mu[4] == pytest.approx(3e-2 + 1e-3, rel=1e-14, abs=0)
        # mu_5 = 10/N^3 + 1/N^4, mu_6 = 15/N^3 + 25/N^4 + 1/N^5
        assert mu[5] == pytest.approx(1e-2 + 1e-4, rel=1e-14, abs=0)
        assert mu[6] == pytest.approx(1.5e-2 + 2.5e-3 + 1e-5, rel=1e-14, abs=0)
        # at N = 1 the moments are the no-singleton partition counts D_k
        mu1 = central_moments_recursive(1.0, 6)
        assert (mu1[4], mu1[5], mu1[6]) == (4.0, 11.0, 41.0)

    @pytest.mark.parametrize("n_mean", [2.0, 10.0, 100.0])
    def test_direct_agrees_with_recursion(self, n_mean):
        field = make_coherent(n_mean)
        direct = central_moments_direct(field, 6)
        recursive = central_moments_recursive(n_mean, 6)
        assert np.max(np.abs(direct - recursive)) <= 1e-8

    @given(st.floats(min_value=5.0, max_value=500.0))
    @settings(max_examples=25, deadline=None)
    def test_direct_agrees_with_recursion_randomized(self, n_mean):
        field = make_coherent(n_mean)
        direct = central_moments_direct(field, 6)
        recursive = central_moments_recursive(n_mean, 6)
        assert np.max(np.abs(direct - recursive)) <= 1e-8

    @pytest.mark.parametrize("n_mean", [10.0, 100.0, 1e4])
    def test_inverse_n_bound_holds_for_large_n(self, n_mean):
        mu = central_moments_recursive(n_mean, 6)
        assert all(mu[k] <= 1.0 / n_mean + 1e-15 for k in range(1, 7))

    def test_inverse_n_bound_counterexample_at_small_n(self):
        # The 1/N bound on mu_k fails at N=1 for k >= 4: mu_4 = 3 + 1 = 4.
        mu = central_moments_recursive(1.0, 4)
        assert mu[4] == pytest.approx(4.0, rel=1e-12)
        field = make_coherent(1.0)
        direct = central_moments_direct(field, 4)
        # the (n-N)^4 weight amplifies the discarded 1e-12 mass tail ~1e4x
        assert direct[4] == pytest.approx(4.0, rel=1e-7)
        assert mu[4] > 1.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            central_moments_recursive(10.0, -1)
        with pytest.raises(ValueError):
            central_moments_direct(make_coherent(10.0), -2)

    @pytest.mark.parametrize("n_mean", [0.0, -1.0, math.nan])
    def test_recursion_rejects_non_positive_n(self, n_mean):
        with pytest.raises(ValueError, match="N must be positive, got"):
            central_moments_recursive(n_mean, 6)

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_moments(self):
        # At N = 1e-300, N^2 underflows to zero in the recursion for mu_3 and
        # ((n-N)/N)^2 overflows in the direct sum; at N = 1e-60 the recursion
        # stays finite (mu_6 = 1/N^5 = 1e300) while ((n-N)/N)^6 overflows.
        with pytest.raises(ValueError, match=r"mu_3 .* N=1e-300"):
            central_moments_recursive(1e-300, 6)
        with pytest.raises(ValueError, match=r"mu_2 .* N=1e-300"):
            central_moments_direct(make_coherent(1e-300), 6)
        with pytest.raises(ValueError, match=r"mu_6 .* N=1e-60"):
            central_moments_direct(make_coherent(1e-60), 6)
        assert central_moments_recursive(1e-60, 6)[6] == pytest.approx(1e300, rel=1e-12)

    def test_direct_requires_coherent_field(self):
        with pytest.raises(ValueError):
            central_moments_direct(make_number_state(3), 2)
