import math

import numpy as np
import pytest

from jcpulse import (
    ControlSpec,
    build_kraus,
    compare_sequence_vs_single,
    error_rate_exact,
    make_coherent,
    resolve_pulse,
    run_sequence,
)
from jcpulse import error_metrics, pulse_sequence
from qubit_helpers import fsum_gram, phase_free_operators

PI = math.pi
QUARTER_PI = PI / 4


def two_step(start, n_mean, mode="bias-free"):
    return run_sequence(start, [QUARTER_PI] * 2, make_coherent(n_mean), mode=mode)


def fsum_second_step_error(start, n_mean):
    """Step 2's error of ``two_step`` from per-level products and math.fsum only.

    With B the basis (middle target, its orthogonal target) the state after
    step 1 is sigma = fsum_gram(a), a_ni = b_i^T M_n psi, and the error is
    sum_ij sigma_ij G_ij with G = fsum_gram(g), g_ni = perp^T M'_n b_i.
    Every sum has terms of its own size, so the reference keeps about
    twelve digits at N = 1e8 (a lab-basis state would lose about seven)."""
    field = make_coherent(n_mean)
    first, second = (phase_free_operators(build_kraus(
        field, resolve_pulse("bias-free", n_mean, base=QUARTER_PI, start_angle=angle)))
        for angle in (start, start + QUARTER_PI))
    middle = start + QUARTER_PI
    basis = np.array([[math.sin(middle), math.cos(middle)],  # R(middle)|0>, R(middle)|1>
                      [math.cos(middle), -math.sin(middle)]])
    sigma = fsum_gram(basis @ first @ np.array([math.sin(start), math.cos(start)]))
    last = middle + QUARTER_PI
    gram = fsum_gram(np.array([math.cos(last), -math.sin(last)]) @ second @ basis.T)
    return math.fsum((sigma * gram).real.ravel())


class TestTwoStepAccumulation:
    def test_ground_start_matches_doubled_semiclassical(self):
        n_mean = 1e4
        report = two_step(0.0, n_mean)
        assert n_mean * report.per_step_error[-1] == pytest.approx(
            (PI ** 2 + 4) / 32, rel=0.05)

    def test_plus_start(self):
        n_mean = 1e4
        report = two_step(QUARTER_PI, n_mean)
        assert n_mean * report.per_step_error[-1] == pytest.approx(
            (PI + 2) ** 2 / 32, rel=0.05)

    def test_threequarter_start(self):
        n_mean = 1e4
        report = two_step(3 * QUARTER_PI, n_mean)
        assert n_mean * report.per_step_error[-1] == pytest.approx(
            (PI - 2) ** 2 / 32, rel=0.07)

    def test_flip_equivalence_of_pole_starts(self):
        n_mean = 1e4
        ground = two_step(0.0, n_mean)
        excited = two_step(PI / 2, n_mean)
        assert ground.per_step_asymptote[-1] == pytest.approx(
            (PI ** 2 + 4) / (32 * n_mean), rel=1e-12, abs=0)
        assert excited.per_step_asymptote[-1] == pytest.approx(
            (PI ** 2 + 4) / (32 * n_mean), rel=1e-12, abs=0)
        assert ground.per_step_error[-1] == pytest.approx(
            excited.per_step_error[-1], rel=0.05)

    @pytest.mark.parametrize("n_mean", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("start", [0.0, QUARTER_PI, PI / 2, 3 * QUARTER_PI],
                             ids=["ground", "plus", "excited", "threequarter"])
    def test_second_step_error_matches_fsum_reference(self, start, n_mean):
        # The second step weighs the state after the first, whose small
        # eigenvalue is O(1/N); the bound is 100x the worst case seen.
        report = two_step(start, n_mean)
        assert report.per_step_error[1] == pytest.approx(
            fsum_second_step_error(start, n_mean), rel=1e-12, abs=0.0)

    def test_report_shapes(self):
        report = two_step(0.0, 1e3)
        assert len(report.per_step_error) == 2
        assert report.target_angles == (QUARTER_PI, PI / 2)
        assert len(report.per_step_mixture) == len(report.per_step_asymptote) == 2



class TestMixtureComposition:
    def test_mixture_tracks_exact(self):
        report = two_step(0.0, 1e4)
        assert report.per_step_mixture[-1] == pytest.approx(
            report.per_step_error[-1], rel=1e-3)

    def test_mixture_discrepancy_vanishes_in_n(self):
        gaps = []
        for n_mean in (1e3, 1e4):
            report = two_step(0.0, n_mean)
            gaps.append(abs(report.per_step_error[-1] - report.per_step_mixture[-1]) * n_mean)
        assert gaps[1] < gaps[0] / 3

    @pytest.mark.parametrize("start,mode", [
        (0.0, "bias-free"), (QUARTER_PI, "optimal-fidelity"), (3 * PI / 4, "quarter-pi"),
    ])
    def test_mixture_matches_fresh_field_recomputation(self, start, mode):
        # The run evaluates both branches on its one Kraus set per step; a
        # freshly built field per control must give the same bits.
        n_mean = 1e3
        report = two_step(start, n_mean, mode)
        angle, mixture, expected = start, 0.0, []
        for _ in range(2):
            pulse = resolve_pulse(mode, n_mean, base=QUARTER_PI, start_angle=angle)
            p_follow = error_rate_exact(ControlSpec(angle, QUARTER_PI),
                                        make_coherent(n_mean), pulse)
            p_leaked = error_rate_exact(ControlSpec(angle + PI / 2, QUARTER_PI),
                                        make_coherent(n_mean), pulse)
            mixture = p_follow * (1.0 - mixture) + (1.0 - p_leaked) * mixture
            expected.append(mixture)
            angle += QUARTER_PI
        assert report.per_step_mixture == tuple(expected)

    @pytest.mark.parametrize("n_mean", [1e3, 1e8])
    @pytest.mark.parametrize("start", [0.0, QUARTER_PI, PI / 2, 3 * QUARTER_PI],
                             ids=["ground", "plus", "excited", "threequarter"])
    def test_first_step_mixture_equals_exact_pure_error(self, start, n_mean):
        # Step 1 weighs the pure start on one Kraus set in both estimates.
        report = two_step(start, n_mean)
        assert report.per_step_mixture[0] == report.per_step_error[0]


class TestSequenceInvariants:
    def test_monotone_photon_budget(self):
        values = [two_step(0.0, n_mean).per_step_error[-1]
                  for n_mean in (1e3, 3e3, 1e4, 3e4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rerun_is_bitwise_identical(self):
        first = two_step(0.0, 1e3)
        second = two_step(0.0, 1e3)
        assert first.per_step_error == second.per_step_error
        assert first.per_step_mixture[-1] == second.per_step_mixture[-1]
        assert first == second


class TestSingleVsSplit:
    def test_ground_start_ordering(self):
        report, result = compare_sequence_vs_single(0.0, 1e4)
        assert result.single_2N < report.per_step_error[-1] < result.single_N

    def test_equatorial_start_energy_equivalence(self):
        report, result = compare_sequence_vs_single(QUARTER_PI, 1e4)
        assert report.per_step_error[-1] == pytest.approx(result.single_2N, rel=0.10)

    def test_large_budget_consistency(self):
        report, result = compare_sequence_vs_single(0.0, 1e5)
        assert max(report.per_step_error[-1], *result) <= 1e-4

    def test_comparison_runs_the_two_step_sequence(self):
        report, comparison = compare_sequence_vs_single(QUARTER_PI, 1e3, mode="bias-free")
        assert report.per_step_error == two_step(QUARTER_PI, 1e3).per_step_error
        assert comparison == compare_sequence_vs_single(QUARTER_PI, 1e3)[1]

    def test_comparison_shares_the_budget_n_field(self, monkeypatch):
        built = {"fields": 0, "kraus": 0}

        def counted(name, build):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pulse_sequence, "make_coherent",
                            counted("fields", pulse_sequence.make_coherent))
        build_kraus = counted("kraus", pulse_sequence.build_kraus)
        monkeypatch.setattr(pulse_sequence, "build_kraus", build_kraus)
        monkeypatch.setattr(error_metrics, "build_kraus", build_kraus)
        compare_sequence_vs_single(0.0, 1e3)
        assert built["fields"] == 2
        assert built["kraus"] <= 3
