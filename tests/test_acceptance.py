"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check captured
output) and then asserts, so a red criterion still reports its number.
"""

import math

import numpy as np

from jcpulse import (
    ControlSpec,
    PulseSpec,
    QubitState,
    apply_channel,
    build_kraus,
    central_moments_direct,
    central_moments_recursive,
    classical_limit_distance,
    compare_sequence_vs_single,
    error_rate_exact,
    gea_banacloche,
    landscape_asymptote,
    make_coherent,
    make_number_state,
    ozawa_bound,
    resolve_pulse,
    run_sequence,
)
from paper_sums import diagonal_deviation, p_minus, p_plus

PI = math.pi
QUARTER_PI = PI / 4
TAIL_TOL = 1e-12


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion} failed: {detail}"


def quarter_pulse(n_mean, vartheta=QUARTER_PI):
    return make_coherent(n_mean, tail_tol=TAIL_TOL), PulseSpec.from_vartheta(vartheta, n_mean)


def test_c01_kraus_completeness():
    worst = 0.0
    for n_mean in (10.0, 1e2, 1e4):
        for vartheta in (QUARTER_PI, PI / 2):
            field, pulse = quarter_pulse(n_mean, vartheta)
            worst = max(worst, build_kraus(field, pulse).completeness_residual())
    report("C01 kraus completeness", worst <= 1e-10,
           f"max residual {worst:.3e} (allowed 1e-10)")


def test_c02_number_state_fully_mixes_ground():
    m = 16
    kraus = build_kraus(make_number_state(m),
                        PulseSpec.from_kappa(PI / (4 * math.sqrt(m)), m))
    out = apply_channel(QubitState.ground(), kraus).rho
    dev = max(abs(out[0, 0] - 0.5), abs(out[1, 1] - 0.5),
              abs(out[0, 1]), abs(out[1, 0]))
    report("C02 number-state mixing", dev <= 1e-12,
           f"max deviation from diag(1/2,1/2): {dev:.3e}")


def test_c03_scaled_error_coefficients():
    n_mean = 1e4
    expected = {
        (0.0, QUARTER_PI): (PI - 2) ** 2 / 64,
        (QUARTER_PI, QUARTER_PI): (PI + 2) ** 2 / 64,
        (PI / 2, QUARTER_PI): (PI + 2) ** 2 / 64,
        (3 * PI / 4, QUARTER_PI): (PI - 2) ** 2 / 64,
        (0.0, PI / 2): PI ** 2 / 16,
        (QUARTER_PI, PI / 2): (PI + 2) ** 2 / 16,
        (PI / 2, PI / 2): PI ** 2 / 16,
        (3 * PI / 4, PI / 2): (PI - 2) ** 2 / 16,
    }
    worst = 0.0
    for (theta0, theta), coeff in expected.items():
        field, pulse = quarter_pulse(n_mean, theta)
        scaled = n_mean * error_rate_exact(ControlSpec(theta0, theta), field, pulse)
        worst = max(worst, abs(scaled - coeff) / coeff)
    report("C03 table-2 coefficients", worst <= 0.03,
           f"worst relative deviation {worst:.4f} (allowed 0.03)")


def test_c04_reference_curve_ordering():
    ok = True
    for n_mean in np.geomspace(1e2, 1e4, 10):
        field, pulse = quarter_pulse(float(n_mean))
        ordered = (p_minus(field, pulse) < ozawa_bound(n_mean)
                   < gea_banacloche(n_mean) < p_plus(field, pulse))
        ok = ok and ordered
    report("C04 error-curve ordering", ok,
           "P- < 1/(16(N+1)) < (pi^2+4)/(64N) < P+ on 10-point log grid")


def test_c05_semiclassical_average():
    n_mean = 1e4
    field, pulse = quarter_pulse(n_mean)
    avg = n_mean * (p_plus(field, pulse) + p_minus(field, pulse)) / 2
    target = (PI ** 2 + 4) / 64
    rel = abs(avg - target) / target
    report("C05 semiclassical average", rel <= 0.02,
           f"N*(P+ + P-)/2 = {avg:.6f} vs {target:.6f} (rel {rel:.2e})")


def test_c06_pole_error_ratio():
    field, pulse = quarter_pulse(1e4)
    ratio = p_plus(field, pulse) / p_minus(field, pulse)
    report("C06 pole ratio", 18.0 <= ratio <= 23.0,
           f"P+/P- = {ratio:.3f} (allowed [18, 23])")


def test_c07_classical_limit_scaling():
    grid = np.array([1e2, 1e3, 1e4, 1e5])
    dists = [classical_limit_distance(QubitState.ground(), n, QUARTER_PI,
                                      tail_tol=TAIL_TOL) for n in grid]
    slope = float(np.polyfit(np.log(grid), np.log(dists), 1)[0])
    report("C07 classical-limit slope", abs(slope + 1.0) <= 0.15,
           f"log-log slope {slope:.4f} (allowed -1 +- 0.15)")


def test_c08_bias_cancellation():
    n_mean = 1e3
    field = make_coherent(n_mean, tail_tol=TAIL_TOL)
    ratios = []
    for sign, mode in ((1, "bias-free-plus"), (-1, "bias-free-minus")):
        tilde = resolve_pulse(mode, n_mean).vartheta
        baseline = diagonal_deviation(field, PulseSpec.from_vartheta(QUARTER_PI, n_mean), sign)
        cancelled = diagonal_deviation(field, PulseSpec.from_vartheta(tilde, n_mean), sign)
        ratios.append(cancelled / baseline)
    worst = max(ratios)
    report("C08 bias cancellation", worst <= 0.05,
           f"Delta(tilde)/Delta(pi/4) = {ratios[0]:.2e}, {ratios[1]:.2e} (allowed 0.05)")


def test_c09_optimality_flatness():
    scaled = []
    for n_mean in (1e3, 1e4):
        field = make_coherent(n_mean, tail_tol=TAIL_TOL)
        best = resolve_pulse("optimal-fidelity-minus", n_mean).vartheta
        gap = abs(p_minus(field, PulseSpec.from_vartheta(best, n_mean))
                  - p_minus(field, PulseSpec.from_vartheta(QUARTER_PI, n_mean)))
        scaled.append(gap * n_mean ** 2)
    ratio = max(scaled) / min(scaled)
    report("C09 optimality flatness", ratio <= 3.0,
           f"|P-(opt) - P-(pi/4)| * N^2 = {scaled[0]:.2e}, {scaled[1]:.2e} "
           f"(ratio {ratio:.2f}, allowed 3)")


def test_c10_sequence_accumulation():
    n_mean = 1e4

    def two_step(start):
        return run_sequence(start, [QUARTER_PI] * 2,
                            make_coherent(n_mean, tail_tol=TAIL_TOL)).per_step_error[-1]

    checks = [
        ("ground", two_step(0.0), (PI ** 2 + 4) / 32, 0.05),
        ("plus", two_step(QUARTER_PI), (PI + 2) ** 2 / 32, 0.05),
        ("threequarter", two_step(3 * PI / 4), (PI - 2) ** 2 / 32, 0.07),
    ]
    ok = True
    details = []
    for label, value, coeff, tol in checks:
        rel = abs(n_mean * value - coeff) / coeff
        ok = ok and rel <= tol
        details.append(f"{label} rel {rel:.2e} (tol {tol})")
    split, comparison = compare_sequence_vs_single(0.0, n_mean, tail_tol=TAIL_TOL)
    ordering = comparison.single_2N < split.per_step_error[-1] < comparison.single_N
    ok = ok and ordering
    details.append(f"single_2N < two_step < single_N: {ordering}")
    report("C10 sequence accumulation", ok, "; ".join(details))


def test_c11_landscape():
    n_mean = 1e4
    worst = 0.0
    ok_extremes = True
    for theta in (PI / 8, QUARTER_PI, PI / 2, 3 * PI / 4):
        field, pulse = quarter_pulse(n_mean, theta)
        exacts = []
        for midpoint in np.linspace(0.0, PI / 2, 9):
            exact = error_rate_exact(ControlSpec(float(midpoint) - theta / 2, theta),
                                     field, pulse)
            asym = landscape_asymptote(float(midpoint), theta, n_mean)
            worst = max(worst, abs(n_mean * exact - n_mean * asym) / (n_mean * asym))
            exacts.append(exact)
        ok_extremes = ok_extremes and np.argmax(exacts) == 8 and np.argmin(exacts) == 0
    report("C11 landscape", worst <= 0.05 and ok_extremes,
           f"worst relative deviation {worst:.4f} (allowed 0.05); "
           f"extremes at midpoint pi/2 / 0: {ok_extremes}")


def test_c12_moments():
    agree = 0.0
    for n_mean in (2.0, 10.0, 100.0):
        direct = central_moments_direct(make_coherent(n_mean, tail_tol=TAIL_TOL), 6)
        recursive = central_moments_recursive(n_mean, 6)
        agree = max(agree, float(np.max(np.abs(direct - recursive))))
    agreement_ok = agree <= 1e-8

    # Assert mu_1 = 0 and mu_k <= D_k / N^ceil(k/2) for k >= 2, N >= 1, on the
    # documented grid.  mu_k = sum_j a_{k,j} / N^(k-j), where a_{k,j} counts
    # the partitions of k items into j blocks with no singleton, so its
    # slowest term is 1/N^ceil(k/2) and D_k = sum_j a_{k,j} is mu_k at N = 1,
    # where the bound is tight.  D_k obeys the moment recursion with N = 1;
    # here it is computed in integers: 1, 0, 1, 1, 4, 11, 41.
    d = [1, 0]
    for k in range(2, 7):
        d.append(sum(math.comb(k - 1, i) * d[k - 1 - i] for i in range(1, k)))
    violations = []
    plain_violations = []
    for n_mean in (1.0, 10.0, 100.0, 1e4):
        mu = central_moments_recursive(n_mean, 6)
        if mu[1] != 0.0:
            violations.append((n_mean, 1, mu[1]))
        for k in range(2, 7):
            scaled = n_mean ** math.ceil(k / 2) * mu[k]
            if scaled > d[k] * (1.0 + 1e-12):
                violations.append((n_mean, k, scaled))
            if mu[k] > 1.0 / n_mean:
                plain_violations.append((n_mean, k))
    bound_ok = not violations

    report("C12 moments",
           agreement_ok and bound_ok,
           f"direct-vs-recursive max gap {agree:.2e} (allowed 1e-8); "
           f"N^ceil(k/2)*mu_k <= D_k = {d[2:]} violations {violations or 'none'}; "
           f"plain mu_k <= 1/N (not asserted) fails at {plain_violations or 'none'}")


def test_c13_channel_property_suite():
    rng = np.random.default_rng(20120910)
    worst_cptp = 0.0
    worst_linear = 0.0
    for _ in range(100):
        n_mean = 10 ** rng.uniform(0.0, 4.0)
        vartheta = rng.uniform(0.0, PI)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        state = QubitState(rho=rho / rho.trace())

        field = make_coherent(n_mean, tail_tol=TAIL_TOL)
        kraus = build_kraus(field, PulseSpec.from_vartheta(vartheta, n_mean))
        out = apply_channel(state, kraus).rho

        herm = float(np.max(np.abs(out - out.conj().T)))
        trace = abs(out.trace() - 1.0)
        min_eig = float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min())
        worst_cptp = max(worst_cptp, herm, trace, max(0.0, -min_eig))

        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        other = b @ b.conj().T
        other /= other.trace()
        alpha = rng.uniform()
        mixed = QubitState(rho=alpha * state.rho + (1 - alpha) * other)
        lhs = apply_channel(mixed, kraus).rho
        rhs = (alpha * apply_channel(state, kraus).rho
               + (1 - alpha) * apply_channel(QubitState(rho=other), kraus).rho)
        worst_linear = max(worst_linear, float(np.max(np.abs(lhs - rhs))))

    ok = worst_cptp <= 10 * TAIL_TOL and worst_linear <= 1e-12
    report("C13 channel properties", ok,
           f"worst CPTP defect {worst_cptp:.2e} (allowed 1e-11), "
           f"worst linearity defect {worst_linear:.2e} (allowed 1e-12)")
