import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_reduced_state, rng_from
from subkraus import casestudy
from subkraus.casestudy import (
    DampingRates,
    ModelInconsistencyError,
    ModelParams,
    bose_occupation,
    closed_form_b,
    closed_form_subsystem_map,
    composite_hamiltonian,
    composite_kraus,
    composite_kraus_grid,
    damping_rates,
    ohmic_spectral_density,
    qubit_state,
    to_schrodinger,
)
from subkraus.channels import (
    apply_map,
    channel_distance,
    completeness_defect,
    maximally_mixed,
    pure_state,
)
from subkraus.linalg import evolution_unitary
from subkraus.reduction import Bipartition, reduce_subsystem

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDampingRates:
    def test_symmetric_coupling_gives_equal_rates(self):
        params = ModelParams(omega=1.0, beta=0.0, temperature=5.0, alpha=0.02, nu_c=4.0)
        rates = damping_rates(params)
        assert rates.gamma1 == pytest.approx(rates.gamma2, abs=0.0)

    def test_regression_constants(self):
        # frozen from an independent 40-digit evaluation of the rate formula
        params = ModelParams(
            omega=1.0, beta=0.2, temperature=10.0, alpha=0.01, nu_c=5.0, nu_max=50.0
        )
        rates = damping_rates(params)
        assert rates.gamma1 == pytest.approx(0.95402542030734614, rel=1e-14)
        assert rates.gamma2 == pytest.approx(1.00310649192999490, rel=1e-14)

    def test_low_temperature_limit(self):
        params = ModelParams(omega=1.0, beta=0.2, temperature=1e-3, alpha=0.01, nu_c=5.0)
        rates = damping_rates(params)
        assert rates.gamma1 < 1e-10
        assert rates.gamma2 < 1e-10

    def test_printed_occupation_sign_rejected(self):
        params = ModelParams(omega=1.0, beta=0.2, temperature=10.0, alpha=0.01, nu_c=5.0)
        assert bose_occupation(1.1, 10.0, "printed") < 0
        with pytest.raises(ValueError, match="negative rates"):
            damping_rates(params, convention="printed")

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(omega=0.5, beta=1.2, temperature=10.0, alpha=0.01, nu_c=5.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            DampingRates(-0.1, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_name_the_field(self, bad):
        with pytest.raises(ValueError, match="gamma1"):
            DampingRates(bad, 0.5)
        with pytest.raises(ValueError, match="gamma2"):
            DampingRates(0.5, bad)
        with pytest.raises(ValueError, match="time t"):
            composite_kraus(bad, DampingRates(0.3, 1.0))
        with pytest.raises(ValueError, match="time t"):
            closed_form_b(bad, DampingRates(0.3, 1.0), 0.3)

    @pytest.mark.parametrize("field", ["omega", "beta", "temperature", "alpha", "nu_c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model_params_reject_non_finite_by_name(self, field, bad):
        good = dict(omega=1.0, beta=0.2, temperature=10.0, alpha=0.01, nu_c=5.0)
        with pytest.raises(ValueError, match=f"parameter {field} must be finite"):
            ModelParams(**{**good, field: bad})

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_mistyped_inputs_name_the_field(self, bad):
        with pytest.raises(ValueError, match="damping rate gamma1 must be a real number"):
            DampingRates(bad, 0.5)
        with pytest.raises(ValueError, match="damping rate gamma2 must be a real number"):
            DampingRates(0.5, bad)
        with pytest.raises(ValueError, match="time t must be a real number"):
            composite_kraus(bad, DampingRates(0.3, 1.0))
        with pytest.raises(ValueError, match="time t must be a real number"):
            closed_form_b(bad, DampingRates(0.3, 1.0), 0.3)

    def test_model_params_nu_max(self):
        good = dict(omega=1.0, beta=0.2, temperature=10.0, alpha=0.01, nu_c=5.0)
        assert ModelParams(**good).nu_max == math.inf
        with pytest.raises(ValueError, match="nu_max"):
            ModelParams(**good, nu_max=math.nan)

    def test_model_params_reject_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            ModelParams(omega=1.0, beta=0.2, temperature=10.0, alpha=-0.1, nu_c=5.0)

    def test_tau_and_asymmetry(self):
        rates = DampingRates(0.3, 1.0)
        assert rates.tau(2.0) == pytest.approx(2.6)
        assert rates.asymmetry == pytest.approx(-0.7 / 1.3)
        with pytest.raises(ValueError):
            _ = DampingRates(0.0, 0.0).asymmetry

    def test_ohmic_density(self):
        assert ohmic_spectral_density(1.1, 0.01, 5.0) == pytest.approx(
            0.011 * math.exp(-0.22), rel=1e-15
        )

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            bose_occupation(1.0, 1.0, "bogus")


class TestCompositeKraus:
    def test_initial_time_is_identity(self):
        kmap = composite_kraus(0.0, DampingRates(0.3, 1.0))
        for op in kmap.operators[:7]:
            assert np.abs(op).max() == 0.0
        np.testing.assert_allclose(kmap.operators[7], -np.eye(4), atol=1e-15)

    def test_frozen_when_rates_vanish(self):
        kmap = composite_kraus(5.0, DampingRates(0.0, 0.0))
        np.testing.assert_allclose(kmap.operators[7], -np.eye(4), atol=1e-15)

    def test_k5_matrix_entries(self):
        rates = DampingRates(0.3, 1.0)
        t = 0.07
        k5 = composite_kraus(t, rates).operators[4]
        value = (1 - math.exp(-16 * t * rates.gamma2)) / 2
        assert k5[1, 1] == pytest.approx(-value, abs=1e-15)
        assert k5[3, 3] == pytest.approx(value, abs=1e-15)
        assert np.abs(np.diag([0.0, -value, 0.0, value]) - k5).max() < 1e-15

    def test_k1_matrix_entries(self):
        rates = DampingRates(0.3, 1.0)
        t = 0.07
        k1 = composite_kraus(t, rates).operators[0]
        value = 1j * math.sqrt(1 - math.exp(-32 * t * rates.gamma2)) / 2
        assert k1[1, 3] == pytest.approx(value, abs=1e-15)
        assert k1[3, 1] == pytest.approx(np.conj(value), abs=1e-15)

    def test_k6_k3_use_gamma1(self):
        rates = DampingRates(0.3, 1.0)
        t = 0.07
        kmap = composite_kraus(t, rates)
        assert kmap.operators[5][0, 0] == pytest.approx(
            (1 - math.exp(-16 * t * rates.gamma1)) / 2, abs=1e-15
        )
        assert kmap.operators[2][0, 2] == pytest.approx(
            math.sqrt(1 - math.exp(-32 * t * rates.gamma1)) / 2, abs=1e-15
        )

    @given(seeds)
    @settings(max_examples=30)
    def test_hermitian_and_complete(self, seed):
        rng = rng_from(seed)
        rates = DampingRates(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)))
        t = float(rng.uniform(0.0, 8.0 / (rates.gamma1 + rates.gamma2)))
        kmap = composite_kraus(t, rates)
        for op in kmap.operators:
            assert np.abs(op - op.conj().T).max() < 1e-12
        assert completeness_defect(kmap) < 1e-8

    def test_completeness_on_grid_with_logged_maximum(self):
        rates = DampingRates(0.7, 0.4)
        total = rates.gamma1 + rates.gamma2
        taus = np.linspace(0.0, 1.0, 100)
        worst = np.max([completeness_defect(composite_kraus(tau / total, rates)) for tau in taus])
        print(f"measured composite completeness maximum over grid: {worst:.3e}")
        assert worst < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            composite_kraus(-0.1, DampingRates(0.3, 1.0))


class TestCompositeKrausGrid:
    def test_each_point_equals_composite_kraus(self):
        rates = DampingRates(0.3, 1.0)
        ts = np.linspace(0.0, 3.0, 31)
        grid = composite_kraus_grid(ts, rates)
        assert grid.shape == (31, 8, 4, 4)
        for t, ops in zip(ts, grid):
            np.testing.assert_array_equal(ops, composite_kraus(float(t), rates).stacked())

    def test_empty_grid(self):
        grid = composite_kraus_grid([], DampingRates(0.3, 1.0))
        assert grid.shape == (0, 8, 4, 4)

    def test_read_only(self):
        grid = composite_kraus_grid([0.1], DampingRates(0.3, 1.0))
        with pytest.raises(ValueError):
            grid[0, 0, 0, 0] = 1.0

    def test_decohered_limit(self):
        # every exponential underflows to zero: the branch where the coherence
        # Gram matrix is a multiple of the identity
        kmap = composite_kraus(1e4, DampingRates(0.3, 1.0))
        np.testing.assert_allclose(np.diag(kmap.operators[6]).real, [0, 0.5, 0, 0.5], atol=1e-15)
        np.testing.assert_allclose(np.diag(kmap.operators[7]).real, [-0.5, 0, -0.5, 0], atol=1e-15)
        assert completeness_defect(kmap) < 1e-15

    @pytest.mark.parametrize("g1,g2", [(0.7, 0.4), (1.0, 1.0), (0.1, 2.0), (2.0, 0.1), (0.0, 1.0)])
    def test_complete_at_large_times(self, g1, g2):
        # once exp(-8 (gamma1 + gamma2) t) drops below 1e-154 its square
        # underflows, and below 1e-308 it is subnormal; the diagonal sector
        # must stay normalized through both
        ts = np.concatenate((np.linspace(0.0, 200.0, 2001), np.geomspace(1e-3, 1e300, 301)))
        defects = completeness_defect(composite_kraus_grid(ts, DampingRates(g1, g2)))
        assert defects.max() < 1e-14

    def test_diagonal_sector_without_cancellation(self):
        # at gamma1 < gamma2 the lam_plus eigenvector's textbook form cancels
        # catastrophically; there its component ratio is eps / delta to
        # relative order (eps / delta)^2
        kmap = composite_kraus(2.0, DampingRates(0.5, 1.5))
        x1, x2 = math.exp(-16.0), math.exp(-48.0)
        eps = math.exp(-32.0)
        ratio = eps / (((1 + x1) ** 2 - (1 + x2) ** 2) / 4)  # second / first component
        k8 = np.diag(kmap.operators[7]).real
        assert k8[1] / k8[0] == pytest.approx(ratio, rel=1e-6)

    def test_small_diagonal_entries_match_50_digits(self):
        # x1 ~ 2e-13 and x2 ~ 2e-30, so delta = m11 - m22 ~ x1 / 2 is below
        # the rounding of (1 + x1)^2 / 4; the reference is the same spectral
        # factorization in 50-digit decimal arithmetic
        gamma1, gamma2, t = 0.637, 1.5, 2.85
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            g1, g2, tt = Decimal(gamma1), Decimal(gamma2), Decimal(t)
            x1, x2 = (-16 * g1 * tt).exp(), (-16 * g2 * tt).exp()
            eps = (-8 * (g1 + g2) * tt).exp()
            m11, m22 = (1 + x1) ** 2 / 4, (1 + x2) ** 2 / 4
            delta = m11 - m22
            big_r = (delta * delta + 4 * eps * eps).sqrt()
            lam_minus, lam_plus = (m11 + m22 - big_r) / 2, (m11 + m22 + big_r) / 2
            # delta > 0: eigenvectors (eps, -(R + delta) / 2) for lam_minus and
            # (-(R + delta) / 2, -eps) for lam_plus
            norm = (eps * eps + ((big_r + delta) / 2) ** 2).sqrt()
            k7 = lam_minus.sqrt() * eps / norm  # operator 6, entry (0, 0)
            k8 = -lam_plus.sqrt() * eps / norm  # operator 7, entry (1, 1)
        ops = composite_kraus_grid([t], DampingRates(gamma1, gamma2))[0]
        for got, want in ((ops[6, 0, 0], k7), (ops[7, 1, 1], k8)):
            assert got.imag == 0.0
            assert abs((Decimal(got.real) - want) / want) <= Decimal("1e-13")

    @pytest.mark.parametrize("rates", [(0.3, 1.0), (0.7, 0.4), (0.5, 0.5)])
    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1e-3, 2.85])
    def test_diagonal_operators_match_50_digits(self, t, rates):
        # operators 6 and 7 are sqrt(lam_-/+) times the unit eigenvectors of M;
        # lam_minus ~ t^2 at small t, where (m11 + m22 - R) / 2 cancels to
        # nothing in floating point. Past gamma t ~ 90 eps underflows and the
        # eigenvectors follow the decohered convention, so that is left out.
        gamma1, gamma2 = rates
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            g1, g2, tt = Decimal(gamma1), Decimal(gamma2), Decimal(t)
            x1, x2 = (-16 * g1 * tt).exp(), (-16 * g2 * tt).exp()
            eps = (-8 * (g1 + g2) * tt).exp()
            m11, m22 = (1 + x1) ** 2 / 4, (1 + x2) ** 2 / 4
            delta = m11 - m22
            big_r = (delta * delta + 4 * eps * eps).sqrt()
            lam = ((m11 + m22 - big_r) / 2, (m11 + m22 + big_r) / 2)
            # the eigenvector components each operator puts on |00>, |10> and
            # on |01>, |11>, taken from the row of M - lam that does not cancel
            vectors = (
                (eps, -(big_r + delta) / 2) if delta >= 0 else ((big_r - delta) / 2, -eps),
                (-eps, -(big_r - delta) / 2) if delta <= 0 else (-(big_r + delta) / 2, -eps),
            )
            want = []
            for lam_k, (first, second) in zip(lam, vectors):
                scale = lam_k.sqrt() / (first * first + second * second).sqrt()
                want.append((first * scale, second * scale))
        ops = composite_kraus_grid([t], DampingRates(gamma1, gamma2))[0]
        for k, (first, second) in enumerate(want):
            op = ops[6 + k]
            assert np.count_nonzero(op - np.diag(np.diag(op))) == 0
            for got, value in zip(np.diag(op), (first, second, first, second)):
                assert got.imag == 0.0
                assert abs((Decimal(got.real) - value) / value) <= Decimal("1e-13"), (k, got)

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 2.85, 1e3])
    def test_damping_operators_match_50_digits(self, t):
        # operators 0-5 hold q_p = sqrt(1 - x_p^2) / 2 and p_p = (1 - x_p) / 2
        # with x_p = exp(-16 gamma_p t); formed from x_p in floating point
        # they cancel at small t. t = 1e3 puts gamma2 t at 1e3, where
        # x_p underflows and both are 1/2.
        gamma1, gamma2 = 0.3, 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            q, p = [], []
            for gamma in (gamma1, gamma2):
                x = (-16 * Decimal(gamma) * Decimal(t)).exp()
                q.append((1 - x * x).sqrt() / 2)
                p.append((1 - x) / 2)
        # (operator, row, column) -> (coefficient, value): the nonzero entries
        want = {
            (0, 1, 3): (1j, q[1]), (0, 3, 1): (-1j, q[1]),
            (1, 1, 3): (-1, q[1]), (1, 3, 1): (-1, q[1]),
            (2, 0, 2): (1, q[0]), (2, 2, 0): (1, q[0]),
            (3, 0, 2): (-1j, q[0]), (3, 2, 0): (1j, q[0]),
            (4, 1, 1): (-1, p[1]), (4, 3, 3): (1, p[1]),
            (5, 0, 0): (1, p[0]), (5, 2, 2): (-1, p[0]),
        }
        ops = composite_kraus_grid([t], DampingRates(gamma1, gamma2))[0]
        for index, z in np.ndenumerate(ops[:6]):
            if index not in want:
                assert z == 0.0
                continue
            coefficient, value = want[index]
            got = (z / coefficient).real
            assert (z / coefficient).imag == 0.0
            assert abs((Decimal(got) - value) / value) <= Decimal("1e-13"), index

    @pytest.mark.parametrize(
        "ts,message",
        [
            ([0.0, 0.1, np.nan], r"got nan \(ts\[2\]\)"),
            ([0.0, -0.5], r"got -0.5 \(ts\[1\]\)"),
            ([0.0, np.inf], r"got inf \(ts\[1\]\)"),
            (np.array([True, False]), "real numbers"),
            (["0.1"], "real numbers"),
            ([[0.1]], "1-D"),
        ],
    )
    def test_bad_times_name_the_point(self, ts, message):
        with pytest.raises(ValueError, match=message):
            composite_kraus_grid(ts, DampingRates(0.3, 1.0))

    def test_discriminant_gate_names_a_later_point(self, monkeypatch):
        # a negative floor demands a strictly positive smaller eigenvalue,
        # which fails only at t = 0, here the last grid point
        monkeypatch.setattr(casestudy, "_DISCRIMINANT_TOL", -1e-3)
        with pytest.raises(ModelInconsistencyError, match="positivity at t=0.0 "):
            composite_kraus_grid([0.4, 0.2, 0.0], DampingRates(0.3, 1.0))

    def test_completeness_gate_names_a_later_point(self, monkeypatch):
        monkeypatch.setattr(casestudy, "MODEL_TOL", 0.0)
        with pytest.raises(ValueError, match="completeness condition at t=0.05 "):
            composite_kraus_grid([0.0, 0.05, 0.3], DampingRates(0.3, 1.0))


class TestClosedForms:
    def test_initial_values(self):
        b = closed_form_b(0.0, DampingRates(0.3, 1.0), 0.3)
        assert b == (2.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 0.1, 1.0])
    def test_values_match_50_digits(self, t):
        # the closed forms as written, in 50-digit decimal arithmetic; in
        # floating point 1 - x_p would cancel at small t
        gamma1, gamma2, a = 0.3, 1.0, 0.3
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            g1, g2, tt, aa = Decimal(gamma1), Decimal(gamma2), Decimal(t), Decimal(a)
            x1, x2 = (-16 * g1 * tt).exp(), (-16 * g2 * tt).exp()
            b0 = Decimal("0.5") + (1 - aa) / 2 * x2 * x2 + aa / 2 * x1 * x1 + (1 - aa) * x2 + aa * x1
            b1 = Decimal("0.5") - (1 - aa) / 2 * x2 * x2 - aa / 2 * x1 * x1
            b3 = (1 - aa) / 2 * (1 - x2) ** 2 + aa / 2 * (1 - x1) ** 2
        got = closed_form_b(t, DampingRates(gamma1, gamma2), a)
        for value, want in zip(got, (b0, b1, b1, b3)):
            assert abs((Decimal(value) - want) / want) <= Decimal("1e-13")

    def test_long_time_limit(self):
        b = closed_form_b(1e4, DampingRates(0.3, 1.0), 0.3)
        np.testing.assert_allclose(b, (0.5, 0.5, 0.5, 0.5), atol=1e-12)

    @given(seeds)
    def test_weights_sum_to_two(self, seed):
        rng = rng_from(seed)
        rates = DampingRates(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        b = closed_form_b(float(rng.uniform(0, 5)), rates, float(rng.uniform(0, 1)))
        assert sum(b) == pytest.approx(2.0, abs=1e-10)
        assert b[1] == b[2]

    def test_monotone_landmarks(self):
        rates = DampingRates(0.3, 1.0)
        ts = np.linspace(0.0, 2.0, 80)
        values = [closed_form_b(t, rates, 0.4) for t in ts]
        b0 = [v[0] for v in values]
        b1 = [v[1] for v in values]
        assert all(x >= y - 1e-12 for x, y in zip(b0, b0[1:]))  # nonincreasing
        assert all(x <= y + 1e-12 for x, y in zip(b1, b1[1:]))  # nondecreasing
        assert b0[0] == pytest.approx(2.0) and b1[0] == pytest.approx(0.0)

    def test_subsystem_map_completeness_is_exact(self):
        kmap = closed_form_subsystem_map(0.23, DampingRates(0.3, 1.0), 0.7)
        assert completeness_defect(kmap) < 1e-12

    def test_unital_on_maximally_mixed(self):
        kmap = closed_form_subsystem_map(0.23, DampingRates(0.3, 1.0), 0.7)
        out = apply_map(kmap, maximally_mixed(2))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    @given(seeds)
    @settings(max_examples=20)
    def test_algorithm_agrees_with_closed_form(self, seed):
        rng = rng_from(seed)
        rates = DampingRates(float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2)))
        t = float(rng.uniform(0, 2))
        a = float(rng.uniform(0, 1))
        result = reduce_subsystem(
            composite_kraus(t, rates), Bipartition(2, 2), qubit_state(a)
        )
        closed = closed_form_subsystem_map(t, rates, a)
        assert channel_distance(result.subsystem_map, closed) < 1e-10

    def test_population_swap_symmetry(self):
        # a <-> 1 - a with the rates exchanged gives the same channel
        t = 0.31
        one = closed_form_b(t, DampingRates(0.3, 1.0), 0.8)
        two = closed_form_b(t, DampingRates(1.0, 0.3), 0.2)
        np.testing.assert_allclose(one, two, atol=1e-14)

    def test_end_to_end_populations(self):
        rates = DampingRates(0.3, 1.0)
        split = Bipartition(2, 2)
        for t in (0.05, 0.4, 1.1):
            for a in (0.0, 0.55, 1.0):
                b = closed_form_b(t, rates, a)
                evolved = apply_map(
                    closed_form_subsystem_map(t, rates, a), pure_state([1.0, 0.0])
                )
                np.testing.assert_allclose(
                    np.diag(evolved.matrix).real,
                    [(b[0] + b[3]) / 2, b[1]],
                    atol=1e-12,
                )
                brute = brute_force_reduced_state(
                    composite_kraus(t, rates), split, pure_state([1.0, 0.0]), qubit_state(a)
                )
                np.testing.assert_allclose(evolved.matrix, brute, atol=1e-10)

    def test_invalid_population_parameter(self):
        with pytest.raises(ValueError):
            qubit_state(1.2)
        with pytest.raises(ValueError):
            closed_form_b(0.1, DampingRates(0.3, 1.0), -0.1)
        for a in (True, np.bool_(False), "0.5", None):
            with pytest.raises(ValueError, match="population parameter must be a real number"):
                qubit_state(a)
            with pytest.raises(ValueError, match="population parameter must be a real number"):
                closed_form_b(0.1, DampingRates(0.3, 1.0), a)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
            qubit_state(math.nan)


class TestPictureTransforms:
    def test_free_hamiltonian_spectrum(self):
        omega, beta = 1.3, 0.4
        h = composite_hamiltonian(omega, beta)
        expected = np.diag(
            [omega + beta / 4, -beta / 4, -beta / 4, -omega + beta / 4]
        ).astype(complex)
        np.testing.assert_allclose(h, expected, atol=1e-15)
        u = evolution_unitary(h, 0.7)
        np.testing.assert_allclose(
            np.diag(u), np.exp(-1j * 0.7 * np.diag(expected)), atol=1e-13
        )

    def test_trivial_hamiltonian_leaves_map_unchanged(self):
        kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
        out = to_schrodinger(kmap, 0.9, omega=0.0, beta=0.0)
        for a, b in zip(kmap.operators, out.operators):
            np.testing.assert_allclose(a, b, atol=1e-14)

    @given(seeds)
    @settings(max_examples=15)
    def test_completeness_invariant(self, seed):
        rng = rng_from(seed)
        kmap = composite_kraus(float(rng.uniform(0, 1)), DampingRates(0.3, 1.0))
        out = to_schrodinger(kmap, float(rng.uniform(0, 3)), omega=1.0, beta=0.4)
        assert abs(completeness_defect(out) - completeness_defect(kmap)) < 1e-12

    def test_states_are_rotated(self):
        from subkraus.channels import apply_matrix

        rates = DampingRates(0.3, 1.0)
        t, omega, beta = 0.4, 1.1, 0.3
        kmap = composite_kraus(t, rates)
        rotated = to_schrodinger(kmap, t, omega, beta)
        u = evolution_unitary(composite_hamiltonian(omega, beta), t)
        rng = rng_from(9)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = (m @ m.conj().T) / np.trace(m @ m.conj().T).real
        direct = u @ apply_matrix(kmap, rho) @ u.conj().T
        np.testing.assert_allclose(apply_matrix(rotated, rho), direct, atol=1e-12)

    def test_single_qubit_transform_requires_zero_coupling(self):
        kmap = closed_form_subsystem_map(0.2, DampingRates(0.3, 1.0), 0.5)
        with pytest.raises(ValueError, match="beta"):
            to_schrodinger(kmap, 0.2, omega=1.0, beta=0.1, subsystem="qubit1")
        out = to_schrodinger(kmap, 0.2, omega=1.0, beta=0.0, subsystem="qubit1")
        assert completeness_defect(out) < 1e-12

    def test_dimension_checked(self):
        kmap = closed_form_subsystem_map(0.2, DampingRates(0.3, 1.0), 0.5)
        with pytest.raises(ValueError, match="4-dimensional"):
            to_schrodinger(kmap, 0.2, omega=1.0, beta=0.0, subsystem="composite")

    def test_unknown_subsystem_rejected(self):
        kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
        with pytest.raises(ValueError, match="subsystem"):
            to_schrodinger(kmap, 0.2, omega=1.0, beta=0.0, subsystem="qubit2")


class TestReducedChoiSpectrum:
    def test_reduced_map_choi_psd_on_grid(self):
        from subkraus.channels import choi_matrix, cp_verdict

        rates = DampingRates(0.7, 0.4)
        total = rates.gamma1 + rates.gamma2
        min_eigenvalues = [0.0]
        for tau in np.linspace(0.0, 1.0, 20):
            result = reduce_subsystem(
                composite_kraus(tau / total, rates), Bipartition(2, 2), qubit_state(0.3)
            )
            verdict = cp_verdict(choi_matrix(result.subsystem_map))
            assert verdict.is_cp
            min_eigenvalues.append(verdict.min_eigenvalue)
        assert np.min(min_eigenvalues) >= -1e-10
