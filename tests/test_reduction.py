import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SIGMA,
    brute_force_reduced_choi,
    brute_force_reduced_state,
    random_density,
    random_tp_kraus,
    random_unitary,
    rng_from,
)
from subkraus import reduction
from subkraus.basis import build_hermitian_basis
from subkraus.casestudy import (
    DampingRates,
    composite_kraus,
    composite_kraus_grid,
    qubit_state,
)
from subkraus.channels import (
    CompletenessError,
    DensityMatrix,
    KrausMap,
    channel_distance,
    choi_of_any,
    completeness_defect,
    maximally_mixed,
)
from subkraus.linalg import tensor_product
from subkraus.reduction import (
    Bipartition,
    CoefficientTensor,
    GridReduction,
    NonPositiveBMatrixError,
    SeparableEnsemble,
    b_matrix,
    c_coefficients,
    correlated_probe,
    factorization_check,
    reduce_separable_ensemble,
    reduce_subsystem,
    reduce_subsystem_grid,
    reduced_domain_verdict,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
SPLIT22 = Bipartition(2, 2)
B2 = build_hermitian_basis(2)


def reconstruct_operator(coeffs, k, basis1, basis2):
    d1, d2 = basis1.dim, basis2.dim
    out = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for i in range(d1 * d1):
        for j in range(d2 * d2):
            out += coeffs.values[k, i, j] * tensor_product(basis1.elements[i], basis2.elements[j])
    return out


class TestCoefficients:
    def test_identity_map(self):
        ident = KrausMap(4, (np.eye(4, dtype=complex),))
        coeffs = c_coefficients(ident, SPLIT22, B2, B2)
        expected = np.zeros((1, 4, 4), dtype=complex)
        expected[0, 0, 0] = 2.0  # sqrt(d1 * d2)
        np.testing.assert_allclose(coeffs.values, expected, atol=1e-14)

    def test_case_study_k1_structure(self):
        rates = DampingRates(0.3, 1.0)
        kmap = composite_kraus(0.2, rates)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        k1 = coeffs.values[0]
        entry = 1j * kmap.operators[0][1, 3]
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 0] = mask[2, 3] = True
        assert np.abs(k1[~mask]).max() < 1e-14
        assert k1[2, 0] == pytest.approx(entry, abs=1e-14)
        assert k1[2, 3] == pytest.approx(-entry, abs=1e-14)

    def test_case_study_k7_k8_structure(self):
        rates = DampingRates(0.3, 1.0)
        kmap = composite_kraus(0.2, rates)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        for k in (6, 7):
            mat = coeffs.values[k]
            diag_op = kmap.operators[k]
            assert mat[0, 0] == pytest.approx(diag_op[0, 0] + diag_op[1, 1], abs=1e-13)
            assert mat[0, 3] == pytest.approx(diag_op[0, 0] - diag_op[1, 1], abs=1e-13)
            mask = np.zeros((4, 4), dtype=bool)
            mask[0, 0] = mask[0, 3] = True
            assert np.abs(mat[~mask]).max() < 1e-13

    @given(seeds)
    @settings(max_examples=20)
    def test_reconstruction(self, seed):
        kmap = random_tp_kraus(rng_from(seed), 4, 3)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        for k in range(3):
            recon = reconstruct_operator(coeffs, k, B2, B2)
            assert np.abs(recon - kmap.operators[k]).max() < 1e-12

    def test_dimension_mismatch(self):
        ident = KrausMap(4, (np.eye(4, dtype=complex),))
        with pytest.raises(ValueError):
            c_coefficients(ident, Bipartition(2, 3), B2, build_hermitian_basis(3))


class TestBMatrix:
    def test_identity_map_gives_rank_one(self):
        ident = KrausMap(4, (np.eye(4, dtype=complex),))
        coeffs = c_coefficients(ident, SPLIT22, B2, B2)
        b = b_matrix(coeffs, maximally_mixed(2), B2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 2.0
        np.testing.assert_allclose(b.values, expected, atol=1e-13)

    def test_case_study_diagonal(self):
        from subkraus.casestudy import closed_form_b

        rates = DampingRates(0.4, 0.9)
        t, a = 0.13, 0.6
        kmap = composite_kraus(t, rates)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        b = b_matrix(coeffs, qubit_state(a), B2)
        off = b.values - np.diag(np.diag(b.values))
        assert np.abs(off).max() < 1e-13
        expected = closed_form_b(t, rates, a)
        for i in range(4):
            assert b.values[i, i].real == pytest.approx(expected[i], abs=1e-12)

    @given(seeds)
    @settings(max_examples=20)
    def test_hermitian_and_psd(self, seed):
        from subkraus.linalg import hermitian_eig

        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        b = b_matrix(coeffs, random_density(rng, 2), B2)
        assert np.abs(b.values - b.values.conj().T).max() < 1e-12
        assert hermitian_eig(b.values).eigenvalues[0] >= -1e-10

    @given(seeds)
    @settings(max_examples=20)
    def test_trace_preservation_identity(self, seed):
        # sum_{i,i'} b_ii' g_i'^dagger g_i = I when the parent preserves trace
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        coeffs = c_coefficients(kmap, SPLIT22, B2, B2)
        b = b_matrix(coeffs, random_density(rng, 2), B2)
        stack = B2.stacked()
        total = np.einsum("ij,jab,iac->bc", b.values, stack.conj(), stack)
        assert np.abs(total - np.eye(2)).max() < 1e-10

    @pytest.mark.parametrize("layout", ["single", "stack", "swapped"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_matches_operator_definition(self, d1, d2, k, layout):
        rng = rng_from(100 * d1 + 10 * d2 + k)
        lead = (2, 3) if layout == "stack" else ()
        shape = (*lead, k, d2 * d2, d1 * d1) if layout == "swapped" else (*lead, k, d1 * d1, d2 * d2)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "swapped":
            coeffs = CoefficientTensor(raw, d2, d1).swapped()
        else:
            coeffs = CoefficientTensor(raw, d1, d2)
        rho, basis2 = random_density(rng, d2), build_hermitian_basis(d2)
        b = b_matrix(coeffs, rho, basis2).values
        flat_c = coeffs.values.reshape(-1, *coeffs.values.shape[-3:])
        expected = np.array([b_by_definition(c, rho.matrix, basis2) for c in flat_c])
        assert b.shape == (*lead, d1 * d1, d1 * d1)
        assert np.abs(b.reshape(expected.shape) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_empty_stack(self):
        coeffs = CoefficientTensor(np.zeros((0, 3, 4, 9), dtype=complex), 2, 3)
        b = b_matrix(coeffs, maximally_mixed(3), build_hermitian_basis(3))
        assert b.values.shape == (0, 4, 4)

    @given(seeds, st.floats(0.0, 1.0))
    @settings(max_examples=20)
    @pytest.mark.parametrize("d1", [2, 3])
    def test_linear_in_the_traced_state(self, d1, seed, p):
        # the negative-eigenvalue diagnostic relies on b following rho2 linearly
        rng = rng_from(seed)
        shape = (3, d1 * d1, 4)
        coeffs = CoefficientTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), d1, 2)
        rho_b = random_density(rng, 2)
        for rho_a in (random_density(rng, 2), not_a_state()):
            mix = unchecked_state(p * rho_a.matrix + (1 - p) * rho_b.matrix)
            b_a, b_b, b_mix = (b_matrix(coeffs, r, B2).values for r in (rho_a, rho_b, mix))
            combined = p * b_a + (1 - p) * b_b
            assert np.abs(b_mix - combined).max() <= 1e-12 * max(np.abs(b_a).max(), np.abs(b_b).max())


def b_by_definition(c, rho, basis2):
    """b[i, i'] = sum_k tr(D_ki rho D_ki'^dagger) with D_ki = sum_j c[k, i, j] h_j,
    for one map's (k, n, m) coefficients, by loops over the operators."""
    k_count, n, m = c.shape
    ops = [[sum(c[k, i, j] * basis2.elements[j] for j in range(m)) for i in range(n)]
           for k in range(k_count)]
    b = np.zeros((n, n), dtype=complex)
    for k in range(k_count):
        for i in range(n):
            for i2 in range(n):
                b[i, i2] += np.trace(ops[k][i] @ rho @ ops[k][i2].conj().T)
    return b


class TestReduceSubsystem:
    def test_case_study_matches_closed_form(self):
        from subkraus.casestudy import closed_form_b, closed_form_subsystem_map

        rates = DampingRates(0.3, 1.0)
        t, a = 0.11, 0.25
        kmap = composite_kraus(t, rates)
        result = reduce_subsystem(kmap, SPLIT22, qubit_state(a))
        assert len(result.subsystem_map.operators) == 4
        expected = sorted(closed_form_b(t, rates, a), reverse=True)
        np.testing.assert_allclose(result.eigenvalues, expected, atol=1e-12)
        closed = closed_form_subsystem_map(t, rates, a)
        assert channel_distance(result.subsystem_map, closed) < 1e-10

    @pytest.mark.parametrize("keep", [1, 2])
    def test_every_array_is_read_only(self, keep):
        kmap = composite_kraus(0.11, DampingRates(0.3, 1.0))
        result = reduce_subsystem(kmap, SPLIT22, qubit_state(0.3), keep=keep)
        for array in (result.coefficients.values, result.b.values, result.eigenvalues, result.mixing):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, True, "1e-12"])
    def test_bad_truncation_rejected(self, bad):
        kmap = composite_kraus(0.11, DampingRates(0.3, 1.0))
        with pytest.raises(ValueError, match="truncation"):
            reduce_subsystem(kmap, SPLIT22, qubit_state(0.3), truncation=bad)

    def test_truncation_that_breaks_completeness_is_named(self):
        # b eigenvalues 0.905, 0.636, 0.314, 0.145: a cutoff of 0.5 drops the
        # last two, and the kept operators are no longer complete
        rng = rng_from(5)
        kmap, rho = random_tp_kraus(rng, 4, 3), random_density(rng, 2)
        message = (
            r"^reduced operators violate the completeness condition \(defect 2\.642e-01 "
            r"> 1\.0e-08\); truncation 0\.5 dropped b eigenvalue mass 4\.588e-01 "
            r"\(2 of 4 operators\)$"
        )
        with pytest.raises(CompletenessError, match=message):
            reduce_subsystem(kmap, SPLIT22, rho, truncation=0.5)
        ensemble = SeparableEnsemble((1.0,), ((maximally_mixed(2), rho),))
        with pytest.raises(CompletenessError, match=message):
            reduce_separable_ensemble(kmap, SPLIT22, ensemble, truncation=0.5)

    def test_identity_limit(self):
        kmap = composite_kraus(0.0, DampingRates(0.3, 1.0))
        result = reduce_subsystem(kmap, SPLIT22, qubit_state(0.7))
        ident = KrausMap(2, (np.eye(2, dtype=complex),))
        assert channel_distance(result.subsystem_map, ident) < 1e-10
        assert len(result.subsystem_map.operators) == 1
        assert result.truncated_count == 3

    def test_operator_assembly_follows_eigenpairs(self):
        rates = DampingRates(0.5, 0.8)
        kmap = composite_kraus(0.21, rates)
        result = reduce_subsystem(kmap, SPLIT22, qubit_state(0.4))
        stack = B2.stacked()
        for p, op in enumerate(result.subsystem_map.operators):
            assembled = np.sqrt(result.eigenvalues[p]) * np.einsum(
                "i,iab->ab", result.mixing[:, p], stack
            )
            assert np.abs(assembled - op).max() < 1e-12

    @given(seeds)
    @settings(max_examples=15)
    def test_oracle_equivalence_keep1(self, seed):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        rho2 = random_density(rng, 2)
        result = reduce_subsystem(kmap, SPLIT22, rho2, keep=1)
        brute = brute_force_reduced_choi(kmap, SPLIT22, rho2, keep=1)
        assert np.abs(choi_of_any(result.subsystem_map) - brute).max() < 1e-10

    @given(seeds)
    @settings(max_examples=15)
    def test_oracle_equivalence_keep2(self, seed):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        rho1 = random_density(rng, 2)
        result = reduce_subsystem(kmap, SPLIT22, rho1, keep=2)
        brute = brute_force_reduced_choi(kmap, SPLIT22, rho1, keep=2)
        assert np.abs(choi_of_any(result.subsystem_map) - brute).max() < 1e-10

    def test_asymmetric_bipartition(self):
        rng = rng_from(77)
        split = Bipartition(2, 3)
        kmap = random_tp_kraus(rng, 6, 3)
        rho2 = random_density(rng, 3)
        result = reduce_subsystem(kmap, split, rho2, keep=1)
        assert result.subsystem_map.dim == 2
        brute = brute_force_reduced_choi(kmap, split, rho2, keep=1)
        assert np.abs(choi_of_any(result.subsystem_map) - brute).max() < 1e-10

    @given(seeds)
    @settings(max_examples=10)
    def test_completeness_descends(self, seed):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        parent = completeness_defect(kmap)
        result = reduce_subsystem(kmap, SPLIT22, random_density(rng, 2))
        assert completeness_defect(result.subsystem_map) <= parent + 1e-10

    def test_rho_dimension_checked(self):
        kmap = composite_kraus(0.1, DampingRates(0.5, 0.5))
        with pytest.raises(ValueError):
            reduce_subsystem(kmap, SPLIT22, maximally_mixed(3))

    def test_bad_keep_rejected(self):
        kmap = composite_kraus(0.1, DampingRates(0.5, 0.5))
        with pytest.raises(ValueError):
            reduce_subsystem(kmap, SPLIT22, maximally_mixed(2), keep=0)
        for keep in (True, np.bool_(True), 1.0, np.float64(2.0), "1"):
            with pytest.raises(ValueError, match="keep must be an integer"):
                reduce_subsystem(kmap, SPLIT22, maximally_mixed(2), keep=keep)

    def test_negative_b_diagnostic(self):
        # a non-state traced factor is the only way to drive b negative;
        # build one by bypassing DensityMatrix validation
        bad = object.__new__(DensityMatrix)
        object.__setattr__(bad, "matrix", np.diag([-0.5, 1.5]).astype(complex))
        kmap = composite_kraus(0.1, DampingRates(1.0, 0.1))
        with pytest.raises(NonPositiveBMatrixError) as err:
            reduce_subsystem(kmap, SPLIT22, bad)
        assert err.value.min_eigenvalue < -1e-8

    def test_rounding_negative_eigenvalues_clamped_to_zero(self):
        # SWAP hands rho_other to subsystem 1; rho_other sits just inside the
        # -1e-12 floor of DensityMatrix, so raw b has a -5e-13 eigenvalue pair
        swap = KrausMap(4, (np.eye(4, dtype=complex)[[0, 2, 1, 3]],))
        rho = DensityMatrix(np.diag([1 + 5e-13, -5e-13]).astype(complex))
        result = reduce_subsystem(swap, SPLIT22, rho)
        raw = np.linalg.eigvalsh(result.b.values)
        np.testing.assert_allclose(raw[:2], [-5e-13, -5e-13], rtol=1e-3)
        np.testing.assert_array_equal(result.eigenvalues[2:], [0.0, 0.0])
        assert len(result.subsystem_map.operators) == 2


class TestSeparableEnsemble:
    def test_weights_validated(self):
        s = qubit_state(0.5)
        with pytest.raises(ValueError, match="sum"):
            SeparableEnsemble((0.7, 0.7), ((s, s), (s, s)))
        with pytest.raises(ValueError, match="nonnegative"):
            SeparableEnsemble((1.5, -0.5), ((s, s), (s, s)))
        bad_weights = [
            ((True, 0.0), r"weights\[0\] must be a real number"),
            (("1", 0.0), r"weights\[0\] must be a real number"),
            ((0.5, 0.5 + 0j), r"weights\[1\] must be a real number"),
            ((np.nan, 1.0), r"weights\[0\] must be finite"),
            ((1.0, np.inf), r"weights\[1\] must be finite"),
        ]
        for weights, message in bad_weights:
            with pytest.raises(ValueError, match=message):
                SeparableEnsemble(weights, ((s, s), (s, s)))

    def test_pairs_must_hold_states(self):
        s = qubit_state(0.5)
        for pairs in (((s, s.matrix),), ((s,),), (s,)):
            with pytest.raises(ValueError, match=r"pairs\[0\] must be a pair of DensityMatrix"):
                SeparableEnsemble((1.0,), pairs)

    @pytest.mark.parametrize(
        "kind, d",
        [("product", 2), ("product", 3), ("entangling", 2), ("entangling", 3), ("model", 2)],
    )
    def test_each_branch_bit_identical_to_reduce_subsystem(self, kind, d):
        rng = rng_from(2024 + d)
        if kind == "product":
            a, b = random_tp_kraus(rng, d, 2), random_tp_kraus(rng, d, 2)
            kmap = KrausMap(d * d, tuple(np.kron(x, y) for x in a.operators for y in b.operators))
        elif kind == "entangling":
            kmap = random_tp_kraus(rng, d * d, 3)
        else:
            kmap = composite_kraus(0.17, DampingRates(0.3, 1.0))
        traced = [random_density(rng, d) for _ in range(3)]
        if kind == "model":
            traced += [qubit_state(0.0), qubit_state(1.0)]
        split = Bipartition(d, d)
        ensemble = SeparableEnsemble(
            (1 / len(traced),) * len(traced), tuple((maximally_mixed(d), s) for s in traced)
        )
        branches = reduce_separable_ensemble(kmap, split, ensemble)
        for branch, sigma in zip(branches, traced):
            alone = reduce_subsystem(kmap, split, sigma)
            assert np.array_equal(branch.coefficients.values, alone.coefficients.values)
            assert np.array_equal(branch.b.values, alone.b.values)
            assert np.array_equal(branch.eigenvalues, alone.eigenvalues)
            assert np.array_equal(branch.mixing, alone.mixing)
            assert branch.subsystem_map == alone.subsystem_map

    def test_single_term_matches_reduce_subsystem(self):
        rates = DampingRates(0.3, 1.0)
        kmap = composite_kraus(0.17, rates)
        sigma = qubit_state(0.3)
        ensemble = SeparableEnsemble((1.0,), ((maximally_mixed(2), sigma),))
        branch = reduce_separable_ensemble(kmap, SPLIT22, ensemble)[0]
        direct = reduce_subsystem(kmap, SPLIT22, sigma)
        assert channel_distance(branch.subsystem_map, direct.subsystem_map) < 1e-12

    def test_identical_traced_factors_agree(self):
        rates = DampingRates(0.3, 1.0)
        kmap = composite_kraus(0.17, rates)
        sigma = qubit_state(0.3)
        ensemble = SeparableEnsemble(
            (0.4, 0.6), ((qubit_state(1.0), sigma), (qubit_state(0.0), sigma))
        )
        branches = reduce_separable_ensemble(kmap, SPLIT22, ensemble)
        assert channel_distance(branches[0].subsystem_map, branches[1].subsystem_map) < 1e-10

    def test_distinct_rates_split_branches(self):
        rates = DampingRates(0.3, 1.0)
        t = 0.05 / (rates.gamma1 + rates.gamma2)
        kmap = composite_kraus(t, rates)
        ensemble = SeparableEnsemble(
            (0.5, 0.5),
            ((qubit_state(1.0), qubit_state(1.0)), (qubit_state(0.0), qubit_state(0.0))),
        )
        branches = reduce_separable_ensemble(kmap, SPLIT22, ensemble)
        verdict = reduced_domain_verdict(branches)
        assert not verdict.uniform
        assert verdict.max_pairwise_distance > 1e-3
        assert verdict.common_map is None

    def test_equal_rates_uniform_for_any_ensemble(self):
        rates = DampingRates(0.6, 0.6)
        t = 0.05 / (rates.gamma1 + rates.gamma2)
        kmap = composite_kraus(t, rates)
        ensemble = SeparableEnsemble(
            (0.5, 0.5),
            ((qubit_state(1.0), qubit_state(1.0)), (qubit_state(0.0), qubit_state(0.0))),
        )
        branches = reduce_separable_ensemble(kmap, SPLIT22, ensemble)
        verdict = reduced_domain_verdict(branches)
        assert verdict.uniform
        assert verdict.max_pairwise_distance < 1e-10
        assert verdict.common_map is not None

    def test_mixture_consistency(self):
        # weighted branch outputs reproduce the brute-force ensemble evolution
        from subkraus.channels import apply_matrix

        rng = rng_from(5150)
        kmap = random_tp_kraus(rng, 4, 3)
        pairs = tuple(
            (random_density(rng, 2), random_density(rng, 2)) for _ in range(3)
        )
        ensemble = SeparableEnsemble((0.2, 0.5, 0.3), pairs)
        branches = reduce_separable_ensemble(kmap, SPLIT22, ensemble)
        mixed = np.zeros((2, 2), dtype=complex)
        brute = np.zeros((2, 2), dtype=complex)
        for w, br, (s1, s2) in zip(ensemble.weights, branches, ensemble.pairs):
            mixed += w * apply_matrix(br.subsystem_map, s1.matrix)
            brute += w * brute_force_reduced_state(kmap, SPLIT22, s1, s2)
        assert np.abs(mixed - brute).max() < 1e-10

    def test_uniform_common_map_covers_arbitrary_mixtures(self):
        rates = DampingRates(0.45, 0.45)
        t = 0.3
        kmap = composite_kraus(t, rates)
        sigma_pairs = ((qubit_state(0.9), qubit_state(1.0)), (qubit_state(0.2), qubit_state(0.0)))
        ensemble = SeparableEnsemble((0.5, 0.5), sigma_pairs)
        branches = reduce_separable_ensemble(kmap, SPLIT22, ensemble)
        verdict = reduced_domain_verdict(branches)
        assert verdict.uniform
        for p in (0.0, 0.33, 1.0):
            mix1 = p * sigma_pairs[0][0].matrix + (1 - p) * sigma_pairs[1][0].matrix
            common_out = sum(
                op @ mix1 @ op.conj().T for op in verdict.common_map.operators
            )
            brute = p * brute_force_reduced_state(kmap, SPLIT22, sigma_pairs[0][0], sigma_pairs[0][1]) + (
                1 - p
            ) * brute_force_reduced_state(kmap, SPLIT22, sigma_pairs[1][0], sigma_pairs[1][1])
            assert np.abs(common_out - brute).max() < 1e-10

    def test_empty_branch_list_rejected(self):
        with pytest.raises(ValueError):
            reduced_domain_verdict([])

    @given(seeds, st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_verdict_distance_equals_pairwise_loop(self, seed, d):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, d * d, 3)
        pairs = tuple((random_density(rng, d), random_density(rng, d)) for _ in range(6))
        ensemble = SeparableEnsemble((0.5, 0.1, 0.1, 0.1, 0.1, 0.1), pairs)
        branches = reduce_separable_ensemble(kmap, Bipartition(d, d), ensemble)
        loop = max(
            channel_distance(a.subsystem_map, b.subsystem_map)
            for i, a in enumerate(branches)
            for b in branches[i + 1 :]
        )
        assert reduced_domain_verdict(branches).max_pairwise_distance == loop
        assert reduced_domain_verdict(branches[:1]).max_pairwise_distance == 0.0


class TestCorrelatedProbe:
    def test_product_control_is_zero(self):
        kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
        product = maximally_mixed(4)
        assert correlated_probe(kmap, SPLIT22, product, product) < 1e-15

    def test_classical_correlations_detected(self):
        rates = DampingRates(0.3, 1.0)
        t = 0.1 / (rates.gamma1 + rates.gamma2)
        kmap = composite_kraus(t, rates)
        corr = np.zeros((4, 4), dtype=complex)
        corr[0, 0] = corr[3, 3] = 0.5
        assert correlated_probe(kmap, SPLIT22, DensityMatrix(corr), maximally_mixed(4)) > 1e-3

    def test_entanglement_detected(self):
        from helpers import bell_state

        rates = DampingRates(0.3, 1.0)
        t = 0.1 / (rates.gamma1 + rates.gamma2)
        kmap = composite_kraus(t, rates)
        assert correlated_probe(kmap, SPLIT22, bell_state(), maximally_mixed(4)) > 1e-3

    def test_unequal_marginals_rejected(self):
        kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
        skew = DensityMatrix(np.diag([0.4, 0.2, 0.3, 0.1]).astype(complex))
        with pytest.raises(ValueError, match="marginal"):
            correlated_probe(kmap, SPLIT22, skew, maximally_mixed(4))


class TestFactorization:
    def test_product_operator(self):
        rng = rng_from(31)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kmap = KrausMap(4, (tensor_product(a, b),), trace_preserving=False)
        flags = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        assert flags[0].is_product and not flags[0].is_zero

    def test_entangling_operator(self):
        op = (tensor_product(SIGMA[1], np.eye(2)) + tensor_product(np.eye(2), SIGMA[1])) / np.sqrt(2)
        kmap = KrausMap(4, (op,), trace_preserving=False)
        flags = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        assert not flags[0].is_product
        assert flags[0].singular_ratio > 0.5

    def test_case_study_all_products(self):
        kmap = composite_kraus(0.2, DampingRates(0.3, 1.0))
        flags = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        assert all(f.is_product for f in flags)
        assert max(f.singular_ratio for f in flags) < 1e-10

    def test_case_study_at_zero_time(self):
        # at t = 0 operators 0-6 vanish and operator 7 is -I, a nonzero product
        kmap = composite_kraus(0.0, DampingRates(0.3, 1.0))
        flags = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        assert [f.is_zero for f in flags] == [True] * 7 + [False]
        assert all(f.is_product for f in flags)

    def test_zero_operator_flagged(self):
        kmap = KrausMap(4, (np.zeros((4, 4), dtype=complex),), trace_preserving=False)
        flags = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        assert flags[0].is_product and flags[0].is_zero

    def test_stack_of_maps_rejected_by_name(self):
        coeffs = c_coefficients(composite_kraus_grid([0.1, 0.2], DampingRates(0.3, 1.0)), SPLIT22, B2, B2)
        message = "factorization_check needs the coefficients of one map, got shape (2, 8, 4, 4)"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            factorization_check(coeffs)

    @given(seeds)
    @settings(max_examples=10)
    def test_basis_choice_invariance(self, seed):
        from subkraus.basis import OperatorBasis

        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 4, 3)
        v1 = random_unitary(rng, 2)
        v2 = random_unitary(rng, 2)
        rotated1 = OperatorBasis(2, tuple(v1 @ g @ v1.conj().T for g in B2.elements))
        rotated2 = OperatorBasis(2, tuple(v2 @ g @ v2.conj().T for g in B2.elements))
        base = factorization_check(c_coefficients(kmap, SPLIT22, B2, B2))
        alt = factorization_check(c_coefficients(kmap, SPLIT22, rotated1, rotated2))
        assert [f.is_product for f in base] == [f.is_product for f in alt]


def test_coefficient_tensor_swap():
    values = np.arange(2 * 4 * 4, dtype=complex).reshape(2, 4, 4)
    tensor = CoefficientTensor(values, 2, 2)
    swapped = tensor.swapped()
    np.testing.assert_array_equal(swapped.values, values.transpose(0, 2, 1))


@pytest.mark.parametrize(
    "d1,d2,field",
    [(True, True, "d1"), (2.0, 2, "d1"), (2, False, "d2"), (2, 0, "d2"), (2, "3", "d2")],
)
def test_bipartition_rejects_mistyped_dimensions(d1, d2, field):
    with pytest.raises(ValueError, match=f"subsystem dimension {field} must be a positive integer"):
        Bipartition(d1, d2)


def test_bipartition_accepts_numpy_integers():
    assert Bipartition(np.int64(2), 3).dim == 6


def unchecked_state(matrix):
    """A DensityMatrix holding ``matrix`` as given, bypassing its validation."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "matrix", np.asarray(matrix, dtype=complex))
    return state


def not_a_state():
    """A traced factor that is not a state; bypasses DensityMatrix validation."""
    return unchecked_state(np.diag([-0.5, 1.5]))


class TestGridReduction:
    def test_record_shapes_and_read_only(self):
        stacks = composite_kraus_grid(np.linspace(0.0, 0.5, 6), DampingRates(0.3, 1.0))
        grid = reduce_subsystem_grid(stacks, SPLIT22, qubit_state(0.3))
        assert isinstance(grid, GridReduction)
        assert grid.b.shape == (6, 4, 4) and grid.eigenvalues.shape == (6, 4)
        assert grid.mixing.shape == (6, 4, 4) and grid.operators.shape == (6, 4, 2, 2)
        assert grid.kept.shape == (6, 4) and grid.kept.dtype == bool
        for name in ("b", "eigenvalues", "mixing", "operators", "kept"):
            with pytest.raises(ValueError):
                getattr(grid, name)[0, 0] = 0

    def test_caller_arrays_stay_writable(self):
        arrays = [np.zeros((1, 2, 2)), np.zeros((1, 2)), np.zeros((1, 2, 2))]
        arrays += [np.zeros((1, 2, 1, 1)), np.ones((1, 2), dtype=bool)]
        grid = GridReduction(*arrays)
        assert all(a.flags.writeable for a in arrays)
        assert not any(getattr(grid, n).flags.writeable for n in ("b", "mixing", "kept"))

    @given(seeds, st.sampled_from([1, 2]))
    @settings(max_examples=15)
    def test_each_point_equals_reduce_subsystem(self, seed, keep):
        rng = rng_from(seed)
        maps = [random_tp_kraus(rng, 4, 3) for _ in range(3)]
        rho = random_density(rng, 2)
        grid = reduce_subsystem_grid(np.array([m.stacked() for m in maps]), SPLIT22, rho, keep=keep)
        for i, kmap in enumerate(maps):
            one = reduce_subsystem(kmap, SPLIT22, rho, keep=keep)
            np.testing.assert_allclose(grid.b[i], one.b.values, rtol=0, atol=1e-15)
            np.testing.assert_allclose(grid.eigenvalues[i], one.eigenvalues, rtol=0, atol=1e-15)
            np.testing.assert_allclose(grid.mixing[i], one.mixing, rtol=0, atol=1e-14)
            ops = grid.operators[i][grid.kept[i]]
            np.testing.assert_allclose(ops, one.subsystem_map.stacked(), rtol=0, atol=1e-14)

    def test_truncated_operators_are_zeroed(self):
        stacks = composite_kraus_grid([0.0, 0.2], DampingRates(0.3, 1.0))
        grid = reduce_subsystem_grid(stacks, SPLIT22, qubit_state(0.7))
        np.testing.assert_array_equal(grid.kept[0], [True, False, False, False])
        assert np.all(grid.operators[0, 1:] == 0.0)
        assert grid.kept[1].all()

    def test_negative_b_names_the_grid_point(self):
        ts = [0.0, 0.0, 0.1, 0.2]
        stacks = composite_kraus_grid(ts, DampingRates(1.0, 0.1))
        with pytest.raises(NonPositiveBMatrixError) as err:
            reduce_subsystem_grid(stacks, SPLIT22, not_a_state())
        assert err.value.index == 2
        kmap = composite_kraus(0.1, DampingRates(1.0, 0.1))
        with pytest.raises(NonPositiveBMatrixError) as single:
            reduce_subsystem(kmap, SPLIT22, not_a_state())
        assert single.value.index is None
        assert err.value.min_eigenvalue == pytest.approx(single.value.min_eigenvalue, abs=1e-15)

    def test_nan_in_stack_rejected(self):
        stacks = np.array(composite_kraus_grid([0.1, 0.2, 0.3], DampingRates(0.3, 1.0)))
        stacks[1, 7, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            reduce_subsystem_grid(stacks, SPLIT22, qubit_state(0.3))

    def test_zero_map_names_the_grid_point(self):
        stacks = np.array(composite_kraus_grid([0.1, 0.2], DampingRates(0.3, 1.0)))
        stacks[1] = 0.0
        with pytest.raises(ValueError, match="mixing matrix is zero at grid point 1"):
            reduce_subsystem_grid(stacks, SPLIT22, qubit_state(0.3))

    def test_empty_grid(self):
        grid = reduce_subsystem_grid(np.zeros((0, 8, 4, 4)), SPLIT22, qubit_state(0.3))
        assert grid.b.shape == (0, 4, 4) and grid.operators.shape == (0, 4, 2, 2)
        assert completeness_defect(grid.operators).shape == (0,)
        assert choi_of_any(grid.operators).shape == (0, 4, 4)

    def test_shape_and_truncation_checked(self):
        kmap = composite_kraus(0.1, DampingRates(0.3, 1.0))
        with pytest.raises(ValueError, match=r"\(T, k, dim, dim\)"):
            reduce_subsystem_grid(kmap.stacked(), SPLIT22, qubit_state(0.3))
        with pytest.raises(ValueError, match="truncation"):
            reduce_subsystem_grid(kmap.stacked()[None], SPLIT22, qubit_state(0.3), truncation=True)


class TestArgumentsCheckedFirst:
    """Every argument of a reduction is checked before any basis is built or
    any c is contracted, in the order of the pipeline steps that read them."""

    MAP4 = composite_kraus(0.2, DampingRates(0.3, 1.0))
    MAP6 = random_tp_kraus(rng_from(6), 6, 2)
    VALID = dict(kmap=MAP4, split=SPLIT22, rho_other=maximally_mixed(2), keep=1, truncation=0.0)
    MISMATCH = "dimension mismatch: map is 4-dimensional, split gives 3"
    CASES = {
        "split": (dict(split=Bipartition(3, 1)), MISMATCH),
        "split before keep": (dict(split=Bipartition(3, 1), keep=3), MISMATCH),
        "keep": (dict(keep=3), "keep must be 1 or 2, got 3"),
        "truncation": (dict(truncation=-1.0), "truncation must be finite and nonnegative"),
        "truncation above 1": (dict(truncation=1.5), "truncation must lie in [0, 1], got 1.5"),
        "state": (
            dict(rho_other=maximally_mixed(3)),
            "state dimension 3 does not match coefficient d2 = 2",
        ),
        "state of the traced factor 1": (
            dict(kmap=MAP6, split=Bipartition(2, 3), rho_other=maximally_mixed(3), keep=2),
            "state dimension 3 does not match coefficient d2 = 2",
        ),
    }

    @pytest.fixture(autouse=True)
    def no_basis_and_no_c(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("reached the pipeline")

        monkeypatch.setattr(reduction, "build_hermitian_basis", fail)
        monkeypatch.setattr(reduction, "c_coefficients", fail)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("grid", [False, True], ids=["single", "grid"])
    def test_reduce_subsystem(self, case, grid):
        changes, message = self.CASES[case]
        args = {**self.VALID, **changes}
        kmap = args.pop("kmap")
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            if grid:
                reduce_subsystem_grid(kmap.stacked()[None], **args)
            else:
                reduce_subsystem(kmap, **args)

    def test_valid_arguments_reach_the_pipeline(self):
        args = dict(self.VALID)
        with pytest.raises(AssertionError, match="reached the pipeline"):
            reduce_subsystem(args.pop("kmap"), **args)

    @pytest.mark.parametrize("split, truncation, message", [
        (Bipartition(3, 1), 1e-12, MISMATCH),
        (Bipartition(2, 2), math.nan, "truncation must be finite and nonnegative"),
    ])
    def test_reduce_separable_ensemble(self, split, truncation, message):
        pair = (maximally_mixed(split.d1), maximally_mixed(split.d2))
        ensemble = SeparableEnsemble((1.0,), (pair,))
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            reduce_separable_ensemble(self.MAP4, split, ensemble, truncation=truncation)


def test_split_mismatch_leaves_the_basis_cache_unchanged():
    before = build_hermitian_basis.cache_info()
    with pytest.raises(ValueError, match="split gives 30"):
        reduce_subsystem(composite_kraus(0.2, DampingRates(0.3, 1.0)), Bipartition(30, 1),
                         maximally_mixed(1))
    assert build_hermitian_basis.cache_info() == before
