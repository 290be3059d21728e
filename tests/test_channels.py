import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SIGMA,
    choi_by_definition,
    random_density,
    random_tp_kraus,
    random_unitary,
    rng_from,
)
from subkraus.basis import OperatorBasis, build_hermitian_basis
from subkraus.casestudy import DampingRates, composite_kraus, qubit_state
from subkraus.channels import (
    ChoiMatrix,
    CompletenessError,
    DensityMatrix,
    KrausMap,
    apply_map,
    apply_matrix,
    channel_distance,
    choi_distance,
    choi_matrix,
    choi_of_any,
    completeness_defect,
    cp_verdict,
    dump_density_json,
    dump_map_json,
    load_density_json,
    load_map_json,
    maximally_mixed,
    pure_state,
    require_complete,
)
from subkraus.reduction import Bipartition, reduce_subsystem

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert rho.dim == 2

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityMatrix([[np.nan, 0], [0, 1]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_names_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="^density matrix must have finite entries$"):
            DensityMatrix([[bad, 0], [0, 1]])

    def test_pure_state_normalizes(self):
        rho = pure_state([2.0, 0.0])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308])
    def test_pure_state_survives_extreme_amplitudes(self, scale):
        # the norm of these vectors overflows or underflows in double precision
        rho = pure_state([scale, scale])
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_state_names_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match=r"amplitudes\[1\] must be finite"):
            pure_state([1.0, bad])

    def test_maximally_mixed(self):
        np.testing.assert_allclose(maximally_mixed(3).matrix, np.eye(3) / 3)


class TestKrausMap:
    def test_trace_preserving_flag_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausMap(2, (0.5 * np.eye(2, dtype=complex),), trace_preserving=True)

    def test_non_trace_preserving_allowed(self):
        kmap = KrausMap(2, (0.5 * np.eye(2, dtype=complex),), trace_preserving=False)
        assert completeness_defect(kmap) == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_trace_preserving_rejects_non_finite_operator(self, bad):
        ops = (np.eye(2, dtype=complex), np.diag([0.5, bad]))
        with pytest.raises(ValueError, match=r"operators\[1\] must have finite entries"):
            KrausMap(2, ops, trace_preserving=False)
        with pytest.raises(ValueError, match=r"operators\[0\]"):
            KrausMap(1, [[[bad]]], trace_preserving=False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_trace_preserving_rejects_non_finite_operator(self, bad):
        # the same check and message as without the flag, before completeness
        ops = (np.eye(2, dtype=complex), np.diag([0.5, bad]))
        with pytest.raises(ValueError, match=r"operators\[1\] must have finite entries"):
            KrausMap(2, ops)
        with pytest.raises(ValueError, match=r"operators\[0\] must have finite entries"):
            KrausMap(1, [[[bad]]])

    def test_from_operators(self):
        kmap = KrausMap.from_operators([np.eye(3, dtype=complex)])
        assert kmap.dim == 3

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2, 2))])
    def test_from_operators_rejects_empty(self, empty):
        with pytest.raises(ValueError, match="a Kraus map needs at least one operator"):
            KrausMap.from_operators(empty)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausMap(2, (), trace_preserving=False)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            KrausMap(2, (np.eye(2), np.eye(3)), trace_preserving=False)

    def test_operators_are_rows_of_one_read_only_stack(self):
        kmap = KrausMap(2, (SIGMA[1] / np.sqrt(2), SIGMA[3] / np.sqrt(2)))
        assert kmap.stacked() is kmap.stacked()
        assert kmap.stacked().shape == (2, 2, 2)
        for k, op in enumerate(kmap.operators):
            np.testing.assert_array_equal(op, kmap.stacked()[k])
        with pytest.raises(ValueError):
            kmap.operators[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            kmap.stacked()[1, 0, 0] = 1.0

    def test_caller_arrays_are_copied(self):
        ops = [np.eye(2, dtype=complex)]
        stack = np.eye(2, dtype=complex)[None].copy()
        from_list = KrausMap(2, ops)
        from_stack = KrausMap(2, stack)
        ops[0][0, 0] = 7.0
        stack[0, 0, 0] = 7.0
        np.testing.assert_array_equal(from_list.operators[0], np.eye(2))
        np.testing.assert_array_equal(from_stack.stacked()[0], np.eye(2))

    def test_tuple_list_and_array_give_identical_stacks(self):
        ops = [np.sqrt(w / 2) * SIGMA[i] for i, w in enumerate((1.2, 0.3, 0.3, 0.2))]
        maps = [KrausMap(2, tuple(ops)), KrausMap(2, ops), KrausMap(2, np.array(ops))]
        for kmap in maps:
            assert kmap.stacked().dtype == complex
            assert kmap.stacked().tobytes() == maps[0].stacked().tobytes()
            assert kmap == maps[0]
        real = KrausMap(2, [np.eye(2)])
        assert real.stacked().dtype == complex

    @pytest.mark.parametrize(
        "operators, message",
        [
            ((np.eye(2), np.eye(3)), r"operators\[1\] has dimension 3, expected 2"),
            ((np.eye(2), np.ones((2, 3))), r"operators\[1\] must be a square matrix"),
            ((np.eye(2), np.ones(2)), r"operators\[1\] must be a square matrix"),
            ([np.eye(3)], r"operators\[0\] has dimension 3, expected 2"),
            (np.eye(2), r"operators\[0\] must be a square matrix"),
            (np.eye(3)[None], r"operators\[0\] has dimension 3, expected 2"),
        ],
    )
    def test_bad_operator_named(self, operators, message):
        with pytest.raises(ValueError, match=message):
            KrausMap(2, operators, trace_preserving=False)

    def test_accepts_ndarray_stack(self):
        stack = np.stack([np.sqrt(w / 2) * SIGMA[i] for i, w in enumerate((1.2, 0.3, 0.3, 0.2))])
        kmap = KrausMap(2, stack)
        assert len(kmap.operators) == 4
        np.testing.assert_array_equal(kmap.stacked(), stack)
        assert completeness_defect(kmap) < 1e-15

    def test_equality_compares_dimension_flag_and_operators(self):
        ident = KrausMap(2, [np.eye(2)])
        assert ident == KrausMap(2, [np.eye(2)])
        assert not ident != KrausMap(2, np.eye(2)[None])
        assert ident != KrausMap(2, [-np.eye(2)])
        assert ident != KrausMap(2, [np.eye(2)], trace_preserving=False)
        assert ident != KrausMap(2, [np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
        assert ident != KrausMap(3, [np.eye(3)])

    def test_comparison_with_a_non_map_is_false(self):
        ident = KrausMap(2, [np.eye(2)])
        assert ident != "identity"
        assert not ident == None  # noqa: E711

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(KrausMap(2, [np.eye(2)]))


class TestApplyMap:
    def test_identity_map(self):
        rng = rng_from(3)
        rho = random_density(rng, 3)
        ident = KrausMap(3, (np.eye(3, dtype=complex),))
        np.testing.assert_allclose(apply_map(ident, rho).matrix, rho.matrix, atol=1e-15)

    def test_dimension_mismatch(self):
        ident = KrausMap(2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError, match="mismatch"):
            apply_map(ident, maximally_mixed(3))

    def test_pauli_channel_populations(self):
        # weights (b_i / 2) on {I, x, y, z} move diag(1, 0) to
        # diag((b0 + b3) / 2, b1) when b1 = b2
        b = (1.2, 0.35, 0.35, 0.1)
        ops = tuple(np.sqrt(w / 2) * SIGMA[i] for i, w in enumerate(b))
        kmap = KrausMap(2, ops)
        out = apply_map(kmap, pure_state([1.0, 0.0]))
        np.testing.assert_allclose(
            np.diag(out.matrix).real, [(b[0] + b[3]) / 2, b[1]], atol=1e-14
        )

    @given(seeds)
    @settings(max_examples=25)
    def test_trace_preserved_for_tp_maps(self, seed):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 3, 4)
        assert completeness_defect(kmap) < 1e-10
        rho = random_density(rng, 3)
        out = apply_map(kmap, rho)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10


class TestCompleteness:
    def test_identity(self):
        assert completeness_defect(KrausMap(2, (np.eye(2, dtype=complex),))) == 0.0

    def test_sigma_x_unitary(self):
        assert completeness_defect(KrausMap(2, (SIGMA[1],))) < 1e-15


class TestChoi:
    def test_identity_channel_corners(self):
        choi = choi_matrix(KrausMap(2, (np.eye(2, dtype=complex),)))
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 1.0
        np.testing.assert_allclose(choi.matrix, expected, atol=1e-15)

    def test_sigma_z_channel_rank_one(self):
        from subkraus.linalg import hermitian_eig

        choi = choi_matrix(KrausMap(2, (SIGMA[3],)))
        w = hermitian_eig(choi.matrix).eigenvalues
        np.testing.assert_allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_depolarizing_choi(self):
        ops = tuple(s / 2 for s in SIGMA)
        kmap = KrausMap(2, ops)
        choi = choi_matrix(kmap)
        np.testing.assert_allclose(choi.matrix, np.eye(4) / 2, atol=1e-15)
        # independent block-by-block oracle
        np.testing.assert_allclose(choi.matrix, choi_by_definition(kmap), atol=1e-14)

    @given(seeds)
    @settings(max_examples=20)
    def test_matches_definition_oracle(self, seed):
        kmap = random_tp_kraus(rng_from(seed), 2, 3)
        np.testing.assert_allclose(
            choi_matrix(kmap).matrix, choi_by_definition(kmap), atol=1e-12
        )

    @given(seeds)
    @settings(max_examples=20)
    def test_additive_over_operator_lists(self, seed):
        rng = rng_from(seed)
        full = random_tp_kraus(rng, 2, 4)
        part_a = KrausMap(2, full.operators[:2], trace_preserving=False)
        part_b = KrausMap(2, full.operators[2:], trace_preserving=False)
        total = choi_of_any(part_a) + choi_of_any(part_b)
        np.testing.assert_allclose(choi_matrix(full).matrix, total, atol=1e-12)

    def test_trace_equals_dim_for_tp(self):
        kmap = random_tp_kraus(rng_from(5), 3, 3)
        choi = choi_matrix(kmap)
        assert abs(np.trace(choi.matrix).real - 3.0) < 1e-10


class TestCpVerdict:
    def test_identity_is_cp(self):
        verdict = cp_verdict(choi_matrix(KrausMap(2, (np.eye(2, dtype=complex),))))
        assert verdict.is_cp
        assert verdict.min_eigenvalue >= -1e-15

    def test_transpose_map_is_not_cp(self):
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[a * 2 + b, b * 2 + a] = 1.0
        verdict = cp_verdict(ChoiMatrix(swap, 2))
        assert not verdict.is_cp
        assert abs(verdict.min_eigenvalue + 1.0) < 1e-12

    @given(seeds)
    @settings(max_examples=20)
    def test_every_kraus_list_is_cp(self, seed):
        kmap = random_tp_kraus(rng_from(seed), 2, 4)
        verdict = cp_verdict(choi_matrix(kmap))
        assert verdict.is_cp


class TestChannelDistance:
    def test_global_phase_gauge(self):
        a = KrausMap(2, (SIGMA[1],))
        b = KrausMap(2, (-SIGMA[1],))
        assert channel_distance(a, b) < 1e-15

    def test_identity_vs_sigma_z(self):
        a = KrausMap(2, (np.eye(2, dtype=complex),))
        b = KrausMap(2, (SIGMA[3],))
        assert channel_distance(a, b) == pytest.approx(np.sqrt(8), abs=1e-13)

    @given(seeds)
    @settings(max_examples=20)
    def test_symmetry_and_triangle(self, seed):
        rng = rng_from(seed)
        a = random_tp_kraus(rng, 2, 2)
        b = random_tp_kraus(rng, 2, 2)
        c = random_tp_kraus(rng, 2, 2)
        assert channel_distance(a, b) == pytest.approx(channel_distance(b, a), abs=1e-12)
        assert channel_distance(a, c) <= channel_distance(a, b) + channel_distance(b, c) + 1e-12

    @given(seeds)
    @settings(max_examples=20)
    def test_unitary_mixing_invariance(self, seed):
        rng = rng_from(seed)
        kmap = random_tp_kraus(rng, 2, 2)
        u = random_unitary(rng, 2)
        mixed = KrausMap(
            2,
            tuple(sum(u[p, q] * kmap.operators[q] for q in range(2)) for p in range(2)),
            trace_preserving=True,
        )
        assert channel_distance(kmap, mixed) < 1e-10

    def test_choi_distance_of_stacks_equals_each_pair_bit_for_bit(self):
        rng = rng_from(8)
        pairs = [(random_tp_kraus(rng, 3, 2), random_tp_kraus(rng, 3, 4)) for _ in range(6)]
        chois_a, chois_b = (np.array([choi_of_any(m) for m in maps]) for maps in zip(*pairs))
        distances = choi_distance(chois_a, chois_b)
        assert distances.shape == (6,)
        assert distances.tolist() == [channel_distance(a, b) for a, b in pairs]
        assert type(choi_distance(chois_a[0], chois_b[0])) is float

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            channel_distance(
                KrausMap(2, (np.eye(2, dtype=complex),)),
                KrausMap(3, (np.eye(3, dtype=complex),)),
            )


class TestSerialization:
    def test_map_roundtrip_bytes(self):
        kmap = random_tp_kraus(rng_from(11), 2, 3)
        text = dump_map_json(kmap, label="test map")
        again = dump_map_json(load_map_json(text), label="test map")
        assert text == again

    def test_map_values_survive(self):
        kmap = random_tp_kraus(rng_from(12), 3, 2)
        loaded = load_map_json(dump_map_json(kmap))
        for a, b in zip(kmap.operators, loaded.operators):
            np.testing.assert_array_equal(a, b)
        assert loaded.trace_preserving is False

    @pytest.mark.parametrize("trace_preserving", [True, False])
    def test_every_accepted_map_round_trips(self, trace_preserving):
        for dim in (1, 2, 3, np.int64(2), np.int32(3), True, False, 2.0, np.float64(1.0), "2", 0):
            d = max(int(dim), 1)
            ops = random_tp_kraus(rng_from(d), d, 2).operators
            try:
                kmap = KrausMap(dim, ops, trace_preserving)
            except ValueError:
                continue
            text = dump_map_json(kmap)
            loaded = load_map_json(text)
            assert loaded == KrausMap(kmap.dim, ops, trace_preserving=False)
            assert dump_map_json(loaded) == text

    def test_negative_zero_round_trips(self):
        # fmt17(-0.0) writes the JSON integer token -0, which must read back as -0.0
        ops = np.array([[[1.0, -0.0], [0.0, complex(-0.0, -0.0)]], [[-0.0, 0.0], [0.0, 1.0]]])
        text = dump_map_json(KrausMap(2, ops, trace_preserving=False))
        assert "[-0,0]" in text and "[-0,-0]" in text
        loaded = load_map_json(text)
        assert np.signbit(loaded.stacked().real).sum() == 3
        assert np.signbit(loaded.stacked().imag).sum() == 1
        assert dump_map_json(loaded) == text
        text = '{"dim":2,"kraus":[[[[1,0],[-0,0]],[[0,0],[1,-0]]]]}\n'
        assert dump_map_json(load_map_json(text)) == text
        rho = '{"dim":1,"rho":[[[1,-0]]]}\n'
        assert dump_density_json(load_density_json(rho)) == rho
        with pytest.raises(ValueError, match=r"dim must be a positive integer, got -0\.0"):
            load_map_json('{"dim":-0,"kraus":[[[[1,0]]]]}')

    def test_density_roundtrip(self):
        rho = random_density(rng_from(13), 3)
        loaded = load_density_json(dump_density_json(rho))
        np.testing.assert_array_equal(rho.matrix, loaded.matrix)

    def test_malformed_entry_names_field(self):
        text = '{"dim":2,"kraus":[[[[1,0],[0,0]],[[0,0],"bad"]]]}'
        with pytest.raises(ValueError, match=r"kraus\[0\]\[1\]\[1\]"):
            load_map_json(text)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_entry_names_field(self, bad):
        text = f'{{"dim":2,"kraus":[[[[1,0],[0,0]],[[0,0],[1,{bad}]]]]}}'
        with pytest.raises(ValueError, match=r"kraus\[0\]\[1\]\[1\]: entries must be finite"):
            load_map_json(text)
        with pytest.raises(ValueError, match=r"rho\[0\]\[1\]"):
            load_density_json(f'{{"dim":2,"rho":[[[1,0],[{bad},0]],[[0,0],[0,0]]]}}')

    def test_bool_entry_and_dim_rejected(self):
        with pytest.raises(ValueError, match=r"kraus\[0\]\[0\]\[0\]"):
            load_map_json('{"dim":1,"kraus":[[[[true,0]]]]}')
        with pytest.raises(ValueError, match="dim"):
            load_map_json('{"dim":true,"kraus":[[[[1,0]]]]}')

    def test_missing_kraus_rejected(self):
        with pytest.raises(ValueError, match="kraus"):
            load_map_json('{"dim":2}')

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            load_map_json('{"dim":-1,"kraus":[]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            load_map_json("{not json")

    def test_density_shape_mismatch_names_row(self):
        with pytest.raises(ValueError, match=r"rho\[1\]"):
            load_density_json('{"dim":2,"rho":[[[0.5,0],[0,0]],[[0,0]]]}')


def test_apply_matrix_is_linear_action():
    rng = rng_from(21)
    kmap = random_tp_kraus(rng, 2, 2)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    direct = sum(op @ m @ op.conj().T for op in kmap.operators)
    np.testing.assert_allclose(apply_matrix(kmap, m), direct, atol=1e-14)


def test_stack_functions_match_per_map_calls():
    rng = rng_from(41)
    maps = [random_tp_kraus(rng, 2, 3) for _ in range(4)]
    stack = np.array([m.stacked() for m in maps])
    defects = completeness_defect(stack)
    chois = choi_matrix(stack)
    verdicts = cp_verdict(chois)
    assert defects.shape == (4,) and chois.matrix.shape == (4, 4, 4)
    for i, kmap in enumerate(maps):
        assert defects[i] == completeness_defect(kmap)
        np.testing.assert_array_equal(chois.matrix[i], choi_matrix(kmap).matrix)
        one = cp_verdict(choi_matrix(kmap))
        assert verdicts.min_eigenvalue[i] == pytest.approx(one.min_eigenvalue, abs=1e-15)
        assert verdicts.is_cp[i] == one.is_cp


def test_stack_gates_name_the_failing_map():
    rng = rng_from(42)
    stack = np.array([random_tp_kraus(rng, 2, 2).stacked() for _ in range(3)])
    stack[1] *= 1.1  # breaks the Choi trace of map 1 only
    with pytest.raises(ValueError, match="map 1 of the stack"):
        choi_matrix(stack)
    stack[2, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="Choi matrix 2 of the stack is not Hermitian"):
        ChoiMatrix(choi_of_any(stack), 2)
    assert np.isnan(completeness_defect(stack)[2])


class TestChoiMatrixTracePreservation:
    """Completeness at model tolerance is the one trace-preservation rule,
    and ``choi_matrix`` holds only a bare stack to it."""

    def test_accepts_a_map_the_constructor_accepted(self):
        ops = random_tp_kraus(rng_from(44), 4, 3).stacked() * (1 + 2.5e-9)
        kmap = KrausMap(4, ops, trace_preserving=True)
        assert 1e-9 < completeness_defect(kmap) <= 1e-8
        np.testing.assert_array_equal(choi_matrix(kmap).matrix, choi_of_any(kmap))

    def test_accepts_a_truncated_reduction(self):
        result = reduce_subsystem(
            composite_kraus(2e-6, DampingRates(0.3, 1.0)), Bipartition(2, 2), qubit_state(0.3),
            truncation=1e-9,
        )
        assert result.truncated_count == 1
        choi = choi_matrix(result.subsystem_map)
        assert 1e-10 < 2.0 - np.trace(choi.matrix).real < 1e-9

    def test_rejects_an_incomplete_stack_with_an_exact_trace(self):
        eps = 1e-3
        squeezed = np.diag([np.sqrt(1 + eps), np.sqrt(1 - eps)]).astype(complex)
        stack = np.array([[np.eye(2, dtype=complex)], [squeezed]])
        assert abs(np.trace(choi_of_any(stack[1])) - 2.0) < 1e-15
        with pytest.raises(CompletenessError, match=r"^operators violate the completeness "
                           r"condition \(map 1 of the stack\) \(defect 1.000e-03"):
            choi_matrix(stack)

    def test_no_gate_without_the_flag(self):
        raw = KrausMap(2, (1.1 * np.eye(2, dtype=complex),), trace_preserving=False)
        assert np.trace(choi_matrix(raw).matrix).real == pytest.approx(2.42)


def test_require_complete_names_the_first_failing_map():
    rng = rng_from(43)
    stack = np.array([random_tp_kraus(rng, 2, 2).stacked() for _ in range(3)])
    require_complete(stack, "operators")
    require_complete(KrausMap(2, stack[0]), "operators")
    stack[2, 0, 0, 0] = np.nan  # a NaN defect fails
    with pytest.raises(ValueError, match=r"condition \(map 2 of the stack\) \(defect nan > 1.0e-08\)"):
        require_complete(stack, "operators")
    with pytest.raises(ValueError, match="operators violate the completeness condition at t=0.5 "):
        require_complete(stack, "operators", times=[0.1, 0.2, 0.5])
    with pytest.raises(ValueError, match=r"^operators violate the completeness condition \(defect"):
        require_complete(KrausMap(2, stack[1] * 1.1, trace_preserving=False), "operators")


@given(seeds)
@settings(max_examples=25)
def test_completeness_defect_matches_operator_loop(seed):
    kmap = random_tp_kraus(rng_from(seed), 3, 4)
    raw = KrausMap(3, tuple(0.9 * op for op in kmap.operators), trace_preserving=False)
    direct = sum(op.conj().T @ op for op in raw.operators) - np.eye(3)
    assert abs(completeness_defect(raw) - np.abs(direct).max()) < 1e-14


IDENTITY_CHOI = choi_of_any(KrausMap(2, (np.eye(2, dtype=complex),)))
DIM_CONSTRUCTORS = {
    "KrausMap": lambda dim: KrausMap(dim, (np.eye(2, dtype=complex),)),
    "ChoiMatrix": lambda dim: ChoiMatrix(IDENTITY_CHOI, dim),
    "OperatorBasis": lambda dim: OperatorBasis(dim, build_hermitian_basis(2).elements),
    "build_hermitian_basis": build_hermitian_basis,
    "maximally_mixed": maximally_mixed,
}


@pytest.mark.parametrize(
    "bad", [True, 2.0, np.float64(2.0), "2"], ids=["bool", "float", "float64", "str"]
)
@pytest.mark.parametrize("constructor", DIM_CONSTRUCTORS)
def test_dimension_must_be_a_positive_integer(constructor, bad):
    with pytest.raises(ValueError, match=re.escape(f"dimension must be a positive integer, got {bad!r}")):
        DIM_CONSTRUCTORS[constructor](bad)


@pytest.mark.parametrize("constructor", ["KrausMap", "ChoiMatrix", "OperatorBasis", "build_hermitian_basis"])
def test_numpy_integer_dimension_is_stored_as_int(constructor):
    built = DIM_CONSTRUCTORS[constructor](np.int64(2))
    assert type(built.dim) is int and built.dim == 2


@pytest.mark.parametrize(
    "tol", [-1.0, -1e-300, np.nan, np.inf, True, "1e-10"],
    ids=["negative", "tiny-negative", "nan", "inf", "bool", "str"],
)
def test_cp_verdict_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be"):
        cp_verdict(ChoiMatrix(IDENTITY_CHOI, 2), tol=tol)
    assert cp_verdict(ChoiMatrix(IDENTITY_CHOI, 2), tol=0.0).is_cp
