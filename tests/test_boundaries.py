"""Every public input boundary rejects wrongly typed or non-finite input with
a ValueError that names it.

Arrays go through ``linalg.complex_array``: bool, string and object arrays
are rejected even when numpy could cast them to complex. Real scalars go
through ``linalg.real_number``, ``finite_real`` or ``nonnegative_real``.
"""

import contextlib
import io
import math
import os
import re

import numpy as np
import pytest

from helpers import SIGMA
from subkraus import cli, verify
from subkraus.basis import OperatorBasis, build_hermitian_basis, reconstruct
from subkraus.casestudy import (
    DampingRates,
    ModelParams,
    bose_occupation,
    composite_hamiltonian,
    composite_kraus,
    ohmic_spectral_density,
    to_schrodinger,
)
from subkraus.channels import (
    ChoiMatrix,
    DensityMatrix,
    KrausMap,
    completeness_defect,
    load_density_json,
    load_map_json,
    maximally_mixed,
    pure_state,
)
from subkraus.linalg import evolution_unitary, hermitian_eig, partial_trace, tensor_product
from subkraus.reduction import (
    Bipartition,
    BMatrix,
    CoefficientTensor,
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

SPLIT22 = Bipartition(2, 2)
BASIS2 = build_hermitian_basis(2)
MODEL_MAP = composite_kraus(0.2, DampingRates(0.3, 1.0))

# site: (call on the array, a numeric array the call takes, the name it must report)
ARRAY_SITES = {
    "DensityMatrix": (DensityMatrix, np.eye(2) / 2, "density matrix"),
    "KrausMap": (lambda x: KrausMap(2, x), np.eye(2)[None], "operators[0]"),
    "OperatorBasis": (lambda x: OperatorBasis(2, x), np.ones((4, 2, 2)), "elements[0]"),
    "ChoiMatrix": (lambda x: ChoiMatrix(x, 2), np.eye(4), "Choi matrix"),
    "BMatrix": (BMatrix, np.eye(4), "B matrix"),
    "tensor_product": (lambda x: tensor_product(x, np.eye(2)), np.eye(2), "a"),
    "partial_trace": (lambda x: partial_trace(x, 2, 2, 1), np.eye(4) / 4, "matrix"),
    "hermitian_eig": (hermitian_eig, np.eye(2), "h"),
    "reduce_subsystem_grid": (
        lambda x: reduce_subsystem_grid(x, SPLIT22, maximally_mixed(2)),
        np.eye(4)[None, None],
        "operator stack",
    ),
    "pure_state": (pure_state, np.array([1.0, 0.0]), "amplitudes"),
    "reconstruct": (lambda x: reconstruct(x, BASIS2), np.ones(4), "coefficients"),
    "CoefficientTensor": (
        lambda x: CoefficientTensor(x, 2, 2), np.ones((1, 4, 4)), "coefficient tensor"
    ),
}


@pytest.mark.parametrize("kind", [bool, str, object])
@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
def test_non_numeric_array_rejected_by_name(site, kind):
    call, numeric, name = ARRAY_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be an array of numbers")):
        call(numeric.astype(kind))


def _branches():
    return [reduce_subsystem(MODEL_MAP, SPLIT22, maximally_mixed(2))]


def _coefficients():
    return c_coefficients(MODEL_MAP, SPLIT22, BASIS2, BASIS2)


# site: (call on the scalar, the name it must report, the bad values it must reject)
BAD = (True, "1", math.nan, math.inf)
SCALAR_SITES = {
    # test_casestudy covers NaN and inf model parameters; inf is a valid nu_max
    "ModelParams.omega": (
        lambda v: ModelParams(v, 0.2, 1.0, 0.01, 5.0), "model parameter omega", BAD[:2]
    ),
    "ModelParams.nu_max": (
        lambda v: ModelParams(1.0, 0.2, 1.0, 0.01, 5.0, nu_max=v), "model parameter nu_max", BAD[:2]
    ),
    "bose_occupation.nu": (lambda v: bose_occupation(v, 1.0), "frequency", BAD),
    "bose_occupation.temperature": (lambda v: bose_occupation(1.0, v), "temperature", BAD),
    "ohmic_spectral_density.nu": (lambda v: ohmic_spectral_density(v, 0.01, 5.0), "frequency", BAD),
    "ohmic_spectral_density.alpha": (lambda v: ohmic_spectral_density(1.0, v, 5.0), "alpha", BAD),
    "ohmic_spectral_density.nu_c": (
        lambda v: ohmic_spectral_density(1.0, 0.01, v), "spectral cutoff", BAD
    ),
    "evolution_unitary.t": (lambda v: evolution_unitary(SIGMA[3], v), "time t", BAD),
    "evolution_unitary.tol": (lambda v: evolution_unitary(SIGMA[3], 1.0, tol=v), "tol", BAD),
    "hermitian_eig.tol": (lambda v: hermitian_eig(SIGMA[3], tol=v), "tol", BAD),
    "to_schrodinger.t": (lambda v: to_schrodinger(MODEL_MAP, v, 1.0, 0.2), "time t", BAD),
    "to_schrodinger.omega": (lambda v: to_schrodinger(MODEL_MAP, 0.5, v, 0.2), "omega", BAD),
    "to_schrodinger.beta": (lambda v: to_schrodinger(MODEL_MAP, 0.5, 1.0, v), "beta", BAD),
    "composite_hamiltonian.omega": (lambda v: composite_hamiltonian(v, 0.1), "omega", BAD),
    "composite_hamiltonian.beta": (lambda v: composite_hamiltonian(1.0, v), "beta", BAD),
    "DampingRates.tau": (lambda v: DampingRates(0.3, 1.0).tau(v), "time t", BAD),
    "reduced_domain_verdict.tol": (
        lambda v: reduced_domain_verdict(_branches(), tol=v), "tol", BAD
    ),
    "factorization_check.tol": (
        lambda v: factorization_check(_coefficients(), tol=v), "tol", BAD
    ),
}
SCALAR_CASES = [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site, (_, _, values) in sorted(SCALAR_SITES.items())
    for value in values
]


@pytest.mark.parametrize("site, value", SCALAR_CASES)
def test_bad_real_scalar_rejected_by_name(site, value):
    call, name, _ = SCALAR_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be")):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda m: KrausMap(2, [np.eye(2), m], trace_preserving=False), "operators[1]"),
    (lambda m: OperatorBasis(2, [*BASIS2.elements[:3], m]), "elements[3]"),
])
def test_bool_member_of_a_sequence_rejected_by_name(call, name):
    # one np.asarray of the whole list would promote the bool member to float
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be an array of numbers, got dtype bool")):
        call(np.eye(2, dtype=bool))


# one site per scalar rule: real_number, finite_real, nonnegative_real
@pytest.mark.parametrize("site", ["ModelParams.nu_max", "bose_occupation.nu", "hermitian_eig.tol"])
def test_integer_beyond_the_float_range_rejected_as_not_finite(site):
    call, name, _ = SCALAR_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be finite")):
        call(10**400)


def _cli_error(*argv):
    """cli.main on argv; exit code 2 is raised as the ValueError it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code == 2:
        raise ValueError(err.getvalue())


MIXED2, MIXED3, MIXED4 = maximally_mixed(2), maximally_mixed(3), maximally_mixed(4)
SPLIT32 = Bipartition(3, 2)

# site: (call, the prefix of the ValueError it must raise)
STRUCTURE_SITES = {
    "OperatorBasis.count": (
        lambda: OperatorBasis(2, [np.eye(2)] * 3), "basis for dimension 2 needs 4 elements, got 3"
    ),
    "reconstruct.count": (lambda: reconstruct([1, 2, 3], BASIS2), "expected 4 coefficients"),
    "ModelParams.temperature": (
        lambda: ModelParams(1.0, 0.2, 0.0, 0.01, 5.0), "temperature must be positive"
    ),
    "ModelParams.nu_c": (
        lambda: ModelParams(1.0, 0.2, 1.0, 0.01, 0.0), "spectral cutoff must be positive"
    ),
    "bose_occupation.nu": (lambda: bose_occupation(0.0, 1.0), "frequency must be positive"),
    "bose_occupation.temperature": (
        lambda: bose_occupation(1.0, 0.0), "temperature must be positive"
    ),
    "ohmic_spectral_density.nu_c": (
        lambda: ohmic_spectral_density(1.0, 0.01, 0.0), "spectral cutoff must be positive"
    ),
    "to_schrodinger.picture": (
        lambda: to_schrodinger(MODEL_MAP, 0.5, 1.0, 0.2, "qubit1"),
        "the single-qubit picture transform is only valid for non-interacting qubits",
    ),
    "pure_state.zero": (lambda: pure_state([0, 0]), "state vector must be nonzero"),
    "completeness_defect.shape": (
        lambda: completeness_defect(np.eye(2)), "operator stack must be (..., n, dim, dim)"
    ),
    "ChoiMatrix.shape": (
        lambda: ChoiMatrix(np.eye(4), 3), "Choi matrix for dimension 3 must be 9x9, got 4"
    ),
    "load_map_json.top_level": (lambda: load_map_json("[]"), "top level: expected an object"),
    "load_map_json.label": (
        lambda: load_map_json('{"dim": 1, "kraus": [[[[1, 0]]]], "label": 3}'),
        "label: expected a string",
    ),
    "load_density_json.rho": (lambda: load_density_json('{"dim":1}'), "rho: missing"),
    "CoefficientTensor.shape": (
        lambda: CoefficientTensor(np.ones((1, 4, 3)), 2, 2),
        "coefficient tensor must have shape (..., k, 4, 4), got (1, 4, 3)",
    ),
    "SeparableEnsemble.weights": (
        lambda: SeparableEnsemble((0.5, 0.5), ((MIXED2, MIXED2),)),
        "need one weight per product pair",
    ),
    "SeparableEnsemble.dimensions": (
        lambda: SeparableEnsemble((0.5, 0.5), ((MIXED2, MIXED2), (MIXED3, MIXED2))),
        "pair 1 has inconsistent dimensions",
    ),
    "c_coefficients.basis": (
        lambda: c_coefficients(MODEL_MAP, SPLIT22, build_hermitian_basis(3), BASIS2),
        "basis dimensions (3, 2) do not match the bipartition (2, 2)",
    ),
    "b_matrix.basis": (
        lambda: b_matrix(_coefficients(), MIXED2, build_hermitian_basis(3)),
        "basis dimension 3 does not match coefficient d2 = 2",
    ),
    "reduce_separable_ensemble.split": (
        lambda: reduce_separable_ensemble(
            MODEL_MAP, SPLIT22, SeparableEnsemble((1.0,), ((MIXED3, MIXED2),))
        ),
        "ensemble dimensions do not match the bipartition",
    ),
    "reduced_domain_verdict.dimensions": (
        lambda: reduced_domain_verdict(
            _branches() + [reduce_subsystem(KrausMap(6, [np.eye(6)]), SPLIT32, MIXED2)]
        ),
        "branches have mixed dimensions [2, 3]",
    ),
    "correlated_probe.states": (
        lambda: correlated_probe(MODEL_MAP, SPLIT22, MIXED2, MIXED2),
        "probe states must live on the composite dimension",
    ),
    "correlated_probe.map": (
        lambda: correlated_probe(KrausMap(9, [np.eye(9)]), SPLIT22, MIXED4, MIXED4),
        "map dimension does not match the bipartition",
    ),
    "verify.run_checks.scope": (lambda: verify.run_checks("bogus"), "unknown scope 'bogus'"),
    "cli.case-study.t_max": (
        lambda: _cli_error(
            "case-study", "--gamma1", "0.3", "--gamma2", "1.0", "--a", "0.3",
            "--t-max", "0", "--steps", "5", "--out", os.devnull,
        ),
        "error: --t-max must be positive",
    ),
}


@pytest.mark.parametrize("site", sorted(STRUCTURE_SITES))
def test_ill_formed_input_rejected_by_name(site):
    call, prefix = STRUCTURE_SITES[site]
    with pytest.raises(ValueError, match="^" + re.escape(prefix)):
        call()
