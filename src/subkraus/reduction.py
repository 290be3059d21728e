"""Subsystem Kraus extraction from a composite completely positive map.

Given a trace-preserving CP map on a bipartite system prepared in a product
state, the reduced dynamics of either factor is again CP and trace
preserving, and its Kraus operators can be computed exactly:

1. expand every composite Kraus operator over a product basis of Hermitian
   operators, ``c[k, i, j] = tr(K_k (g_i (x) h_j))``;
2. contract the coefficients with the traced-out factor's initial state into
   the Hermitian positive-semidefinite mixing matrix
   ``b = sum_k c_k R c_k^dagger``, where ``c_k`` is the matrix ``c[k, i, j]``
   and ``R[j, l] = tr(h_j rho h_l)`` is the traced-out state in the ``h`` basis;
3. diagonalize ``b``;
4. assemble subsystem operators ``K_p = sqrt(b_p) sum_i u[i, p] g_i``.

The pipeline is written once over a leading batch axis and records steps 3
and 4 in one :class:`GridReduction`: :func:`reduce_subsystem_grid` returns it
for a whole (T, k, dim, dim) stack of maps, such as a model sampled on a time
grid, computed with a fixed number of numpy calls, and :func:`reduce_subsystem`
reads the same record of a single map.

The same machinery diagnoses when no state-independent reduced map exists:
branch-wise reductions of separable (but correlated) preparations generally
disagree, an equal-marginal probe exhibits marginal dynamics that depend on
discarded correlations, and a per-operator rank test detects maps whose
operators all factorize into tensor products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import OperatorBasis, build_hermitian_basis
from .channels import (
    CompletenessError,
    DensityMatrix,
    KrausMap,
    apply_matrix,
    choi_distance,
    choi_of_any,
    operator_stack,
)
from .linalg import (
    STRUCTURAL_TOL,
    as_complex_stack,
    complex_array,
    first_failure,
    hermitian_eig,
    max_abs,
    nonnegative_real,
    partial_trace,
    positive_int,
    require_hermitian,
    subsystem_keep,
)

# B eigenvalues below this are treated as a diagnostic failure rather than
# rounding noise; the eigensolver leaves residuals around 1e-12 while a
# genuinely inconsistent input produces order-one violations.
B_EIG_DIAGNOSTIC_TOL = 1e-8

DEFAULT_TRUNCATION = 1e-12


class NonPositiveBMatrixError(RuntimeError):
    """The mixing matrix acquired a genuinely negative eigenvalue.

    Signals a non-CP parent map or a traced-out factor that is not a valid
    state; with valid inputs the matrix is positive semidefinite by
    construction. ``index`` is the first failing grid point of a grid
    reduction, and None for a single map.
    """

    def __init__(self, min_eigenvalue: float, index: Optional[int] = None):
        self.min_eigenvalue = float(min_eigenvalue)
        self.index = index
        super().__init__(
            f"mixing matrix has negative eigenvalue {self.min_eigenvalue:.6e}"
        )


@dataclass(frozen=True)
class Bipartition:
    """Dimensions of the two tensor factors, subsystem-1 major."""

    d1: int
    d2: int

    def __post_init__(self):
        object.__setattr__(self, "d1", positive_int(self.d1, "subsystem dimension d1"))
        object.__setattr__(self, "d2", positive_int(self.d2, "subsystem dimension d2"))

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


@dataclass(frozen=True)
class CoefficientTensor:
    """Product-basis coefficients of a Kraus list, indexed [k][i][j], or of
    a stack of Kraus lists, indexed [..., k, i, j]."""

    values: np.ndarray
    d1: int
    d2: int

    def __post_init__(self):
        v = complex_array(self.values, "coefficient tensor").copy()
        expected = (self.d1 * self.d1, self.d2 * self.d2)
        if v.ndim < 3 or v.shape[-2:] != expected:
            raise ValueError(
                f"coefficient tensor must have shape (..., k, {expected[0]}, {expected[1]}), "
                f"got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def operator_count(self) -> int:
        return self.values.shape[-3]

    def swapped(self) -> "CoefficientTensor":
        """Same coefficients with the subsystem roles exchanged."""
        return CoefficientTensor(self.values.swapaxes(-1, -2), self.d2, self.d1)


@dataclass(frozen=True)
class BMatrix:
    """Hermitian mixing matrix b[i, i'] for one traced-out state, or a
    (..., n, n) stack of them, each checked for Hermiticity."""

    values: np.ndarray
    time_label: Optional[float] = None

    def __post_init__(self):
        v = as_complex_stack(self.values, "B matrix").copy()
        require_hermitian(v, "B matrix")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class ReductionResult:
    """Everything produced by one subsystem reduction.

    ``eigenvalues`` are all of b's eigenvalues, descending and clamped at
    zero, with ``mixing[:, p]`` the matching eigenvectors; ``subsystem_map``
    keeps only the operators whose eigenvalue survived truncation. Both
    arrays are fields of the pipeline's :class:`GridReduction` record and,
    like ``b``, read-only. For ``keep=2`` reductions the stored coefficients
    are reordered so that the kept subsystem's basis index always comes first.
    """

    coefficients: CoefficientTensor
    b: BMatrix
    eigenvalues: np.ndarray
    mixing: np.ndarray
    subsystem_map: KrausMap

    @property
    def truncated_count(self) -> int:
        return len(self.eigenvalues) - len(self.subsystem_map.operators)


@dataclass(frozen=True)
class GridReduction:
    """Subsystem reductions of a stack of T maps, one per grid point: the one
    record of the reduction pipeline, which a single-map reduction reads
    without the leading T axis.

    ``b`` is (T, n, n); ``eigenvalues`` (T, n) are descending and clamped at
    zero, with ``mixing[t, :, p]`` the matching eigenvectors; ``operators``
    (T, n, d, d) holds every assembled operator, the truncated ones zeroed,
    and ``kept`` (T, n) marks the operators that survived truncation. All
    arrays are read-only.
    """

    b: np.ndarray
    eigenvalues: np.ndarray
    mixing: np.ndarray
    operators: np.ndarray
    kept: np.ndarray

    def __post_init__(self):
        for name in ("b", "eigenvalues", "mixing", "operators", "kept"):
            view = getattr(self, name).view()  # leaves the caller's array writable
            view.setflags(write=False)
            object.__setattr__(self, name, view)


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture of product states, sum_m p_m s1_m (x) s2_m."""

    weights: tuple[float, ...]
    pairs: tuple[tuple[DensityMatrix, DensityMatrix], ...]

    def __post_init__(self):
        w = tuple(nonnegative_real(x, f"weights[{m}]") for m, x in enumerate(self.weights))
        if len(w) == 0 or len(w) != len(self.pairs):
            raise ValueError("need one weight per product pair")
        if not abs(sum(w) - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"weights sum to {sum(w)}, expected 1")
        for m, pair in enumerate(self.pairs):
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(isinstance(s, DensityMatrix) for s in pair)
            ):
                raise ValueError(f"pairs[{m}] must be a pair of DensityMatrix states")
            # pairs[0] passed the test above before it is read here
            if (pair[0].dim, pair[1].dim) != (self.pairs[0][0].dim, self.pairs[0][1].dim):
                raise ValueError(f"pair {m} has inconsistent dimensions")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "pairs", tuple(self.pairs))


@dataclass(frozen=True)
class DomainVerdict:
    """Whether branch reductions agree as superoperators."""

    uniform: bool
    max_pairwise_distance: float
    common_map: Optional[KrausMap]


@dataclass(frozen=True)
class OperatorFactorization:
    """Per-operator tensor-product verdict from the coefficient rank test."""

    is_product: bool
    is_zero: bool
    singular_ratio: float


def _check_split(stack: np.ndarray, split: Bipartition) -> None:
    if stack.shape[-1] != split.dim:
        raise ValueError(
            f"dimension mismatch: map is {stack.shape[-1]}-dimensional, "
            f"split gives {split.dim}"
        )


def _check_state(rho2: DensityMatrix, d2: int) -> None:
    if rho2.dim != d2:
        raise ValueError(f"state dimension {rho2.dim} does not match coefficient d2 = {d2}")


def c_coefficients(
    kmap,
    split: Bipartition,
    basis1: OperatorBasis,
    basis2: OperatorBasis,
) -> CoefficientTensor:
    """c[..., k, i, j] = tr(K_k (g_i (x) h_j)) for each composite operator of
    a ``KrausMap`` or of a (..., k, dim, dim) stack of maps."""
    stack = operator_stack(kmap)
    _check_split(stack, split)
    if basis1.dim != split.d1 or basis2.dim != split.d2:
        raise ValueError(
            f"basis dimensions ({basis1.dim}, {basis2.dim}) do not match the "
            f"bipartition ({split.d1}, {split.d2})"
        )
    d1, d2 = split.d1, split.d2
    blocks = stack.reshape(*stack.shape[:-2], d1, d2, d1, d2)
    values = np.einsum(
        "...kabcd,ica,jdb->...kij", blocks, basis1.stacked(), basis2.stacked()
    )
    return CoefficientTensor(values, d1, d2)


def b_matrix(
    coeffs: CoefficientTensor,
    rho2: DensityMatrix,
    basis2: OperatorBasis,
    time_label: Optional[float] = None,
) -> BMatrix:
    """Contract coefficients with the traced-out state.

    b = sum_k c_k R c_k^dagger, with c_k the (n, m) matrix c[k, i, j] and
    R[j, l] = tr(h_j rho2 h_l) the traced-out state in the h basis; this is
    b[i, i'] = sum_k tr(D_ki rho2 D_ki'^dagger) for D_ki = sum_j c[k,i,j] h_j,
    and it is linear in rho2. A stack of coefficient tensors gives the stack
    of mixing matrices.
    """
    if basis2.dim != coeffs.d2:
        raise ValueError(
            f"basis dimension {basis2.dim} does not match coefficient d2 = {coeffs.d2}"
        )
    _check_state(rho2, coeffs.d2)
    h = basis2.stacked()
    m, d = h.shape[:2]
    # tr(A h_l) = sum_ab A[a, b] conj(h_l[a, b]) because h_l is Hermitian
    r = (h.reshape(m * d, d) @ rho2.matrix).reshape(m, -1) @ h.reshape(m, -1).conj().T
    *lead, k, n, _ = coeffs.values.shape
    rows = coeffs.values.swapaxes(-3, -2).reshape(*lead, n, k * m)  # [..., i, (k, j)]
    mixed = (rows.reshape(-1, m) @ r).reshape(rows.shape)
    return BMatrix(mixed @ rows.conj().swapaxes(-1, -2), time_label)


def _checked_coefficients(stack, split: Bipartition, rho_other: DensityMatrix, keep, truncation):
    """The coefficients of a (..., k, dim, dim) ``stack`` in the shared bases,
    oriented so that the kept subsystem's index comes first, and the checked
    ``truncation``. Every argument is checked, in the order of the pipeline
    steps that read them, before any basis is built or any ``c`` contracted."""
    _check_split(stack, split)
    keep = subsystem_keep(keep)
    truncation = nonnegative_real(truncation, "truncation")
    if truncation > 1.0:  # above 1 every operator, the largest included, is dropped
        raise ValueError(f"truncation must lie in [0, 1], got {truncation}")
    _check_state(rho_other, split.d2 if keep == 1 else split.d1)
    coeffs = c_coefficients(
        stack, split, build_hermitian_basis(split.d1), build_hermitian_basis(split.d2)
    )
    return (coeffs if keep == 1 else coeffs.swapped()), truncation


def _reduce(coeffs, rho_other, truncation) -> tuple[BMatrix, GridReduction]:
    """The reduction pipeline from the output of :func:`_checked_coefficients`:
    the checked ``b`` and the record of every stage from ``b`` on, each with the
    leading axes of the stack, and every gate holding at each of its maps.
    ``c`` does not depend on ``rho_other``, so one tensor serves every
    traced-out state."""
    own_basis = build_hermitian_basis(coeffs.d1)
    b = b_matrix(coeffs, rho_other, build_hermitian_basis(coeffs.d2))
    eig = hermitian_eig(b.values)
    lowest = eig.eigenvalues[..., 0]
    bad = first_failure(lowest >= -B_EIG_DIAGNOSTIC_TOL)
    if bad is not None:
        raise NonPositiveBMatrixError(lowest.flat[bad], None if lowest.ndim == 0 else bad)
    eigenvalues = np.clip(eig.eigenvalues[..., ::-1], 0.0, None)
    mixing = eig.unitary[..., ::-1]
    largest = eigenvalues[..., :1]
    bad = first_failure(largest > 0.0)
    if bad is not None:
        where = "" if largest.ndim == 1 else f" at grid point {bad}"
        raise ValueError(f"mixing matrix is zero{where}; the parent map has no action")
    kept = eigenvalues >= truncation * largest
    weighted = mixing * np.sqrt(np.where(kept, eigenvalues, 0.0))[..., None, :]
    d = own_basis.dim
    operators = weighted.swapaxes(-1, -2) @ own_basis.stacked().reshape(d * d, d * d)
    operators = operators.reshape(*operators.shape[:-1], d, d)
    return b, GridReduction(b.values, eigenvalues, mixing, operators, kept)


def _reduce_map(kmap, coeffs, rho_other, truncation) -> ReductionResult:
    """:func:`reduce_subsystem` of ``kmap`` from its checked coefficients."""
    b, stages = _reduce(coeffs, rho_other, truncation)
    ops, kept = stages.operators, stages.kept
    try:
        subsystem_map = KrausMap(ops.shape[-1], ops[kept], trace_preserving=kmap.trace_preserving)
    except CompletenessError as exc:  # name the reduced map and the cutoff that broke it
        raise CompletenessError(
            f"reduced {exc}; truncation {truncation} dropped b eigenvalue mass "
            f"{stages.eigenvalues[~kept].sum():.3e} ({(~kept).sum()} of {kept.size} operators)"
        ) from None
    return ReductionResult(coeffs, b, stages.eigenvalues, stages.mixing, subsystem_map)


def reduce_subsystem(
    kmap: KrausMap,
    split: Bipartition,
    rho_other: DensityMatrix,
    keep: int = 1,
    truncation: float = DEFAULT_TRUNCATION,
) -> ReductionResult:
    """Kraus operators of the reduced dynamics of one subsystem.

    ``rho_other`` is the initial state of the factor being traced out; the
    composite preparation is the product of it with an arbitrary state of the
    kept factor. Eigenvalues of b below ``truncation`` (in [0, 1]) times the
    largest are dropped with their (numerically zero) operators; a cutoff that
    leaves the reduced operators of a trace-preserving map incomplete raises a
    ``CompletenessError`` naming it. ``keep=2`` runs the mirrored computation
    by swapping the coefficient indices.
    """
    coeffs, truncation = _checked_coefficients(kmap.stacked(), split, rho_other, keep, truncation)
    return _reduce_map(kmap, coeffs, rho_other, truncation)


def reduce_subsystem_grid(
    stacks,
    split: Bipartition,
    rho_other: DensityMatrix,
    keep: int = 1,
    truncation: float = DEFAULT_TRUNCATION,
) -> GridReduction:
    """:func:`reduce_subsystem` of every map of a (T, k, dim, dim) stack, in
    one pass of stacked numpy calls.

    Each grid point is reduced exactly as a single map would be and meets
    the same gates; a negative mixing-matrix eigenvalue raises
    ``NonPositiveBMatrixError`` whose ``index`` is the first failing point.
    Completeness of the reduced operators is not checked here, since a bare
    stack carries no trace-preservation flag.
    """
    stack = operator_stack(stacks)
    if stack.ndim != 4:
        raise ValueError(f"stacks must be (T, k, dim, dim), got shape {stack.shape}")
    coeffs, truncation = _checked_coefficients(stack, split, rho_other, keep, truncation)
    return _reduce(coeffs, rho_other, truncation)[1]


def reduce_separable_ensemble(
    kmap: KrausMap,
    split: Bipartition,
    ensemble: SeparableEnsemble,
    truncation: float = DEFAULT_TRUNCATION,
) -> list[ReductionResult]:
    """One subsystem-1 reduction per ensemble branch (traced factor s2_m).

    The branches share one coefficient tensor of ``kmap``; each is then
    exactly the :func:`reduce_subsystem` of its traced factor."""
    if ensemble.pairs[0][0].dim != split.d1 or ensemble.pairs[0][1].dim != split.d2:
        raise ValueError("ensemble dimensions do not match the bipartition")
    coeffs, truncation = _checked_coefficients(
        kmap.stacked(), split, ensemble.pairs[0][1], 1, truncation
    )
    return [_reduce_map(kmap, coeffs, sigma2, truncation) for (_, sigma2) in ensemble.pairs]


def reduced_domain_verdict(
    branches: list[ReductionResult], tol: float = 1e-10
) -> DomainVerdict:
    """Do all branch maps agree as superoperators?

    When they do, a single Kraus form is valid on every mixture of the branch
    preparations, i.e. the dynamics is CP on that reduced domain; when they
    do not, no state-independent Kraus form exists there.
    """
    tol = nonnegative_real(tol, "tol")
    if len(branches) == 0:
        raise ValueError("need at least one branch")
    dims = {br.subsystem_map.dim for br in branches}
    if len(dims) != 1:
        raise ValueError(f"branches have mixed dimensions {sorted(dims)}")
    # the distance of every pair i < j, over one stack of Choi matrices:
    # the branches may keep different numbers of operators
    chois = np.array([choi_of_any(br.subsystem_map) for br in branches])
    i, j = np.triu_indices(len(branches), 1)
    worst = float(choi_distance(chois[i], chois[j]).max(initial=0.0))
    uniform = worst <= tol
    return DomainVerdict(uniform, worst, branches[0].subsystem_map if uniform else None)


def correlated_probe(
    kmap: KrausMap,
    split: Bipartition,
    state_a: DensityMatrix,
    state_b: DensityMatrix,
) -> float:
    """Marginal-dynamics discrepancy between two equal-marginal preparations.

    The two composite states must have identical subsystem-1 marginals. A
    strictly positive return shows that the evolved marginal depends on the
    discarded part of the preparation, so no state-independent subsystem map
    can cover a domain containing both.
    """
    if state_a.dim != split.dim or state_b.dim != split.dim:
        raise ValueError("probe states must live on the composite dimension")
    if kmap.dim != split.dim:
        raise ValueError("map dimension does not match the bipartition")
    # the map and the partial trace are linear, so only the difference matters
    diff = state_a.matrix - state_b.matrix
    gap = max_abs(partial_trace(diff, split.d1, split.d2, keep=1))
    if not gap <= STRUCTURAL_TOL:
        raise ValueError(
            f"probe states must have equal subsystem-1 marginals "
            f"(difference {gap:.3e}); the comparison is meaningless otherwise"
        )
    return max_abs(partial_trace(apply_matrix(kmap, diff), split.d1, split.d2, keep=1))


def factorization_check(
    coeffs: CoefficientTensor, tol: float = 1e-10
) -> tuple[OperatorFactorization, ...]:
    """Tensor-product test: operator k of one map factorizes iff c[k] has rank one.

    Rank is judged by the ratio of the second to the largest singular value;
    an all-zero operator is reported as a product with ``is_zero`` set.
    """
    tol = nonnegative_real(tol, "tol")
    if coeffs.values.ndim != 3:
        raise ValueError(
            f"factorization_check needs the coefficients of one map, got shape {coeffs.values.shape}"
        )
    out = []
    for s in np.linalg.svd(coeffs.values, compute_uv=False):
        if s[0] == 0.0:
            out.append(OperatorFactorization(True, True, 0.0))
            continue
        ratio = float(s[1] / s[0]) if len(s) > 1 else 0.0
        out.append(OperatorFactorization(ratio <= tol, False, ratio))
    return tuple(out)
