"""Quantum states and Kraus-represented dynamical maps.

A map is stored as one read-only (n, dim, dim) stack of its operators;
trace preservation is an asserted construction flag rather than an inferred
property, so non-trace-preserving operator lists can still be carried around
during diagnostics. The completeness, Choi and CP functions also take a bare
(..., n, dim, dim) stack of maps, such as a model sampled on a time grid, and
apply their gates to each map of it. Complete positivity is witnessed through the
(unnormalized) Choi matrix, and maps are compared as superoperators through
their Choi matrices, which makes the comparison blind to the unitary mixing
freedom of Kraus decompositions.

This module also owns the JSON wire formats for operator files. Floats are
serialized with 17 significant digits so that write / read / write round
trips are byte identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    MODEL_TOL,
    STRUCTURAL_TOL,
    as_complex_matrix,
    as_complex_stack,
    complex_array,
    dagger,
    first_failure,
    matrix_stack,
    nonnegative_real,
    positive_int,
    require_hermitian,
)

# Choi eigenvalues above this (negative) floor count as nonnegative.
CP_EIG_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density matrix").copy()
        if not np.isfinite(m).all():
            raise ValueError("density matrix must have finite entries")
        require_hermitian(m, "density matrix")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"density matrix trace is {tr}, expected 1")
        w = np.linalg.eigvalsh(m)
        if not w[0] >= -STRUCTURAL_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(amplitudes) -> DensityMatrix:
    """Projector onto the given state vector (normalized if necessary)."""
    v = complex_array(amplitudes, "amplitudes").reshape(-1)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"amplitudes[{bad[0]}] must be finite, got {v[bad[0]]}")
    scale = np.abs(v).max()
    if scale == 0.0:
        raise ValueError("state vector must be nonzero")
    v = v / scale  # so that the norm neither overflows nor underflows
    v = v / np.sqrt(float(np.vdot(v, v).real))
    return DensityMatrix(np.outer(v, v.conj()))


def maximally_mixed(d: int) -> DensityMatrix:
    d = positive_int(d, "dimension")
    return DensityMatrix(np.eye(d, dtype=complex) / d)


@dataclass(frozen=True, eq=False)
class KrausMap:
    """An ordered list of same-dimension Kraus operators.

    ``operators`` (matrices or an (n, dim, dim) array) is copied once into the
    read-only stack returned by :meth:`stacked`, and becomes its rows. Every
    operator must have finite entries (a ``ValueError`` names the first that
    does not, whatever the flag); when ``trace_preserving`` is asserted, the
    completeness condition ``sum_k K_k^dagger K_k = I`` is then checked at
    model tolerance (1e-8).
    Two maps are equal when their dimension, flag and operator lists are;
    maps are unhashable.
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    trace_preserving: bool = True
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", positive_int(self.dim, "dimension"))
        if len(self.operators) == 0:
            raise ValueError("a Kraus map needs at least one operator")
        stack = matrix_stack(self.operators, self.dim, "operators")
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "operators", tuple(stack))
        bad = first_failure(np.isfinite(stack).all(axis=(1, 2)))
        if bad is not None:
            raise ValueError(f"operators[{bad}] must have finite entries")
        if self.trace_preserving:
            require_complete(self, "operators")

    @classmethod
    def from_operators(cls, operators, trace_preserving: bool = True) -> "KrausMap":
        # an empty sequence has no dimension; the constructor rejects it
        dim = as_complex_matrix(operators[0], "operators[0]").shape[0] if len(operators) else 1
        return cls(dim, operators, trace_preserving)

    def stacked(self) -> np.ndarray:
        """All operators as one read-only (n, dim, dim) array."""
        return self._stack

    def __eq__(self, other):
        if not isinstance(other, KrausMap):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.trace_preserving == other.trace_preserving
            and np.array_equal(self._stack, other._stack)
        )

    __hash__ = None


def operator_stack(kmap) -> np.ndarray:
    """The operators of a ``KrausMap`` as its (n, dim, dim) stack, or a bare
    (..., n, dim, dim) stack of maps as a complex array."""
    if isinstance(kmap, KrausMap):
        return kmap.stacked()
    stack = as_complex_stack(kmap, "operator stack")
    if stack.ndim < 3:
        raise ValueError(f"operator stack must be (..., n, dim, dim), got shape {stack.shape}")
    return stack


def completeness_defect(kmap):
    """Max-entry norm of sum_k K_k^dagger K_k - I: a float for a map, one
    value per map for a stack of maps."""
    stack = operator_stack(kmap)
    d = stack.shape[-1]
    # operators one above the other: V^dagger V
    v = stack.reshape(*stack.shape[:-3], stack.shape[-3] * d, d)
    defect = np.abs(dagger(v) @ v - np.eye(d)).max(axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


class CompletenessError(ValueError):
    """A map violates the completeness condition sum_k K_k^dagger K_k = I."""


def require_complete(kmap, what: str, times=None, tol: float = MODEL_TOL) -> None:
    """Raise :class:`CompletenessError` unless a map, or each map of a stack,
    satisfies sum_k K_k^dagger K_k = I within ``tol``.

    A NaN defect fails. The message calls the operators ``what`` and names
    the first failing map of a stack, as ``at t=...`` when ``times`` gives
    the time of each map.
    """
    defect = np.asarray(completeness_defect(kmap))
    bad = first_failure(defect <= tol)
    if bad is None:
        return
    if times is not None:
        where = f" at t={times[bad]}"
    else:
        where = "" if defect.ndim == 0 else f" (map {bad} of the stack)"
    raise CompletenessError(
        f"{what} violate the completeness condition{where} "
        f"(defect {defect.flat[bad]:.3e} > {tol:.1e})"
    )


def apply_matrix(kmap: KrausMap, m) -> np.ndarray:
    """Linear action sum_k K_k m K_k^dagger on an arbitrary matrix."""
    a = as_complex_matrix(m)
    if a.shape[0] != kmap.dim:
        raise ValueError(
            f"dimension mismatch: matrix is {a.shape[0]}-dimensional, map is {kmap.dim}"
        )
    stack = kmap.stacked()
    return (stack @ a @ dagger(stack)).sum(axis=0)


def apply_map(kmap: KrausMap, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a state; the output is validated as a state, which requires the
    map to be trace preserving and completely positive."""
    return DensityMatrix(apply_matrix(kmap, rho.matrix))


@dataclass(frozen=True)
class ChoiMatrix:
    """Unnormalized Choi matrix of a channel on dimension ``dim``.

    Built as sum_{a,b} |a><b| (x) Phi(|a><b|); a trace-preserving channel
    gives trace equal to ``dim``. ``matrix`` may also be a (..., dim^2, dim^2)
    stack, one Choi matrix per map, each checked for Hermiticity.
    """

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", positive_int(self.dim, "dimension"))
        m = as_complex_stack(self.matrix, "Choi matrix").copy()
        if m.shape[-1] != self.dim * self.dim:
            raise ValueError(
                f"Choi matrix for dimension {self.dim} must be "
                f"{self.dim * self.dim}x{self.dim * self.dim}, got {m.shape[-1]}"
            )
        require_hermitian(m, "Choi matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def choi_of_any(kmap) -> np.ndarray:
    """Choi matrix entries without any gate, for a map or, as a
    (..., dim^2, dim^2) stack, for each map of a stack.

    With ``V[k]`` the column-major vectorization of ``K_k``, the Choi matrix
    is ``sum_k V[k] V[k]^dagger = V^T conj(V)``.
    """
    stack = operator_stack(kmap)
    d = stack.shape[-1]
    v = stack.swapaxes(-1, -2).reshape(*stack.shape[:-2], d * d)
    return v.swapaxes(-1, -2) @ v.conj()


def choi_matrix(kmap) -> ChoiMatrix:
    """Checked Choi matrix of a map, or the stack of them of a stack of maps.

    Trace preservation has one rule, completeness at model tolerance
    (:func:`require_complete`), and each map meets it once: a ``KrausMap``
    asserted trace preserving met it when it was built, and one not asserted
    trace preserving is not held to it. A bare operator stack carries no
    flag, so it is held to the rule at every map here.
    """
    stack = operator_stack(kmap)
    if not isinstance(kmap, KrausMap):
        require_complete(stack, "operators")
    return ChoiMatrix(choi_of_any(stack), stack.shape[-1])


class CpVerdict(NamedTuple):
    is_cp: bool
    min_eigenvalue: float


def cp_verdict(choi: ChoiMatrix, tol: float = CP_EIG_TOL) -> CpVerdict:
    """Complete positivity holds iff the Choi matrix is positive semidefinite.

    A stack of Choi matrices gets one ``eigvalsh`` call and arrays of
    verdicts and minimum eigenvalues.
    """
    tol = nonnegative_real(tol, "tol")
    lo = np.linalg.eigvalsh(choi.matrix)[..., 0]
    if lo.ndim == 0:
        lo = float(lo)
    return CpVerdict(lo >= -tol, lo)


def choi_distance(ja: np.ndarray, jb: np.ndarray):
    """Frobenius distance between two Choi matrices: a float, or one value
    per pair of two (..., n, n) stacks of them."""
    distance = np.sqrt((np.abs(ja - jb) ** 2).sum(axis=(-2, -1)))
    return float(distance) if distance.ndim == 0 else distance


def channel_distance(a: KrausMap, b: KrausMap) -> float:
    """:func:`choi_distance` of the Choi matrices of two maps.

    Zero exactly when the two maps act identically on every input, whatever
    Kraus lists represent them.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return choi_distance(choi_of_any(a), choi_of_any(b))


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

FIELD17 = "%.17g"  # the 17-significant-digit field of every wire format


def fmt17(x: float) -> str:
    """A float at 17 significant digits, the precision of every wire format."""
    return FIELD17 % float(x)


def matrix_json(m: np.ndarray) -> str:
    """A matrix as JSON rows of ``[re, im]`` pairs, formatted a row at a time."""
    row = "[" + ",".join([f"[{FIELD17},{FIELD17}]"] * m.shape[1]) + "]"
    pairs = np.stack((m.real, m.imag), -1).reshape(len(m), -1).tolist()
    return "[" + ",".join([row % tuple(r) for r in pairs]) + "]"


def dump_map_json(kmap: KrausMap, label: Optional[str] = None) -> str:
    """Canonical single-line MapFile text.

    Schema: ``{"dim": d, "label": "...", "kraus": [[[[re,im], ...], ...], ...]}``
    with the label omitted when not set.
    """
    parts = [f'"dim":{kmap.dim}']
    if label is not None:
        parts.append(f'"label":{json.dumps(label)}')
    ops = ",".join(map(matrix_json, kmap.operators))
    parts.append(f'"kraus":[{ops}]')
    return "{" + ",".join(parts) + "}\n"


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the double range
        return False


def _parse_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"{where}: expected {dim} rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{where}[{r}]: expected {dim} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                # type(), not isinstance(): JSON true/false load as bool, an int subclass
                or not all(type(x) in (int, float) for x in entry)
            ):
                raise ValueError(f"{where}[{r}][{c}]: expected a [re, im] pair")
            if not all(_is_finite(x) for x in entry):
                raise ValueError(f"{where}[{r}][{c}]: entries must be finite, got {entry}")
    # every entry checked: the (dim, dim, 2) floats are the complex matrix
    return np.array(rows, dtype=float).view(complex)[..., 0]


def _load_document(text: str) -> tuple[dict, int]:
    """The top-level object of a map or density file and its ``dim``, which
    must be a positive integer (JSON ``true`` and ``2.0`` are not)."""
    try:
        # JSON -0 is an integer token; read as -0.0 it keeps the sign fmt17 wrote
        doc = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("top level: expected an object")
    return doc, positive_int(doc.get("dim"), "dim")


def load_map_json(text: str) -> KrausMap:
    """Parse a MapFile; the result carries ``trace_preserving=False`` so that
    completeness can be diagnosed rather than assumed."""
    doc, dim = _load_document(text)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("label: expected a string")
    kraus = doc.get("kraus")
    if not isinstance(kraus, list) or len(kraus) == 0:
        raise ValueError("kraus: expected a nonempty list of matrices")
    ops = [_parse_matrix(rows, dim, f"kraus[{k}]") for k, rows in enumerate(kraus)]
    return KrausMap(dim, ops, trace_preserving=False)


def dump_density_json(rho: DensityMatrix) -> str:
    """Schema: ``{"dim": d, "rho": [[[re,im], ...], ...]}``."""
    return f'{{"dim":{rho.dim},"rho":{matrix_json(rho.matrix)}}}\n'


def load_density_json(text: str) -> DensityMatrix:
    doc, dim = _load_document(text)
    if "rho" not in doc:
        raise ValueError("rho: missing")
    return DensityMatrix(_parse_matrix(doc["rho"], dim, "rho"))
