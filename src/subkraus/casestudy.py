"""Two interacting qubits with one qubit weakly coupled to a thermal bath.

The model: qubit frequencies ``omega``, an Ising-type coupling ``beta`` along
z, and an Ohmic environment monitoring qubit 1 only. In the interaction
picture the composite dynamics is an eight-operator Kraus map on the qubit
pair whose time dependence enters solely through two damping rates. The
closed-form reduction of qubit 1 is a Pauli channel whose weights depend on
the initial state of qubit 2 through a single population parameter ``a``.

The six flip / dephasing operators are written down directly. The two
diagonal operators carry the populations and coherences of the diagonal
sector; their textbook closed form (normalization constants with competing
exponentials up to e^(64 tau)) cancels catastrophically in floating point,
so they are evaluated here through the spectral factorization of the
2x2 coherence Gram matrix

    M = [[(1 + x1)^2 / 4,  e],
         [e,               (1 + x2)^2 / 4]],

with x_p = exp(-16 gamma_p t) and e = exp(-8 (gamma1 + gamma2) t). This is
algebraically identical to the closed form, manifestly positive
semidefinite, and finite for arbitrarily large times.

The operators are evaluated for a whole time grid at once by
:func:`composite_kraus_grid`; :func:`composite_kraus` is its one-point case.
:func:`sweep_table` holds the diagnostics of the qubit-1 reduction on a time
grid, the columns of the ``case-study`` CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import DensityMatrix, KrausMap, require_complete
from .linalg import (
    MODEL_TOL,
    evolution_unitary,
    finite_real,
    first_failure,
    nonnegative_real,
    real_number,
    tensor_product,
)
from .reduction import GridReduction

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SWEEP_HEADER = "t,b0,b1,b2,b3,trace_defect,choi_min_eig,offdiag_B_max"

# Discriminant floor for the coherence Gram matrix; with valid rates it is
# nonnegative up to rounding, so anything below this signals broken inputs.
_DISCRIMINANT_TOL = 1e-6


class ModelInconsistencyError(RuntimeError):
    """The diagonal-sector compatibility condition failed beyond rounding."""


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian and bath parameters (units with hbar = 1).

    ``nu_max`` is the bath-mode integration cutoff; it is recorded for
    provenance but does not enter the closed-form rates, which only involve
    the spectral-density cutoff ``nu_c``.
    """

    omega: float
    beta: float
    temperature: float
    alpha: float
    nu_c: float
    nu_max: float = math.inf

    def __post_init__(self):
        for name in ("omega", "beta", "temperature", "alpha", "nu_c"):
            finite_real(getattr(self, name), f"model parameter {name}")
        if math.isnan(real_number(self.nu_max, "model parameter nu_max")):
            raise ValueError(f"model parameter nu_max must not be NaN, got {self.nu_max}")
        if self.alpha < 0:
            raise ValueError(f"model parameter alpha must be nonnegative, got {self.alpha}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.nu_c <= 0:
            raise ValueError(f"spectral cutoff must be positive, got {self.nu_c}")
        if self.omega + self.beta / 2 <= 0 or self.omega - self.beta / 2 <= 0:
            raise ValueError(
                f"rates are evaluated at omega +/- beta/2 = "
                f"{self.omega + self.beta / 2}, {self.omega - self.beta / 2}; "
                f"both must be positive"
            )


@dataclass(frozen=True)
class DampingRates:
    """The two decay constants governing all time dependence."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            nonnegative_real(getattr(self, name), f"damping rate {name}")

    def tau(self, t: float) -> float:
        """Dimensionless time (gamma1 + gamma2) * t."""
        return (self.gamma1 + self.gamma2) * finite_real(t, "time t")

    @property
    def asymmetry(self) -> float:
        """(gamma1 - gamma2) / (gamma1 + gamma2), in [-1, 1]."""
        total = self.gamma1 + self.gamma2
        if total == 0:
            raise ValueError("asymmetry is undefined for gamma1 + gamma2 = 0")
        return (self.gamma1 - self.gamma2) / total


def bose_occupation(nu: float, temperature: float, convention: str = "standard") -> float:
    """Mean thermal occupation at frequency nu.

    ``standard`` is 1 / (exp(nu/T) - 1). The ``printed`` alternative flips
    the sign in the exponent, 1 / (exp(-nu/T) - 1), and is strictly negative
    for positive frequency and temperature; it exists only so the consequence
    can be inspected, never as a default.
    """
    finite_real(nu, "frequency")
    finite_real(temperature, "temperature")
    if nu <= 0:
        raise ValueError(f"frequency must be positive, got {nu}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = nu / temperature
    if convention == "standard":
        # below exp overflow the exact form is fine; past it the occupation
        # is exp(-x) to double precision anyway
        return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)
    if convention == "printed":
        return 1.0 / math.expm1(-x)
    raise ValueError(f"unknown convention {convention!r}; use 'standard' or 'printed'")


def ohmic_spectral_density(nu: float, alpha: float, nu_c: float) -> float:
    """J(nu) = alpha * nu * exp(-nu / nu_c)."""
    finite_real(nu, "frequency")
    finite_real(alpha, "alpha")
    finite_real(nu_c, "spectral cutoff")
    if nu_c <= 0:
        raise ValueError(f"spectral cutoff must be positive, got {nu_c}")
    return alpha * nu * math.exp(-nu / nu_c)


def damping_rates(params: ModelParams, convention: str = "standard") -> DampingRates:
    """gamma_p = 4 pi J(omega +/- beta/2) nbar(omega +/- beta/2).

    With the ``printed`` occupation sign both rates come out negative and are
    rejected, since every downstream formula requires nonnegative rates.
    """
    rates = []
    for nu in (params.omega + params.beta / 2, params.omega - params.beta / 2):
        j = ohmic_spectral_density(nu, params.alpha, params.nu_c)
        n = bose_occupation(nu, params.temperature, convention)
        rates.append(4 * math.pi * j * n)
    if rates[0] < 0 or rates[1] < 0:
        raise ValueError(
            f"convention {convention!r} yields negative rates {rates[0]:.6g}, "
            f"{rates[1]:.6g}; only the 'standard' occupation produces a valid model"
        )
    return DampingRates(rates[0], rates[1])


def _population(a) -> float:
    """``a`` as a float if it is a real number in [0, 1]; bools and strings
    raise a ValueError naming the population parameter."""
    x = real_number(a, "population parameter")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"population parameter must lie in [0, 1], got {a}")
    return x


def qubit_state(a: float) -> DensityMatrix:
    """Pure qubit state sqrt(a)|+> + sqrt(1-a)|->, with |+> the upper
    z eigenstate (first basis vector)."""
    a = _population(a)
    v = np.array([math.sqrt(a), math.sqrt(1.0 - a)], dtype=complex)
    return DensityMatrix(np.outer(v, v))


def _check_times(ts) -> np.ndarray:
    """A 1-D float array of finite, nonnegative times; names the first bad one."""
    t = np.asarray(ts)
    if t.ndim != 1 or t.dtype.kind not in "iuf":
        raise ValueError(
            f"times ts must be a 1-D sequence of real numbers, got {t.dtype} of shape {t.shape}"
        )
    t = t.astype(float)
    bad = first_failure((t >= 0.0) & (t < math.inf))
    if bad is not None:
        raise ValueError(f"time t must be finite and nonnegative, got {t[bad]} (ts[{bad}])")
    return t


def composite_kraus_grid(ts, rates: DampingRates) -> np.ndarray:
    """The eight interaction-picture Kraus operators at every time of a grid.

    Returns a read-only (T, 8, 4, 4) array; basis order |00>, |01>, |10>,
    |11>. At t = 0 the first seven operators vanish and the eighth is -I, the
    identity channel; with both rates zero the map is frozen there for all
    times. All operators are Hermitian. The time check, the positivity of
    the coherence sector and completeness (at model tolerance) hold at every
    grid point, and a failure names the first failing t.
    """
    t = _check_times(ts)
    # columns p = 0, 1 hold the qubit-p quantities x_p, q_p, p_p, (1 + x_p)^2 / 4
    with np.errstate(over="ignore"):  # a rate times a time past 1e308 decays to exactly 0
        rate_t = -16.0 * np.array([rates.gamma1, rates.gamma2]) * t[:, None]
        x = np.exp(rate_t)
        eps_t = -8.0 * (rates.gamma1 + rates.gamma2) * t
        eps = np.exp(eps_t)
        # 1 - x_p and 1 - x_p^2 through expm1: formed from x_p they cancel at small t
        q = np.sqrt(-np.expm1(2.0 * rate_t)) / 2.0
        p = -np.expm1(rate_t) / 2.0
        # det M = [(1 - u1 u2)^2 + (u1 - u2)^2] / 4 * [(1 + x1)(1 + x2) / 4 + eps]
        # with u_p = exp(-8 gamma_p t), both differences through expm1
        u_minus_1 = np.expm1(rate_t / 2.0)
        det = (np.expm1(eps_t) ** 2 + (u_minus_1[:, 0] - u_minus_1[:, 1]) ** 2) / 4.0 * (
            (1.0 + x[:, 0]) * (1.0 + x[:, 1]) / 4.0 + eps
        )

    # spectral factorization of the coherence Gram matrix [[m11, eps], [eps, m22]]
    m = (1.0 + x) ** 2 / 4.0
    # m11 - m22 factored, so that it keeps the digits of x_p below 1e-16
    delta = (x[:, 0] - x[:, 1]) * (2.0 + x[:, 0] + x[:, 1]) / 4.0
    big_r = np.hypot(delta, 2.0 * eps)[:, None]
    sign = np.array([1.0, -1.0])
    lam = ((m[:, 0] + m[:, 1])[:, None] - sign * big_r) / 2.0  # lam_minus, lam_plus
    bad = first_failure(lam[:, 0] >= -_DISCRIMINANT_TOL * np.maximum(lam[:, 1], 1.0))
    if bad is not None:
        raise ModelInconsistencyError(
            f"coherence sector lost positivity at t={t[bad]} "
            f"(gamma1={rates.gamma1}, gamma2={rates.gamma2}): "
            f"eigenvalue {lam[bad, 0]:.6e}"
        )
    # the difference above cancels at small t; lam_minus lam_plus = det M does not
    lam[:, 0] = det / lam[:, 1]
    # Column 0 is lam_minus with eigenvector (eps, -(R + delta) / 2), column 1
    # lam_plus with (-eps, -(R - delta) / 2). Where R + sign * delta would
    # cancel, the same vector is taken from the other row of M - lam, as
    # (sign * (R - sign * delta) / 2, -eps). At R = 0, the fully decohered
    # limit, M is a multiple of the identity and the eigenvectors are (0, 1)
    # and (-1, 0).
    signed_delta = sign * delta[:, None]
    stable = signed_delta >= 0.0
    first = np.where(stable, eps[:, None] * sign, sign * (big_r - signed_delta) / 2.0)
    second = np.where(stable, -(big_r + signed_delta) / 2.0, -eps[:, None])
    decohered = big_r == 0.0
    first = np.where(decohered, (0.0, -1.0), first)
    second = np.where(decohered, (1.0, 0.0), second)
    # normalize at unit scale: at large t both components are subnormal, and
    # a norm taken there keeps only a few significant digits
    scale = np.maximum(np.abs(first), np.abs(second))
    first, second = first / scale, second / scale
    norm = np.hypot(first, second)
    root = np.sqrt(np.maximum(lam, 0.0))
    first = root * first / norm
    second = root * second / norm

    q1, q2 = q.T
    p1, p2 = p.T
    ops = np.zeros((len(t), 8, 4, 4), dtype=complex)
    ops[:, 0, 1, 3], ops[:, 0, 3, 1] = 1j * q2, -1j * q2
    ops[:, 1, 1, 3] = ops[:, 1, 3, 1] = -q2
    ops[:, 2, 0, 2] = ops[:, 2, 2, 0] = q1
    ops[:, 3, 0, 2], ops[:, 3, 2, 0] = -1j * q1, 1j * q1
    ops[:, 4, 1, 1], ops[:, 4, 3, 3] = -p2, p2
    ops[:, 5, 0, 0], ops[:, 5, 2, 2] = p1, -p1
    # operators 6 and 7 hold the lam_minus and lam_plus eigenvectors
    ops[:, 6:, 0, 0] = ops[:, 6:, 2, 2] = first
    ops[:, 6:, 1, 1] = ops[:, 6:, 3, 3] = second
    require_complete(ops, "composite operators", times=t, tol=MODEL_TOL)
    ops.setflags(write=False)
    return ops


def composite_kraus(t: float, rates: DampingRates) -> KrausMap:
    """The composite map at one time; see :func:`composite_kraus_grid`."""
    nonnegative_real(t, "time t")
    return KrausMap(4, composite_kraus_grid((t,), rates)[0], trace_preserving=True)


def sweep_table(ts, grid: GridReduction) -> np.ndarray:
    """The case-study table of a time grid ``ts`` and its qubit-1 reduction
    ``grid``: one row per time, columns in ``SWEEP_HEADER`` order (the b
    diagonal, ``|sum b_ii / 2 - 1|``, the smallest Choi eigenvalue of the
    reduced map, the largest off-diagonal ``|b_ij|``). The reduced operators
    must be complete at every time, a failure naming its t; that gate is the
    only trace-preservation rule they meet.
    """
    channels.require_complete(grid.operators, "reduced operators", times=ts)
    choi = channels.ChoiMatrix(channels.choi_of_any(grid.operators), 2)
    verdict = channels.cp_verdict(choi)
    b = grid.b
    b0, b1, b2, b3 = b_diag = np.diagonal(b, axis1=-2, axis2=-1).real.T
    trace_defect = np.abs((b0 + b1 + b2 + b3) / 2.0 - 1.0)
    offdiag_max = np.abs(np.where(np.eye(4, dtype=bool), 0.0, b)).max(axis=(-2, -1))
    return np.column_stack((ts, *b_diag, trace_defect, verdict.min_eigenvalue, offdiag_max))


def closed_form_b(t: float, rates: DampingRates, a: float) -> tuple[float, float, float, float]:
    """Explicit mixing-matrix diagonal for the qubit-1 reduction.

    ``a`` parameterizes the initial state of qubit 2. The four values sum to
    2 identically, which is the trace-preservation condition of the reduced
    Pauli channel.
    """
    nonnegative_real(t, "time t")
    a = _population(a)
    x1 = math.exp(-16.0 * rates.gamma1 * t)
    x2 = math.exp(-16.0 * rates.gamma2 * t)
    b0 = 0.5 + (1.0 - a) / 2.0 * x2 * x2 + a / 2.0 * x1 * x1 + (1.0 - a) * x2 + a * x1
    # 1 - x_p and 1 - x_p^2 through expm1: formed from x_p they cancel at small t
    y1, y2 = -math.expm1(-16.0 * rates.gamma1 * t), -math.expm1(-16.0 * rates.gamma2 * t)
    z1, z2 = -math.expm1(-32.0 * rates.gamma1 * t), -math.expm1(-32.0 * rates.gamma2 * t)
    b1 = (1.0 - a) / 2.0 * z2 + a / 2.0 * z1
    b3 = (1.0 - a) / 2.0 * y2 * y2 + a / 2.0 * y1 * y1
    return b0, b1, b1, b3


def closed_form_subsystem_map(t: float, rates: DampingRates, a: float) -> KrausMap:
    """The reduced qubit-1 channel in closed form: a Pauli channel with
    operators sqrt(b_i / 2) {I, sigma_x, sigma_y, sigma_z}."""
    b0, b1, b2, b3 = closed_form_b(t, rates, a)
    ops = (
        math.sqrt(b0 / 2.0) * np.eye(2, dtype=complex),
        math.sqrt(b1 / 2.0) * _SIGMA_X,
        math.sqrt(b2 / 2.0) * _SIGMA_Y,
        math.sqrt(b3 / 2.0) * _SIGMA_Z,
    )
    return KrausMap(2, ops, trace_preserving=True)


def composite_hamiltonian(omega: float, beta: float) -> np.ndarray:
    """Free two-qubit Hamiltonian (omega/2)(sz1 + sz2) + (beta/4) sz1 sz2.

    Diagonal with entries omega + beta/4, -beta/4, -beta/4, -omega + beta/4.
    """
    finite_real(omega, "omega")
    finite_real(beta, "beta")
    eye = np.eye(2, dtype=complex)
    return (
        omega / 2.0 * (tensor_product(_SIGMA_Z, eye) + tensor_product(eye, _SIGMA_Z))
        + beta / 4.0 * tensor_product(_SIGMA_Z, _SIGMA_Z)
    )


def to_schrodinger(
    kmap: KrausMap,
    t: float,
    omega: float,
    beta: float,
    subsystem: str = "composite",
) -> KrausMap:
    """Left-multiply every operator by the free evolution exp(-i H t).

    ``composite`` uses the two-qubit Hamiltonian; ``qubit1`` uses the
    single-qubit one and is only meaningful for non-interacting qubits, so
    it requires beta = 0. Completeness is unchanged either way.
    """
    finite_real(omega, "omega")
    finite_real(beta, "beta")
    if subsystem == "composite":
        if kmap.dim != 4:
            raise ValueError(f"composite transform needs a 4-dimensional map, got {kmap.dim}")
        h = composite_hamiltonian(omega, beta)
    elif subsystem == "qubit1":
        if beta != 0.0:
            raise ValueError(
                "the single-qubit picture transform is only valid for "
                "non-interacting qubits (beta = 0)"
            )
        if kmap.dim != 2:
            raise ValueError(f"qubit transform needs a 2-dimensional map, got {kmap.dim}")
        h = omega / 2.0 * _SIGMA_Z
    else:
        raise ValueError(f"unknown subsystem {subsystem!r}; use 'composite' or 'qubit1'")
    u = evolution_unitary(h, t)
    return KrausMap(kmap.dim, u @ kmap.stacked(), trace_preserving=kmap.trace_preserving)
