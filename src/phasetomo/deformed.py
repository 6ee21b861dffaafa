"""(f, s)-deformed tomography.

Deformation operator E_f = [f(nhat)]!, deformed ladder and displacement
operators, nonlinear coherent states, deformed K-functions and Gram kernels,
the q-oscillator preset, and the f-weighted scalar product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, logsumexp

from .errors import ScaleOverflowError, SpecError, TruncationError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockOperator,
    FockVector,
    displacement_matrix,
    ladder_operators,
)
from .cstomo import (
    PhaseGrid,
    Tomogram,
    frame_from_amplitudes,
    frame_reconstruct,
    reconstruct_from_tomogram,
)
from .pntomo import _core_dim, _node_blocks

# the factorial [f(n)]! must stay well inside double range; its square is
# used by the f-scalar product and the deformed PN kernels
F_FACT_MIN = 1e-120
F_FACT_MAX = 1e120

_EXP_LIMIT = 700.0


def q_deformation_value(n: float, lambda_q: float) -> float:
    """f_q(n) = sqrt(sinh(lambda n)/(lambda n)), with the limit value 1 at n=0."""
    x = lambda_q * n
    if x == 0:
        return 1.0
    # log-sinh keeps large arguments finite: ln sinh x = x + ln(1-e^{-2x}) - ln 2
    log_ratio = x + np.log1p(-np.exp(-2 * x)) - np.log(2) - np.log(x)
    return float(np.exp(0.5 * log_ratio))


@dataclass
class DeformationSpec:
    """Deformation profile f(n) (preset or explicit table) and ordering s.

    Table entries are indexed by n with f(0) = 1 mandatory; s lies in [-1, 1].
    """

    preset: str = "identity"
    lambda_q: float | None = None
    s: float = 0.0
    f_table: np.ndarray | None = None

    def __post_init__(self):
        if not -1 <= self.s <= 1:
            raise SpecError(f"s = {self.s!r} outside [-1, 1]")
        if self.preset == "identity":
            pass
        elif self.preset == "q":
            if self.lambda_q is None or self.lambda_q <= 0:
                raise SpecError("q preset needs lambda_q > 0")
        elif self.preset == "table":
            if self.f_table is None:
                raise SpecError("table preset needs f values")
            self.f_table = np.asarray(self.f_table, dtype=float)
            if self.f_table.ndim != 1 or self.f_table.size < 1:
                raise SpecError("f table must be a nonempty 1-d sequence")
            if abs(self.f_table[0] - 1.0) > 1e-12:
                raise SpecError("f table must start with f(0) = 1")
            if not np.all(np.isfinite(self.f_table)) or np.any(self.f_table <= 0):
                raise SpecError("f table entries must be finite and positive")
        else:
            raise SpecError(f"unknown preset {self.preset!r}")

    def f_values(self, N: int) -> np.ndarray:
        """f(n) for n = 0..N; f(0) = 1 by convention."""
        if self.preset == "identity":
            return np.ones(N + 1)
        if self.preset == "q":
            return np.array([q_deformation_value(n, self.lambda_q) for n in range(N + 1)])
        if N + 1 > self.f_table.size:
            raise SpecError(
                f"f table has {self.f_table.size} entries, needs {N + 1} "
                f"for truncation {N}"
            )
        return self.f_table[: N + 1].copy()

    def log_f_factorial(self, N: int) -> np.ndarray:
        """ln [f(n)]! = sum_{k<=n} ln f(k) for n = 0..N."""
        return np.cumsum(np.log(self.f_values(N)))

    def to_json(self) -> dict:
        if self.preset == "q":
            return {"preset": "q", "lambda_q": self.lambda_q, "s": self.s}
        if self.preset == "table":
            return {"preset": "table", "f": [float(v) for v in self.f_table], "s": self.s}
        return {"preset": "identity", "s": self.s}

    @classmethod
    def from_json(cls, data: dict) -> "DeformationSpec":
        preset = data.get("preset", "identity")
        if preset == "q":
            return cls(preset="q", lambda_q=data["lambda_q"], s=data.get("s", 0.0))
        if preset == "table":
            return cls(preset="table", f_table=np.asarray(data["f"], dtype=float),
                       s=data.get("s", 0.0))
        return cls(preset="identity", s=data.get("s", 0.0))


@dataclass
class DeformedState:
    """N_{z,f} E_f^{-1}|z>-type vector with its scalar factors kept apart.

    The full state is s_prefactor * vector; the prefactor e^{(1+s)|z|^2/2} is
    stored separately so reconstruction can strip it without cancellation.
    """

    vector: FockVector
    norm_factor: float
    s_prefactor: float

    @property
    def full_amplitudes(self) -> np.ndarray:
        return self.s_prefactor * self.vector.amplitudes


def deformation_operator(spec: DeformationSpec, N: int) -> FockOperator:
    """Diagonal E_f with entries [f(n)]!, computed in the log domain."""
    lf = spec.log_f_factorial(N)
    lo, hi = np.log(F_FACT_MIN), np.log(F_FACT_MAX)
    bad = np.nonzero((lf <= lo) | (lf >= hi))[0]
    if bad.size:
        raise SpecError(
            f"[f(n)]! = exp({lf[bad[0]]:.4g}) at n={bad[0]} leaves the "
            f"admissible range ({F_FACT_MIN:.0e}, {F_FACT_MAX:.0e})"
        )
    return FockOperator(N + 1, np.diag(np.exp(lf)).astype(complex))


def deformed_ladder(spec: DeformationSpec, N: int):
    """(A, A_f+) with A = a f(nhat) and A_f+ = f(nhat)^{-1} a+."""
    a, a_dag, _ = ladder_operators(N)
    f = spec.f_values(N)
    A = FockOperator(N + 1, a.entries * f[None, :])
    A_fd = FockOperator(N + 1, a_dag.entries / f[:, None])
    return A, A_fd


def _series_depth(spec: DeformationSpec, u: float, N: int) -> int:
    """Summation depth for the normalization series.

    The Poisson-like terms peak near k = u, so the depth must track u, not
    the state truncation; a finite f table caps what is available.
    """
    want = max(N, int(np.ceil(u + 12 * np.sqrt(u) + 20)))
    if spec.preset == "table":
        want = max(N, min(want, spec.f_table.size - 1))
    return want


def deformed_norm_log(z: complex, spec: DeformationSpec, N: int,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """ln N_{z,f} from the defining series sum_k |z|^{2k}/(k! ([f(k)]!)^2).

    N is the state truncation; the series itself is summed to a depth set
    by |z|^2 so the result does not degrade for wide grids.
    """
    u = abs(z) ** 2
    if u == 0:
        return 0.0
    M = _series_depth(spec, u, N)
    lf = spec.log_f_factorial(M)
    k = np.arange(M + 1)
    t = k * np.log(u) - gammaln(k + 1) - 2 * lf
    total = logsumexp(t)
    if t[-1] - total > np.log(tail_tol):
        raise TruncationError(
            f"normalization series for |z|={abs(z):.3g} not converged at "
            f"depth {M} (last term fraction {np.exp(t[-1] - total):.2e}); "
            f"supply more f values or shrink the grid",
            tail=float(np.exp(t[-1] - total)),
        )
    return -0.5 * float(total)


def deformed_coherent_state(z: complex, spec: DeformationSpec, N: int,
                            tail_tol: float = DEFAULT_TAIL_TOL) -> DeformedState:
    """Nonlinear coherent state data: vector N_{z,f} E_f^{-1} |z>.

    The mathematical state is e^{(1+s)|z|^2/2} N_{z,f} E_f^{-1} |z>; the
    exponential lives in s_prefactor.
    """
    z = complex(z)
    u = abs(z) ** 2
    if (1 + spec.s) * u / 2 > _EXP_LIMIT:
        raise ScaleOverflowError(
            f"s-prefactor exp({(1 + spec.s) * u / 2:.3g}) overflows; "
            f"keep |z| <= {np.sqrt(2 * _EXP_LIMIT / (1 + spec.s)):.3g}",
            safe_radius=float(np.sqrt(2 * _EXP_LIMIT / (1 + spec.s))),
        )
    lf = spec.log_f_factorial(N)
    logN = deformed_norm_log(z, spec, N, tail_tol)
    n = np.arange(N + 1)
    if z == 0:
        amps = np.zeros(N + 1, dtype=complex)
        amps[0] = np.exp(logN)
    else:
        logmag = logN - u / 2 + n * np.log(abs(z)) - 0.5 * gammaln(n + 1) - lf
        amps = np.exp(logmag) * np.exp(1j * n * np.angle(z))
    tail = float(abs(amps[-1]) ** 2)
    vec = FockVector(N + 1, amps, tail_mass=tail)
    return DeformedState(vector=vec, norm_factor=float(np.exp(logN)),
                         s_prefactor=float(np.exp((1 + spec.s) * u / 2)))


def _expm_check_dims(spec: DeformationSpec, u: float, N: int):
    """(M, K): generator dimension and comparison block for the expm check.

    expm of the truncated generator is only converged on rows that the
    boundary cannot reach, so the generator is padded past the requested
    truncation; the padding is capped when the f factorial range would push
    the exponential out of double range, and the comparison block shrinks
    to match.  Returns K = 0 when no checkable block exists.
    """
    want = N + int(np.ceil(u + 4 * np.sqrt((N + 1) * u) + 8))
    avail = want
    if spec.preset == "table":
        avail = min(avail, spec.f_table.size - 1)
    lf = spec.log_f_factorial(max(avail, N))
    spread = np.maximum.accumulate(lf) - np.minimum.accumulate(lf)
    # exp(spread) is the similarity amplification; keep the expm hump finite
    over = np.nonzero(spread > 250.0)[0]
    if over.size:
        avail = min(avail, max(int(over[0]) - 1, 0))
    M = max(N, avail)
    for K in range(N + 1, 1, -1):
        if K - 1 + u + 4 * np.sqrt(K * u) + 8 <= M:
            return M, K
    return M, 0


def deformed_displacement(z: complex, spec: DeformationSpec, N: int,
                          check_tol: float = 1e-6) -> FockOperator:
    """D_f(z) = E_f^{-1} D(z) E_f, cross-checked against expm(z A_f+ - z* A).

    The conjugated closed form is exact per element.  The cross-check runs
    expm on a generator padded well past the truncation (so edge effects
    cannot reach the compared block) and compares relative to the largest
    block element; it is skipped in regimes where the deformed exponential
    is not representable in double precision.
    """
    lf = spec.log_f_factorial(N)
    D = displacement_matrix(z, N)
    Df = D * np.exp(lf[None, :] - lf[:, None])
    if not np.all(np.isfinite(Df)):
        raise TruncationError(
            f"E_f conjugation of D({z}) overflows at truncation {N}")
    M, K = _expm_check_dims(spec, abs(z) ** 2, N)
    if K >= 2:
        A, A_fd = deformed_ladder(spec, M)
        gen = z * A_fd.entries - np.conj(z) * A.entries
        ref = expm(gen)[:K, :K]
        if np.all(np.isfinite(ref)):
            scale = max(1.0, float(np.abs(Df[:K, :K]).max()))
            err = float(np.abs(Df[:K, :K] - ref).max()) / scale
            if err > check_tol:
                raise TruncationError(
                    f"D_f conjugation and expm disagree by {err:.2e} "
                    f"(relative) on the {K}x{K} block",
                    tail=err,
                )
    return FockOperator(N + 1, Df)


def f_scalar_product(phi: FockVector, psi: FockVector, spec: DeformationSpec) -> complex:
    """(phi, psi)_f = <phi| E_f^2 |psi>, the product making A_f+ adjoint to A."""
    if phi.dim != psi.dim:
        raise ValueError("vector dimensions differ")
    w = np.exp(2 * spec.log_f_factorial(phi.dim - 1))
    return complex(np.sum(np.conj(phi.amplitudes) * w * psi.amplitudes))


# ---------------------------------------------------------------------------
# deformed symbols


def deformed_K(B: FockOperator, z: complex, spec: DeformationSpec,
               tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    """K_B^{f,s}(z) = <z;f,s|B|z;f,s>, computed from the state data."""
    st = deformed_coherent_state(z, spec, B.truncation, tail_tol)
    v = st.vector.amplitudes
    return complex(st.s_prefactor ** 2 * np.vdot(v, B.entries @ v))


def deformed_pn_K(B: FockOperator, n: int, z: complex, spec: DeformationSpec,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    """K_B^{f,s}(nz) on the deformed displaced-number state |nz;f,s>.

    |nz;f,s> = e^{(1+s)|z|^2/2} N_{z,f} [f(n)]! E_f^{-1} D(z)|n>; at n = 0
    this is the deformed coherent state.
    """
    N = B.truncation
    if not 0 <= n <= N:
        raise ValueError(f"level n={n} outside truncation {N}")
    u = abs(z) ** 2
    if (1 + spec.s) * u / 2 > _EXP_LIMIT:
        raise ScaleOverflowError(
            f"s-prefactor overflows at |z|^2 = {u:.3g}",
            safe_radius=float(np.sqrt(2 * _EXP_LIMIT / (1 + spec.s))),
        )
    lf = spec.log_f_factorial(N)
    logN = deformed_norm_log(z, spec, N, tail_tol)
    col = displacement_matrix(z, N)[:, n]
    w = np.exp(logN + lf[n] - lf) * col
    pref_sq = np.exp((1 + spec.s) * u)
    return complex(pref_sq * np.vdot(w, B.entries @ w))


def deformed_k_grid(B: FockOperator, grid: PhaseGrid, spec: DeformationSpec,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> Tomogram:
    """Sample the deformed K-function over a grid."""
    _check_grid_scale(grid, spec)
    vals = np.array([deformed_K(B, z, spec, tail_tol) for z in grid.nodes])
    return Tomogram(grid, vals, meta={
        "symbol": "K_fs",
        "deformation": spec.to_json(),
        "dim": B.dim,
    })


def _check_grid_scale(grid: PhaseGrid, spec: DeformationSpec):
    u_max = grid.max_radius ** 2
    if (1 + spec.s) * u_max > _EXP_LIMIT:
        safe = float(np.sqrt(_EXP_LIMIT / (1 + spec.s)))
        raise ScaleOverflowError(
            f"scalar factor e^{{(1+s)|z|^2}} overflows at the grid rim "
            f"|z|={grid.max_radius:.3g} for s={spec.s}; keep R <= {safe:.3g}",
            safe_radius=safe,
        )


# ---------------------------------------------------------------------------
# reconstruction


def deformed_reconstruct(k_values: Tomogram, spec: DeformationSpec, N_target: int,
                         route: str = "conjugation") -> FockOperator:
    """Recover B from deformed-K samples.

    conjugation route: strip the known scalar e^{(1+s)|z|^2} N_{z,f}^2 to
    expose the plain K-symbol of B(f) = E_f^{-1} B E_f^{-1}, reconstruct B(f)
    by the moment route, and conjugate back with E_f.

    frame route: build the dual frame of the normalized deformed projectors
    and resum directly; the per-node strip factor is the squared norm of the
    full deformed state, so no large exponentials are formed.
    """
    grid = k_values.grid
    _check_grid_scale(grid, spec)
    lf = spec.log_f_factorial(N_target)
    if route == "conjugation":
        u = np.abs(grid.nodes) ** 2
        logNs = np.array([deformed_norm_log(z, spec, N_target) for z in grid.nodes])
        stripped = k_values.values * np.exp(-(1 + spec.s) * u - 2 * logNs)
        Bf = reconstruct_from_tomogram(Tomogram(grid, stripped), N_target)
        out = Bf.entries * np.exp(lf[:, None] + lf[None, :])
        return FockOperator(N_target + 1, out)
    if route == "frame":
        cols = np.empty((N_target + 1, grid.nodes.size), dtype=complex)
        strip = np.empty(grid.nodes.size)
        for j, z in enumerate(grid.nodes):
            st = deformed_coherent_state(z, spec, N_target)
            v = st.vector.amplitudes
            nrm = np.linalg.norm(v)
            cols[:, j] = v / nrm
            strip[j] = (st.s_prefactor * nrm) ** 2
        return frame_reconstruct(frame_from_amplitudes(grid, cols), k_values.values / strip)
    raise ValueError(f"unknown route {route!r}; use 'conjugation' or 'frame'")


# ---------------------------------------------------------------------------
# deformed PN kernel


def deformed_pn_gram(n: int, z: complex, spec: DeformationSpec,
                     params, N: int) -> FockOperator:
    """G_lambda^{f,s}(nz): deformed dual kernel of the PN tomographic set.

    Equal to e^{-(1+s)|z|^2} / (([f(n)]!)^2 N_{z,f}^2) times
    (4/(1-lam^2)) beta^n E_f D(z) gamma^{nhat} D(z)+ E_f.  The equivalent
    E_f^2 D_f gamma^{A_f+ A} D_f(-z) form collapses to the same matrix
    because A_f+ A = nhat (the f factors cancel on the inner index), which
    is asserted below; the E_f conjugation is then elementwise and the
    inner contraction can run over enough levels to converge.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    u = abs(z) ** 2
    if (1 + spec.s) * u > _EXP_LIMIT:
        raise ScaleOverflowError(
            f"scalar factor overflows at |z|^2 = {u:.3g}",
            safe_radius=float(np.sqrt(_EXP_LIMIT / (1 + spec.s))),
        )
    A, A_fd = deformed_ladder(spec, N)
    num_f = A_fd.entries @ A.entries
    off = num_f - np.diag(np.diag(num_f))
    if np.abs(off).max() > 1e-12:
        raise SpecError(
            "A_f+ A is not diagonal in the Fock basis; the deformation must "
            "be a function of the number operator"
        )
    _, M = _node_blocks(z, N + 1, 0, params, _core_dim(u))
    lf = spec.log_f_factorial(N)
    logN = deformed_norm_log(z, spec, N)
    lead = 4.0 / (1 - params.lam ** 2) * params.beta ** n
    scalar = np.exp(-(1 + spec.s) * u - 2 * lf[n] - 2 * logN)
    out = scalar * lead * np.exp(lf[:, None] + lf[None, :]) * M
    return FockOperator(N + 1, out)
