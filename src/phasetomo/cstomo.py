"""Coherent-state tomography.

Husimi-Kano K-symbol, the Sudarshan P-function by Fourier deconvolution,
the Gaussian family of s-ordered kernels, and operator reconstruction
from K by the derivative/moment route or by a sampled dual frame.

Measure convention: all grid weights represent d^2z/pi, and the Fourier
transform is Ktil(xi, eta) = integral (dz_R dz_I / 2pi) K e^{-i(xi z_R + eta z_I)}.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import (
    ConditioningError,
    CoverageError,
    DecayGateError,
    FrameRankError,
    GridError,
    ScaleOverflowError,
    SpecError,
    TruncationError,
)
from .fock import (
    DEFAULT_TAIL_TOL,
    FockOperator,
    coherent_amplitudes,
    coherent_tail,
    displacement_block,
    displacement_matrix,
    suggest_truncation,
)

_EPS = np.finfo(float).eps


@dataclass
class PhaseGrid:
    """Quadrature discretization of the complex plane under d^2z/pi.

    Polar grids pair Gauss-Legendre radial nodes on [0, R] with M uniform
    angles (node order: radial-major, then angular). Cartesian grids are
    cell-centered uniform lattices on [-L, L]^2.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    R: float | None = None
    n_radial: int | None = None
    n_angular: int | None = None
    L: float | None = None
    npts: int | None = None
    h: float | None = None

    def __post_init__(self):
        if self.kind not in ("polar", "cartesian"):
            raise GridError(f"unknown grid kind {self.kind!r}")
        self.nodes = np.asarray(self.nodes, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape != self.weights.shape:
            raise GridError("nodes and weights must have matching shapes")
        # the weights must reproduce the unit Gaussian integral under d^2z/pi
        got = float((self.weights * np.exp(-np.abs(self.nodes) ** 2)).sum())
        if abs(got - 1.0) > 1e-10:
            raise GridError(
                f"grid fails the unit Gaussian check (got {got!r}); "
                "increase the extent or the node count"
            )

    @classmethod
    def polar(cls, R: float, n_radial: int = 24, n_angular: int = 64) -> "PhaseGrid":
        if R <= 0 or n_radial < 2 or n_angular < 4:
            raise GridError("polar grid needs R > 0, n_radial >= 2, n_angular >= 4")
        x, wx = np.polynomial.legendre.leggauss(n_radial)
        r = (x + 1) * R / 2
        wr = wx * R / 2
        th = 2 * np.pi * np.arange(n_angular) / n_angular
        nodes = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        weights = (wr * r)[:, None].repeat(n_angular, axis=1) * (2.0 / n_angular)
        return cls("polar", nodes, weights.ravel(), R=R, n_radial=n_radial, n_angular=n_angular)

    @classmethod
    def cartesian(cls, L: float, npts: int = 128) -> "PhaseGrid":
        if L <= 0 or npts < 8:
            raise GridError("cartesian grid needs L > 0, npts >= 8")
        h = 2 * L / npts
        c = -L + (np.arange(npts) + 0.5) * h
        X, Y = np.meshgrid(c, c, indexing="ij")
        nodes = (X + 1j * Y).ravel()
        weights = np.full(nodes.shape, h * h / np.pi)
        return cls("cartesian", nodes, weights, L=L, npts=npts, h=h)

    @property
    def max_radius(self) -> float:
        return float(np.abs(self.nodes).max())

    @property
    def coverage_radius(self) -> float:
        """Radius of the disc the grid is guaranteed to cover."""
        return float(self.R) if self.kind == "polar" else float(self.L)

    def params(self) -> dict:
        if self.kind == "polar":
            return {"kind": "polar", "R": self.R, "n_radial": self.n_radial,
                    "n_angular": self.n_angular}
        return {"kind": "cartesian", "L": self.L, "npts": self.npts}

    @classmethod
    def from_params(cls, p: dict) -> "PhaseGrid":
        if p["kind"] == "polar":
            return cls.polar(p["R"], p["n_radial"], p["n_angular"])
        return cls.cartesian(p["L"], p["npts"])


@dataclass
class Tomogram:
    """Symbol samples over a PhaseGrid with provenance metadata."""

    grid: PhaseGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.nodes.shape:
            raise GridError("tomogram values must align with grid nodes")


@dataclass
class DualFrame:
    """Gram operators dual to the sampled projectors |z_j><z_j|."""

    grid: PhaseGrid
    gram_ops: list
    svd_cutoff: float
    frame_dim: int
    basis_residual: float
    cond: float


def operator_hash(A: FockOperator) -> str:
    return hashlib.sha256(np.ascontiguousarray(A.entries).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# K-symbol


def _amp_matrix(nodes: np.ndarray, N: int) -> np.ndarray:
    """Columns of coherent amplitudes c_n(z_j), shape (N+1, nnodes)."""
    nodes = np.asarray(nodes, dtype=complex).ravel()
    n = np.arange(N + 1)[:, None]
    u = np.abs(nodes) ** 2
    safe = np.where(nodes == 0, 1.0, nodes)
    logz = np.log(safe)
    C = np.exp(-u[None, :] / 2 + n * logz[None, :] - 0.5 * gammaln(n + 1))
    zero = nodes == 0
    if zero.any():
        C[:, zero] = 0.0
        C[0, zero] = 1.0
    return C


def husimi_values(A: FockOperator, nodes) -> np.ndarray:
    """<z|A|z> at each node, via the truncated Fock expansion."""
    C = _amp_matrix(np.asarray(nodes, dtype=complex).ravel(), A.truncation)
    return np.einsum("nj,nm,mj->j", C.conj(), A.entries, C)


def k_callable(A: FockOperator):
    """K-symbol of the finite matrix A as a plain function of z.

    The Fock expansion is exact for a given finite matrix, so no tail guard
    applies; use husimi_K when A stands in for a truncated infinite operator.
    """
    return lambda z: complex(husimi_values(A, [z])[0])


def _support_tail(A: FockOperator, radius: float) -> float:
    """Fraction of A's Fock support falling outside the disc |z| <= radius.

    For level n the coherent-amplitude mass outside the disc is the upper
    regularized gamma Q(n+1, radius^2); weight levels by their largest matrix
    element. For diagonal density matrices this is exactly Tr rho minus the
    K-integral over the disc.
    """
    d = np.maximum(np.abs(A.entries).max(axis=0), np.abs(A.entries).max(axis=1))
    tot = d.sum()
    if tot == 0:
        return 0.0
    q = gammaincc(np.arange(A.dim) + 1.0, radius ** 2)
    return float((d * q).sum() / tot)


def husimi_K(A: FockOperator, z: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> complex:
    z = complex(z)
    tail = coherent_tail(z, A.truncation)
    if tail > tail_tol:
        raise TruncationError(
            f"coherent tail {tail:.3e} at |z|={abs(z):.3g} exceeds {tail_tol:.1e} "
            f"for truncation {A.truncation}; try N >= {suggest_truncation(z, tail_tol)}",
            tail=tail,
        )
    return complex(husimi_values(A, [z])[0])


def k_grid(A: FockOperator, grid: PhaseGrid, grid_tol: float = 1e-6) -> Tomogram:
    """Sample the K-symbol on a grid and check the normalization identity.

    The weighted sum of K over any d^2z/pi grid must equal Tr A whenever the
    grid covers the operator's support; a larger deviation is a coverage error.
    """
    tail = _support_tail(A, grid.coverage_radius)
    if tail > grid_tol:
        raise CoverageError(
            f"grid of extent {grid.coverage_radius:.3g} misses a support "
            f"fraction {tail:.3e} of the operator; extend the grid"
        )
    vals = husimi_values(A, grid.nodes)
    integral = complex((grid.weights * vals).sum())
    tr = complex(np.trace(A.entries))
    if abs(integral - tr) > grid_tol:
        raise CoverageError(
            f"grid integral {integral:.8g} vs trace {tr:.8g}; extend the grid"
        )
    return Tomogram(grid, vals, meta={
        "symbol": "K",
        "source_hash": operator_hash(A),
        "integral": [integral.real, integral.imag],
        "dim": A.dim,
    })


# ---------------------------------------------------------------------------
# s-ordered kernels


def s_ordered_kernel(z: complex, s: float, N: int) -> FockOperator:
    """Gaussian-ordering kernel (2/(1-s)) D(z) ((s+1)/(s-1))^n D(z)+.

    s = -1 gives exactly the projector |z><z|; s = 1 has no function-valued
    kernel (the Wick case is distributional).
    """
    if not -1 <= s < 1:
        raise SpecError("s must lie in [-1, 1): the s=1 kernel is distributional; "
                        "use derivative or frame reconstruction")
    D = displacement_matrix(z, N)
    core = ((s + 1) / (s - 1)) ** np.arange(N + 1)
    return FockOperator(N + 1, (2 / (1 - s)) * (D * core) @ D.conj().T)


def quasi_values(A: FockOperator, nodes, s: float) -> np.ndarray:
    """F_A(z, s) = Tr[A Delta(z, -s)] at each node; s = 1 gives the K-symbol.

    The kernel block on A's support is contracted over extended columns, so
    the value is the exact symbol of the given truncated operator. For s < 0
    the column weight |c| = (1-s)/(1+s) exceeds 1: the symbol is dominated
    by the operator's own truncation edge (sharpening toward the P side),
    and the contraction cancels across growing terms. The cancellation mass
    is measured and evaluation refused once double precision cannot carry it.

    D(r e^{i phi})_{mn} = e^{i(m-n) phi} D(r)_{mn}, so the kernel is built
    once per distinct radius r and A is reduced to one sum S_o per diagonal
    o = n - m of A.T * ker(r); a node at angle phi on that ring takes
    sum_o S_o e^{-i o phi}. The first failing node in node order raises.
    """
    if not -1 < s <= 1:
        raise SpecError("s must lie in (-1, 1]; the s=-1 symbol is the P-function, "
                        "use p_function_grid")
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if s == 1:
        # anti-Wick kernel is |z><z|: same value as the K-symbol, cheaper path
        return husimi_values(A, nodes)
    c = (1 - s) / (-1 - s)
    g = abs(c)
    d = A.dim
    radii, first, ring = np.unique(np.abs(nodes), return_index=True, return_inverse=True)
    members = np.split(np.argsort(ring, kind="stable"), np.cumsum(np.bincount(ring))[:-1])
    row, col = np.indices((d, d))
    offset = (col - row + d - 1).ravel()
    o = np.arange(-(d - 1), d)
    absAT = np.abs(A.entries).T
    vals = np.empty(nodes.size, dtype=complex)
    noise_fail = None                     # (node index, message) of the first noise refusal
    for k in np.argsort(first):
        if noise_fail is not None and first[k] > noise_fail[0]:
            break
        r, idx = float(radii[k]), members[k]
        u = r ** 2
        K = d + int(np.ceil(max(1.0, g) * u + 4 * np.sqrt((d + 1) * max(1.0, g) * u) + 12))
        if K * np.log(max(g, 1.0)) > 600.0:
            safe_u = max((600.0 / np.log(g) - d) / g, 0.0)
            raise ScaleOverflowError(
                f"column weight |c|^k = {g:.3g}^{K} overflows for s = {s} at "
                f"|z|^2 = {u:.3g}; use p_function_grid for symbols near s = -1",
                safe_radius=float(np.sqrt(safe_u)),
            )
        Db = displacement_block(r, d, K)
        wts = c ** np.arange(K)
        M = (A.entries.T * ((2 / (1 + s)) * (Db * wts) @ Db.conj().T)).ravel()
        S = (np.bincount(offset, M.real, 2 * d - 1)
             + 1j * np.bincount(offset, M.imag, 2 * d - 1))
        vals[idx] = np.exp(-1j * np.outer(np.angle(nodes[idx]), o)) @ S
        if s < 0:
            absD = np.abs(Db)
            mass = (2 / (1 + s)) * (absD * np.abs(wts)) @ absD.T
            noise = _EPS * float((absAT * mass).sum())
            bad = idx[noise > 1e-8 * np.fmax(1.0, np.abs(vals[idx]))]
            if bad.size and (noise_fail is None or bad[0] < noise_fail[0]):
                noise_fail = (bad[0], (
                    f"s = {s} symbol at |z|^2 = {u:.3g} sits below its cancellation "
                    f"noise floor {noise:.3g}; reduce |z| or move s toward 0"))
    if noise_fail is not None:
        raise ScaleOverflowError(noise_fail[1])
    return vals


def quasi_distribution(A: FockOperator, z: complex, s: float) -> complex:
    """F_A(z, s) at a single point; see quasi_values."""
    return complex(quasi_values(A, [z], s)[0])


# ---------------------------------------------------------------------------
# reconstruction from K: angular-Fourier / radial-moment route


def _solve_k_sectors(values: np.ndarray, r: np.ndarray, n_angular: int,
                     N_target: int, cond_limit: float = 1e12):
    """Solve for A from K samples on a polar lattice (radial-major order).

    Writes e^{|z|^2} K(r e^{i theta}) = sum_k e^{i k theta} g_k(r) and fits
    each angular sector's radial profile against the monomial design
    r^{2n+|k|}/sqrt(n!(n+|k|)!), columns scaled to unit norm.
    """
    nrad = len(r)
    W = values.reshape(nrad, n_angular) * np.exp(r[:, None] ** 2)
    F = np.fft.fft(W, axis=1) / n_angular
    A = np.zeros((N_target + 1, N_target + 1), dtype=complex)
    conds = {}
    for k in range(-N_target, N_target + 1):
        g = F[:, k % n_angular]
        nmax = N_target - abs(k)
        ns = np.arange(nmax + 1)
        logc = -0.5 * (gammaln(ns + 1) + gammaln(ns + abs(k) + 1))
        Phi = r[:, None] ** (2 * ns + abs(k))[None, :] * np.exp(logc)[None, :]
        colnorm = np.linalg.norm(Phi, axis=0)
        coef, _, _, sv = np.linalg.lstsq(Phi / colnorm, g, rcond=None)
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        conds[k] = float(cond)
        if cond > cond_limit:
            raise ConditioningError(
                f"radial fit in Fourier sector k={k} has condition number {cond:.2e}",
                cond=cond,
            )
        coef = coef / colnorm
        if k >= 0:
            A[ns, ns + k] = coef
        else:
            A[ns + abs(k), ns] = coef
    return A, conds


def reconstruct_from_K(k_source, N_target: int, R_fit: float | None = None,
                       n_radial: int | None = None, n_angular: int | None = None) -> FockOperator:
    """Recover A_{nm} for n, m <= N_target from its K-symbol.

    k_source is a callable z -> K(z). Realizes the derivative-extraction
    identity without numerical differentiation: an angular FFT splits
    e^{|z|^2} K into Fourier sectors, and a least-squares radial moment fit
    recovers each diagonal of A.
    """
    if R_fit is None:
        R_fit = np.sqrt(N_target) + 2.0
    if n_radial is None:
        n_radial = 2 * (N_target + 1) + 8
    if n_angular is None:
        n_angular = 4 * N_target + 8
    x, _ = np.polynomial.legendre.leggauss(n_radial)
    r = (x + 1) * R_fit / 2
    th = 2 * np.pi * np.arange(n_angular) / n_angular
    Z = r[:, None] * np.exp(1j * th)[None, :]
    vals = np.array([k_source(z) for z in Z.ravel()], dtype=complex)
    A, _ = _solve_k_sectors(vals, r, n_angular, N_target)
    return FockOperator(N_target + 1, A)


def reconstruct_from_tomogram(tom: Tomogram, N_target: int) -> FockOperator:
    """Moment-route reconstruction from an already sampled polar K-tomogram."""
    if tom.grid.kind != "polar":
        raise GridError("moment reconstruction needs a polar grid")
    x, _ = np.polynomial.legendre.leggauss(tom.grid.n_radial)
    r = (x + 1) * tom.grid.R / 2
    A, _ = _solve_k_sectors(tom.values, r, tom.grid.n_angular, N_target)
    return FockOperator(N_target + 1, A)


# ---------------------------------------------------------------------------
# P-function by regularized Fourier deconvolution


def _fourier_matrices(grid: PhaseGrid):
    c = -grid.L + (np.arange(grid.npts) + 0.5) * grid.h
    xi = 2 * np.pi * np.fft.fftfreq(grid.npts, d=grid.h)
    fwd = np.exp(-1j * np.outer(xi, c)) * grid.h / np.sqrt(2 * np.pi)
    inv = np.exp(1j * np.outer(c, xi)) * (2 * np.pi / (grid.npts * grid.h)) / np.sqrt(2 * np.pi)
    return c, xi, fwd, inv


def p_function_grid(A: FockOperator, cart_grid: PhaseGrid,
                    tail_tol: float = DEFAULT_TAIL_TOL) -> Tomogram:
    """Sudarshan P-function on a cartesian grid, or a decay-gate refusal.

    Forward transform of K, amplification by e^{(xi^2+eta^2)/4}, inverse
    transform. The amplified spectrum is cut at the waist of its radial
    profile (where signal hands over to rounding noise), and the decay law
    fitted inside the waist must extrapolate below 1e3 * eps * max|Ktil| at
    the grid's Nyquist shell; otherwise the P-function of this operator is
    not representable as a function at working precision.
    """
    if cart_grid.kind != "cartesian":
        raise GridError("p_function_grid needs a cartesian grid")
    tail = _support_tail(A, cart_grid.coverage_radius)
    if tail > tail_tol:
        raise CoverageError(
            f"grid of extent {cart_grid.coverage_radius:.3g} misses a support "
            f"fraction {tail:.3e} of the operator; extend the grid"
        )
    n = cart_grid.npts
    K = husimi_values(A, cart_grid.nodes).reshape(n, n)
    c, xi, fwd, inv = _fourier_matrices(cart_grid)
    Ktil = fwd @ K @ fwd.T
    XI, ETA = np.meshgrid(xi, xi, indexing="ij")
    rho2 = XI ** 2 + ETA ** 2
    rho_N = np.pi / cart_grid.h
    mx = float(np.abs(Ktil).max())

    # radial shell profile of |Ktil|
    dxi = np.pi / cart_grid.L
    shell = np.round(np.sqrt(rho2) / dxi).astype(int)
    prof = np.zeros(shell.max() + 1)
    np.maximum.at(prof, shell.ravel(), np.abs(Ktil).ravel())
    rho_sh = np.arange(len(prof)) * dxi

    # waist of the amplified profile: beyond it only amplified noise grows
    with np.errstate(over="ignore"):
        amp_prof = np.where(prof > 0, prof, mx * _EPS) * np.exp(rho_sh ** 2 / 4)
    inside = rho_sh <= rho_N
    kmin = int(np.argmin(np.where(inside, amp_prof, np.inf)))
    rho_c = float(rho_sh[kmin])
    waist_level = float(amp_prof[kmin] / mx)
    if waist_level > 1e-3:
        raise DecayGateError(
            "P-function is distributional for this operator: amplified transform "
            f"does not decay (waist level {waist_level:.2e} at rho={rho_c:.2f})"
        )

    # decay law of |Ktil| inside the waist, extrapolated to the Nyquist shell
    band = (rho_sh < 0.9 * rho_c) & (prof > 0) & (prof < 1e-3 * mx)
    if band.sum() < 4:
        band = (rho_sh < 0.9 * rho_c) & (prof > 0) & (rho_sh > 0)
    if band.sum() < 4:
        raise DecayGateError(
            "P-function is distributional for this operator: no decaying band "
            "in the amplified transform"
        )
    design = np.stack([np.ones(band.sum()), rho_sh[band] ** 2], axis=1)
    (b0, slope), *_ = np.linalg.lstsq(design, np.log(prof[band]), rcond=None)
    extrap = b0 + (slope + 0.25) * rho_N ** 2
    if extrap >= np.log(1e3 * _EPS * mx):
        raise DecayGateError(
            "P-function is distributional for this operator: amplified transform "
            f"fails the decay gate at the Nyquist shell (fitted decay rate {slope:.3f})"
        )

    mask = rho2 <= rho_c ** 2
    phitil = np.where(mask, Ktil, 0) * np.exp(np.where(mask, rho2, 0.0) / 4)
    phi = (inv @ phitil @ inv.T).real
    mass = float(phi.sum() * cart_grid.h ** 2 / np.pi)
    return Tomogram(cart_grid, phi.ravel().astype(complex), meta={
        "symbol": "P",
        "source_hash": operator_hash(A),
        "integral": [mass, 0.0],
        "dim": A.dim,
        "decay_slope": float(slope),
        "band_cut": rho_c,
        "waist_level": waist_level,
    })


# ---------------------------------------------------------------------------
# dual frame


def frame_from_amplitudes(grid: PhaseGrid, C: np.ndarray, svd_cutoff: float = 1e-10,
                          basis_tol: float = 1e-6) -> DualFrame:
    """Dual frame for projectors |v_j><v_j| given their amplitude columns C.

    Vectorizes operators on the truncation set by C's row count, assembles the
    frame operator S = sum_j w_j |P_j)(P_j| in the Hilbert-Schmidt inner
    product, inverts by SVD with a relative cutoff, and defines G_j = S^{-1}
    P_j. The construction self-checks by reconstructing every basis element
    |m><m'|.
    """
    d = C.shape[0]
    J = grid.nodes.size
    if J < d * d:
        raise GridError(f"grid has {J} nodes, fewer than (N_frame+1)^2 = {d * d}")
    V = np.einsum("mj,nj->mnj", C, C.conj()).reshape(d * d, J)
    S = (V * grid.weights) @ V.conj().T
    U, sv, Vh = np.linalg.svd(S)
    keep = sv > svd_cutoff * sv[0]
    rank = int(keep.sum())
    if rank < d * d:
        raise FrameRankError(
            f"frame operator rank {rank} < {d * d}: grid too coarse",
            achieved_rank=rank, needed_rank=d * d,
        )
    Sinv = (Vh.conj().T[:, keep] / sv[keep]) @ U.conj().T[keep]
    Gmat = Sinv @ V
    gram_ops = [FockOperator(d, Gmat[:, j].reshape(d, d)) for j in range(J)]
    # duality self-check: sum_j w_j G_j Tr(P_j X) = X for X = |m><m'|,
    # using Tr(P_j |m><m'|) = <m'|v_j><v_j|m> = C[m', j] conj(C[m, j])
    T = np.einsum("mj,nj->jmn", C.conj(), C).reshape(J, d * d)
    R = (Gmat * grid.weights) @ T
    resid = float(np.abs(R - np.eye(d * d)).max())
    if resid > basis_tol:
        raise FrameRankError(
            f"frame self-check residual {resid:.2e} above {basis_tol:.1e}: grid too coarse",
            achieved_rank=rank, needed_rank=d * d,
        )
    return DualFrame(grid=grid, gram_ops=gram_ops, svd_cutoff=svd_cutoff,
                     frame_dim=d, basis_residual=resid, cond=float(sv[0] / sv[keep].min()))


def dual_frame(grid: PhaseGrid, N_frame: int, svd_cutoff: float = 1e-10,
               basis_tol: float = 1e-6) -> DualFrame:
    """Numerical dual of the sampled coherent projector family {|z_j><z_j|}."""
    return frame_from_amplitudes(grid, _amp_matrix(grid.nodes, N_frame),
                                 svd_cutoff, basis_tol)


def default_frame_grid(N_frame: int) -> PhaseGrid:
    return PhaseGrid.polar(np.sqrt(N_frame) + 4.0, 24, 64)


def frame_reconstruct(frame: DualFrame, values) -> FockOperator:
    """Sum_j w_j G_j K(z_j) for K sampled exactly at the frame nodes."""
    if isinstance(values, Tomogram):
        if values.grid.nodes.shape != frame.grid.nodes.shape or \
                not np.allclose(values.grid.nodes, frame.grid.nodes):
            raise GridError("tomogram nodes do not match frame nodes")
        values = values.values
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.shape != frame.grid.nodes.shape:
        raise GridError("value count does not match frame nodes")
    d = frame.frame_dim
    out = np.zeros((d, d), dtype=complex)
    for G, w, v in zip(frame.gram_ops, frame.grid.weights, vals):
        out += w * v * G.entries
    return FockOperator(d, out)
