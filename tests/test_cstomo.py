import numpy as np
import pytest
from scipy.special import eval_laguerre

from phasetomo import cstomo, fock
from phasetomo.errors import (
    ConditioningError,
    CoverageError,
    FrameRankError,
    GridError,
    ScaleOverflowError,
    SpecError,
)


def test_polar_grid_gaussian_invariant():
    grid = cstomo.PhaseGrid.polar(5.0, 24, 64)
    got = (grid.weights * np.exp(-np.abs(grid.nodes) ** 2)).sum()
    assert abs(got - 1) < 1e-10


def test_grid_rejects_insufficient_extent():
    # a grid that cannot integrate the unit Gaussian is refused outright
    with pytest.raises(GridError):
        cstomo.PhaseGrid.polar(3.0, 24, 16)
    with pytest.raises(GridError):
        cstomo.PhaseGrid.polar(5.0, 6, 16)


def test_cartesian_grid_gaussian_invariant():
    grid = cstomo.PhaseGrid.cartesian(7.0, 96)
    got = (grid.weights * np.exp(-np.abs(grid.nodes) ** 2)).sum()
    assert abs(got - 1) < 1e-10


def test_husimi_coherent_oracle():
    # K of |w><w| is exactly exp(-|z-w|^2)
    N = 40
    w = 0.9 - 0.3j
    rho = fock.build_state("coherent", w, N, 1e-10)
    for z in (0.0, w, 1.2 + 1.1j, -1.5j):
        got = cstomo.husimi_K(rho, z)
        assert abs(got - np.exp(-abs(z - w) ** 2)) < 1e-12


def test_husimi_lowering_symbol():
    # <z|a|z> = z: symbol of the lowering operator
    N = 40
    a, _, _ = fock.ladder_operators(N)
    for z in (0.4, -0.8 + 0.6j):
        got = cstomo.husimi_K(a, z)
        assert abs(got - z) < 1e-12


def test_k_grid_integral_equals_trace():
    rho = fock.build_state("coherent", 0.7 + 0.2j, 40, 1e-10)
    grid = cstomo.PhaseGrid.polar(5.0, 24, 64)
    tom = cstomo.k_grid(rho, grid)
    integral = complex(*tom.meta["integral"])
    assert abs(integral - 1.0) < 1e-8


def test_k_grid_coverage_guard():
    # thermal nbar=1 has K-support wider than R=5 at the 1e-6 gate
    rho = fock.build_state("thermal", 1.0, 40, 1e-10)
    with pytest.raises(CoverageError):
        cstomo.k_grid(rho, cstomo.PhaseGrid.polar(5.0, 24, 64))
    tom = cstomo.k_grid(rho, cstomo.PhaseGrid.polar(7.0, 32, 64))
    assert abs(complex(*tom.meta["integral"]) - 1.0) < 1e-9


def test_quasi_equals_husimi_at_s_one():
    rho = fock.build_state("cat", 1.1 + 0.4j, 40, 1e-10)
    for z in (0.2, -1.0 + 0.8j):
        dq = cstomo.quasi_distribution(rho, z, 1.0)
        assert abs(dq - cstomo.husimi_K(rho, z)) < 1e-14


def test_wigner_oracles():
    # vacuum: F(z, 0) = 2 exp(-2|z|^2); number state at origin: 2(-1)^n
    vac = fock.build_state("fock", 0, 12, 1e-10)
    for z in (0.0, 0.6 - 0.3j, 1.5):
        got = cstomo.quasi_distribution(vac, z, 0.0)
        assert abs(got - 2 * np.exp(-2 * abs(z) ** 2)) < 1e-13
    for n in range(5):
        rho = fock.build_state("fock", n, 12, 1e-10)
        got = cstomo.quasi_distribution(rho, 0.0, 0.0)
        assert abs(got - 2 * (-1) ** n) < 1e-13


def test_quasi_thermal_closed_form_wigner():
    # truncated thermal is exponentially close to the exact Gaussian Wigner
    nbar = 1.0
    rho = fock.build_state("thermal", nbar, 40, 1e-10)
    sig = nbar + 0.5
    for z in (0.0, 1.0, 2.5 + 1.0j):
        got = cstomo.quasi_distribution(rho, z, 0.0)
        want = (1 / sig) * np.exp(-abs(z) ** 2 / sig)
        assert abs(got - want) < 1e-11


def test_quasi_matches_number_series():
    # independent oracle: F_rho(z,s) expanded over number states
    rho = fock.build_state("thermal", 0.6, 30, 1e-10)
    p = np.diag(rho.entries).real
    n = np.arange(31)
    for s, z in ((0.5, 1.3), (0.2, 0.7 - 0.4j), (-0.3, 0.5)):
        u = abs(z) ** 2
        want = ((2 / (1 + s)) * np.exp(-2 * u / (1 + s))
                * (p * ((s - 1) / (s + 1)) ** n
                   * eval_laguerre(n, 4 * u / (1 - s ** 2))).sum())
        got = cstomo.quasi_distribution(rho, z, s)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_quasi_negative_s_noise_guard():
    # sharpening toward the P side cancels below double precision at large |z|
    rho = fock.build_state("thermal", 1.0, 40, 1e-10)
    with pytest.raises(ScaleOverflowError):
        cstomo.quasi_distribution(rho, 2.5, -0.5)


def test_quasi_domain_guard():
    rho = fock.build_state("fock", 0, 8, 1e-10)
    with pytest.raises(SpecError):
        cstomo.quasi_distribution(rho, 0.3, -1.0)


def _quasi_reference(A, z, s):
    """Per-node s-ordered symbol with the displacement block taken at z itself,
    and its cancellation noise floor (zero for s >= 0)."""
    c = (1 - s) / (-1 - s)
    g, u, d = abs(c), abs(z) ** 2, A.dim
    K = d + int(np.ceil(max(1.0, g) * u + 4 * np.sqrt((d + 1) * max(1.0, g) * u) + 12))
    Db = fock.displacement_block(z, d, K)
    wts = c ** np.arange(K)
    ker = (2 / (1 + s)) * (Db * wts) @ Db.conj().T
    mass = (2 / (1 + s)) * (np.abs(Db) * np.abs(wts)) @ np.abs(Db).T
    noise = np.finfo(float).eps * (np.abs(A.entries).T * mass).sum() if s < 0 else 0.0
    return complex(np.trace(A.entries @ ker)), noise


@pytest.mark.parametrize("kind, param, N", [("thermal", 1.2, 40),
                                            ("coherent", 0.8 - 0.6j, 30),
                                            ("cat", 1.1 + 0.4j, 30)])
@pytest.mark.parametrize("grid", [cstomo.PhaseGrid.polar(5.0, 16, 32),
                                  cstomo.PhaseGrid.cartesian(5.0, 17)],
                         ids=["polar", "cartesian-with-origin"])
def test_quasi_values_match_per_node_kernel(kind, param, N, grid):
    rho = fock.build_state(kind, param, N, 1e-10)
    for s in (0.6, 0.3, 0.0, -0.3):
        # below s = 0 the outer rings sit under the noise floor and are refused
        nodes = grid.nodes if s >= 0 else grid.nodes[np.abs(grid.nodes) <= 1.5]
        # every ring is evaluated; the per-node reference checks every 7th node
        got = cstomo.quasi_values(rho, nodes, s)[::7]
        want, noise = np.array([_quasi_reference(rho, z, s) for z in nodes[::7]]).T
        # for s < 0 both summation orders carry the cancellation noise floor
        tol = 1e-13 * np.maximum(1.0, np.abs(want)) + noise.real
        assert np.all(np.abs(got - want) <= tol)


def _first_refusal(A, nodes, s):
    for z in nodes:
        try:
            cstomo.quasi_distribution(A, z, s)
        except ScaleOverflowError as e:
            return e
    raise AssertionError("no node refused")


@pytest.mark.parametrize("order", [1, -1], ids=["inner-first", "outer-first"])
def test_quasi_values_refuse_at_first_failing_node(order):
    rho = fock.build_state("thermal", 1.0, 40, 1e-10)
    nodes = cstomo.PhaseGrid.polar(5.0, 16, 32).nodes[::order]
    want = _first_refusal(rho, nodes, -0.9)
    with pytest.raises(ScaleOverflowError) as got:
        cstomo.quasi_values(rho, nodes, -0.9)
    assert str(got.value) == str(want)
    assert got.value.safe_radius == want.safe_radius
    # outermost ring first: the overflow guard fires before the noise floor
    assert (want.safe_radius is None) == (order == 1)


def test_s_kernel_projector_limit():
    # s = -1 kernel is exactly the coherent projector |z><z|
    z = 0.8 + 0.3j
    N = 30
    ker = cstomo.s_ordered_kernel(z, -1.0, N)
    amp = fock.coherent_amplitudes(z, N)
    np.testing.assert_allclose(ker.entries, np.outer(amp, amp.conj()), atol=1e-14)


def test_s_kernel_trace_and_parity():
    # for s < 0 the weight series is absolutely convergent and Tr Delta = 1
    ker = cstomo.s_ordered_kernel(0.4 - 0.2j, -0.5, 60)
    assert abs(np.trace(ker.entries) - 1) < 1e-8
    # at z = 0 the s = 0 kernel is exactly twice the parity operator
    # (its unit trace exists only as the Abel sum of the alternating series)
    ker0 = cstomo.s_ordered_kernel(0.0, 0.0, 10)
    np.testing.assert_allclose(ker0.entries, 2 * np.diag((-1.0) ** np.arange(11)),
                               atol=1e-14)


def test_reconstruct_from_K_roundtrip():
    rng = np.random.default_rng(5)
    N = 6
    worst = 0.0
    for _ in range(5):
        G = rng.normal(size=(N + 1, N + 1)) + 1j * rng.normal(size=(N + 1, N + 1))
        A = fock.FockOperator(N + 1, (G + G.conj().T) / 2)
        rec = cstomo.reconstruct_from_K(cstomo.k_callable(A), N)
        worst = max(worst, np.abs(rec.entries - A.entries).max())
    assert worst < 1e-6


def test_reconstruct_from_tomogram_vacuum():
    vac = fock.build_state("fock", 0, 40, 1e-10)
    grid = cstomo.PhaseGrid.polar(5.0, 24, 64)
    tom = cstomo.k_grid(vac, grid)
    rec = cstomo.reconstruct_from_tomogram(tom, 16)
    want = np.zeros((17, 17))
    want[0, 0] = 1.0
    assert np.abs(rec.entries - want).max() < 1e-10


def test_reconstruct_conditioning_gate():
    vac = fock.build_state("fock", 0, 40, 1e-10)
    tom = cstomo.k_grid(vac, cstomo.PhaseGrid.polar(5.0, 24, 64))
    with pytest.raises(ConditioningError):
        cstomo.reconstruct_from_tomogram(tom, 20)


def test_dual_frame_roundtrip_number_operator():
    N = 4
    grid = cstomo.default_frame_grid(N)
    frame = cstomo.dual_frame(grid, N)
    assert frame.basis_residual < 1e-7
    _, _, nop = fock.ladder_operators(N)
    tom = cstomo.k_grid(nop, grid)
    rec = cstomo.frame_reconstruct(frame, tom)
    assert np.abs(rec.entries - nop.entries).max() < 1e-6


def test_dual_frame_rank_guard():
    with pytest.raises(FrameRankError):
        cstomo.dual_frame(cstomo.PhaseGrid.polar(5.0, 24, 64), 12)


def test_p_function_thermal_profile_and_mass():
    nbar = 1.0
    rho = fock.build_state("thermal", nbar, 60, 1e-10)
    grid = cstomo.PhaseGrid.cartesian(9.0, 144)
    tom = cstomo.p_function_grid(rho, grid)
    mask = np.abs(grid.nodes) <= 3.0
    want = (1 / nbar) * np.exp(-np.abs(grid.nodes[mask]) ** 2 / nbar)
    assert np.abs(tom.values[mask] - want).max() < 1e-4
    # total mass: integral of phi equals the trace
    assert abs((tom.values * grid.weights).sum() - 1.0) < 1e-5


def test_p_reconvolution_reproduces_K():
    # phi convolved with the Gaussian kernel must give back the K samples
    nbar = 1.0
    rho = fock.build_state("thermal", nbar, 60, 1e-10)
    grid = cstomo.PhaseGrid.cartesian(9.0, 144)
    tom = cstomo.p_function_grid(rho, grid)
    for z in (0.0, 0.8 + 0.4j, 1.5):
        conv = (tom.values * grid.weights
                * np.exp(-np.abs(z - grid.nodes) ** 2)).sum()
        assert abs(conv - cstomo.husimi_K(rho, z)) < 1e-5


def test_tomogram_shape_guard():
    grid = cstomo.PhaseGrid.polar(5.0, 24, 64)
    with pytest.raises(GridError):
        cstomo.Tomogram(grid, np.zeros(3))
