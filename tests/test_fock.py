import numpy as np
import pytest
from scipy.linalg import expm

from phasetomo import fock
from phasetomo.errors import TruncationError, UnderflowError


def test_ladder_structure():
    a, ad, nop = fock.ladder_operators(6)
    A, Ad = a.entries, ad.entries
    for n in range(1, 7):
        assert abs(A[n - 1, n] - np.sqrt(n)) < 1e-15
    # number operator is exact at truncation: a+ a = diag(0..N)
    np.testing.assert_allclose(Ad @ A, nop.entries, atol=1e-14)
    np.testing.assert_allclose(np.diag(nop.entries).real, np.arange(7.0), atol=0)
    # the broken product is a a+, with the -N artifact in the commutator corner
    comm = A @ Ad - Ad @ A
    np.testing.assert_allclose(np.diag(comm)[:-1], 1.0, atol=1e-14)
    assert abs(comm[6, 6] + 6) < 1e-14


def test_ladder_rejects_trivial_dim():
    with pytest.raises(ValueError):
        fock.ladder_operators(0)


def test_displacement_against_expm():
    rng = np.random.default_rng(3)
    N = 30
    a, ad, _ = fock.ladder_operators(N)
    for _ in range(5):
        z = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
        D = fock.displacement_matrix(z, N)
        ref = expm(z * ad.entries - np.conj(z) * a.entries)
        # low block is immune to the truncation edge of the expm generator
        assert np.abs(D[:8, :8] - ref[:8, :8]).max() < 1e-10


def test_displacement_adjoint_is_inverse_elementwise():
    z = 0.9 - 0.4j
    D = fock.displacement_matrix(z, 12)
    Dm = fock.displacement_matrix(-z, 12)
    # exact per element, not merely numerically close
    assert np.array_equal(Dm, D.conj().T)


def test_displacement_block_consistent_with_square():
    z = 0.3 + 1.1j
    full = fock.displacement_matrix(z, 20)
    blk = fock.displacement_block(z, 7, 21)
    np.testing.assert_allclose(blk, full[:7, :], rtol=0, atol=0)


@pytest.mark.parametrize("d, K", [(7, 40), (41, 41)])
def test_displacement_block_rotation_covariance(d, K):
    # D(r e^{i theta})_{mn} = e^{i(m-n) theta} D(r)_{mn}: one block per radius
    m, n = np.indices((d, K))
    for r in (0.3, 1.7, 4.2):
        base = fock.displacement_block(r, d, K)
        for th in (0.4, 2.9, -1.3):
            got = fock.displacement_block(r * np.exp(1j * th), d, K)
            assert np.abs(got - np.exp(1j * (m - n) * th) * base).max() < 1e-14


def test_displacement_underflow_guard():
    with pytest.raises(UnderflowError):
        fock.displacement_matrix(60.0, 4)


def test_coherent_amplitudes_poisson():
    z = 1.3 - 0.7j
    u = abs(z) ** 2
    c = fock.coherent_amplitudes(z, 40)
    n = np.arange(41)
    from scipy.special import gammaln
    want = np.exp(-u + n * np.log(u) - gammaln(n + 1))
    np.testing.assert_allclose(np.abs(c) ** 2, want, rtol=1e-13)
    # norm completes to 1 minus the reported tail
    assert abs((np.abs(c) ** 2).sum() - (1 - fock.coherent_tail(z, 40))) < 1e-14


def test_coherent_state_eigenvalue_property():
    z = 0.8 + 0.5j
    N = 40
    v = fock.coherent_state(z, N).amplitudes
    a, _, _ = fock.ladder_operators(N)
    res = a.entries @ v - z * v
    # interior rows are exact; the last row carries the tail artifact
    assert np.abs(res[:-1]).max() < 1e-12


def test_coherent_state_tail_guard():
    with pytest.raises(TruncationError) as ei:
        fock.coherent_state(3.0, 8)
    assert ei.value.suggested_dim > 9


def test_suggest_truncation_is_sufficient():
    for z in (0.5, 2.0, 3.5):
        N = fock.suggest_truncation(z, 1e-10)
        assert fock.coherent_tail(z, N) < 1e-10


def test_build_state_thermal_and_cat():
    nbar = 0.8
    rho = fock.build_state("thermal", nbar, 50, 1e-10)
    p = np.diag(rho.entries).real
    n = np.arange(51)
    want = (1 / (1 + nbar)) * (nbar / (1 + nbar)) ** n
    np.testing.assert_allclose(p, want, rtol=1e-13)

    cat = fock.build_state("cat", 1.2 + 0.0j, 40, 1e-10)
    rep = fock.check_density(cat)
    assert rep["hermiticity"] < 1e-14
    assert rep["trace_deviation"] < 1e-12
    assert rep["ok"]


def test_build_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        fock.build_state("squeezed", 1.0, 10, 1e-10)


def test_hermite_functions_orthonormal():
    # quadrature oracle on a wide fine lattice
    q = np.linspace(-12, 12, 4001)
    h = np.diff(q)[0]
    H = fock.hermite_functions(12, q)
    G = (H * h) @ H.T
    np.testing.assert_allclose(G, np.eye(13), atol=1e-10)


def test_displaced_number_wavefunction_reduces_at_origin():
    for n in (0, 3):
        for y in (-1.0, 0.4):
            got = fock.displaced_number_wavefunction(n, 0.0, y)
            assert abs(got - fock.hermite_function(n, y)) < 1e-14


def test_displaced_number_wavefunction_norm():
    # <nz|nz> = 1: displaced wavefunctions stay normalized
    y = np.linspace(-14, 14, 6001)
    h = np.diff(y)[0]
    for n, z in ((0, 0.7 + 0.2j), (4, -1.1 + 0.9j)):
        vals = np.array([fock.displaced_number_wavefunction(n, z, yy) for yy in y])
        assert abs((np.abs(vals) ** 2).sum() * h - 1) < 1e-10


def test_operator_json_roundtrip():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    op = fock.FockOperator(5, M)
    back = fock.FockOperator.from_json(op.to_json())
    assert back.dim == 5
    np.testing.assert_allclose(back.entries, M, rtol=0, atol=0)
