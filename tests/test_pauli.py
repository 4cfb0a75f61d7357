import numpy as np
import pytest

from conftest import (
    dense_matrix,
    random_pauli,
    ref_pauli_matrix,
    ref_x_matrix,
    ref_z_matrix,
    single_site,
    symplectic_inner,
    vector_action,
)
from stabame.errors import BudgetExceededError
from stabame.pauli import (
    PauliProduct,
    format_pauli,
    make_pauli,
    multiply,
    parse_pauli,
    power,
)

ALG_TOL = 1e-12


def test_identity_element():
    e = PauliProduct.identity(6, 3)
    assert e.phase_exp == 0 and not any(e.x_exp) and not any(e.z_exp)
    assert e.is_identity()
    assert np.allclose(dense_matrix(e), np.eye(216))


def test_dense_matrix_x_is_qubit_not():
    assert np.allclose(dense_matrix(single_site(2, 1, 0, x=1)), [[0, 1], [1, 0]])


def test_dense_matrix_z_qutrit():
    # Z at D=3 is diag(1, omega, omega^2) with omega = exp(2*pi*i/3).
    omega = np.exp(2j * np.pi / 3)
    got = dense_matrix(single_site(3, 1, 0, z=1))
    assert np.abs(got - np.diag([1, omega, omega**2])).max() < ALG_TOL


def test_dense_matrix_matches_reference_construction():
    rng = np.random.default_rng(11)
    for d in (2, 3, 6):
        for n in (1, 2):
            for _ in range(10):
                p = random_pauli(rng, d, n)
                assert np.abs(dense_matrix(p) - ref_pauli_matrix(p)).max() < ALG_TOL


def test_dense_matrix_budget():
    with pytest.raises(BudgetExceededError):
        dense_matrix(PauliProduct.identity(2, 3), max_dim=4)


def test_multiply_identity_law():
    rng = np.random.default_rng(3)
    for d in (2, 5, 6):
        e = PauliProduct.identity(d, 2)
        for _ in range(5):
            p = random_pauli(rng, d, 2)
            assert multiply(e, p) == p
            assert multiply(p, e) == p


def test_qubit_anticommutation_phase():
    x = single_site(2, 1, 0, x=1)
    z = single_site(2, 1, 0, z=1)
    xz = multiply(x, z)
    zx = multiply(z, x)
    assert (zx.phase_exp - xz.phase_exp) % 4 == 2  # factor omega = -1


def test_multiply_phase_convention_frozen_d6():
    # Derived once from the dense oracle and locked: with X = sum_j |j><j+1|
    # and Z = diag(omega^j), reordering Z past X costs omega^(-1) per swap, so
    # multiply(Z, X) = lam^(2D-2) X Z. Regression-guards the sign convention.
    z = single_site(6, 1, 0, z=1)
    x = single_site(6, 1, 0, x=1)
    zx = multiply(z, x)
    assert (zx.phase_exp, zx.x_exp, zx.z_exp) == (10, (1,), (1,))
    assert np.abs(dense_matrix(zx) - ref_z_matrix(6) @ ref_x_matrix(6)).max() < ALG_TOL


def test_multiply_homomorphism_random():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4, 6):
        for n in (1, 2):
            for _ in range(12):
                a = random_pauli(rng, d, n)
                b = random_pauli(rng, d, n)
                got = dense_matrix(multiply(a, b))
                want = dense_matrix(a) @ dense_matrix(b)
                assert np.abs(got - want).max() < ALG_TOL


def test_multiply_associativity_random():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4, 6):
        for n in (1, 2, 3):
            for _ in range(10):
                a, b, c = (random_pauli(rng, d, n) for _ in range(3))
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_rejects_mismatch():
    with pytest.raises(ValueError):
        multiply(PauliProduct.identity(2, 2), PauliProduct.identity(3, 2))
    with pytest.raises(ValueError):
        multiply(PauliProduct.identity(2, 2), PauliProduct.identity(2, 3))


def test_power_basics():
    rng = np.random.default_rng(13)
    p = random_pauli(rng, 6, 2)
    assert power(p, 0) == PauliProduct.identity(6, 2)
    assert power(single_site(6, 1, 0, x=1), 6).is_identity()


def test_power_matches_dense_cube():
    p = make_pauli(6, 1, 0, [1], [1])  # X*Z over D=6
    cube = np.linalg.matrix_power(ref_pauli_matrix(p), 3)
    assert np.abs(dense_matrix(power(p, 3)) - cube).max() < ALG_TOL


def test_power_random_exponents():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_pauli(rng, 6, 2)
        k = int(rng.integers(0, 9))
        want = np.linalg.matrix_power(dense_matrix(p), k)
        assert np.abs(dense_matrix(power(p, k)) - want).max() < 1e-10


def test_power_closed_form_matches_repeated_multiplication():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4, 6, 9):
        for _ in range(3):
            p = random_pauli(rng, d, 3)
            want = PauliProduct.identity(d, 3)
            for k in range(4 * d + 1):
                assert power(p, k) == want
                assert power(p, k - 4 * d) == want  # k reduced mod 2D
                want = multiply(want, p)


def test_power_negative_exponent_is_inverse():
    rng = np.random.default_rng(19)
    for d in (2, 6):
        for _ in range(5):
            p = random_pauli(rng, d, 2)
            assert multiply(p, power(p, -1)).is_identity()


def test_symplectic_examples():
    x = single_site(2, 1, 0, x=1)
    z = single_site(2, 1, 0, z=1)
    assert symplectic_inner(x, z) == 1
    rng = np.random.default_rng(23)
    for _ in range(8):
        p = random_pauli(rng, 6, 2)
        assert symplectic_inner(p, p) == 0


def test_symplectic_matches_dense_commutator():
    rng = np.random.default_rng(29)
    for _ in range(25):
        a = random_pauli(rng, 6, 2)
        b = random_pauli(rng, 6, 2)
        ad, bd = dense_matrix(a), dense_matrix(b)
        commutes = np.abs(ad @ bd - bd @ ad).max() < ALG_TOL
        assert (symplectic_inner(a, b) == 0) == commutes


def test_vector_action_is_the_dense_matrix():
    # row i of dense_matrix(p) holds phases[i] in column source[i] and zeros elsewhere
    rng = np.random.default_rng(59)
    for d in (2, 4, 6, 12):
        for n in (1, 2, 3):
            for _ in range(2 if d**n > 200 else 5):
                p = random_pauli(rng, d, n)
                if p.phase_exp == 0:
                    p = make_pauli(d, n, 1, p.x_exp, p.z_exp)
                source, phases = vector_action(p)
                mat = dense_matrix(p)
                rows = np.arange(d**n)
                assert np.array_equal(np.sort(source), rows)
                assert np.abs(mat[rows, source] - phases).max() < ALG_TOL
                mat[rows, source] = 0
                assert not mat.any()


def test_dense_matrices_are_unitary():
    rng = np.random.default_rng(37)
    for d in (2, 3, 6):
        for _ in range(8):
            p = random_pauli(rng, d, 2)
            m = dense_matrix(p)
            assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() < ALG_TOL


def test_vector_action_matches_dense():
    rng = np.random.default_rng(41)
    for d, n in [(3, 2)] + [(d, n) for d in (2, 4, 6, 12) for n in (1, 2, 3)]:
        vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        for _ in range(6):
            p = random_pauli(rng, d, n)
            if p.phase_exp == 0:
                p = make_pauli(d, n, 1, p.x_exp, p.z_exp)
            source, phases = vector_action(p)
            assert np.abs(phases * vec[source] - dense_matrix(p) @ vec).max() < 1e-10


def test_serialization_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = random_pauli(rng, 6, 3)
        assert parse_pauli(format_pauli(p), 6, 3) == p
    assert format_pauli(make_pauli(6, 2, 7, [2, 0], [0, 5])) == "7 | 2 0 | 0 5"


def test_parse_pauli_rejects_malformed():
    with pytest.raises(ValueError):
        parse_pauli("1 | 2 3", 6, 2)
    with pytest.raises(ValueError):
        parse_pauli("x | 1 2 | 3 4", 6, 2)
    with pytest.raises(ValueError):
        parse_pauli("0 | 1 | 2 3", 6, 2)


def test_constructor_validation():
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        PauliProduct(1, 1, 0, (0,), (0,))
    with pytest.raises(ValueError, match="parties must be >= 1, got 0"):
        PauliProduct(2, 0, 0, (), ())
    with pytest.raises(ValueError, match="dimension must be >= 2, got 0"):
        make_pauli(0, 1, 0, [1], [1])
    with pytest.raises(ValueError, match="parties must be >= 1, got -1"):
        make_pauli(3, -1)
    with pytest.raises(ValueError):
        PauliProduct(2, 1, 4, (0,), (0,))
    with pytest.raises(ValueError):
        PauliProduct(2, 1, 0, (2,), (0,))
    with pytest.raises(ValueError):
        PauliProduct(2, 2, 0, (0,), (0, 0))
    with pytest.raises(ValueError, match="z exponent 3 out of range"):
        PauliProduct(3, 1, 0, (0,), (3,))
