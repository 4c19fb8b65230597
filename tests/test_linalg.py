import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistchain.linalg import (
    MAX_EIG_DIM,
    MatrixPolynomial,
    determinant,
    eigenpairs,
    eigenvalues,
    kron_chain,
)
from twistchain.solver import probe_points

from conftest import draw_points, random_context

RNG = np.random.default_rng(7)


def _rand(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@given(st.integers(0, 1000))
def test_kron_associative_on_integer_matrices(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(-3, 4, (2, 2)) for _ in range(3))
    assert np.array_equal(kron_chain([a, b, c]), np.kron(np.kron(a, b), c))
    assert np.array_equal(kron_chain([a, b, c]), np.kron(a, np.kron(b, c)))


@given(st.integers(0, 200))
def test_determinant_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
    b = rng.uniform(-1, 1, (6, 6)) + 1j * rng.uniform(-1, 1, (6, 6))
    lhs = determinant(a @ b)
    rhs = determinant(a) * determinant(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_eigenpairs_residual_and_order():
    m = _rand(12)
    pairs = eigenpairs(m)
    assert len(pairs) == 12
    scale = np.linalg.norm(m)
    for value, vec in pairs:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.linalg.norm(m @ vec - value * vec) <= 1e-8 * scale
    keys = [(value.real, value.imag) for value, _ in pairs]
    assert keys == sorted(keys)


def test_eigenpairs_dimension_guard():
    with pytest.raises(ValueError):
        eigenpairs(np.zeros((MAX_EIG_DIM + 1, MAX_EIG_DIM + 1)))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((MAX_EIG_DIM + 1, MAX_EIG_DIM + 1)))


def test_eigenvalues_are_the_values_of_eigenpairs_in_order():
    # without the eigenvectors LAPACK takes another path to the same values;
    # on a transfer matrix they agree to roundoff and sort the same way
    rng = np.random.default_rng(29)
    for sites in range(1, 7):
        ctx = random_context(rng, sites)
        t = ctx.transfer(probe_points(ctx, 1)[0])
        want = np.array([value for value, _ in eigenpairs(t)])
        got = eigenvalues(t)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, sites
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))


def test_matrix_polynomial_evaluates_by_horner():
    coeffs = [_rand(3) for _ in range(4)]
    p = MatrixPolynomial(coeffs)
    assert p.degree == 3
    assert p.dim == 3
    for u in (0.3, -1.2 + 0.4j, 2.0j):
        direct = sum(c * u**k for k, c in enumerate(coeffs))
        assert np.allclose(p(u), direct, atol=1e-12)


def test_matrix_polynomial_unit_scales_the_variable():
    # coeffs[k] multiplies (u / unit)**k; a unit of 1 is the plain power basis
    coeffs = [_rand(2) for _ in range(5)]
    for unit in (1.0, 0.3 - 2.0j, 1e300):
        p = MatrixPolynomial(coeffs, unit)
        assert p.unit == complex(unit)
        for u in unit * draw_points(np.random.default_rng(30), 3):
            direct = sum(c * (u / unit) ** k for k, c in enumerate(coeffs))
            assert np.linalg.norm(p(u) - direct) <= 1e-14 * np.linalg.norm(direct)
    with pytest.raises(ValueError):
        MatrixPolynomial(coeffs, 0.0)


def test_matrix_polynomial_never_aliases_writable_input():
    coeffs = np.stack([_rand(2) for _ in range(3)])
    p = MatrixPolynomial(coeffs)
    assert not np.shares_memory(p.coeffs, coeffs)
    assert not p.coeffs.flags.writeable
    # a read-only view of a writable array is copied too
    view = coeffs[:]
    view.setflags(write=False)
    assert not np.shares_memory(MatrixPolynomial(view).coeffs, coeffs)
    # a read-only array that owns its memory is kept as it is
    frozen = coeffs.copy()
    frozen.setflags(write=False)
    assert MatrixPolynomial(frozen).coeffs is frozen


def test_matrix_polynomial_evaluation_does_not_alias():
    # Horner runs in place on its accumulator; that accumulator is a fresh
    # array every call, never a coefficient or a view of the stack
    stack = np.array(np.stack([_rand(3) for _ in range(8)]).reshape(2, 4, 3, 3))
    stack.setflags(write=False)
    before = stack.copy()
    for coeffs in (stack[1], stack[1, :1]):
        p = MatrixPolynomial(coeffs)
        assert p.coeffs.base is stack
        first, second = p(0.4 - 1.1j), p(0.4 - 1.1j)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        for value in (first, second):
            assert value.flags.writeable
            assert not np.shares_memory(value, stack)
        first += 1.0
        assert np.array_equal(p(0.4 - 1.1j), second)
    assert not stack.flags.writeable
    assert np.array_equal(stack, before)
