"""The package's own matrix exponential and unitary eigenframe, against
scipy.linalg as the reference."""

import numpy as np
import pytest
import scipy.linalg

from goldman import InputError, commutator_factor, tolerances
from goldman.linalg import expm, frob, haar_unitary, unitary_eigenframe

# Higham's thresholds theta_m for the Padé degrees 3, 5, 7, 9 and 13
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068e0, 5.371920351148152e0)
# 1-norms from zero to 20, just below and above every theta_m
NORMS = sorted({0.0, 1e-9, 1e-6, 1e-3, 1.0, 10.0, 20.0}
               | {theta * f for theta in THETAS for f in (0.99, 1.01)})


def with_one_norm(rng, n, norm, shape=()):
    a = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[..., None, None]


class TestExpm:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(100 + n)
        for norm in NORMS:
            for _ in range(3):
                a = with_one_norm(rng, n, norm)
                reference = scipy.linalg.expm(a)
                assert frob(expm(a) - reference) <= 1e-13 * frob(reference)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, n, bad):
        a = np.zeros((2, n, n), dtype=complex)
        a[1, 0, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            expm(a)

    def test_real_input_stays_real(self):
        a = np.random.default_rng(1).standard_normal((3, 3))
        result = expm(a)
        assert result.dtype == np.float64
        assert frob(result - scipy.linalg.expm(a)) <= 1e-13 * frob(result)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_zero_is_exactly_identity(self, n):
        assert np.array_equal(expm(np.zeros((n, n), dtype=complex)), np.eye(n))
        assert np.array_equal(expm(np.zeros((4, n, n))), np.broadcast_to(np.eye(n), (4, n, n)))

    def test_stack_equals_per_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            count, n = rng.integers(1, 7), rng.integers(1, 6)
            # one norm per matrix, so a stack mixes Padé degrees and scalings
            norms = 10.0 ** rng.uniform(-9, np.log10(20), size=count)
            stack = np.stack([with_one_norm(rng, n, norm) for norm in norms])
            result = expm(stack)
            for matrix, value in zip(stack, result):
                assert np.array_equal(value, expm(matrix))

    def test_leading_axes_and_layout(self):
        rng = np.random.default_rng(8)
        stack = with_one_norm(rng, 3, 2.0, shape=(2, 3))
        result = expm(stack)
        assert result.shape == (2, 3, 3, 3)
        for index in np.ndindex(2, 3):
            # a transposed view exponentiates as its contiguous copy does
            assert np.array_equal(expm(stack[index].T),
                                  expm(np.ascontiguousarray(stack[index].T)))
            assert np.array_equal(result[index], expm(stack[index]))


def conjugated_spectrum(rng, eigenvalues):
    q = haar_unitary(rng, len(eigenvalues))
    return q @ np.diag(eigenvalues) @ q.conj().T


def special_unitary(rng, n):
    u = haar_unitary(rng, n)
    return u * np.linalg.det(u) ** (-1.0 / n)


class TestUnitaryEigenframe:
    def cases(self):
        rng = np.random.default_rng(21)
        cases = [special_unitary(rng, n) for n in (2, 3, 4, 6) for _ in range(5)]
        cases += [np.eye(n, dtype=complex) for n in (2, 3, 4)]
        # repeated eigenvalues, determinant one, turned by a Haar unitary
        w = np.exp(2j * np.pi / 3)
        for spectrum in ([1j, 1j, -1j, -1j], [w, w, w], [1j, 1j, 1j, 1j, -1, -1],
                         [1, 1, 1j, -1j]):
            cases += [conjugated_spectrum(rng, spectrum) for _ in range(5)]
        return cases

    def test_orthonormal_eigenbasis(self):
        for u in self.cases():
            lam, v = unitary_eigenframe(u)
            n = len(u)
            assert frob(v.conj().T @ v - np.eye(n)) <= 1e-13
            assert frob(v @ np.diag(lam) @ v.conj().T - u) <= 1e-13

    def test_phase_rule(self):
        for u in self.cases():
            _, v = unitary_eigenframe(u)
            pivot = v[np.abs(v).argmax(axis=0), np.arange(len(u))]
            assert np.all(pivot.real > 0)
            assert np.all(np.abs(pivot.imag) <= 1e-15)

    def test_commutator_factor_residual(self):
        for u in self.cases():
            a, b = commutator_factor(u)
            residual = frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u)
            assert residual <= tolerances.CONSTRUCTION
