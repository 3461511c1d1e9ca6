"""The package's own matrix exponential and unitary eigenframe, against
scipy.linalg as the reference, and the u(n) real form against a dense
change of basis in its coordinates A + S, with the inverse of those
coordinates."""

import numpy as np
import pytest
import scipy.linalg

from goldman import (ConditioningError, InputError, commutator_factor, random_representation,
                     tolerances)
from goldman.linalg import (ad_matrix, complex_array, complex_gaussian, complex_gaussians, expm,
                            frob, frobs, haar_stack, haar_unitary, real_array, tuple_distance,
                            unitary_eigenframe, unitary_real_form, unitary_values, vec)
from goldman.reps import coboundary_matrix, relator_tangent_matrix

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


def per_round_gaussian(rng, shape):
    """The per-sample complex draw: the real block, then the imaginary one."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def per_matrix_haar(rng, n):
    """The per-sample Haar draw: the QR of one Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(per_round_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


SHAPE_MIXES = [((),), ((5,),), ((3, 3),), ((7,), (7,), (2, 2)), ((4,), (4,), (4,), ()),
               ((2, 2), (2, 2), (2, 2)), (6, (), (3, 3), 6)]


class TestStackedDraws:
    """complex_gaussians and haar_stack read the stream of their per-round
    draws, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shapes", SHAPE_MIXES, ids=str)
    def test_rounds_are_per_sample_draws(self, seed, shapes):
        count = 9
        stacked_rng = np.random.default_rng(seed)
        stacked = complex_gaussians(stacked_rng, count, shapes)
        rng = np.random.default_rng(seed)
        rounds = [[per_round_gaussian(rng, shape) for shape in shapes] for _ in range(count)]
        assert len(stacked) == len(shapes)
        for index, array in enumerate(stacked):
            reference = np.array([draws[index] for draws in rounds])
            assert array.shape == reference.shape
            assert np.array_equal(array, reference)
        # both streams go on from the same place
        assert stacked_rng.standard_normal() == rng.standard_normal()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", [(), 4, (4,), (2, 3)])
    def test_one_round_is_complex_gaussian(self, seed, shape):
        one = complex_gaussian(np.random.default_rng(seed), shape)
        reference = per_round_gaussian(np.random.default_rng(seed), shape)
        assert np.shape(one) == np.shape(reference)
        assert np.array_equal(one, reference)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_haar_stack_is_per_matrix_haar(self, seed, n):
        (gaussians,) = complex_gaussians(np.random.default_rng(seed), 11, ((n, n),))
        stacked = haar_stack(gaussians)
        rng = np.random.default_rng(seed)
        reference = [per_matrix_haar(rng, n) for _ in range(11)]
        assert np.array_equal(stacked, np.array(reference))
        rng = np.random.default_rng(seed)
        assert np.array_equal(stacked, np.array([haar_unitary(rng, n) for _ in range(11)]))


class TestStackedFactors:
    """unitary_eigenframe and commutator_factor on a stack equal their
    one-matrix calls bit for bit, and check every matrix of it."""

    def stacks(self, n, seed):
        rng = np.random.default_rng(seed)
        unitary = np.array([special_unitary(rng, n) for _ in range(9)])
        general = np.array([haar_unitary(rng, n) + 0.3 * complex_gaussian(rng, (n, n))
                            for _ in range(9)])
        general = general * (np.linalg.det(general) ** (-1.0 / n))[:, None, None]
        return unitary, general

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eigenframe_stack_is_per_matrix(self, n):
        unitary, _ = self.stacks(n, 30 + n)
        lam, v = unitary_eigenframe(unitary.reshape(3, 3, n, n))
        assert lam.shape == (3, 3, n) and v.shape == (3, 3, n, n)
        for u, lam_u, v_u in zip(unitary, lam.reshape(9, n), v.reshape(9, n, n)):
            one_lam, one_v = unitary_eigenframe(u)
            assert np.array_equal(lam_u, one_lam)
            assert np.array_equal(v_u, one_v)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_factor_stack_is_per_matrix(self, n):
        for stack, unitary in zip(self.stacks(n, 40 + n), (True, False)):
            a, b = commutator_factor(stack, unitary=unitary)
            assert a.shape == b.shape == stack.shape
            for m, a_m, b_m in zip(stack, a, b):
                one_a, one_b = commutator_factor(m, unitary=unitary)
                assert np.array_equal(a_m, one_a)
                assert np.array_equal(b_m, one_b)

    @pytest.mark.parametrize("unitary", [True, False])
    def test_one_bad_determinant_refuses_the_stack(self, unitary):
        stack = self.stacks(3, 50)[0].copy()
        stack[4] = 1j * stack[4]  # determinant -i: still unitary
        with pytest.raises(InputError, match="determinant"):
            commutator_factor(stack, unitary=unitary)

    def test_one_non_unitary_matrix_refuses_the_stack(self):
        stack = self.stacks(2, 51)[0].copy()
        stack[2] = np.array([[2.0, 0.0], [0.0, 0.5]])
        with pytest.raises(InputError, match="not unitary"):
            commutator_factor(stack)

    def test_one_defective_matrix_is_a_conditioning_error(self):
        stack = self.stacks(2, 52)[1].copy()
        stack[6] = np.array([[1.0, 1.0], [0.0, 1.0]])  # a Jordan block, determinant one
        with pytest.raises(ConditioningError, match="residual"):
            commutator_factor(stack, unitary=False)

    @pytest.mark.parametrize("bad", [np.zeros((3, 2, 3)), np.zeros(4), "x", [[1, 2], [3]]],
                             ids=["non-square", "vector", "string", "ragged"])
    def test_malformed_stacks_are_input_errors(self, bad):
        with pytest.raises(InputError, match="matrices to factor"):
            commutator_factor(bad)

    def test_one_non_finite_matrix_refuses_the_stack(self):
        stack = self.stacks(2, 53)[0].copy()
        stack[3, 1, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            commutator_factor(stack)


class TestRealArray:
    @pytest.mark.parametrize("values", [[1, 2], (True, 0.5), np.arange(3), [np.nan, 1e300]])
    def test_real_numbers_become_a_float_copy(self, values):
        array = real_array(values, "coordinates")
        assert array.dtype == float
        assert np.array_equal(array, np.asarray(values, dtype=float), equal_nan=True)
        assert not np.shares_memory(array, values)

    @pytest.mark.parametrize("values", [["x", 1.0], "0.5", [1j, 0.0], [None, 1.0],
                                        [[1.0, 2.0], [3.0]]],
                             ids=["string-entry", "string", "complex", "object", "ragged"])
    def test_anything_else_is_an_input_error(self, values):
        with pytest.raises(InputError, match="coordinates"):
            real_array(values, "coordinates")


def frob_bits(values):
    """The float64 bit patterns of a list of norms."""
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


class TestFrobs:
    """frobs is frob matrix by matrix, bit for bit, in one call."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_equals_frob_of_each_matrix(self, n, count, kind):
        rng = np.random.default_rng([n, count])
        for scale in (1e-300, 1e-160, 1e-16, 1.0, 1e2, 1e160, 1e300):
            stack = rng.standard_normal((count, n, n))
            if kind == "complex":
                stack = stack + 1j * rng.standard_normal((count, n, n))
            stack = scale * stack
            with np.errstate(over="ignore", under="ignore"):  # squares past the range
                expected, norms = [frob(m) for m in stack], frobs(stack)
            assert norms == expected
            assert frob_bits(norms) == frob_bits(expected)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries(self, kind, bad):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((7, 3, 3)) * (1j if kind == "complex" else 1.0)
        stack[2, 1, 0] = bad
        stack[5] = bad
        with np.errstate(invalid="ignore"):
            norms, expected = frobs(stack), [frob(m) for m in stack]
        assert [np.isnan(x) for x in norms] == [np.isnan(x) for x in expected]
        assert [x for x in norms if x == x] == [x for x in expected if x == x]
        assert np.isnan(norms[2]) == (bad != bad) and np.isnan(norms[5]) == (bad != bad)

    @pytest.mark.parametrize("layout", ["transposed", "reversed", "strided",
                                        "stack-innermost", "vectors"])
    def test_every_memory_layout(self, layout):
        # np.linalg.norm reads each matrix in memory order, and so does frobs
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((20, 6, 6)) + 1j * rng.standard_normal((20, 6, 6))
        view = {"transposed": lambda s: np.swapaxes(s, -1, -2),
                "reversed": lambda s: s[::-1, :, ::-1],
                "strided": lambda s: s[:, 1:, ::2],
                "stack-innermost": lambda s: np.ascontiguousarray(
                    s.transpose(1, 2, 0)).transpose(2, 0, 1),
                "vectors": lambda s: s.reshape(20, -1)}[layout](stack)
        assert frob_bits(frobs(view)) == frob_bits([frob(m) for m in view])

    def test_integer_input_and_empty_stacks(self):
        stack = np.arange(24).reshape(2, 3, 4)
        assert frobs(stack) == [frob(m) for m in stack]
        assert frobs(np.zeros((0, 3, 3))) == []
        assert frobs(np.zeros((0, 2, 2), dtype=complex)) == []


class TestTupleDistance:
    @pytest.mark.parametrize("count, n", [(4, 1), (4, 2), (6, 3), (8, 5)])
    def test_is_the_python_sum_of_squared_frobs(self, count, n):
        rng = np.random.default_rng([count, n])
        a, b = (rng.standard_normal((2, count, n, n))
                + 1j * rng.standard_normal((2, count, n, n)))
        expected = float(np.sqrt(sum(frob(m) ** 2 for m in a - b)))
        distance = tuple_distance(a, b)
        assert type(distance) is float
        assert frob_bits([distance]) == frob_bits([expected])
        assert tuple_distance(a, a) == 0.0


class TestComplexArray:
    def test_is_a_complex_copy_in_memory_order(self):
        values = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        array = complex_array(values, "values")
        assert array.dtype == complex and np.array_equal(array, values)
        assert array.flags.f_contiguous and not np.shares_memory(array, values)

    @pytest.mark.parametrize("values", ["x", [[1, 2], [3]], [object()]],
                             ids=["string", "ragged", "object"])
    def test_refuses_what_is_not_numbers(self, values):
        with pytest.raises(InputError, match="values do not form one stack"):
            complex_array(values, "values")


def dense_u_basis(n):
    """The orthonormal u(n) basis T of the earlier real form (a reference
    for singular values) as one dense (n^2, n^2) matrix of column-stacked
    elements, in its order: (E_jk - E_kj)/sqrt 2, i E_jj,
    i (E_jk + E_kj)/sqrt 2, j < k in row order."""
    def unit(j, k):
        e = np.zeros((n, n), dtype=complex)
        e[j, k] = 1
        return e

    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    elements = ([(unit(j, k) - unit(k, j)) / np.sqrt(2) for j, k in pairs]
                + [1j * unit(j, j) for j in range(n)]
                + [1j * (unit(j, k) + unit(k, j)) / np.sqrt(2) for j, k in pairs])
    return np.column_stack([vec(e) for e in elements])


def dense_as_basis(n):
    """The u(n) basis of unitary_real_form's coordinates A + S as one dense
    (n^2, n^2) matrix: column j + k n is vec(((1 + i) E_jk - (1 - i) E_kj) / 2),
    the element whose coordinates are the unit matrix E_jk."""
    units = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)  # units[j + k n] = E_jk
    elements = ((1 + 1j) * units - (1 - 1j) * units.transpose(0, 2, 1)) / 2
    return np.column_stack([vec(e) for e in elements])


def dense_form(m, n, basis=dense_u_basis):
    """basis^H m basis on every n^2 x n^2 block of m, by dense products."""
    t = basis(n)
    p, q = m.shape[0] // n ** 2, m.shape[1] // n ** 2
    return np.kron(np.eye(p), t).conj().T @ m @ np.kron(np.eye(q), t)


def u_preserving(rng, n, p, q):
    """A complex (p n^2, q n^2) matrix mapping u(n)^q into u(n)^p: every
    block a real combination of three ad_matrix blocks of Haar unitaries."""
    u = np.array([haar_unitary(rng, n) for _ in range(3 * p * q)]).reshape(p, q, 3, n, n)
    weights = rng.standard_normal((p, q, 3, 1, 1))
    blocks = (weights * ad_matrix(u, u.conj().swapaxes(-1, -2))).sum(axis=2)
    return np.block([[blocks[i, j] for j in range(q)] for i in range(p)])


class TestUnitaryRealForm:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_basis_is_orthonormal_anti_hermitian(self, n):
        for t in (dense_u_basis(n), dense_as_basis(n)):
            assert frob(t.conj().T @ t - np.eye(n * n)) < 1e-14
            elements = t.T.reshape(n * n, n, n).transpose(0, 2, 1)
            assert frob(elements + elements.conj().transpose(0, 2, 1)) == 0.0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_coordinates_are_an_isometry(self, n):
        """X = A + iS -> A + S preserves the norm, and
        ((1 + i) Y - (1 - i) Y^T) / 2 takes the coordinates back to X."""
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = complex_gaussian(rng, (n, n))
            x -= x.conj().T
            y = x.real + x.imag
            assert abs(frob(y) - frob(x)) <= 1e-15 * frob(x)
            back = ((1 + 1j) * y - (1 - 1j) * y.T) / 2
            assert frob(back - x) <= 1e-15 * frob(x)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p, q", [(1, 1), (1, 4), (4, 1), (2, 3)])
    def test_equals_the_dense_real_part(self, n, p, q):
        rng = np.random.default_rng(10 * n + p + q)
        m = u_preserving(rng, n, p, q)
        form = unitary_real_form(m, n)
        assert form.dtype == float and form.shape == m.shape
        full = dense_form(m, n, dense_as_basis)
        assert frob(full.imag) <= 1e-14 * frob(m)
        assert np.max(np.abs(form - full.real)) <= 1e-14 * np.max(np.abs(full.real))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_form_of_one_ad_block_is_orthogonal(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            u = haar_unitary(rng, n)
            form = unitary_real_form(ad_matrix(u, u.conj().T), n)
            assert frob(form.T @ form - np.eye(n * n)) <= 1e-14

    def test_reads_a_non_contiguous_matrix(self):
        m = complex_gaussian(np.random.default_rng(4), (8, 4)).T
        assert np.array_equal(unitary_real_form(m, 2),
                              unitary_real_form(np.ascontiguousarray(m), 2))

    @pytest.mark.parametrize("genus, rank, seed", [(1, 3, 0), (2, 2, 1), (2, 5, 2), (3, 3, 3),
                                                   (2, 8, 4)])
    def test_constraint_and_coboundaries_are_real_at_unitary_points(self, genus, rank, seed):
        rep = random_representation(genus, rank, "unitary", seed=seed)
        for m in (relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images),
                  coboundary_matrix(rep)):
            full = dense_form(m, rank, dense_as_basis)
            assert frob(full.imag) <= 1e-14 * frob(m)
            assert np.max(np.abs(unitary_real_form(m, rank) - full.real)) <= 1e-14 * frob(m)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 8])
    def test_singular_values_equal_the_t_basis_form(self, genus, rank):
        rep = random_representation(genus, rank, "unitary", seed=genus + rank)
        for m in (relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images),
                  coboundary_matrix(rep)):
            svals = np.linalg.svd(unitary_real_form(m, rank), compute_uv=False)
            reference = np.linalg.svd(dense_form(m, rank).real, compute_uv=False)
            assert np.max(np.abs(svals - reference)) <= 1e-14 * max(reference[0], 1.0)


def anti_hermitian_columns(rng, n, p, k, scale=None):
    """k random columns of u(n)^p, each the column-stacked vec of p
    anti-Hermitian n x n blocks; entries on the grid 2^-scale when scale
    is given, where sums and halves are exact."""
    x = complex_gaussian(rng, (k, p, n, n))
    if scale is not None:
        x = np.round(x * 2.0 ** scale) / 2.0 ** scale
    x -= x.conj().swapaxes(-1, -2)
    return x.swapaxes(-1, -2).reshape(k, p * n * n).T


def blocks_of(columns, n):
    """The n x n blocks of column-stacked columns, as (k, p, n, n) matrices."""
    return columns.T.reshape(columns.shape[1], -1, n, n).swapaxes(-1, -2)


class TestUnitaryValues:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("p", [1, 4])
    def test_inverts_the_coordinates_bit_for_bit(self, n, p):
        """On a grid where the arithmetic is exact, the values of the
        coordinates A + S = Re X + Im X of an anti-Hermitian X are X."""
        x = anti_hermitian_columns(np.random.default_rng(n + p), n, p, 6, scale=20)
        assert np.array_equal(unitary_values(x.real + x.imag, n), x)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_coordinates_of_the_values_are_the_input(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((3 * n * n, 7))
        x = unitary_values(y, n)
        assert x.dtype == complex and x.shape == y.shape
        assert np.max(np.abs(x.real + x.imag - y)) <= 1e-15 * np.max(np.abs(y))
        x = anti_hermitian_columns(rng, n, 3, 7)
        back = unitary_values(x.real + x.imag, n)
        assert np.max(np.abs(back - x)) <= 1e-15 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_values_are_anti_hermitian_bit_for_bit(self, n):
        y = np.random.default_rng(n).standard_normal((4 * n * n, 5))
        blocks = blocks_of(unitary_values(y, n), n)
        assert not np.any(blocks + blocks.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_is_an_isometry(self, n):
        """Real-orthonormal coordinates give values orthonormal under
        Re <X, X'>, and every norm is kept."""
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((4 * n * n, 2 * n)))
        x = unitary_values(q, n)
        assert frob((x.conj().T @ x).real - np.eye(2 * n)) <= 1e-14
        y = rng.standard_normal((4 * n * n, 3))
        assert np.allclose(np.linalg.norm(unitary_values(y, n), axis=0),
                           np.linalg.norm(y, axis=0), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("p, q", [(1, 1), (1, 4), (4, 1), (2, 3)])
    def test_real_form_acts_on_the_coordinates(self, n, p, q):
        """unitary_real_form(m) y is the coordinates of m applied to the
        values of y: the two maps are the two sides of one change of basis."""
        rng = np.random.default_rng(10 * n + p + q)
        m = u_preserving(rng, n, p, q)
        y = rng.standard_normal((q * n * n, 4))
        z = m @ unitary_values(y, n)
        form = unitary_real_form(m, n) @ y
        assert np.max(np.abs(form - (z.real + z.imag))) <= 1e-14 * frob(m) * frob(y)
