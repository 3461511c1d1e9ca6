import numpy as np
import pytest

import goldman.cocycles
from goldman import (Cocycle, ConditioningError, InputError,
                     anti_hermitian_part, coboundary, cocycle_basis,
                     cocycle_law_residual, extend, extend_ring, random_cocycle,
                     random_representation, real_locus_bases, relator_residual,
                     star_involution, word_jacobian)
from goldman.cli import main
from goldman.cocycles import CocycleBasis, cocycle_dimensions
from goldman.linalg import (ad_matrix, complement_dimension, complement_within, frob,
                            nullspace, row_space, split_singular_values, vec)
from goldman.reps import relator_tangent_matrix
from goldman.words import GroupRingElement


def indicator(rep, index):
    n = rep.rank
    values = [np.zeros((n, n), dtype=complex)
              for _ in range(rep.presentation.generator_count)]
    values[index] = np.eye(n, dtype=complex)
    return Cocycle(rep, tuple(values))


class TestExtend:
    def test_empty_word(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        value = extend(chi, chi.base.presentation.identity())
        assert frob(value) == 0.0

    def test_trivial_action_is_additive(self, trivial_scalar_rep):
        chi = indicator(trivial_scalar_rep, 0)
        pres = trivial_scalar_rep.presentation
        w = pres.a(1) * pres.b(1)
        assert np.allclose(extend(chi, w),
                           chi.values[0] + chi.values[1])

    def test_word_times_inverse_vanishes(self, basis_g2n2):
        rng = np.random.default_rng(20)
        chi = basis_g2n2.basis[3]
        pres = chi.base.presentation
        for _ in range(20):
            raw = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                   for _ in range(int(rng.integers(0, 8)))]
            w = pres.word(raw)
            assert frob(extend(chi, w * w.inverse())) < 1e-12

    def test_law_on_random_words(self, basis_g2n2):
        rng = np.random.default_rng(21)
        pres = basis_g2n2.base.presentation
        for chi in basis_g2n2.basis:
            for _ in range(100):
                raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                               for _ in range(int(rng.integers(0, 8)))]
                assert cocycle_law_residual(chi, pres.word(raw()), pres.word(raw())) < 1e-8

    def test_relator_constraint_on_basis(self, seeded_bases):
        for basis in seeded_bases.values():
            for chi in basis.basis:
                assert relator_residual(chi) < 1e-10


class TestWordJacobian:
    def test_matches_letterwise_extension(self, seeded_bases):
        rng = np.random.default_rng(60)
        for basis in seeded_bases.values():
            pres = basis.base.presentation
            chi = random_cocycle(basis, rng)
            for _ in range(10):
                raw = [(int(rng.integers(0, pres.generator_count)),
                        int(rng.choice([-1, 1]))) for _ in range(int(rng.integers(0, 12)))]
                word = pres.word(raw)
                lhs = word_jacobian(basis.base, word) @ chi.flat
                assert np.abs(lhs - vec(extend(chi, word))).max() < 1e-12

    def test_relator_is_fox_tangent_matrix(self, seeded_reps):
        reps = list(seeded_reps.values())
        reps.append(random_representation(3, 2, "general-linear", seed=6))
        for rep in reps:
            jac = word_jacobian(rep, rep.presentation.relator())
            fox = relator_tangent_matrix(rep.presentation, rep.images, rep.flavor)
            assert np.abs(jac - fox).max() < 1e-12

    def test_empty_word_is_zero(self, rep_g2n2):
        jac = word_jacobian(rep_g2n2, rep_g2n2.presentation.identity())
        assert jac.shape == (4, 16)
        assert not jac.any()

    def test_genus_mismatch(self, rep_g2n2):
        from goldman import Presentation

        with pytest.raises(InputError):
            word_jacobian(rep_g2n2, Presentation(3).a(1))


class TestExtendRing:
    def test_scaled_identity_word(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        pres = chi.base.presentation
        e = GroupRingElement.from_word(pres.identity(), 2)
        assert frob(extend_ring(chi, e)) == 0.0

    def test_linearity(self, basis_g2n2):
        chi = basis_g2n2.basis[1]
        pres = chi.base.presentation
        e = GroupRingElement.from_word(pres.a(1)) + GroupRingElement.from_word(pres.a(1))
        assert np.allclose(extend_ring(chi, e), 2 * extend(chi, pres.a(1)))

    def test_fox_derivative_on_indicator_trivial_action(self, trivial_scalar_rep):
        # brute expansion of dR/da1 = 1 - a1 b1 a1^-1 under the trivial action:
        # chi(1) = 0 and chi(a1 b1 a1^-1) = chi(a1) + chi(b1) - chi(a1) = 0
        pres = trivial_scalar_rep.presentation
        chi = indicator(trivial_scalar_rep, 0)
        value = extend_ring(chi, pres.relator_derivative(0))
        assert frob(value) < 1e-15

    def test_agrees_with_extend_on_single_word(self, basis_g2n2):
        chi = basis_g2n2.basis[2]
        pres = chi.base.presentation
        w = pres.a(2) * pres.b(1).inverse()
        assert np.allclose(extend_ring(chi, GroupRingElement.from_word(w)),
                           extend(chi, w))


class TestCoboundary:
    def test_zero_matrix(self, rep_g2n2):
        delta = coboundary(np.zeros((2, 2)), rep_g2n2)
        assert all(frob(v) == 0.0 for v in delta.values)

    def test_identity_matrix(self, rep_g2n2):
        delta = coboundary(np.eye(2), rep_g2n2)
        assert all(frob(v) < 1e-14 for v in delta.values)

    def test_trivial_action(self, trivial_scalar_rep):
        delta = coboundary(np.array([[2.5 + 1j]]), trivial_scalar_rep)
        assert all(frob(v) == 0.0 for v in delta.values)

    def test_satisfies_law_and_relator(self, rep_g2n2):
        rng = np.random.default_rng(22)
        pres = rep_g2n2.presentation
        for _ in range(10):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            delta = coboundary(v, rep_g2n2)
            assert relator_residual(delta) < 1e-12
            raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                           for _ in range(int(rng.integers(0, 8)))]
            assert cocycle_law_residual(delta, pres.word(raw()), pres.word(raw())) < 1e-12

    def test_linear(self, rep_g2n2):
        rng = np.random.default_rng(23)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = coboundary(v + 2j * w, rep_g2n2)
        rhs_v, rhs_w = coboundary(v, rep_g2n2), coboundary(w, rep_g2n2)
        for a, b, c in zip(lhs.values, rhs_v.values, rhs_w.values):
            assert frob(a - (b + 2j * c)) < 1e-13

    def test_image_inside_z1(self, basis_g2n2):
        rng = np.random.default_rng(24)
        frame = np.column_stack([c.flat for c in basis_g2n2.basis])
        for _ in range(20):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            flat = coboundary(v, basis_g2n2.base).flat
            residual = flat - frame @ (frame.conj().T @ flat)
            assert np.linalg.norm(residual) < 1e-10


class TestCocycleBasis:
    def test_trivial_scalar_dimensions(self, trivial_scalar_rep):
        dims = cocycle_basis(trivial_scalar_rep).dims
        assert dims == (4, 0, 4)

    def test_irreducible_g2n2(self, basis_g2n2):
        assert basis_g2n2.dims == (13, 3, 10)

    def test_genus_three_rank_two(self, seeded_bases):
        assert seeded_bases[(3, 2)].dims[2] == 18

    def test_formula_across_grid(self, seeded_bases):
        for (g, n), basis in seeded_bases.items():
            z1, b1, h1 = basis.dims
            assert h1 == (2 * g - 2) * n * n + 2
            assert z1 - b1 == h1

    def test_general_linear_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        assert cocycle_basis(rep).dims == (13, 3, 10)

    def test_basis_orthonormal(self, basis_g2n2):
        frame = np.column_stack([c.flat for c in basis_g2n2.basis])
        assert frob(frame.conj().T @ frame - np.eye(frame.shape[1])) < 1e-12

    def test_complement_orthogonal_to_coboundaries(self, basis_g2n2):
        comp = np.column_stack([c.flat for c in basis_g2n2.h1_complement])
        cob = np.column_stack([c.flat for c in basis_g2n2.coboundary_basis])
        assert np.abs(cob.conj().T @ comp).max() < 1e-12

    def test_h1_coordinates_kill_coboundaries(self, basis_g2n2):
        rng = np.random.default_rng(25)
        chi = random_cocycle(basis_g2n2, rng)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        shifted = chi + coboundary(v, basis_g2n2.base)
        delta = basis_g2n2.h1_coordinates(shifted) - basis_g2n2.h1_coordinates(chi)
        assert np.linalg.norm(delta) < 1e-12


def direct_frames(rep):
    """Z1, B1 and H1 frames built eagerly by nullspace and complement_within."""
    n = rep.rank
    z1 = nullspace(relator_tangent_matrix(rep.presentation, rep.images, rep.flavor))
    delta = np.vstack([ad_matrix(rep.image(i), rep.image(i, -1)) - np.eye(n * n)
                       for i in range(rep.presentation.generator_count)])
    u, svals, _ = np.linalg.svd(delta, full_matrices=False)
    b1 = u[:, :split_singular_values(svals)[0]]
    return z1, b1, complement_within(z1, b1)


def frame_of(cocycles):
    return np.column_stack([c.flat for c in cocycles])


def same_columns(cocycles, frame):
    return (len(cocycles) == frame.shape[1]
            and all(np.array_equal(c.flat, frame[:, j]) for j, c in enumerate(cocycles)))


class TestRankFirstDimensions:
    @pytest.mark.parametrize("genus, rank", [(2, 6), (3, 3)])
    def test_dims_never_build_a_basis(self, monkeypatch, capsys, genus, rank):
        def fail(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(goldman.cocycles, "nullspace", fail)
        monkeypatch.setattr(goldman.cocycles, "complement_within", fail)
        formula = (2 * genus - 2) * rank * rank + 2
        z1, b1, h1 = cocycle_basis(random_representation(genus, rank, seed=0)).dims
        assert h1 == formula
        assert z1 - b1 == h1
        assert main(["--genus", str(genus), "--rank", str(rank), "dims"]) == 0
        assert capsys.readouterr().out.endswith(f"H1={formula} formula={formula} MATCH\n")

    @pytest.mark.parametrize("genus, rank, flavor", [
        (1, 1, "unitary"), (2, 1, "unitary"), (2, 2, "unitary"), (2, 3, "unitary"),
        (3, 2, "unitary"), (2, 2, "general-linear"), (3, 2, "general-linear")])
    def test_lazy_bases_equal_the_direct_computation(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=3)
        basis = cocycle_basis(rep)
        assert "basis" not in vars(basis)
        z1, b1, h1 = direct_frames(rep)
        assert basis.dims == (z1.shape[1], b1.shape[1], h1.shape[1])
        assert same_columns(basis.basis, z1)
        assert same_columns(basis.coboundary_basis, b1)
        assert same_columns(basis.h1_complement, h1)

    def test_h1_coordinates_read_the_cached_frame(self, seeded_bases):
        rng = np.random.default_rng(31)
        for basis in seeded_bases.values():
            chi = random_cocycle(basis, rng)
            expected = frame_of(basis.h1_complement).conj().T @ chi.flat
            assert np.array_equal(basis.h1_coordinates(chi), expected)
            assert basis.h1_frame is basis.h1_frame

    def test_frames_are_read_only(self, basis_g2n2):
        for frame in (basis_g2n2.z1_frame, basis_g2n2.b1_frame, basis_g2n2.h1_frame):
            with pytest.raises(ValueError):
                frame[0, 0] = 1.0

    def test_basis_disagreeing_with_dims_raises_when_read(self, rep_g2n2, basis_g2n2):
        z1, b1, h1 = basis_g2n2.dims
        for dims, attr in [((z1 + 1, b1, h1 + 1), "basis"),
                           ((z1, b1, h1 - 1), "h1_complement")]:
            wrong = CocycleBasis(base=rep_g2n2, dims=dims,
                                 constraint=basis_g2n2.constraint,
                                 b1_frame=basis_g2n2.b1_frame)
            with pytest.raises(ConditioningError, match="rank decision"):
                getattr(wrong, attr)


def synthetic_pair(rng, q, z, b, tilts):
    """A constraint with nullspace Z (dim z) and an orthonormal B (b columns).

    The last len(tilts) columns of B leave Z by the given angles in
    degrees; the others lie inside Z.
    """
    def orthonormal(rows, cols):
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(g)[0]

    frame = orthonormal(q, q)
    inside, outside = frame[:, :z], frame[:, z:]
    angles = np.zeros(b)
    angles[b - len(tilts):] = np.radians(tilts)
    b_frame = (inside @ orthonormal(z, b) * np.cos(angles)
               + outside @ orthonormal(q - z, b) * np.sin(angles))
    return outside.conj().T, b_frame


class TestPrincipalAngleCount:
    @pytest.mark.parametrize("tilts", [(), (20,), (45,), (70,), (20, 45, 70), (70, 70)])
    def test_matches_complement_within(self, tilts):
        rng = np.random.default_rng(len(tilts) + sum(tilts))
        q, z, b = 24, 14, 5
        constraint, b_frame = synthetic_pair(rng, q, z, b, tilts)
        assert frob(b_frame.conj().T @ b_frame - np.eye(b)) < 1e-12
        row = row_space(constraint)
        kept = complement_within(nullspace(constraint), b_frame).shape[1]
        assert complement_dimension(row, b_frame) == kept
        escaped = sum(1 for t in tilts if t > 30)
        assert kept == z - b + escaped
        if escaped:
            with pytest.raises(ConditioningError, match="inconsistent dimensions"):
                cocycle_dimensions(row, b_frame)
        else:
            assert cocycle_dimensions(row, b_frame) == (z, b, z - b)

    def test_empty_coboundaries_and_full_rank_constraint(self):
        rng = np.random.default_rng(40)
        constraint, b_frame = synthetic_pair(rng, 10, 4, 3, ())
        row = row_space(constraint)
        assert complement_dimension(row, b_frame[:, :0]) == 4
        assert cocycle_dimensions(row, b_frame[:, :0]) == (4, 0, 4)
        no_rows = np.zeros((10, 0), dtype=complex)
        assert complement_dimension(no_rows, b_frame) == 7


class TestStarInvolution:
    def test_anti_hermitian_fixed_up_to_sign(self, rep_g2n2):
        rng = np.random.default_rng(26)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        anti = (z - z.conj().T) / 2
        chi = Cocycle(rep_g2n2, tuple(anti.copy() for _ in range(4)))
        starred = star_involution(chi)
        for a, b in zip(starred.values, chi.values):
            assert frob(a + b) < 1e-14

    def test_involution(self, basis_g2n2):
        rng = np.random.default_rng(27)
        chi = random_cocycle(basis_g2n2, rng)
        again = star_involution(star_involution(chi))
        for a, b in zip(again.values, chi.values):
            assert frob(a - b) == 0.0

    def test_star_of_coboundary(self, rep_g2n2):
        rng = np.random.default_rng(28)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = star_involution(coboundary(v, rep_g2n2))
        rhs = coboundary(v.conj().T, rep_g2n2)
        for a, b in zip(lhs.values, rhs.values):
            assert frob(a - b) < 1e-13

    def test_star_preserves_cocycle_law(self, basis_g2n2):
        rng = np.random.default_rng(29)
        pres = basis_g2n2.base.presentation
        chi = star_involution(random_cocycle(basis_g2n2, rng))
        raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(0, 8)))]
        for _ in range(50):
            assert cocycle_law_residual(chi, pres.word(raw()), pres.word(raw())) < 1e-10

    def test_requires_unitary_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        chi = random_cocycle(cocycle_basis(rep), np.random.default_rng(0))
        with pytest.raises(InputError):
            star_involution(chi)


class TestRealLocus:
    def test_dimensions(self, seeded_bases):
        for (g, n), basis in seeded_bases.items():
            z1_real, h1_real = real_locus_bases(basis)
            assert len(z1_real) == basis.dims[0]
            assert len(h1_real) == basis.dims[2]

    def test_values_anti_hermitian(self, basis_g2n2):
        z1_real, h1_real = real_locus_bases(basis_g2n2)
        for chi in z1_real + h1_real:
            for m in chi.values:
                assert frob(m + m.conj().T) < 1e-12

    def test_anti_hermitian_part_is_cocycle(self, basis_g2n2):
        rng = np.random.default_rng(30)
        chi = anti_hermitian_part(random_cocycle(basis_g2n2, rng))
        assert relator_residual(chi) < 1e-10


class TestBaseMismatch:
    def test_cocycle_addition_rejects_mismatch(self, rep_g2n2):
        other = random_representation(2, 2, "unitary", seed=99)
        chi1 = indicator(rep_g2n2, 0)
        chi2 = indicator(other, 0)
        with pytest.raises(InputError):
            chi1 + chi2

    def test_value_shape_checked(self, rep_g2n2):
        with pytest.raises(InputError):
            Cocycle(rep_g2n2, tuple(np.zeros((3, 3)) for _ in range(4)))
        with pytest.raises(InputError):
            Cocycle(rep_g2n2, tuple(np.zeros((2, 2)) for _ in range(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_value_rejected(self, rep_g2n2, bad):
        values = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        values[2][1, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            Cocycle(rep_g2n2, tuple(values))
