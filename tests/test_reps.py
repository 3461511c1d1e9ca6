import numpy as np
import pytest

from goldman import (ConvergenceError, InputError, Presentation, Representation,
                     commutant_dimension, commutator_factor, conjugate_representation,
                     evaluate, newton_project, random_representation, relator_defect)
from goldman.linalg import frob, haar_unitary


def reconstruction_error(a, b, u):
    return frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u)


class TestEvaluate:
    def test_empty_word(self, rep_g2n2):
        assert np.array_equal(evaluate(rep_g2n2, rep_g2n2.presentation.identity()),
                              np.eye(2))

    def test_relator_near_identity(self, rep_g2n2):
        r = evaluate(rep_g2n2, rep_g2n2.presentation.relator())
        assert frob(r - np.eye(2)) <= 1e-10

    def test_word_times_inverse(self, rep_g2n2):
        rng = np.random.default_rng(4)
        pres = rep_g2n2.presentation
        for _ in range(20):
            raw = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                   for _ in range(int(rng.integers(0, 10)))]
            w = pres.word(raw)
            assert frob(evaluate(rep_g2n2, w * w.inverse()) - np.eye(2)) < 1e-13

    def test_multiplicative(self, rep_g2n2):
        rng = np.random.default_rng(5)
        pres = rep_g2n2.presentation
        for _ in range(100):
            raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                           for _ in range(int(rng.integers(0, 8)))]
            u, v = pres.word(raw()), pres.word(raw())
            lhs = evaluate(rep_g2n2, u * v)
            rhs = evaluate(rep_g2n2, u) @ evaluate(rep_g2n2, v)
            assert frob(lhs - rhs) / max(1.0, frob(rhs)) < 1e-12

    def test_partial_relator_determinants(self, seeded_reps):
        for rep in seeded_reps.values():
            for k in range(rep.genus + 1):
                det = np.linalg.det(evaluate(rep, rep.presentation.relator(k)))
                assert abs(det - 1.0) <= 1e-10


class TestCommutatorFactor:
    def test_identity_input(self):
        a, b = commutator_factor(np.eye(3))
        assert reconstruction_error(a, b, np.eye(3)) < 1e-12

    def test_two_by_two_example(self):
        # diag(i, -i) = [P, E] with P the swap and E = diag(1, i)
        u = np.diag([1j, -1j])
        a, b = commutator_factor(u)
        assert reconstruction_error(a, b, u) < 1e-14
        p = np.array([[0, 1], [1, 0]], dtype=complex)
        e = np.diag([1.0, 1j])
        assert frob(p @ e @ np.linalg.inv(p) @ np.linalg.inv(e) - u) < 1e-15

    def test_random_special_unitary(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = haar_unitary(rng, 3)
            u = u * np.linalg.det(u) ** (-1 / 3)
            a, b = commutator_factor(u)
            assert reconstruction_error(a, b, u) < 1e-10
            # unitary inputs give unitary factors
            assert frob(a.conj().T @ a - np.eye(3)) < 1e-12
            assert frob(b.conj().T @ b - np.eye(3)) < 1e-12

    def test_seeded_draws_all_ranks(self):
        rng = np.random.default_rng(7)
        count = 0
        for n in (2, 3, 4):
            for _ in range(17):
                u = haar_unitary(rng, n)
                u = u * np.linalg.det(u) ** (-1.0 / n)
                a, b = commutator_factor(u)
                assert reconstruction_error(a, b, u) < 1e-10
                m = haar_unitary(rng, n) + 0.3 * (rng.standard_normal((n, n))
                                                  + 1j * rng.standard_normal((n, n)))
                m = m * np.linalg.det(m) ** (-1.0 / n)
                a, b = commutator_factor(m, unitary=False)
                assert reconstruction_error(a, b, m) < 1e-10
                count += 2
        assert count >= 100

    def test_determinant_precondition(self):
        with pytest.raises(InputError):
            commutator_factor(2.0 * np.eye(2), unitary=False)

    def test_degenerate_eigenvalues(self):
        # repeated eigenvalue clusters keep an orthonormal eigenbasis
        u = np.diag([1j, 1j, -1j, -1j]).astype(complex)
        assert abs(np.linalg.det(u) - 1.0) < 1e-14
        a, b = commutator_factor(u)
        assert reconstruction_error(a, b, u) < 1e-12


class TestRandomRepresentation:
    def test_rank_one_unitary(self):
        rep = random_representation(2, 1, "unitary", seed=3)
        for m in rep.images:
            assert abs(abs(m[0, 0]) - 1.0) < 1e-14
        assert relator_defect(rep) < 1e-13

    def test_seed_42_defect(self):
        rep = random_representation(2, 2, "unitary", seed=42)
        assert relator_defect(rep) < 1e-12

    def test_general_linear_irreducible(self):
        rep = random_representation(3, 3, "general-linear", seed=1)
        assert relator_defect(rep) < 1e-12
        assert commutant_dimension(rep) == 1

    def test_reproducible(self):
        one = random_representation(2, 2, "unitary", seed=9)
        two = random_representation(2, 2, "unitary", seed=9)
        for a, b in zip(one.images, two.images):
            assert np.array_equal(a, b)
        assert one.fingerprint == two.fingerprint

    def test_different_seeds_differ(self):
        one = random_representation(2, 2, "unitary", seed=1)
        two = random_representation(2, 2, "unitary", seed=2)
        assert one.fingerprint != two.fingerprint

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(InputError, match="seed"):
            random_representation(2, 2, seed=seed)

    def test_construction_quality_grid(self, seeded_reps):
        for rep in seeded_reps.values():
            assert relator_defect(rep) <= 1e-12
            assert commutant_dimension(rep) == 1

    def test_unitary_images(self, seeded_reps):
        for rep in seeded_reps.values():
            for m in rep.images:
                assert frob(m.conj().T @ m - np.eye(rep.rank)) <= 1e-10


class TestCommutantDimension:
    def test_trivial_representation(self):
        pres = Presentation(2)
        rep = Representation(pres, 2, tuple(np.eye(2, dtype=complex) for _ in range(4)),
                             "unitary")
        assert commutant_dimension(rep) == 4

    def test_sum_of_distinct_characters(self):
        pres = Presentation(2)
        images = []
        rng = np.random.default_rng(11)
        for _ in range(4):
            phases = np.exp(2j * np.pi * rng.random(2))
            images.append(np.diag(phases))
        rep = Representation(pres, 2, tuple(images), "unitary")
        assert commutant_dimension(rep) == 2

    def test_generic_irreducible(self, rep_g2n2):
        assert commutant_dimension(rep_g2n2) == 1


class TestConjugateRepresentation:
    def test_non_unitary_conjugate_of_unitary_point(self, rep_g2n2):
        c = np.array([[1, 0.5], [0, 1]], dtype=complex)
        moved = conjugate_representation(rep_g2n2, c)
        assert moved.flavor == "general-linear"
        assert moved.seed == rep_g2n2.seed
        for m, image in zip(rep_g2n2.images, moved.images):
            assert np.array_equal(image, c @ m @ np.linalg.inv(c))
        assert relator_defect(moved) < 1e-10


class TestNewtonProject:
    def test_fixed_point(self, rep_g2n2):
        projected = newton_project(rep_g2n2.presentation, rep_g2n2.images,
                                   rep_g2n2.flavor)
        for a, b in zip(projected.images, rep_g2n2.images):
            assert np.array_equal(a, b)

    def test_repairs_tangent_noise(self, rep_g2n2):
        rng = np.random.default_rng(12)
        noisy = []
        for m in rep_g2n2.images:
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            z = (z - z.conj().T) / 2
            noisy.append((np.eye(2) + 1e-3 * z) @ m)
        repaired = newton_project(rep_g2n2.presentation, noisy, "unitary")
        assert relator_defect(repaired) <= 1e-10

    def test_far_input_raises(self):
        rng = np.random.default_rng(13)
        pres = Presentation(2)
        far = [haar_unitary(rng, 2) for _ in range(4)]
        with pytest.raises(ConvergenceError) as excinfo:
            newton_project(pres, far, "unitary")
        assert excinfo.value.defect is not None
        assert excinfo.value.defect > 0.1


class TestConstructionValidation:
    def test_defective_relator_rejected(self):
        pres = Presentation(2)
        rng = np.random.default_rng(14)
        images = tuple(haar_unitary(rng, 2) for _ in range(4))
        with pytest.raises(InputError):
            Representation(pres, 2, images, "unitary")

    def test_non_unitary_rejected_for_unitary_flavor(self):
        pres = Presentation(1)
        images = (2 * np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(InputError):
            Representation(pres, 2, images, "unitary")

    def test_general_linear_accepts_non_unitary(self):
        pres = Presentation(1)
        a = np.diag([2.0, 0.5]).astype(complex)
        b = np.eye(2, dtype=complex)
        rep = Representation(pres, 2, (a, b), "general-linear")
        assert relator_defect(rep) < 1e-14

    def test_unknown_flavor(self):
        pres = Presentation(1)
        with pytest.raises(InputError):
            Representation(pres, 1, (np.eye(1), np.eye(1)), "orthogonal")

    def test_image_count_checked(self):
        pres = Presentation(2)
        with pytest.raises(InputError):
            Representation(pres, 1, (np.eye(1),) * 3, "unitary")

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, rep_g2n2, flavor, bad):
        images = [np.array(m) for m in rep_g2n2.images]
        images[1][0, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            Representation(rep_g2n2.presentation, 2, tuple(images), flavor)
