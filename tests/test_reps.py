import inspect

import numpy as np
import pytest
import scipy.linalg

import goldman
import goldman.reps
from goldman import tolerances
from goldman import (Chart, Cocycle, CocycleStack, ConvergenceError, GoldmanError, GroupWord,
                     InputError, Presentation, Representation, anti_hermitian_part,
                     closedness_check, coboundary, coboundary_matrix, cocycle_basis,
                     cocycle_law_residuals, commutant_dimension, commutator_factor,
                     conjugate_representation, deform, deformation_correction,
                     dual_form_matrix, evaluate, gram, newton_project, pairing_dual,
                     random_cocycle, random_representation, real_locus_bases, relator_defect,
                     relator_residual, rh_differential, stack_cocycles, standard_block_j,
                     star_involution, symplectic_basis)
from goldman.charts import closedness_floors, closedness_residuals
from goldman.cocycles import extend, extend_ring, extend_words, linear_combination, word_jacobian
from goldman.config import RunConfig
from goldman.linalg import (complex_gaussian, expm, frob, haar_unitary, polar_unitary,
                            split_singular_values, vec)
from goldman.reps import evaluate_words, relator_tangent_matrix
from goldman.words import (GroupRingElement, anti_involution, commutator,
                           format_word, fox_derivative, join_batches, letter_codes,
                           letter_fox_terms, parse_word, ring_codes)


def h1_chart(rep):
    return Chart(center=rep, frame=cocycle_basis(rep).h1_complement)


def zero_cocycle(rep):
    return Cocycle(rep, np.zeros((4, 2, 2)))


def reconstruction_error(a, b, u):
    return frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u)


def sylvester_commutant_dimension(rep):
    """Reference: nullity of the stacked Sylvester maps X -> g X - X g."""
    n = rep.rank
    eye = np.eye(n)
    stacked = np.vstack([np.kron(eye, m) - np.kron(m.T, eye) for m in rep.images])
    rank, _ = split_singular_values(np.linalg.svd(stacked, compute_uv=False))
    return n * n - rank


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

    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (2, 3, "general-linear"), (3, 1, "unitary")])
    def test_letter_tables_are_cached_read_only(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=6)
        left, right = rep.letter_tables
        assert rep.letter_tables[0] is left and rep.letter_tables[1] is right
        assert np.array_equal(left, np.concatenate([rep.images, rep.inverse_images]))
        assert np.array_equal(right, np.concatenate([rep.inverse_images, rep.images]))
        for table in (left, right):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0

    def test_partial_relator_determinants(self, seeded_reps):
        for rep in seeded_reps.values():
            for k in range(rep.genus + 1):
                det = np.linalg.det(evaluate(rep, rep.presentation.relator(k)))
                assert abs(det - 1.0) <= 1e-10


def two_product_tangent_matrix(rep):
    """Reference: every Fox term's image and inverse image as two word products."""
    n = rep.rank
    blocks = []
    for index in range(rep.presentation.generator_count):
        block = np.zeros((n * n, n * n), dtype=complex)
        for word, coeff in rep.presentation.relator_derivative(index).terms():
            s, s_inv = evaluate(rep, word), evaluate(rep, word.inverse())
            block += coeff * np.kron(s_inv.T, s)
        blocks.append(block)
    return np.hstack(blocks)


class TestRelatorTangentMatrix:
    @pytest.mark.parametrize("genus, rank, flavor", [
        (1, 2, "unitary"), (2, 1, "unitary"), (2, 2, "unitary"), (3, 3, "unitary"),
        (2, 3, "general-linear"), (3, 3, "general-linear")])
    def test_matches_two_product_reference(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=6)
        walk = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
        reference = two_product_tangent_matrix(rep)
        # at rank one the terms cancel to roundoff: scale by the unit terms
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(walk - reference).max() <= 1e-13 * scale


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

    @pytest.mark.parametrize("unitary", [True, False])
    def test_non_finite_input_rejected(self, unitary):
        # NaN passes the determinant and unitarity tests, which compare
        with pytest.raises(InputError, match="non-finite"):
            commutator_factor(np.full((2, 2), np.nan), unitary=unitary)

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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(InputError, match="seed"):
            random_representation(2, 2, seed=seed)

    def test_bool_sizes_rejected(self):
        # Python counts a bool as an int; the integer rule does not
        with pytest.raises(InputError, match="genus must be an integer >= 1, got True"):
            random_representation(True, True, seed=1)

    def test_rank_zero_rejected(self):
        with pytest.raises(InputError, match="rank must be an integer >= 1, got 0"):
            random_representation(2, 0, seed=0)

    def test_fractional_genus_rejected(self):
        with pytest.raises(InputError, match=r"genus must be an integer >= 1, got 1\.5"):
            random_representation(1.5, 2, seed=0)

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
        assert commutant_dimension(rep) == sylvester_commutant_dimension(rep) == 4

    def test_sum_of_distinct_characters(self):
        pres = Presentation(2)
        images = []
        rng = np.random.default_rng(11)
        for _ in range(4):
            phases = np.exp(2j * np.pi * rng.random(2))
            images.append(np.diag(phases))
        rep = Representation(pres, 2, tuple(images), "unitary")
        # still reducible after conjugation by a non-unitary matrix
        c = np.array([[2.0, 1.5], [0.3, 1.0]], dtype=complex)
        for point in (rep, conjugate_representation(rep, c)):
            assert commutant_dimension(point) == sylvester_commutant_dimension(point) == 2

    def test_generic_irreducible(self, rep_g2n2):
        assert commutant_dimension(rep_g2n2) == 1

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_agrees_with_sylvester_stack_at_seeded_points(self, flavor):
        for genus, rank in [(2, 1), (2, 2), (3, 2), (2, 3)]:
            for seed in (0, 7):
                rep = random_representation(genus, rank, flavor, seed=seed)
                assert commutant_dimension(rep) == sylvester_commutant_dimension(rep) == 1


class TestCoboundaryMatrix:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_applies_delta(self, flavor):
        rng = np.random.default_rng(61)
        for genus, rank in [(2, 1), (2, 2), (3, 3)]:
            rep = random_representation(genus, rank, flavor, seed=4)
            matrix = coboundary_matrix(rep)
            assert matrix.shape == (2 * genus * rank ** 2, rank ** 2)
            for _ in range(3):
                v = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
                assert np.abs(matrix @ vec(v) - coboundary(v, rep).flat).max() < 1e-12


class TestConjugateRepresentation:
    def test_non_unitary_conjugate_of_unitary_point(self, rep_g2n2):
        c = np.array([[1, 0.5], [0, 1]], dtype=complex)
        moved = conjugate_representation(rep_g2n2, c)
        assert moved.flavor == "general-linear"
        assert moved.seed == rep_g2n2.seed
        for m, image in zip(rep_g2n2.images, moved.images):
            assert np.array_equal(image, c @ m @ np.linalg.inv(c))
        assert relator_defect(moved) < 1e-10

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_singularity_cut_is_relative_to_scale(self, rep_g2n2, scale):
        # a scalar conjugator changes nothing, however small
        moved = conjugate_representation(rep_g2n2, scale * np.eye(2))
        assert np.allclose(moved.images, rep_g2n2.images, atol=1e-14)
        # a near-singular one is refused at every scale
        for c in (np.diag([1.0, 1e-13]), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])):
            with pytest.raises(InputError, match="numerically singular") as error:
                conjugate_representation(rep_g2n2, scale * c)
            assert error.value.exit_code == 2

    def test_generator_images_keep_the_absolute_cut(self, rep_g2n2):
        images = np.array(rep_g2n2.images)
        images[0] = 1e-7 * np.eye(2)  # well conditioned, but |det| = 1e-14
        with pytest.raises(InputError, match="numerically singular"):
            Representation(rep_g2n2.presentation, 2, images, "general-linear")


def per_generator_newton(presentation, images, flavor):
    """Reference: the Newton loop with the images updated one generator at
    a time, as a list.  Returns the final images and the iteration count."""
    images = [np.array(m, dtype=complex) for m in images]
    n = images[0].shape[0]
    eye = np.eye(n)

    def relator_image(images):
        inverses = [m.conj().T if flavor == "unitary" else np.linalg.inv(m)
                    for m in images]
        r = np.eye(n, dtype=complex)
        for code in presentation.relator().codes:  # x_i is i, x_i^-1 is 2g + i
            r = r @ (images + inverses)[code]
        return r, frob(r - eye), inverses

    r, defect, inverses = relator_image(images)
    iterations = 0
    for _ in range(tolerances.NEWTON_STEP_LIMIT):
        if defect <= tolerances.NEWTON_TARGET:
            break
        rhs = -vec((r - eye) @ np.linalg.inv(r))
        jac = relator_tangent_matrix(presentation, images, inverses)
        iterations += 1
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=tolerances.SVD_RELATIVE)
        candidate = []
        for i in range(len(images)):
            d = step[i * n * n:(i + 1) * n * n].reshape((n, n), order="F")
            updated = expm(d) @ images[i]
            candidate.append(polar_unitary(updated) if flavor == "unitary" else updated)
        new_r, new_defect, new_inverses = relator_image(candidate)
        if new_defect >= defect:
            break
        images, r, defect, inverses = candidate, new_r, new_defect, new_inverses
    return images, iterations


def perturbed_images(rep, rng, size):
    """Each image moved by exp(size Z), Z anti-Hermitian for a unitary base."""
    n = rep.rank
    out = []
    for m in rep.images:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if rep.flavor == "unitary":
            z = (z - z.conj().T) / 2
        out.append(scipy.linalg.expm(size * z) @ m)
    return out


class TestNewtonProject:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("genus, rank", [(2, 2), (3, 2), (2, 3), (2, 1)])
    def test_stack_equals_per_generator_reference(self, genus, rank, flavor,
                                                  monkeypatch):
        rep = random_representation(genus, rank, flavor, seed=11)
        rng = np.random.default_rng(genus * 10 + rank)
        tangent = goldman.reps.relator_tangent_matrix
        calls = []

        def counted(*args):
            calls.append(None)
            return tangent(*args)

        for size in (1e-4, 3e-3):
            noisy = perturbed_images(rep, rng, size)
            expected, iterations = per_generator_newton(rep.presentation, noisy, flavor)
            calls.clear()
            monkeypatch.setattr(goldman.reps, "relator_tangent_matrix", counted)
            (projected,) = newton_project(rep.presentation, [noisy], flavor)
            monkeypatch.undo()
            # rank-one images commute, so the relator is exact and no step is taken
            assert iterations >= (rank > 1)
            assert len(calls) == iterations
            for a, b in zip(projected.images, expected):
                assert np.array_equal(a, b)

    def test_fixed_point(self, rep_g2n2):
        (projected,) = newton_project(rep_g2n2.presentation, rep_g2n2.images[None],
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
        (repaired,) = newton_project(rep_g2n2.presentation, [noisy], "unitary")
        assert relator_defect(repaired) <= 1e-10

    def test_far_input_raises(self):
        rng = np.random.default_rng(13)
        pres = Presentation(2)
        far = [haar_unitary(rng, 2) for _ in range(4)]
        with pytest.raises(ConvergenceError) as excinfo:
            newton_project(pres, [far], "unitary")
        assert excinfo.value.defect is not None
        assert excinfo.value.defect > 0.1

    def test_non_finite_stack_rejected(self, rep_g2n2, capfd):
        images = np.array(rep_g2n2.images)[None].copy()
        images[0, 1, 0, 0] = np.nan
        with pytest.raises(InputError, match="image tuples have a non-finite entry"):
            newton_project(rep_g2n2.presentation, images, "unitary")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_singular_image_rejected(self, rep_g2n2, flavor):
        images = np.array(rep_g2n2.images)[None].copy()
        images[0, 2] = 0
        with pytest.raises(InputError, match="numerically singular image"):
            newton_project(rep_g2n2.presentation, images, flavor)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (2, 2), (1, 1, 4, 2, 2), (1, 2, 2, 2),
                                       (1, 4, 2, 3)])
    def test_only_a_stack_of_tuples_is_accepted(self, rep_g2n2, shape):
        # a lone (2g, n, n) tuple would otherwise be read as 2g tuples
        images = np.resize(rep_g2n2.images, shape)
        with pytest.raises(InputError, match=r"\(k, 2g, n, n\) stack"):
            newton_project(rep_g2n2.presentation, images, "unitary")


class TestStackedNewtonProject:
    """A (k, 2g, n, n) stack is projected tuple by tuple, bit for bit."""

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("genus, rank", [(2, 2), (3, 2), (2, 3), (2, 1)])
    def test_stack_equals_one_tuple_calls(self, genus, rank, flavor, monkeypatch):
        rep = random_representation(genus, rank, flavor, seed=17)
        rng = np.random.default_rng(genus * 10 + rank)
        # tuples on their own schedules: on the variety, near it, farther
        stack = np.array([rep.images] + [perturbed_images(rep, rng, size)
                                         for size in (1e-3, 1e-5, 2e-3, 3e-4)])
        expected = [newton_project(rep.presentation, [t], flavor, seed=5)[0] for t in stack]
        tangent = goldman.reps.relator_tangent_matrix
        calls = []

        def counted(*args):
            calls.append(np.shape(args[1]))
            return tangent(*args)

        monkeypatch.setattr(goldman.reps, "relator_tangent_matrix", counted)
        projected = newton_project(rep.presentation, stack, flavor, seed=5)
        assert isinstance(projected, tuple) and len(projected) == len(stack)
        for a, b in zip(projected, expected):
            assert np.array_equal(a.images, b.images)
            assert a.seed == 5 and a.flavor == flavor
        # one linearization of the stack per iteration of its slowest tuple
        iterations = [per_generator_newton(rep.presentation, t, flavor)[1] for t in stack]
        assert len(calls) == max(iterations)
        assert all(len(shape) == 4 for shape in calls)

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_stacked_tangent_matrix_equals_one_tuple_calls(self, flavor):
        rep = random_representation(3, 2, flavor, seed=18)
        rng = np.random.default_rng(18)
        stack = np.array([perturbed_images(rep, rng, 1e-2) for _ in range(3)])
        inverses = np.linalg.inv(stack)
        stacked = relator_tangent_matrix(rep.presentation, stack, inverses)
        assert stacked.shape == (3, 4, 3 * 2 * 4)
        for jac, images, inverse in zip(stacked, stack, inverses):
            assert np.array_equal(jac, relator_tangent_matrix(rep.presentation, images,
                                                              inverse))

    @pytest.mark.parametrize("far_at", [[1], [1, 3], [0, 2]])
    def test_first_failing_tuple_raises_its_own_error(self, far_at):
        rep = random_representation(2, 2, "unitary", seed=19)
        rng = np.random.default_rng(19)
        stack = np.array([perturbed_images(rep, rng, 1e-3) for _ in range(4)])
        for i in far_at:
            stack[i] = [haar_unitary(rng, 2) for _ in range(4)]
        serial = None
        for images in stack:
            try:
                newton_project(rep.presentation, [images], "unitary")
            except ConvergenceError as exc:
                serial = exc
                break
        assert serial is not None
        with pytest.raises(ConvergenceError) as excinfo:
            newton_project(rep.presentation, stack, "unitary")
        assert type(excinfo.value) is type(serial)
        assert excinfo.value.exit_code == serial.exit_code
        assert str(excinfo.value) == str(serial)
        assert excinfo.value.defect == serial.defect


def overflowing_images(scale):
    """scale times a seed-0 complex normal (4, 2, 2) stack: finite genus-2
    images whose relator product overflows at scale 1e155 and above."""
    return scale * complex_gaussian(np.random.default_rng(0), (4, 2, 2))


class TestAcceptedPoints:
    """Newton's points are the checked Representation of their images,
    built from the inverses and defects Newton already has."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (2, 2, "general-linear"), (3, 2, "unitary"),
        (2, 3, "general-linear")])
    def test_points_equal_checked_representations(self, genus, rank, flavor, k,
                                                  monkeypatch):
        rep = random_representation(genus, rank, flavor, seed=31)
        rng = np.random.default_rng(31)
        stack = np.array([rep.images] + [perturbed_images(rep, rng, size)
                                         for size in (1e-3, 1e-5, 2e-3, 3e-4)][:k - 1])
        calls = {name: [] for name in ("_invert_all", "_word_product",
                                       "relator_tangent_matrix")}
        for name, found in calls.items():
            original = getattr(goldman.reps, name)
            monkeypatch.setattr(goldman.reps, name, lambda *args, found=found,
                                original=original: found.append(None) or original(*args))
        points = newton_project(rep.presentation, stack, flavor, seed=8)
        inverses = [point.inverse_images for point in points]
        monkeypatch.undo()
        assert len(points) == k
        # one inversion and one relator product for the input and for each
        # iteration's candidates, none for the points
        iterations = len(calls["relator_tangent_matrix"])
        assert len(calls["_invert_all"]) == len(calls["_word_product"]) == 1 + iterations
        for point, inverse in zip(points, inverses):
            checked = Representation(rep.presentation, rank, point.images, flavor, seed=8)
            assert point.seed == 8 and point.flavor == flavor and point.rank == rank
            assert point.presentation == rep.presentation
            assert np.array_equal(point.images, checked.images)
            assert np.array_equal(inverse, checked.inverse_images)
            assert relator_defect(point) <= tolerances.CONSTRUCTION
            for array in (point.images, inverse):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0, 0] = 1.0
        # each point holds its own arrays, not a view of Newton's stacks
        assert all(point.images.base is None for point in points)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_seed_rule_is_kept(self, rep_g2n2, seed):
        with pytest.raises(InputError, match="seed"):
            newton_project(rep_g2n2.presentation, rep_g2n2.images[None], "unitary", seed=seed)

    def test_flavor_rule_is_kept(self, rep_g2n2):
        with pytest.raises(InputError, match="unknown flavor"):
            newton_project(rep_g2n2.presentation, rep_g2n2.images[None], "orthogonal")

    def test_overflowing_input_is_not_trusted(self, capfd):
        # the relator defect of these finite images is NaN: it is outside
        # the trust region, not a least-squares input
        with pytest.raises(ConvergenceError, match="input defect nan") as excinfo:
            newton_project(Presentation(2), overflowing_images(1e155)[None],
                           "general-linear")
        assert np.isnan(excinfo.value.defect)
        assert capfd.readouterr().err == ""

    def test_nan_candidate_is_no_improvement(self, rep_g2n2, monkeypatch, capfd):
        # a step to 1e155 times the images keeps them finite and invertible,
        # but overflows the relator product: the NaN candidate is a stall,
        # so the input tuple is kept and reported, not iterated on
        rng = np.random.default_rng(32)
        noisy = np.array(perturbed_images(rep_g2n2, rng, 1e-3))[None]
        monkeypatch.setattr(goldman.reps, "expm",
                            lambda steps: 1e155 * np.broadcast_to(np.eye(2), steps.shape))
        with pytest.raises(ConvergenceError, match="did not converge") as excinfo:
            newton_project(rep_g2n2.presentation, noisy, "general-linear")
        assert tolerances.CONSTRUCTION < excinfo.value.defect < tolerances.NEWTON_TRUST_DEFECT
        assert capfd.readouterr().err == ""


class TestConstructionValidation:
    @pytest.mark.parametrize("genus,rank,flavor,seed", [
        (0, 0, "orthogonal", -1), (True, 2, "unitary", 0), (2, 0, "orthogonal", -1),
        (2, 2, "orthogonal", -1), (2, 2, "unitary", 2 ** 64), (2, 2, "unitary", None),
        (2, 2, "general-linear", 1.5)])
    def test_one_settings_rule(self, rep_g2n2, genus, rank, flavor, seed):
        # RunConfig, random_representation and Representation refuse bad
        # settings with one message, sizes first, then flavor, then seed
        errors = []
        for build in (lambda: RunConfig(genus=genus, rank=rank, flavor=flavor, seed=seed),
                      lambda: random_representation(genus, rank, flavor, seed=seed)):
            with pytest.raises(InputError) as error:
                build()
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        if genus is True or genus < 1:
            assert errors[0].startswith("genus must be")
        elif seed is None:  # a representation that no seed drew
            Representation(rep_g2n2.presentation, 2, rep_g2n2.images, flavor, seed=seed)
        else:
            with pytest.raises(InputError) as error:
                Representation(rep_g2n2.presentation, rank, rep_g2n2.images, flavor, seed=seed)
            assert str(error.value) == errors[0]

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_relator_rejected(self, scale):
        # the images are finite and their dets overflow to inf, but the
        # relator product does too: its NaN defect is refused
        with pytest.raises(InputError, match="relator defect nan exceeds"):
            Representation(Presentation(2), 2, overflowing_images(scale), "general-linear")

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
    @pytest.mark.parametrize("images", [
        [np.eye(2)] * 3 + [np.eye(3)],
        [np.eye(3)] * 4,
        np.ones((4, 2)),
    ], ids=["ragged", "rank", "two-axes"])
    def test_malformed_images_rejected(self, flavor, images):
        # the image count and non-finite entries have their own tests
        with pytest.raises(InputError, match="generator images"):
            Representation(Presentation(2), 2, images, flavor)

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, rep_g2n2, flavor, bad):
        images = [np.array(m) for m in rep_g2n2.images]
        images[1][0, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            Representation(rep_g2n2.presentation, 2, tuple(images), flavor)


@pytest.mark.parametrize("call", [
    lambda rep: conjugate_representation(rep, np.zeros((2, 2))),
    lambda rep: conjugate_representation(rep, np.eye(3)),
    lambda rep: standard_block_j(-1),
    lambda rep: standard_block_j(1.5),
    lambda rep: standard_block_j(True),
    lambda rep: coboundary(np.zeros((3, 3)), rep),
    lambda rep: coboundary([[1, 2], [3]], rep),
    lambda rep: CocycleStack(rep, np.full((1, 4, 2, 2), np.nan)),
    lambda rep: CocycleStack(rep, np.zeros((1, 3, 2, 2))),
    lambda rep: CocycleStack(rep, np.zeros((0, 4, 2, 2))),
    lambda rep: CocycleStack(rep, np.zeros((1, 4, 3, 3))),
    lambda rep: GroupWord(0, ()),
    lambda rep: GroupWord(-2, ()),
    lambda rep: closedness_check(h1_chart(rep), (0, 1), 1e-3),
    lambda rep: closedness_floors(h1_chart(rep), (0, 1, 2), [0.0]),
    lambda rep: gram([1, 2]),
    lambda rep: pairing_dual(zero_cocycle(rep), 3),
    lambda rep: pairing_dual(zero_cocycle(rep), stack_cocycles([zero_cocycle(rep)])),
    lambda rep: Chart(rep, (np.zeros((4, 2, 2)),)),
    lambda rep: rh_differential(rep, random_representation(2, 3, seed=1), rep, 1e-3),
    lambda rep: linear_combination(rep, [1.0], [zero_cocycle(rep)]),
    lambda rep: GroupWord(2, 5),
    lambda rep: random_cocycle(cocycle_basis(rep), 3),
    lambda rep: random_cocycle(3, np.random.default_rng(0)),
    lambda rep: coboundary(np.eye(2), 3),
    lambda rep: coboundary(np.zeros((3, 3, 3)), rep),
    lambda rep: commutator_factor("x"),
    lambda rep: commutator_factor(np.zeros((3, 2, 3))),
    lambda rep: commutator_factor(np.stack([np.eye(2), np.full((2, 2), np.nan)])),
    lambda rep: linear_combination(rep, np.ones((3, 2)), stack_cocycles([zero_cocycle(rep)])),
    lambda rep: linear_combination(3, [1.0], stack_cocycles([zero_cocycle(rep)])),
    lambda rep: linear_combination(rep, ["a"], stack_cocycles([zero_cocycle(rep)])),
    lambda rep: linear_combination(rep, [[None]], stack_cocycles([zero_cocycle(rep)])),
    lambda rep: closedness_check(h1_chart(rep), (0, 1, 2), "1e-3"),
    lambda rep: closedness_residuals(h1_chart(rep), (0, 1, 2), [1e-3, "1e-3"]),
    lambda rep: closedness_residuals(h1_chart(rep), (0, 1, 2), "1e-3"),
    lambda rep: closedness_residuals(h1_chart(rep), (0, 1, 2), 1e-3),
    lambda rep: rh_differential(rep, rep, rep, "1e-3"),
    lambda rep: h1_chart(rep).transported_frame_direction(np.zeros(10), 0, "1e-3"),
    lambda rep: h1_chart(rep).transported_frame_direction(["x"] * 10, 0, 1e-3),
    lambda rep: h1_chart(rep).point(["x"] * 10),
    lambda rep: h1_chart(rep).point([None] * 10),
    lambda rep: h1_chart(rep).point([1j] * 10),
    lambda rep: deform(rep, zero_cocycle(rep), "x"),
    lambda rep: cocycle_law_residuals(3, []),
    lambda rep: cocycle_law_residuals(zero_cocycle(rep), [(1, 2)]),
    lambda rep: cocycle_law_residuals(zero_cocycle(rep), 3),
    lambda rep: cocycle_law_residuals(zero_cocycle(rep), [3]),
    lambda rep: cocycle_law_residuals(zero_cocycle(rep), [(rep.presentation.a(1),) * 3]),
    lambda rep: cocycle_law_residuals(zero_cocycle(rep), (rep.presentation.reduce_batch(
        [[0]], [1]), rep.presentation.reduce_batch([[0], [1]], [1, 1]))),
    lambda rep: relator_residual(3),
    lambda rep: star_involution(3),
    lambda rep: anti_hermitian_part(3),
    lambda rep: relator_defect(3),
    lambda rep: newton_project(rep.presentation, "x", "unitary"),
    lambda rep: newton_project(rep.presentation, [[["x"]]], "unitary"),
    lambda rep: cocycle_basis(3),
    lambda rep: real_locus_bases(3),
    lambda rep: cocycle_basis(rep).h1_coordinates(3),
    lambda rep: commutant_dimension(3),
    lambda rep: coboundary_matrix(3),
    lambda rep: dual_form_matrix(3),
    lambda rep: symplectic_basis(np.eye(2)),
    lambda rep: evaluate(rep, "a1"),
    lambda rep: extend(zero_cocycle(rep), "a1"),
    lambda rep: evaluate_words(rep, [3]),
    lambda rep: extend_words(zero_cocycle(rep), "ab"),
    lambda rep: word_jacobian(rep, "a"),
    lambda rep: format_word(3),
    lambda rep: parse_word(3, 2),
    lambda rep: fox_derivative(3, 0),
    lambda rep: commutator(3, 4),
    lambda rep: evaluate_words(rep, 3),
    lambda rep: parse_word(rep.presentation, 3),
    lambda rep: extend_words(3, [rep.presentation.a(1)]),
    lambda rep: anti_involution(3),
    lambda rep: letter_fox_terms(3),
    lambda rep: GroupRingElement.from_word(3),
    lambda rep: extend_ring(zero_cocycle(rep), 3),
    lambda rep: ring_codes(rep.presentation, [3]),
    lambda rep: evaluate(3, rep.presentation.a(1)),
    lambda rep: Presentation(2).reduce(3),
    lambda rep: Presentation(2).word(3),
    lambda rep: letter_codes(3, [rep.presentation.a(1)]),
    lambda rep: Presentation(2).reduce_batch([[0.0]], [1]),
    lambda rep: Presentation(2).reduce_batch([[8]], [1]),
    lambda rep: Presentation(2).reduce_batch([[0]], [2]),
    lambda rep: letter_codes(Presentation(3), Presentation(2).reduce_batch([[0]], [1])),
    lambda rep: join_batches([]),
    lambda rep: join_batches([Presentation(2).reduce_batch([[0]], [1]), 3]),
    lambda rep: Presentation(2).reduce_batch([[0]], [1])[0],
    lambda rep: Presentation(2).reduce_batch([[0]], [1]) * Presentation(2).reduce_batch(
        [[0], [1]], [1, 1]),
    lambda rep: conjugate_representation(3, np.eye(2)),
    lambda rep: evaluate_words(3, [rep.presentation.a(1)]),
    lambda rep: deformation_correction(3, np.zeros(10)),
    lambda rep: rh_differential(3, rep, rep, 1e-3),
    lambda rep: random_cocycle(cocycle_basis(rep), np.random.default_rng(0), space=np.eye(2)),
    lambda rep: commutator_factor(np.eye(2), unitary=np.eye(2)),
    lambda rep: GroupRingElement(2, [1, 2]),
    lambda rep: GroupRingElement("x", {}),
    lambda rep: GroupRingElement.zero(0),
    lambda rep: GroupRingElement(2, {1: 2}),
    lambda rep: GroupRingElement(3, {rep.presentation.a(1): 1}),
    lambda rep: GroupRingElement(2, {rep.presentation.a(1): 0.5}),
    lambda rep: GroupRingElement(2, {rep.presentation.a(1): True}),
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1), 1.5),
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1)) * 0.5,
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1)) * "x",
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1)) * True,
    lambda rep: 0.5 * GroupRingElement.from_word(rep.presentation.a(1)),
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1)) + 1,
    lambda rep: GroupRingElement.from_word(rep.presentation.a(1)) - rep.presentation.a(1),
], ids=["singular-conjugator", "wide-conjugator", "negative-block", "fractional-block",
        "bool-block", "wide-coboundary", "ragged-coboundary", "nan-stack",
        "stack-generator-count", "empty-stack", "stack-rank", "genus-zero-word",
        "negative-genus-word", "closedness-pair", "closedness-zero-step-floor",
        "gram-of-integers", "pair-with-integer", "pair-with-stack", "chart-of-arrays",
        "rh-rank-mismatch", "combine-a-list", "integer-word-codes",
         "draw-from-an-integer", "draw-from-an-integer-basis", "coboundary-over-an-integer",
         "coboundary-stack-rank", "factor-a-string", "factor-non-square-stack",
         "factor-nan-stack", "combine-wide-matrix", "combine-over-an-integer",
         "combine-strings", "combine-objects", "closedness-string-step",
         "ladder-string-step", "ladder-of-a-string", "ladder-of-a-number",
         "rh-string-step", "transport-string-step", "transport-string-coordinates",
         "point-string-coordinates", "point-object-coordinates",
         "point-complex-coordinates", "deform-string-time", "law-of-an-integer",
         "law-of-integer-pairs", "law-of-an-integer-pair-list", "law-of-a-non-pair",
         "law-of-a-word-triple", "law-of-batches-of-two-sizes",
         "relator-residual-of-an-integer",
         "star-of-an-integer", "anti-hermitian-part-of-an-integer",
         "relator-defect-of-an-integer", "newton-of-a-string",
         "newton-of-nested-strings", "basis-of-an-integer", "real-locus-of-an-integer",
         "h1-coordinates-of-an-integer", "commutant-of-an-integer",
         "coboundary-matrix-of-an-integer", "dual-form-of-an-integer",
         "symplectic-basis-of-an-array", "evaluate-a-string", "extend-by-a-string",
         "evaluate-integer-words", "extend-by-letters", "jacobian-of-a-string",
         "format-an-integer", "parse-over-an-integer", "fox-derivative-of-an-integer",
         "commutator-of-integers", "evaluate-an-integer", "parse-an-integer",
         "extend-an-integer", "anti-involution-of-an-integer",
         "letter-terms-of-an-integer", "ring-element-of-an-integer",
         "extend-ring-by-an-integer", "ring-codes-of-an-integer",
         "evaluate-over-an-integer", "reduce-an-integer", "word-of-an-integer",
         "codes-over-an-integer", "reduce-float-batch", "reduce-batch-out-of-range",
         "reduce-batch-too-long",
         "batch-of-another-genus", "join-no-batches", "join-an-integer",
         "batch-row-by-an-integer", "multiply-batches-of-two-sizes",
         "conjugate-an-integer", "evaluate-words-over-an-integer",
         "correction-of-an-integer", "rh-of-an-integer", "draw-from-an-array-space",
         "factor-with-an-array-flag", "ring-element-of-a-list",
         "ring-element-of-a-string-genus", "ring-zero-of-genus-zero",
         "ring-element-integer-key", "ring-element-word-of-another-genus",
         "ring-element-fractional-coefficient", "ring-element-bool-coefficient",
         "ring-word-fractional-coefficient", "ring-times-a-float", "ring-times-a-string",
         "ring-times-a-bool", "float-times-a-ring-element", "ring-plus-an-integer",
         "ring-minus-a-word"])
def test_exported_calls_refuse_bad_input(rep_g2n2, call):
    with pytest.raises(InputError):
        call(rep_g2n2)


BAD_ARGUMENTS = (3, "x", None, float("nan"), np.eye(2), [1, 2])


def exported_callables():
    """(name, callable, required positional parameter names) of every
    public callable that goldman exports, its exceptions aside."""
    found = []
    for name, value in sorted(vars(goldman).items()):
        if name.startswith("_") or inspect.ismodule(value) or not callable(value) or (
                isinstance(value, type) and issubclass(value, BaseException)):
            continue
        required = [p.name for p in inspect.signature(value).parameters.values()
                    if p.default is p.empty
                    and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        found.append((name, value, required))
    return found


def valid_arguments(rep):
    """A valid value for each required parameter of an exported call at
    the (2, 2) point rep, by parameter name, with (call, name) entries for
    the names that two calls read differently."""
    pres = rep.presentation
    basis = cocycle_basis(rep)
    h1 = basis.h1_complement
    g = gram(h1)
    chi = h1[0]
    chart = h1_chart(rep)
    normal = symplectic_basis(g)
    word = pres.a(1)
    return {
        "center": rep, "rep": rep, "base": rep, "plus": rep, "minus": rep, "frame": h1,
        "values": np.zeros((4, 2, 2)), ("CocycleStack", "values"): np.zeros((1, 4, 2, 2)),
        "dims": basis.dims, "constraint": basis.constraint, "coboundary": basis.coboundary,
        "vectors": g.vectors, "matrix": g.matrix, "genus": 2, "codes": (0, 1),
        "presentation": pres, "rank": 2, "images": rep.images, "flavor": "unitary",
        ("newton_project", "images"): rep.images[None], "e": normal.e, "f": normal.f,
        "transform": normal.transform, "pairs": ((GroupRingElement.from_word(word), word),),
        ("cocycle_law_residuals", "pairs"): [(word, word)],
        ("pairing_duals", "pairs"): [(chi, chi)],
        "max_imaginary": 0.0, "real_rank": 10, "expected_rank": 10, "passed": True,
        "chi": chi, "chi1": chi, "chi2": h1[1], "direction": chi,
        "element": GroupRingElement.from_word(word), "chart": chart, "triple": (0, 1, 2),
        "h": 1e-3, "step": 1e-3, "t": 1e-3, "v": np.eye(2), "c": np.eye(2),
        "u": word, ("commutator_factor", "u"): np.eye(2), ("commutator", "v"): pres.b(1),
        "coords": np.zeros(len(h1)), "word": word, "words": [word], "index": 0, "cocycles": h1,
        ("unitary_restriction_check", "cocycles"): real_locus_bases(basis)[1],
        "basis": basis, "rng": np.random.default_rng(0), "text": "a1", "m": 1, "g": g,
    }


def test_every_exported_call_refuses_bad_arguments_in_every_slot(rep_g2n2):
    """Each bad value in each required positional slot of each exported
    call, the other slots valid: a GoldmanError or a normal return, never
    another exception."""
    valid = valid_arguments(rep_g2n2)
    calls = exported_callables()
    assert {"conjugate_representation", "evaluate_words", "deformation_correction",
            "rh_differential"} <= {name for name, _, _ in calls}
    escaped = []
    for name, call, required in calls:
        args = [valid.get((name, slot), valid.get(slot)) for slot in required]
        assert all(arg is not None for arg in args), (name, required)
        call(*args)  # the valid arguments alone return normally
        for i, slot in enumerate(required):
            for bad in BAD_ARGUMENTS:
                try:
                    call(*args[:i], bad, *args[i + 1:])
                except GoldmanError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected and reported below
                    escaped.append(f"{name}({slot}={bad!r}): {type(exc).__name__}: {exc}")
    assert escaped == []


def test_every_exported_call_refuses_bad_arguments_in_every_optional_slot(rep_g2n2):
    """Each bad value passed by keyword to each parameter with a default of
    each exported call, the required slots valid: a GoldmanError or a
    normal return, never another exception.  Required and defaulted
    parameters between them are every parameter, so the two sweeps reach
    every slot."""
    valid = valid_arguments(rep_g2n2)
    escaped, swept = [], set()
    for name, call, required in exported_callables():
        args = [valid.get((name, slot), valid.get(slot)) for slot in required]
        parameters = inspect.signature(call).parameters.values()
        optional = [p.name for p in parameters if p.default is not p.empty]
        assert len(required) + len(optional) == len(parameters), name
        for slot in optional:
            swept.add((name, slot))
            for bad in BAD_ARGUMENTS:
                try:
                    call(*args, **{slot: bad})
                except GoldmanError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected and reported below
                    escaped.append(f"{name}({slot}={bad!r}): {type(exc).__name__}: {exc}")
    assert {("random_cocycle", "space"), ("commutator_factor", "unitary"),
            ("GroupRingElement", "terms"), ("random_representation", "flavor")} <= swept
    assert escaped == []
