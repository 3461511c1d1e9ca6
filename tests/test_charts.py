import numpy as np
import pytest
import scipy.linalg

from goldman import (Chart, DeformationCurve, InputError,
                     Representation, closedness_check, coboundary, cocycle_basis,
                     commutant_dimension, deform, deformation_correction,
                     random_cocycle, relator_defect, rh_differential,
                     transport_values)
from goldman.charts import rh_word_value
from goldman.linalg import frob
from goldman.reps import evaluate


def unit_h1_direction(basis, seed):
    rng = np.random.default_rng(seed)
    chi = random_cocycle(basis, rng, space="h1")
    return chi * (1.0 / chi.norm())


def fitted_order(steps, values):
    return float(np.polyfit(np.log(steps), np.log(values), 1)[0])


class TestDeform:
    def test_zero_step_returns_center(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 50)
        assert deform(basis_g2n2.base, chi, 0.0) is basis_g2n2.base

    def test_deformed_point_satisfies_relator(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 51)
        moved = deform(basis_g2n2.base, chi, 1e-3)
        assert relator_defect(moved) <= 1e-10

    def test_trust_region(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 52)
        with pytest.raises(InputError):
            deform(basis_g2n2.base, chi, 0.5)

    def test_correction_second_order(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 53)
        steps = [1e-2, 1e-3, 1e-4]
        corrections = [deformation_correction(basis_g2n2.base, chi, t)
                       for t in steps]
        assert abs(fitted_order(steps, corrections) - 2.0) < 0.2

    def test_coboundary_direction_is_conjugation(self, basis_g2n2):
        # moving along delta_v tracks conjugation by exp(-t v) to first order
        rng = np.random.default_rng(54)
        rep = basis_g2n2.base
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = (z - z.conj().T) / 2
        v = v / max(1.0, coboundary(v, rep).norm())
        delta = coboundary(v, rep)
        steps = [1e-2, 1e-3]
        distances = []
        for t in steps:
            moved = deform(rep, delta, t)
            conj = scipy.linalg.expm(-t * v)
            conj_inv = scipy.linalg.expm(t * v)
            distances.append(np.sqrt(sum(
                frob(m - conj @ x @ conj_inv) ** 2
                for m, x in zip(moved.images, rep.images))))
        assert abs(fitted_order(steps, distances) - 2.0) < 0.2

    def test_base_mismatch(self, basis_g2n2, trivial_scalar_rep):
        chi = unit_h1_direction(basis_g2n2, 55)
        with pytest.raises(InputError):
            deform(trivial_scalar_rep, chi, 1e-3)


class TestRhDifferential:
    def test_constant_curve_gives_zero(self, rep_g2n2):
        curve = DeformationCurve(center=rep_g2n2, evaluator=lambda t: rep_g2n2)
        chi = rh_differential(curve, 1e-4)
        assert chi.norm() < 1e-12

    def test_round_trip_second_order(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 56)
        curve = DeformationCurve(center=basis_g2n2.base, direction=chi)
        target = basis_g2n2.h1_coordinates(chi)
        steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        errors = [np.linalg.norm(basis_g2n2.h1_coordinates(
            rh_differential(curve, h)) - target) for h in steps]
        for i in range(3):
            assert 3.5 <= errors[i] / errors[i + 1] <= 4.5

    def test_class_distance_at_small_step(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 57)
        curve = DeformationCurve(center=basis_g2n2.base, direction=chi)
        rec = rh_differential(curve, 1e-4)
        distance = np.linalg.norm(basis_g2n2.h1_coordinates(rec)
                                  - basis_g2n2.h1_coordinates(chi))
        assert distance < 1e-5

    def test_conjugation_curve_has_zero_class(self, basis_g2n2):
        rng = np.random.default_rng(58)
        rep = basis_g2n2.base
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = v / np.linalg.norm(v)

        def evaluator(t):
            c = scipy.linalg.expm(t * v)
            c_inv = scipy.linalg.expm(-t * v)
            return Representation(rep.presentation, 2,
                                  tuple(c @ m @ c_inv for m in rep.images),
                                  "general-linear")

        curve = DeformationCurve(center=rep, evaluator=evaluator)
        rec = rh_differential(curve, 1e-4)
        assert rec.norm() > 1e-2  # nonzero cocycle...
        assert np.linalg.norm(basis_g2n2.h1_coordinates(rec)) < 1e-6  # ...zero class

    def test_direction_points_are_cached(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 5)
        curve = DeformationCurve(center=basis_g2n2.base, direction=chi)
        point = curve.at(1e-3)
        assert curve.at(1e-3) is point
        assert curve.at(-1e-3) is not point
        calls = []

        def evaluator(t):
            calls.append(t)
            return deform(basis_g2n2.base, chi, t)

        custom = DeformationCurve(center=basis_g2n2.base, evaluator=evaluator)
        custom.at(1e-3)
        custom.at(1e-3)
        assert calls == [1e-3, 1e-3]

    def test_step_floor(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 59)
        curve = DeformationCurve(center=basis_g2n2.base, direction=chi)
        with pytest.raises(InputError):
            rh_differential(curve, 1e-10)

    @pytest.mark.parametrize("bad", [float("nan"), -float("nan")])
    def test_nan_step_rejected_at_every_entry(self, basis_g2n2, bad):
        rep = basis_g2n2.base
        chi = unit_h1_direction(basis_g2n2, 62)
        curve = DeformationCurve(center=rep, direction=chi)
        # a constant curve has no trust region: only the step check stands
        # between a NaN step and a NaN result
        still = DeformationCurve(center=rep, evaluator=lambda t: rep)
        word = rep.presentation.word([(0, 1), (1, -1)])
        calls = [lambda: deform(rep, chi, bad),
                 lambda: curve.at(bad),
                 lambda: rh_differential(curve, bad),
                 lambda: rh_differential(still, bad),
                 lambda: rh_word_value(curve, word, bad),
                 lambda: rh_word_value(still, word, bad)]
        for call in calls:
            with pytest.raises(InputError):
                call()

    def test_relator_constraint_second_order(self, basis_g2n2):
        from goldman import relator_residual

        chi = unit_h1_direction(basis_g2n2, 60)
        curve = DeformationCurve(center=basis_g2n2.base, direction=chi)
        res = [relator_residual(rh_differential(curve, h)) for h in (2e-3, 1e-3)]
        assert 3.4 <= res[0] / res[1] <= 4.6

    def test_word_level_law_second_order(self, basis_g2n2):
        rng = np.random.default_rng(61)
        rep = basis_g2n2.base
        pres = rep.presentation
        chi = unit_h1_direction(basis_g2n2, 61)
        curve = DeformationCurve(center=rep, direction=chi)
        raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(1, 8)))]
        pairs = [(pres.word(raw()), pres.word(raw())) for _ in range(50)]
        residuals = []
        for h in (2e-3, 1e-3):
            worst = 0.0
            for u, v in pairs:
                s_u = evaluate(rep, u)
                law = (rh_word_value(curve, u * v, h) - rh_word_value(curve, u, h)
                       - s_u @ rh_word_value(curve, v, h) @ np.linalg.inv(s_u))
                worst = max(worst, frob(law))
            residuals.append(worst)
        assert 3.2 <= residuals[0] / residuals[1] <= 4.8


class TestChart:
    def test_zero_coordinate_is_center(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        assert chart.point(np.zeros(10)) is basis_g2n2.base

    def test_points_on_variety_and_irreducible(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        for axis in range(3):
            coords = np.zeros(10)
            coords[axis] = 5e-3
            point = chart.point(coords)
            assert relator_defect(point) <= 1e-10
            assert commutant_dimension(point) == 1

    def test_coordinate_shape_checked(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        with pytest.raises(InputError):
            chart.point(np.zeros(3))


class TestClosedness:
    def test_degenerate_triple_exact_zero(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        assert closedness_check(chart, (0, 0, 1), 1e-3) == 0.0
        assert closedness_check(chart, (2, 1, 2), 1e-3) == 0.0

    def test_abelian_flat_case(self, trivial_scalar_rep):
        basis = cocycle_basis(trivial_scalar_rep)
        chart = Chart(center=trivial_scalar_rep, frame=basis.h1_complement)
        for h in (1e-2, 1e-3, 1e-4):
            assert closedness_check(chart, (0, 1, 2), h) < 1e-10

    def test_second_order_decay(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        steps = [4e-3, 2e-3, 1e-3]
        residuals = [closedness_check(chart, (0, 1, 2), h) for h in steps]
        assert residuals[-1] < 1e-4
        assert abs(fitted_order(steps, residuals) - 2.0) < 0.3

    def test_step_range_enforced(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        with pytest.raises(InputError):
            closedness_check(chart, (0, 1, 2), 1e-5)
        with pytest.raises(InputError):
            closedness_check(chart, (0, 1, 2), 0.1)

    def test_index_range_enforced(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        with pytest.raises(InputError):
            closedness_check(chart, (0, 1, 10), 1e-3)


class TestCommutingFlows:
    def test_first_order_flows_commute(self, basis_g2n2):
        rep = basis_g2n2.base
        chi1 = unit_h1_direction(basis_g2n2, 62)
        chi2 = unit_h1_direction(basis_g2n2, 63)

        def disagreement(t):
            via1 = deform(rep, chi1, t)
            via2 = deform(rep, chi2, t)
            first = deform(via1, transport_values(chi2, via1), t)
            second = deform(via2, transport_values(chi1, via2), t)
            return np.sqrt(sum(frob(a - b) ** 2
                               for a, b in zip(first.images, second.images)))

        steps = [2e-3, 1e-3]
        values = [disagreement(t) for t in steps]
        assert abs(fitted_order(steps, values) - 2.0) < 0.4
