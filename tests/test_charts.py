import hashlib

import numpy as np
import pytest
import scipy.linalg

import goldman.charts
import goldman.cli

from goldman import (Chart, Cocycle, InputError, Representation,
                     closedness_check, coboundary, cocycle_basis,
                     commutant_dimension, deform, deformation_correction,
                     pairing_dual, random_cocycle, random_representation,
                     relator_defect, rh_differential)
from goldman.charts import (FLAT, closedness_floors, closedness_residuals, convergence_order,
                            rh_word_value)
from goldman.cocycles import CocycleStack, linear_combination
from goldman.linalg import expm, frob
from goldman.reps import evaluate, newton_project


def unit_h1_direction(basis, seed):
    rng = np.random.default_rng(seed)
    chi = random_cocycle(basis, rng, space="h1")
    return chi * (1.0 / chi.norm())


def fitted_order(steps, values):
    return float(np.polyfit(np.log(steps), np.log(values), 1)[0])


def curve_differential(chart, h):
    """rh_differential of the one-axis chart's curve at step h."""
    return rh_differential(chart.center, chart.point((h,)), chart.point((-h,)), h)


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
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        corrections = [deformation_correction(chart, (t,)) for t in steps]
        assert abs(fitted_order(steps, corrections) - 2.0) < 0.2

    def test_correction_reads_the_memoised_point(self, basis_g2n2, monkeypatch):
        chi = unit_h1_direction(basis_g2n2, 53)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        point = chart.point((1e-3,))
        retractions = []
        monkeypatch.setattr(goldman.charts, "newton_project",
                            lambda *args, **kwargs: retractions.append(args))
        deformation_correction(chart, (1e-3,))
        assert retractions == []
        assert list(chart._cache) == [(1e-3,)]
        assert chart._cache[(1e-3,)] is point
        monkeypatch.undo()
        deformation_correction(chart, (5e-4,))
        assert list(chart._cache) == [(1e-3,), (5e-4,)]

    def test_correction_reads_the_memoised_raw_move(self, basis_g2n2, monkeypatch):
        chi = unit_h1_direction(basis_g2n2, 53)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        moves = []
        raw_move = goldman.charts._raw_deformed_images

        def counted(rep, values):
            moves.append(len(values))
            return raw_move(rep, values)

        monkeypatch.setattr(goldman.charts, "_raw_deformed_images", counted)
        steps = (1e-3, 5e-4)
        points = chart.points([(t,) for t in steps])
        corrections = [deformation_correction(chart, (t,)) for t in steps + (0.0,)]
        # one stacked raw move for both steps; the centre's is its images
        assert moves == [2]
        assert corrections[2] == 0.0
        for t, point, correction in zip(steps, points, corrections):
            raw = [scipy.linalg.expm(t * v) @ x for v, x in zip(chi.values, chart.center.images)]
            expected = np.sqrt(sum(np.linalg.norm(a - b) ** 2
                                   for a, b in zip(raw, point.images)))
            assert correction == pytest.approx(expected, rel=1e-6)

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
        chi = rh_differential(rep_g2n2, rep_g2n2, rep_g2n2, 1e-4)
        assert chi.norm() < 1e-12

    def test_round_trip_second_order(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 56)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        target = basis_g2n2.h1_coordinates(chi)
        steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        errors = [np.linalg.norm(basis_g2n2.h1_coordinates(
            curve_differential(chart, h)) - target) for h in steps]
        for i in range(3):
            assert 3.5 <= errors[i] / errors[i + 1] <= 4.5

    def test_class_distance_at_small_step(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 57)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        rec = curve_differential(chart, 1e-4)
        distance = np.linalg.norm(basis_g2n2.h1_coordinates(rec)
                                  - basis_g2n2.h1_coordinates(chi))
        assert distance < 1e-5

    def test_conjugation_curve_has_zero_class(self, basis_g2n2):
        rng = np.random.default_rng(58)
        rep = basis_g2n2.base
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = v / np.linalg.norm(v)

        def conjugated(t):
            c = scipy.linalg.expm(t * v)
            c_inv = scipy.linalg.expm(-t * v)
            return Representation(rep.presentation, 2,
                                  tuple(c @ m @ c_inv for m in rep.images),
                                  "general-linear")

        rec = rh_differential(rep, conjugated(1e-4), conjugated(-1e-4), 1e-4)
        assert rec.norm() > 1e-2  # nonzero cocycle...
        assert np.linalg.norm(basis_g2n2.h1_coordinates(rec)) < 1e-6  # ...zero class

    def test_direction_points_are_cached(self, basis_g2n2):
        chi = unit_h1_direction(basis_g2n2, 5)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        point = chart.point((1e-3,))
        assert chart.point((1e-3,)) is point
        assert chart.point((-1e-3,)) is not point

    def test_step_floor(self, rep_g2n2):
        with pytest.raises(InputError):
            rh_differential(rep_g2n2, rep_g2n2, rep_g2n2, 1e-10)

    @pytest.mark.parametrize("bad", [float("nan"), -float("nan")])
    def test_nan_step_rejected_at_every_entry(self, basis_g2n2, bad):
        rep = basis_g2n2.base
        chi = unit_h1_direction(basis_g2n2, 62)
        chart = Chart(center=rep, frame=(chi,))
        # constant points have no trust region: only the step check stands
        # between a NaN step and a NaN result
        word = rep.presentation.word([(0, 1), (1, -1)])
        calls = [lambda: deform(rep, chi, bad),
                 lambda: chart.point((bad,)),
                 lambda: rh_differential(rep, rep, rep, bad),
                 lambda: rh_word_value(rep, rep, rep, [word], bad),
                 lambda: chart.transported_frame_direction(np.zeros(1), 0, bad)]
        for call in calls:
            with pytest.raises(InputError):
                call()

    def test_relator_constraint_second_order(self, basis_g2n2):
        from goldman import relator_residual

        chi = unit_h1_direction(basis_g2n2, 60)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        res = [relator_residual(curve_differential(chart, h)) for h in (2e-3, 1e-3)]
        assert 3.4 <= res[0] / res[1] <= 4.6

    def test_word_level_law_second_order(self, basis_g2n2):
        rng = np.random.default_rng(61)
        rep = basis_g2n2.base
        pres = rep.presentation
        chi = unit_h1_direction(basis_g2n2, 61)
        chart = Chart(center=rep, frame=(chi,))
        raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(1, 8)))]
        pairs = [(pres.word(raw()), pres.word(raw())) for _ in range(50)]
        residuals = []
        for h in (2e-3, 1e-3):
            points = (rep, chart.point((h,)), chart.point((-h,)))
            worst = 0.0
            for u, v in pairs:
                s_u = evaluate(rep, u)
                uv_value, u_value, v_value = rh_word_value(*points, [u * v, u, v], h)
                law = uv_value - u_value - s_u @ v_value @ np.linalg.inv(s_u)
                worst = max(worst, frob(law))
            residuals.append(worst)
        assert 3.2 <= residuals[0] / residuals[1] <= 4.8

    @pytest.mark.parametrize("genus,rank,flavor", [(2, 2, "unitary"), (2, 3, "general-linear"),
                                                   (3, 2, "unitary"), (2, 1, "unitary")])
    def test_word_values_are_wordwise_bit_for_bit(self, genus, rank, flavor):
        # the letterwise quotient, word by word, is the reference
        rep = random_representation(genus, rank, flavor, seed=rank)
        chi = unit_h1_direction(cocycle_basis(rep), 65)
        chart = Chart(center=rep, frame=(chi,))
        points = (rep, chart.point((1e-3,)), chart.point((-1e-3,)))
        rng = np.random.default_rng(66)
        pres = rep.presentation
        words = [pres.word([(int(rng.integers(0, 2 * genus)), int(rng.choice([-1, 1])))
                            for _ in range(int(rng.integers(0, 9)))]) for _ in range(40)]
        stacked = rh_word_value(*points, words, 1e-3)
        assert stacked.shape == (40, rank, rank)
        for w, value in zip(words, stacked):
            center, plus, minus = (evaluate(p, w) for p in points)
            reference = (plus - minus) / (2.0 * 1e-3) @ np.linalg.inv(center)
            assert np.array_equal(value, reference)
            assert np.array_equal(value, rh_word_value(*points, [w], 1e-3)[0])
        assert rh_word_value(*points, [], 1e-3).shape == (0, rank, rank)


class TestChart:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_one_axis_point_is_deform_bit_for_bit(self, flavor, rank):
        # a curve along chi is the chart (chi,): its point at t is deform's,
        # and both are the exponential move along t chi retracted alone
        rep = random_representation(2, rank, flavor, seed=rank)
        basis = cocycle_basis(rep)
        rng = np.random.default_rng(64)
        for space in ("h1", "z1"):
            chi = random_cocycle(basis, rng, space=space)
            chi = chi * (1.0 / chi.norm())
            chart = Chart(center=rep, frame=(chi,))
            for t in (-3e-3, -1e-3, 1e-4, 5e-4, 1e-3, 1e-2):
                (reference,) = newton_project(rep.presentation,
                                              [expm(t * chi.values) @ rep.images],
                                              "general-linear", seed=rep.seed)
                for point in (chart.point((t,)), deform(rep, chi, t)):
                    assert np.array_equal(point.images, reference.images)
                    assert np.array_equal(point.inverse_images, reference.inverse_images)

    def test_cache_is_not_a_constructor_argument(self, basis_g2n2):
        rep = basis_g2n2.base
        with pytest.raises(TypeError):
            Chart(rep, basis_g2n2.h1_complement, {(0.0,) * 10: rep})
        with pytest.raises(TypeError):
            Chart(center=rep, frame=basis_g2n2.h1_complement, _cache={})
        assert Chart(rep, basis_g2n2.h1_complement)._cache == {}

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

    def test_frame_base_checked(self, basis_g2n2, trivial_scalar_rep):
        chi = unit_h1_direction(basis_g2n2, 55)
        with pytest.raises(InputError):
            Chart(center=trivial_scalar_rep, frame=(chi,))

    @pytest.mark.parametrize("frame, refused", [
        (lambda basis: basis.h1_complement[0], True), (lambda basis: basis.h1_complement, False),
        (lambda basis: iter(basis.h1_complement), True)], ids=["cocycle", "stack", "iterator"])
    def test_frame_is_a_sequence_of_cocycles(self, basis_g2n2, frame, refused):
        frame = frame(basis_g2n2)
        if refused:
            with pytest.raises(InputError, match="sequence of cocycles") as error:
                Chart(center=basis_g2n2.base, frame=frame)
            assert error.value.exit_code == 2
        else:  # a CocycleStack is a sequence of cocycles, kept as it is
            assert Chart(center=basis_g2n2.base, frame=frame).frame is frame
        stack = basis_g2n2.h1_complement
        chart = Chart(center=basis_g2n2.base, frame=list(stack))
        assert isinstance(chart.frame, CocycleStack)
        assert np.array_equal(chart.frame.values, stack.values)

    def test_coordinate_shape_checked(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        with pytest.raises(InputError):
            chart.point(np.zeros(3))


def closedness_stencil(dimension, triple, h):
    """The 18 chart coordinates of closedness_check at triple and step h:
    +-h e_x and +-h e_x +- h e_y for x != y in the triple."""
    points = []
    for x in triple:
        for sign in (1.0, -1.0):
            coords = np.zeros(dimension)
            coords[x] = sign * h
            points.append(coords)
            for y in triple:
                if y != x:
                    for other in (1.0, -1.0):
                        moved = coords.copy()
                        moved[y] = other * h
                        points.append(moved)
    return points


def projection_shapes(monkeypatch):
    """Record the image-stack shape of every newton_project call charts makes."""
    project = goldman.charts.newton_project
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return project(*args, **kwargs)

    monkeypatch.setattr(goldman.charts, "newton_project", counted)
    return calls



def pairing_calls(monkeypatch):
    """Record every pairing call charts makes: ("pairing_duals", pair
    count) for a stacked call, ("pairing_dual", 1) for a letterwise one."""
    stacked, letterwise = goldman.charts.pairing_duals, goldman.charts.pairing_dual
    calls = []

    def counted_stacked(pairs):
        calls.append(("pairing_duals", len(pairs)))
        return stacked(pairs)

    def counted_letterwise(chi1, chi2):
        calls.append(("pairing_dual", 1))
        return letterwise(chi1, chi2)

    monkeypatch.setattr(goldman.charts, "pairing_duals", counted_stacked)
    monkeypatch.setattr(goldman.charts, "pairing_dual", counted_letterwise)
    return calls


def form_coefficient_residuals(chart, triple, steps):
    """The closedness residual at each step, coefficient by coefficient:
    each partial d_x omega_ab is (omega_ab(+h e_x) - omega_ab(-h e_x)) / 2h
    from two Chart.form_coefficient calls, letterwise pairing_dual each."""
    i, j, k = triple

    def partial(h, axis, a, b):
        plus = np.zeros(chart.dimension)
        plus[axis] = h
        return (chart.form_coefficient(plus, a, b, h)
                - chart.form_coefficient(-plus, a, b, h)) / (2.0 * h)

    return [abs(partial(h, i, j, k) - partial(h, j, i, k) + partial(h, k, i, j))
            for h in steps]


class TestChartPoints:
    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (2, 2, "general-linear"), (3, 2, "unitary"),
        (2, 3, "general-linear"), (2, 1, "unitary")])
    def test_stencil_equals_per_point_deform(self, genus, rank, flavor, monkeypatch):
        rep = random_representation(genus, rank, flavor, seed=21)
        chart = Chart(center=rep, frame=cocycle_basis(rep).h1_complement)
        stencil = closedness_stencil(chart.dimension, (0, 1, 2), 2e-3)
        calls = projection_shapes(monkeypatch)
        points = chart.points(stencil)
        monkeypatch.undo()
        assert calls == [(18, 2 * genus, rank, rank)]
        assert len(chart._cache) == 18
        for coords, point in zip(stencil, points):
            direction = linear_combination(rep, coords, chart.frame)
            moved = deform(rep, direction, 1.0)
            assert np.array_equal(point.images, moved.images)
            assert chart.point(coords) is point

    def test_frame_is_stacked_once_and_read_only(self, basis_g2n2):
        chi, psi = basis_g2n2.h1_complement[:2]
        chart = Chart(center=basis_g2n2.base, frame=(chi, psi))
        stack = chart.frame
        assert chart.frame is stack and stack.base is basis_g2n2.base
        assert np.array_equal(stack.values, np.stack([chi.values, psi.values]))
        assert not stack.values.flags.writeable
        with pytest.raises(ValueError):
            stack.values[0, 0, 0, 0] = 1.0

    def test_frame_is_stacked_at_construction(self, basis_g2n2, monkeypatch):
        stack_cocycles = goldman.charts.stack_cocycles
        calls = []
        monkeypatch.setattr(goldman.charts, "stack_cocycles",
                            lambda frame: calls.append(len(frame)) or stack_cocycles(frame))
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        assert calls == [chart.dimension]
        chart.points([1e-3 * np.eye(chart.dimension)[0], np.zeros(chart.dimension)])
        assert calls == [chart.dimension]
        # a frame over two bases is refused before any point is asked for
        other = unit_h1_direction(cocycle_basis(random_representation(2, 2, seed=1)), 56)
        with pytest.raises(InputError, match="different base") as error:
            Chart(center=basis_g2n2.base, frame=(basis_g2n2.h1_complement[0], other))
        assert error.value.exit_code == 2

    def test_closedness_retracts_its_stencil_once(self, basis_g2n2, monkeypatch):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        calls = projection_shapes(monkeypatch)
        closedness_check(chart, (0, 1, 2), 2e-3)
        assert calls == [(18, 4, 2, 2)]
        expected = {tuple(c.tolist()) for c in closedness_stencil(10, (0, 1, 2), 2e-3)}
        assert set(chart._cache) == expected

    def test_repeated_and_cached_tuples_retract_once(self, basis_g2n2, monkeypatch):
        chi = unit_h1_direction(basis_g2n2, 22)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        first = chart.point((1e-3,))
        calls = projection_shapes(monkeypatch)
        points = chart.points([(1e-3,), (2e-3,), (0.0,), (2e-3,), (-1e-3,)])
        assert calls == [(2, 4, 2, 2)]
        assert points[0] is first and points[1] is points[3]
        assert points[2] is basis_g2n2.base

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
    @pytest.mark.parametrize("at", [0, 2])
    def test_first_bad_tuple_raises_its_own_error(self, basis_g2n2, bad, at):
        # a non-finite coordinate and a move outside the trust region raise
        # what tuple-by-tuple points would, after the tuples before them
        chi = unit_h1_direction(basis_g2n2, 23)
        ladder = [(1e-3,), (-1e-3,), (2e-3,), (-2e-3,)]
        ladder[at] = (bad,)
        ladder.append((np.nan,) if bad == 0.5 else (0.5,))
        serial_chart = Chart(center=basis_g2n2.base, frame=(chi,))
        with pytest.raises(InputError) as serial:
            for coords in ladder:
                serial_chart.point(coords)
        chart = Chart(center=basis_g2n2.base, frame=(chi,))
        with pytest.raises(InputError) as stacked:
            chart.points(ladder)
        assert type(stacked.value) is type(serial.value)
        assert stacked.value.exit_code == serial.value.exit_code == 2
        assert str(stacked.value) == str(serial.value)
        assert list(chart._cache) == list(serial_chart._cache) == ladder[:at]
        for key in ladder[:at]:
            assert np.array_equal(chart._cache[key].images, serial_chart._cache[key].images)


    def test_new_moves_are_one_combination_and_one_norm_call(self, basis_g2n2, monkeypatch):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        combine, norms = goldman.charts.linear_combination, goldman.charts.frobs
        calls = []
        monkeypatch.setattr(goldman.charts, "linear_combination", lambda base, coeffs, stack: (
            calls.append(("linear_combination", np.shape(coeffs)))
            or combine(base, coeffs, stack)))
        monkeypatch.setattr(goldman.charts, "frobs", lambda stack: (
            calls.append(("frobs", np.shape(stack))) or norms(stack)))
        stencil = closedness_stencil(chart.dimension, (0, 1, 2), 2e-3)
        chart.points(stencil + [np.zeros(chart.dimension)] + stencil[:3])
        assert calls == [("linear_combination", (18, 10)), ("frobs", (18, 16))]
        calls.clear()
        chart.points(stencil)
        assert calls == []

    @pytest.mark.parametrize("bad", ["non-finite", "trust-region"])
    def test_batch_ending_in_a_bad_tuple_keeps_the_good_ones(self, basis_g2n2, bad):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        d = chart.dimension
        good = [2e-3 * np.eye(d)[0], -3e-3 * np.eye(d)[4], 1e-3 * np.ones(d)]
        last = np.full(d, np.nan) if bad == "non-finite" else np.eye(d)[2]
        batch = [good[0], np.zeros(d), good[1], good[0], good[2], last]
        with pytest.raises(InputError, match="trust region") as error:
            chart.points(batch)
        assert error.value.exit_code == 2
        keys = [tuple(coords.tolist()) for coords in batch[:3] + batch[4:5]]
        assert list(chart._cache) == [keys[1], keys[0], keys[2], keys[3]]
        assert chart._cache[keys[1]] is basis_g2n2.base
        for coords in good:
            alone = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
            assert np.array_equal(chart.point(coords).images, alone.point(coords).images)
            assert np.array_equal(chart._raw[tuple(coords.tolist())],
                                  alone._raw[tuple(coords.tolist())])

    def test_a_trust_region_error_precedes_a_later_error(self, basis_g2n2):
        # the move out of the trust region comes first in order, so its
        # error is raised, and nothing after it is cached, the center either
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        d = chart.dimension
        good, far = 1e-3 * np.eye(d)[1], np.eye(d)[3]
        with pytest.raises(InputError, match="move of norm 1 leaves the deformation trust"):
            chart.points([good, far, np.zeros(d), 2e-3 * np.eye(d)[1], np.zeros(d + 1)])
        assert list(chart._cache) == [tuple(good.tolist())]


class TestStepTypes:
    """A bool is no step: Python counts True as the number 1, and the step
    checks refuse it as is_integer does."""

    @pytest.mark.parametrize("call", [
        lambda rep, chart: rh_differential(rep, rep, rep, True),
        lambda rep, chart: rh_word_value(rep, rep, rep, [rep.presentation.a(1)], True),
        lambda rep, chart: chart.transport_stencil(np.zeros(chart.dimension), 0, True),
        lambda rep, chart: chart.transported_frame_direction(np.zeros(chart.dimension), 0,
                                                             np.True_),
        lambda rep, chart: closedness_residuals(chart, (0, 1, 2), [1e-3, True]),
        lambda rep, chart: closedness_floors(chart, (0, 1, 2), [False]),
    ], ids=["rh-differential", "rh-word-value", "transport-stencil",
            "transported-direction", "closedness-residuals", "closedness-floors"])
    def test_a_bool_is_not_a_step(self, basis_g2n2, call):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        with pytest.raises(InputError, match="got bool"):
            call(basis_g2n2.base, chart)

    def test_a_number_is_a_step(self, basis_g2n2):
        rep = basis_g2n2.base
        for step in (1, np.float64(1e-3), np.int64(1)):
            assert isinstance(rh_differential(rep, rep, rep, step), Cocycle)


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

    @pytest.mark.parametrize("axis", [-1, 2, 1.0])
    def test_transported_axis_range_enforced(self, basis_g2n2, axis):
        # a negative axis would index from the end, one past the last fails,
        # and a float is no index
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement[:2])
        with pytest.raises(InputError, match=rf"frame index {axis} out of range 0\.\.1"):
            chart.transported_frame_direction(np.zeros(2), axis, 1e-3)


class TestClosednessLadder:
    """closedness_residuals retracts the stencils of a whole ladder once."""

    @pytest.mark.parametrize("flavor, triple, steps", [
        ("unitary", (0, 1, 2), [8e-3, 4e-3, 2e-3, 1e-3]),
        ("general-linear", (2, 0, 1), [5e-3, 1e-3, 2.5e-4]),
        ("general-linear", (0, 1, 3), [1e-3])])
    def test_ladder_is_per_step_checks_bit_for_bit(self, flavor, triple, steps,
                                                   monkeypatch):
        rep = random_representation(2, 2, flavor, seed=41)
        frame = cocycle_basis(rep).h1_complement
        chart = Chart(center=rep, frame=frame)
        calls = projection_shapes(monkeypatch)
        residuals = closedness_residuals(chart, triple, steps)
        monkeypatch.undo()
        assert calls == [(18 * len(steps), 4, 2, 2)]
        serial = [closedness_check(Chart(center=rep, frame=frame), triple, h) for h in steps]
        assert residuals == serial
        assert all(type(r) is float for r in residuals)

    @pytest.mark.parametrize("bad", [1e-5, 0.1, np.nan])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_bad_step_anywhere_raises_before_any_retraction(self, basis_g2n2, bad, at,
                                                           monkeypatch):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        steps = [8e-3, 4e-3, 2e-3, 1e-3]
        steps[at] = bad
        calls = projection_shapes(monkeypatch)
        with pytest.raises(InputError, match="closedness step"):
            closedness_residuals(chart, (0, 1, 2), steps)
        with pytest.raises(InputError, match="out of range"):
            closedness_residuals(chart, (0, 1, 10), [1e-3])
        assert calls == [] and chart._cache == {}

    @pytest.mark.parametrize("reader", [closedness_residuals, closedness_floors])
    def test_empty_ladder_is_refused_by_name(self, basis_g2n2, reader, monkeypatch):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        calls = projection_shapes(monkeypatch)
        with pytest.raises(InputError, match="closedness steps must be a non-empty ladder"):
            reader(chart, (0, 1, 2), [])
        assert calls == [] and chart._cache == {}

    def test_repeated_index_ladder_is_zero_without_points(self, basis_g2n2, monkeypatch):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        calls = projection_shapes(monkeypatch)
        pairings = pairing_calls(monkeypatch)
        assert closedness_residuals(chart, (1, 0, 1), [4e-3, 1e-3]) == [0.0, 0.0]
        assert closedness_check(chart, (2, 2, 0), 1e-3) == 0.0
        assert calls == [] and pairings == [] and chart._cache == {}

    @pytest.mark.parametrize("genus, rank, flavor, triple, steps", [
        (2, 2, "unitary", (0, 1, 2), [8e-3, 4e-3, 2e-3, 1e-3]),
        (2, 2, "general-linear", (2, 0, 1), [5e-3, 1e-3]),
        (3, 2, "unitary", (1, 4, 3), [2e-3]),
        (2, 3, "general-linear", (0, 1, 2), [4e-3, 1e-3]),
        (2, 1, "unitary", (0, 1, 2), [1e-2, 1e-3, 1e-4])])
    def test_ladder_is_form_coefficients_bit_for_bit(self, genus, rank, flavor, triple,
                                                     steps, monkeypatch):
        rep = random_representation(genus, rank, flavor, seed=42)
        frame = cocycle_basis(rep).h1_complement
        pairings = pairing_calls(monkeypatch)
        residuals = closedness_residuals(Chart(center=rep, frame=frame), triple, steps)
        monkeypatch.undo()
        # one stacked call pairs the 6 form coefficients of every step
        assert pairings == [("pairing_duals", 6 * len(steps))]
        reference = form_coefficient_residuals(Chart(center=rep, frame=frame), triple, steps)
        assert residuals == reference

    def test_command_output_is_pinned(self, capsys):
        # the benchmark's closedness job shape: (2,2) general-linear with the
        # default triple and ladder; the digest was taken before the ladder
        # shared one retraction
        argv = ["--genus", "2", "--rank", "2", "--flavor", "general-linear", "--seed", "7",
                "closedness"]
        assert goldman.cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("residual[h=") == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7648ca711b7b2cbc6f7dea13d4c01f4f9d9db145d51eca7609488fb6116d0081")


class TestConvergenceOrder:
    def test_slope_of_a_power_law(self):
        steps = [8e-3, 4e-3, 2e-3, 1e-3]
        assert convergence_order(steps, [3.0 * h ** 2 for h in steps]) == pytest.approx(2.0)
        # the two-point fit is the base-two logarithm of the ratio
        order = convergence_order([1e-3, 5e-4], [2.5e-7, 6e-8])
        assert order == pytest.approx(np.log2(2.5e-7 / 6e-8), abs=1e-13)

    @pytest.mark.parametrize("steps", [[], [1e-3], [1e-3, 1e-3]])
    def test_no_order_without_two_distinct_steps(self, steps):
        # even a ladder of zeros: one step size gives no slope to read
        assert convergence_order(steps, [0.0] * len(steps)) is None

    def test_flat_below_the_default_floor(self):
        assert convergence_order([2e-3, 1e-3], [0.0, 0.0]) is FLAT
        assert convergence_order([2e-3, 1e-3], [9e-13, 3e-13]) is FLAT
        # one value at the floor is not flat, and a slope is read
        assert convergence_order([2e-3, 1e-3], [4e-12, 1e-12]) == pytest.approx(2.0)

    def test_flat_below_per_step_floors(self):
        values = [2e-11, 8e-11]
        assert convergence_order([2e-3, 1e-3], values, floors=[1e-10, 1e-10]) is FLAT
        assert convergence_order([2e-3, 1e-3], values, floors=[1e-10, 1e-11]) == \
            pytest.approx(-2.0)

    @pytest.mark.parametrize("values", [[1e-6, 0.0], [1e-6, -1e-7], [1e-6, np.nan]])
    def test_no_order_when_a_value_is_not_positive(self, values):
        assert convergence_order([2e-3, 1e-3], values) is None

    def test_closedness_floors_scale_with_the_triple(self, basis_g2n2):
        chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
        floors = closedness_floors(chart, (0, 1, 2), [2e-3, 1e-3])
        assert floors[1] == pytest.approx(4 * floors[0])
        omega = np.array([[pairing_dual(a, b) for b in chart.frame[:3]]
                          for a in chart.frame[:3]])
        assert floors[1] == pytest.approx(np.finfo(float).eps * np.abs(omega).max() / 1e-6)
        for triple in ((0, 1, 10), (-1, 0, 1)):  # a negative index would read the last
            with pytest.raises(InputError, match="frame index"):
                closedness_floors(chart, triple, [1e-3])


class TestCommutingFlows:
    def test_first_order_flows_commute(self, basis_g2n2):
        rep = basis_g2n2.base
        chi1 = unit_h1_direction(basis_g2n2, 62)
        chi2 = unit_h1_direction(basis_g2n2, 63)

        def disagreement(t):
            via1 = deform(rep, chi1, t)
            via2 = deform(rep, chi2, t)
            first = deform(via1, Cocycle(via1, chi2.values), t)
            second = deform(via2, Cocycle(via2, chi1.values), t)
            return np.sqrt(sum(frob(a - b) ** 2
                               for a, b in zip(first.images, second.images)))

        steps = [2e-3, 1e-3]
        values = [disagreement(t) for t in steps]
        assert abs(fitted_order(steps, values) - 2.0) < 0.4
