"""Local differential geometry on the character variety.

A chart is a representation with a frame of cocycles.  Its point at
coordinates c is the exponential move along sum_i c_i chi_i on the
generator images followed by Newton projection back to the relator
variety (a retraction with first-order tangency), memoised by coordinate
tuple.  It is the one retraction: deform(rep, chi, t) is the point t of
the one-axis chart (chi,), the curve along chi.  The differential of the
deformation map is recovered from three points of a curve by central
differences with right division,

    chi(x) ~ [sigma_{+h}(x) - sigma_{-h}(x)] / (2h) * sigma(x)^{-1},

and a finite-difference check of d(omega) = 0 reads the pairing in a
chart built from an H1-complement frame.  A closedness ladder retracts
all its stencils in one Newton solve and reads all its form
coefficients, over as many chart points, in one stacked pairing_duals
call; form_coefficient stays the letterwise pairing_dual of one point.
convergence_order is the one rule that reads an order from such a
ladder, or finds it flat.  Steps are real numbers (errors.require_type)
and coordinates arrays of them (linalg.real_array), so a wrong type is an
InputError (exit 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import tolerances
from .errors import InputError, require_type
from .cocycles import Cocycle, CocycleStack, linear_combination, stack_cocycles
from .linalg import expm, frobs, real_array, tuple_distance
from .pairing import gram, pairing_dual, pairing_duals
from .reps import GENERAL_LINEAR, Representation, evaluate_words, newton_project
from .words import WordBatch, check_index

TRIVIALIZATION = "right"  # division side used in the difference quotient


def _raw_deformed_images(rep: Representation, values: np.ndarray):
    # expm of a stack exponentiates (and scales) each matrix on its own,
    # so a (k, 2g, n, n) stack of cocycle values moves each tuple alone
    return expm(values) @ rep.images


def _check_step(step, what: str, low: float, high: float = np.inf) -> None:
    """InputError (exit 2) unless step is a real number in [low, high]:
    NaN is refused, and so is a bool, which Python counts as a number."""
    if isinstance(require_type(step, Real, what), bool):
        raise InputError(f"{what} must be a Real, got bool")
    if not low <= step <= high:  # NaN fails too
        raise InputError(f"{what} {step:g} outside [{low:g}, {high:g}]")


def rh_differential(center: Representation, plus: Representation,
                    minus: Representation, step: float) -> Cocycle:
    """Central-difference tangent cocycle of a curve through center, from
    its points plus and minus at parameters +step and -step.

    Right trivialization: the difference quotient of the generator images
    is divided by the center image on the right.  On a curve of retracted
    points the result satisfies the cocycle law and the relator
    constraint to second order in the step.  InputError (exit 2) unless
    the three points are representations of one genus and rank.
    """
    for point in (center, plus, minus):
        require_type(point, Representation, "each point of the difference")
    _check_step(step, "the difference step", tolerances.MIN_FD_STEP)
    if not center.images.shape == plus.images.shape == minus.images.shape:
        raise InputError("center, plus and minus points differ in genus or rank")
    return Cocycle(center, (plus.images - minus.images) / (2.0 * step)
                   @ center.inverse_images)


def rh_word_value(center: Representation, plus: Representation,
                  minus: Representation, words, step: float) -> np.ndarray:
    """Word-level central difference quotients, right-trivialized, shape
    (len(words), n, n).

    Unlike extending rh_differential generator values (which satisfies
    the cocycle law by construction), this evaluates each whole word at
    each point, so comparing it against the law is a real second-order
    consistency test of the differential.  Each point evaluates all the
    words, GroupWords or a WordBatch, in one evaluate_words call, bit for
    bit evaluate word by word.
    """
    _check_step(step, "the difference step", tolerances.MIN_FD_STEP)
    words = words if isinstance(words, WordBatch) else list(words)
    return ((evaluate_words(plus, words) - evaluate_words(minus, words)) / (2.0 * step)
            @ np.linalg.inv(evaluate_words(center, words)))


@dataclass(eq=False)
class Chart:
    """Coordinates around a representation: center plus a cocycle frame.

    Points are Newton-retracted exponentials along real combinations of
    the frame; evaluations are pure and cached by coordinate tuple, with
    the raw exponential move of each tuple beside its retraction.  A
    curve along chi is the one-axis chart (chi,), and deform its point.
    """

    center: Representation
    frame: CocycleStack
    _cache: dict = field(default_factory=dict, init=False, repr=False)
    _raw: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        require_type(self.center, Representation, "the chart's center")
        if not isinstance(self.frame, Sequence):
            raise InputError(f"chart frame must be a sequence of cocycles, "
                             f"got {type(self.frame).__name__}")
        # points combine the frame over the center: it is stacked once, here
        # (a stack is kept), and its one base checked against the center
        self.frame = stack_cocycles(self.frame)
        if not self.center.same_base(self.frame.base):
            raise InputError("chart frame cocycle lives over a different representation")

    @property
    def dimension(self) -> int:
        return len(self.frame)

    def point(self, coords) -> Representation:
        return self.points((coords,))[0]

    def points(self, coords_list) -> tuple[Representation, ...]:
        """The points at each coordinate tuple, in order, memoised.

        Each tuple is checked in turn: its shape, a non-finite entry, and
        the trust region of its move; the zero tuple is the center.  The
        frame combinations of the tuples not yet cached are one
        linear_combination call, their trust-region norms one frobs call,
        their raw moves one stacked exponential, and their retractions one
        newton_project call on the stack, each bit for bit its tuple's
        alone.  A bad tuple raises once the tuples before it are
        retracted, so the first error in order is the one raised.
        """
        keys, pending = [], {}
        try:
            for coords in coords_list:
                keys.append(self._checked_key(coords, pending))
        finally:
            # a move out of the trust region precedes the error that stopped
            # the loop, and a Newton failure of an earlier tuple supersedes both
            moving, values, error = self._trusted_moves(pending)
            if moving:
                raw = _raw_deformed_images(self.center, values)
                self._cache.update(zip(moving, newton_project(
                    self.center.presentation, raw, GENERAL_LINEAR, seed=self.center.seed)))
                self._raw.update(zip(moving, raw))
            if error:
                raise error
        return tuple(self._cache[key] for key in keys)

    def _checked_key(self, coords, pending: dict):
        """Cache key of one coordinate tuple; a key not yet cached is added
        to pending, with its coordinates, or None for the zero tuple."""
        coords = real_array(coords, "chart coordinates")
        if coords.shape != (self.dimension,):
            raise InputError(f"expected {self.dimension} chart coordinates")
        key = tuple(coords.tolist())
        if key in self._cache or key in pending:
            return key
        # a non-finite move scales no cocycle: refuse it as too long
        if not np.isfinite(coords).all():
            raise InputError(f"chart coordinates {key} leave the deformation trust region")
        pending[key] = coords if np.any(coords) else None
        return key

    def _trusted_moves(self, pending: dict):
        """(keys, cocycle values, error) of the pending moves, in order, up
        to the first that leaves the trust region, whose InputError is
        returned (None when every move is inside); the zero tuples before
        it are cached as the center."""
        moving = [key for key, coords in pending.items() if coords is not None]
        values, norms = None, []
        if moving:
            directions = linear_combination(
                self.center, np.array([pending[key] for key in moving]), self.frame)
            values, norms = directions.values, frobs(directions.flat)
        limit = tolerances.DEFORM_TRUST * (1 + tolerances.DEFORM_TRUST_SLACK)
        count = next((i for i, norm in enumerate(norms) if not norm <= limit), len(moving))
        error = None
        if count < len(moving):
            error = InputError(f"move of norm {norms[count]:g} leaves the deformation "
                               f"trust region (<= {tolerances.DEFORM_TRUST:g})")
        for key, coords in pending.items():
            if error and key == moving[count]:
                break
            if coords is None:
                self._cache[key], self._raw[key] = self.center, self.center.images
        return moving[:count], values[:count] if moving else None, error

    def transport_stencil(self, coords: np.ndarray, axis: int, step: float):
        """The chart coordinates transported_frame_direction reads: coords
        and coords +- step along axis."""
        check_index("frame index", axis, self.dimension)
        _check_step(step, "the difference step", tolerances.MIN_FD_STEP)
        coords = real_array(coords, "chart coordinates")
        offset = np.zeros(self.dimension)
        offset[axis] = step
        return coords, coords + offset, coords - offset

    def transported_frame_direction(self, coords: np.ndarray, axis: int,
                                    step: float) -> Cocycle:
        """Pushforward of the coordinate direction `axis` at a chart point."""
        center, plus, minus = self.transport_stencil(coords, axis, step)
        return rh_differential(self.point(center), self.point(plus), self.point(minus),
                               step)

    def form_coefficient(self, coords, i: int, j: int, step: float) -> complex:
        """omega(d/de_i, d/de_j) at a chart point, via transported directions."""
        chi_i = self.transported_frame_direction(coords, i, step)
        chi_j = self.transported_frame_direction(coords, j, step)
        return pairing_dual(chi_i, chi_j)


def deform(rep: Representation, direction: Cocycle, t: float) -> Representation:
    """The point at t of the one-axis chart (direction,): general-linear
    even over a unitary center, as a complex direction leaves the unitary
    locus and the retraction must not force it back."""
    return Chart(rep, (direction,)).point((t,))


def deformation_correction(chart: Chart, coords) -> float:
    """Distance between the raw exponential move to chart coordinates and
    its Newton retraction, both read from the chart's memo.

    Second order in the coordinates: the exponential move is tangent to
    the variety.  InputError (exit 2) unless chart is a Chart.
    """
    projected = require_type(chart, Chart, "the chart").point(coords)  # checks the coordinates
    raw = chart._raw[tuple(np.asarray(coords, dtype=float).tolist())]
    return tuple_distance(raw, projected.images)


def closedness_check(chart: Chart, triple: tuple[int, int, int],
                     h: float) -> float:
    """Central-difference exterior derivative of the pairing coefficients.

    d(omega)_{ijk} = d_i omega_{jk} - d_j omega_{ik} + d_k omega_{ij} at
    the chart center; repeated indices give zero exactly by alternation.
    The residual decays at second order in h for a closed form.  It is
    closedness_residuals of the one-step ladder (h,).
    """
    return closedness_residuals(chart, triple, (h,))[0]


def closedness_residuals(chart: Chart, triple: tuple[int, int, int], steps) -> list[float]:
    """closedness_check at each step of a ladder, from one retraction.

    The triple and every step are checked first, so a bad one raises
    before any point is retracted.  The stencils of all the steps, in
    ladder order and in the order the partials read them, are one
    chart.points call, one stacked Newton solve; the transported
    directions are then read from the chart's memo.  The ladder's 6 form
    coefficients per step, each at its own chart point, are one
    pairing_duals call, and the residuals combine them in
    form_coefficient's Python complex arithmetic.  Newton retracts each
    tuple of a stack as it would alone, and pairing_duals pairs each pair
    as pairing_dual would, so each value is closedness_check's at its
    step, and the per-coefficient form_coefficient's, bit for bit.
    """
    (i, j, k), steps = _closedness_ladder(chart, triple, steps)
    if len({i, j, k}) < 3:
        return [0.0] * len(steps)
    d = chart.dimension
    terms = ((i, j, k), (j, i, k), (k, i, j))  # d_axis omega_ab, signs + - +

    def sides(axis: int, h: float):
        plus = np.zeros(d)
        plus[axis] = h
        return plus, -plus

    coefficients = [(coords, a, b, h) for h in steps for axis, a, b in terms
                    for coords in sides(axis, h)]
    chart.points([point for coords, a, b, h in coefficients for direction in (a, b)
                  for point in chart.transport_stencil(coords, direction, h)])
    omega = pairing_duals([(chart.transported_frame_direction(coords, a, h),
                            chart.transported_frame_direction(coords, b, h))
                           for coords, a, b, h in coefficients]).tolist()
    # d_axis omega_ab = (omega_ab(+h e_axis) - omega_ab(-h e_axis)) / 2h, per term
    partials = [(plus - minus) / (2.0 * h) for plus, minus, h in
                zip(omega[0::2], omega[1::2], [h for h in steps for _ in terms])]
    return [abs(d_i - d_j + d_k)
            for d_i, d_j, d_k in zip(partials[0::3], partials[1::3], partials[2::3])]


def closedness_floors(chart: Chart, triple: tuple[int, int, int], steps) -> list[float]:
    """Roundoff floor of closedness_check at each step: a constant form
    (rank one) leaves about eps * max|omega| / h^2 after differencing,
    omega over the triple's frame cocycles.  The triple and the steps are
    refused as closedness_residuals refuses them."""
    triple, steps = _closedness_ladder(chart, triple, steps)
    scale = np.abs(gram([chart.frame[index] for index in triple]).matrix).max()
    return [np.finfo(float).eps * scale / h ** 2 for h in steps]


def _closedness_ladder(chart: Chart, triple, steps) -> tuple[tuple[int, int, int], list]:
    """(triple, steps) as three frame indices of chart and a non-empty list
    of closedness steps; InputError (exit 2) at the first bad one, a chart
    that is not a Chart first."""
    triple = _frame_triple(require_type(chart, Chart, "the chart"), triple)
    steps = list(require_type(steps, Iterable, "closedness steps"))
    if not steps:
        raise InputError("closedness steps must be a non-empty ladder, got none")
    for h in steps:
        _check_step(h, "a closedness step", tolerances.FINITE_DIFFERENCE,
                    tolerances.CLOSEDNESS_MAX_STEP)
    return triple, steps


def _frame_triple(chart: Chart, triple) -> tuple[int, int, int]:
    """triple as three frame indices of chart; InputError (exit 2) otherwise."""
    try:
        i, j, k = triple
    except (TypeError, ValueError):
        raise InputError(f"closedness needs a triple of frame indices, got {triple!r}") from None
    for index in (i, j, k):
        check_index("frame index", index, chart.dimension)
    return i, j, k


FLAT = "flat"  # the order of a ladder whose values all lie at roundoff


def convergence_order(steps, values, floors=None):
    """Least-squares slope of log(value) against log(step): None with fewer
    than two distinct steps, FLAT when every value lies below its floor
    (default tolerances.FLAT_FLOOR), None when a value is not positive."""
    if len(set(steps)) < 2:
        return None
    floors = floors or [tolerances.FLAT_FLOOR] * len(values)
    if all(v < f for v, f in zip(values, floors)):
        return FLAT
    if not all(v > 0 for v in values):
        return None
    return float(np.polyfit(np.log(steps), np.log(values), 1)[0])
