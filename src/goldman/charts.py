"""Local differential geometry on the character variety.

Deformation curves move a representation along a cocycle direction by
exponentials on the generator images followed by Newton projection back
to the relator variety (a retraction with first-order tangency).  The
differential of the deformation/monodromy map is recovered from such a
curve by central differences with right division,

    chi(x) ~ [sigma_{+h}(x) - sigma_{-h}(x)] / (2h) * sigma(x)^{-1},

and a finite-difference check of d(omega) = 0 runs over coordinate
charts built from an H1-complement frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import tolerances
from .errors import InputError
from .cocycles import Cocycle
from .pairing import pairing_dual
from .reps import GENERAL_LINEAR, Representation, newton_project

TRIVIALIZATION = "right"  # division side used in the difference quotient


def _raw_deformed_images(rep: Representation, direction: Cocycle, t: float):
    return [scipy.linalg.expm(t * value) @ image
            for value, image in zip(direction.values, rep.images)]


def _check_trust(rep: Representation, direction: Cocycle, t: float):
    # a NaN step fails the comparison too
    if not abs(t) * direction.norm() <= tolerances.DEFORM_TRUST * (1 + 1e-12):
        raise InputError(
            f"step {t:g} leaves the deformation trust region "
            f"(|t|*||chi|| <= {tolerances.DEFORM_TRUST:g})")


def _check_fd_step(step: float):
    if not step >= tolerances.MIN_FD_STEP:  # NaN fails too
        raise InputError(f"step {step:g} below minimum {tolerances.MIN_FD_STEP:g}")


def deform(rep: Representation, direction: Cocycle, t: float) -> Representation:
    """Move along a cocycle direction and retract onto the relator variety.

    The deformed point is general-linear even over a unitary center: a
    complex cocycle direction leaves the unitary locus, so the retraction
    must not force images back into the unitary group.
    """
    if not rep.same_base(direction.base):
        raise InputError("direction cocycle lives over a different representation")
    _check_trust(rep, direction, t)
    if t == 0.0:
        return rep
    raw = _raw_deformed_images(rep, direction, t)
    return newton_project(rep.presentation, raw, GENERAL_LINEAR, seed=rep.seed)


def deformation_correction(rep: Representation, direction: Cocycle, t: float) -> float:
    """Distance between the raw exponential move and its Newton retraction.

    Second order in t: the exponential move is tangent to the variety.
    """
    if t == 0.0:
        return 0.0
    raw = _raw_deformed_images(rep, direction, t)
    projected = deform(rep, direction, t)
    return float(np.sqrt(sum(
        np.linalg.norm(a - b) ** 2 for a, b in zip(raw, projected.images))))


def transport_values(chi: Cocycle, new_base: Representation) -> Cocycle:
    """Reuse generator values over a nearby base (zeroth-order transport)."""
    return Cocycle(new_base, chi.values)


@dataclass(frozen=True, eq=False)
class DeformationCurve:
    """A curve of representations through a center point.

    The default evaluator deforms along a fixed cocycle direction; a
    custom evaluator (for example a pure conjugation curve) may be
    supplied instead.  Points along the direction are deterministic, so
    they are cached by parameter; a custom evaluator is called every time.
    """

    center: Representation
    direction: Cocycle | None = None
    evaluator: Callable[[float], Representation] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, t: float) -> Representation:
        if t == 0.0:
            return self.center
        if self.evaluator is not None:
            return self.evaluator(t)
        if self.direction is None:
            raise InputError("curve needs a direction or an explicit evaluator")
        if t not in self._cache:
            self._cache[t] = deform(self.center, self.direction, t)
        return self._cache[t]


def rh_differential(curve: DeformationCurve, step: float) -> Cocycle:
    """Central-difference tangent cocycle of a representation curve.

    Right trivialization: the difference quotient of the generator images
    is divided by the center image on the right.  The result satisfies
    the cocycle law and the relator constraint to second order in the
    step.
    """
    _check_fd_step(step)
    if curve.direction is not None:
        _check_trust(curve.center, curve.direction, step)
    center = curve.center
    plus = curve.at(step)
    minus = curve.at(-step)
    values = tuple(
        (p - m) / (2.0 * step) @ center.image(i, -1)
        for i, (p, m) in enumerate(zip(plus.images, minus.images)))
    return Cocycle(center, values)


def rh_word_value(curve: DeformationCurve, word, step: float) -> np.ndarray:
    """Word-level difference quotient of a curve, right-trivialized.

    Unlike extending rh_differential generator values (which satisfies
    the cocycle law by construction), this evaluates the whole word on
    the curve, so comparing it against the law is a real second-order
    consistency test of the differential.
    """
    from .reps import evaluate

    _check_fd_step(step)
    plus = evaluate(curve.at(step), word)
    minus = evaluate(curve.at(-step), word)
    center = evaluate(curve.center, word)
    return (plus - minus) / (2.0 * step) @ np.linalg.inv(center)


@dataclass(eq=False)
class Chart:
    """Coordinates around a representation: center plus a cocycle frame.

    Points are Newton-retracted exponentials along real combinations of
    the frame; evaluations are pure and cached by coordinate tuple.
    """

    center: Representation
    frame: tuple[Cocycle, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.frame)

    def _direction(self, coords: np.ndarray) -> Cocycle:
        flat = sum(c * chi.flat for c, chi in zip(coords, self.frame))
        from .cocycles import from_flat

        return from_flat(self.center, flat)

    def point(self, coords) -> Representation:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dimension,):
            raise InputError(f"expected {self.dimension} chart coordinates")
        key = tuple(coords.tolist())
        if key not in self._cache:
            if not np.any(coords):
                self._cache[key] = self.center
            else:
                self._cache[key] = deform(self.center, self._direction(coords), 1.0)
        return self._cache[key]

    def transported_frame_direction(self, coords: np.ndarray, axis: int,
                                    step: float) -> Cocycle:
        """Pushforward of the coordinate direction `axis` at a chart point."""
        base = self.point(coords)

        def evaluator(t: float) -> Representation:
            offset = np.array(coords, dtype=float)
            offset[axis] += t
            return self.point(offset)

        return rh_differential(DeformationCurve(center=base, evaluator=evaluator),
                               step)

    def form_coefficient(self, coords, i: int, j: int, step: float) -> complex:
        """omega(d/de_i, d/de_j) at a chart point, via transported directions."""
        coords = np.asarray(coords, dtype=float)
        chi_i = self.transported_frame_direction(coords, i, step)
        chi_j = self.transported_frame_direction(coords, j, step)
        return pairing_dual(chi_i, chi_j)


def closedness_check(chart: Chart, triple: tuple[int, int, int],
                     h: float) -> float:
    """Central-difference exterior derivative of the pairing coefficients.

    d(omega)_{ijk} = d_i omega_{jk} - d_j omega_{ik} + d_k omega_{ij} at
    the chart center; repeated indices give zero exactly by alternation.
    The residual decays at second order in h for a closed form.
    """
    i, j, k = triple
    d = chart.dimension
    for index in triple:
        if not 0 <= index < d:
            raise InputError(f"frame index {index} out of range 0..{d - 1}")
    if not tolerances.FINITE_DIFFERENCE <= h <= 1e-2:
        raise InputError(f"closedness step {h:g} outside [1e-4, 1e-2]")
    if len({i, j, k}) < 3:
        return 0.0

    def partial(axis: int, a: int, b: int) -> complex:
        plus = np.zeros(d)
        plus[axis] = h
        omega_plus = chart.form_coefficient(plus, a, b, step=h)
        omega_minus = chart.form_coefficient(-plus, a, b, step=h)
        return (omega_plus - omega_minus) / (2.0 * h)

    residual = partial(i, j, k) - partial(j, i, k) + partial(k, i, j)
    return abs(residual)
