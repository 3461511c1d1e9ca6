"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import tolerances
from .errors import InputError
from .reps import (FLAVORS, UNITARY, Representation, check_seed,
                   random_representation)

_TOLERANCE_DEFAULTS = {"verification": tolerances.VERIFICATION}


@dataclass(frozen=True)
class RunConfig:
    """Deterministic configuration: identical configs give identical runs."""

    genus: int = 2
    rank: int = 2
    flavor: str = UNITARY
    seed: int = 0
    tolerance_overrides: tuple[tuple[str, float], ...] = ()
    out: Path = field(default_factory=Path.cwd)
    mutate: str | None = None

    def __post_init__(self):
        if self.genus < 1:
            raise InputError(f"genus must be >= 1, got {self.genus}")
        if self.rank < 1:
            raise InputError(f"rank must be >= 1, got {self.rank}")
        if self.flavor not in FLAVORS:
            raise InputError(f"unknown flavor {self.flavor!r}")
        check_seed(self.seed)
        for name, value in self.tolerance_overrides:
            if name not in _TOLERANCE_DEFAULTS:
                raise InputError(f"unknown tolerance {name!r} "
                                 f"(known: {', '.join(_TOLERANCE_DEFAULTS)})")
            if not value > 0:
                raise InputError(f"tolerance {name} must be positive, got {value}")
        object.__setattr__(self, "out", Path(self.out))

    def tolerance(self, name: str) -> float:
        for key, value in self.tolerance_overrides:
            if key == name:
                return value
        return _TOLERANCE_DEFAULTS[name]

    def representation(self) -> Representation:
        """The seeded representation this configuration names."""
        return random_representation(self.genus, self.rank, self.flavor,
                                     seed=self.seed)

    def describe(self) -> str:
        parts = [f"genus={self.genus}", f"rank={self.rank}",
                 f"flavor={self.flavor}", f"seed={self.seed}"]
        for name, value in self.tolerance_overrides:
            parts.append(f"tol.{name}={value:g}")
        if self.mutate:
            parts.append(f"mutate={self.mutate}")
        return " ".join(parts)
