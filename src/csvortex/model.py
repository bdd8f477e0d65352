"""Coupling parameters shared by the plane and torus solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

# One plane state holds (M+1)·n² float64 values; at the default 512² grid
# that is 2 GiB for M = 1023, before any of the solver's working copies.
MAX_SPECIES = 1023


@dataclass(frozen=True)
class ModelParams:
    """Rescaled couplings of the reduced vortex system.

    alpha, beta are the two Chern-Simons couplings after normalizing the
    symmetry-breaking scale; species is the number of non-Abelian flavor pairs
    M; lambda_bg regularizes the singular background profiles; sigma bounds
    beta/alpha in the doubly periodic mode.
    """

    alpha: float
    beta: float
    species: int = 1
    lambda_bg: float = 10.0
    sigma: float = 2.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ConfigError("alpha and beta must be positive and finite")
        if self.species < 1:
            raise ConfigError("species count must be at least 1")
        if self.species > MAX_SPECIES:
            raise ConfigError(
                f"species count {self.species} exceeds {MAX_SPECIES}: one plane state of "
                f"(species+1)·n² float64 values would pass 2 GiB at the default 512² grid")
        if not 0 < self.lambda_bg < math.inf:
            raise ConfigError("background regularization lambda must be positive and finite")
        if not self.sigma > 1:
            raise ConfigError("sigma must exceed 1")

    @property
    def decay_mass(self) -> float:
        """One-sided decay rate m = 2*sqrt(2)*min(alpha, beta) of the decay theorem.

        The theorem bounds the decay from below: u^2 + sum u_i^2 vanishes at
        least as fast as e^{-m(1-eps)|x|}.  m is not the asymptote of the fitted
        slope of ln(u^2 + sum u_i^2); the linearized masses 2*alpha and 2*beta
        put that at -4*min(alpha, beta).
        """
        return 2.0 * (2.0 ** 0.5) * min(self.alpha, self.beta)

    def require_torus_mode(self) -> None:
        if self.species != 1:
            raise ConfigError("doubly periodic mode requires a single species")
        if not self.beta > self.alpha:
            raise ConfigError("doubly periodic mode requires beta > alpha")
        if not self.beta / self.alpha < self.sigma:
            raise ConfigError(
                f"beta/alpha = {self.beta / self.alpha:g} must stay below sigma = {self.sigma:g}"
            )
