"""Discretization of a spectral-parameter sector crossed with scale ranges."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import ScaleParams


@dataclass(frozen=True)
class SectorSweep:
    """Rays and log-spaced radii inside S_{phi2}, crossed with a t-grid."""

    phi2: float
    rays: tuple                      # angles within [-phi2, phi2]
    radii: tuple                     # strictly increasing moduli >= 0
    t_grid: tuple = field(default=())  # ScaleParams values

    def __post_init__(self):
        rays = tuple(float(r) for r in self.rays)
        radii = tuple(float(r) for r in self.radii)
        if not all(abs(r) <= self.phi2 + 1e-12 for r in rays):  # NaN fails too
            raise ValueError("all rays must lie within [-phi2, phi2]")
        if not all(r >= 0 for r in radii):
            raise ValueError(f"radii must be >= 0, got {radii}")
        if not all(b > a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "t_grid", tuple(self.t_grid))

    def lambdas(self):
        """Spectral parameters r * e^{i theta} in deterministic order."""
        return [r * np.exp(1j * theta) for theta in self.rays for r in self.radii]

    def points(self):
        """(lambda, t) pairs in deterministic order."""
        lams = self.lambdas()
        if not self.t_grid:
            return [(lam, None) for lam in lams]
        return [(lam, t) for lam in lams for t in self.t_grid]


def default_sweep(phi2: float, n: int = 1, n_rays: int = 3, n_radii: int = 13,
                  radius_range=(1.0, 1e6), n_t: int = 5,
                  t_range=(1e-4, 1.0)) -> SectorSweep:
    """Reference sweep: 3 rays x 13 log-spaced radii x 5 isotropic t values."""
    if phi2 > 0:
        rays = tuple(np.linspace(-phi2, phi2, n_rays))
    else:
        rays = (0.0,) if n_rays > 0 else ()  # the one ray of S_0
    radii = tuple(np.logspace(np.log10(radius_range[0]), np.log10(radius_range[1]), n_radii))
    ts = tuple(ScaleParams.isotropic(v, n)
               for v in np.logspace(np.log10(t_range[0]), np.log10(t_range[1]), n_t))
    return SectorSweep(phi2=phi2, rays=rays, radii=radii, t_grid=ts)
