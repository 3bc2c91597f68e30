"""Canonical initial maps: constants, geodesic wraps, Clifford tori,
stereographic bubbles and small-energy maps, and `perturb`, which adds
seeded low-pass noise to any of them.  The config kinds `random_smooth`
and `noisy_wrap` are a constant map and a wrap, perturbed.

Every map is built component-major (grid.empty_map), the layout a run
uses, so the stencils that read it (the `small_energy` bisection, a run's
first copy) stream through contiguous planes."""

from __future__ import annotations

import math

import numpy as np

from .action import MapField
from .errors import GridError, ProjectionError
from .grid import (Stencil, SurfaceGrid, check_finite, component_first,
                   empty_map)
from .targets import TargetManifold


def _basepoint(target: TargetManifold, point=None) -> np.ndarray:
    """e1 by default, else the projection of `point`; GridError naming
    `point` unless it is q finite numbers that the target can project."""
    if point is None:
        p = np.zeros(target.q)
        p[0] = 1.0
        return p
    try:
        p = np.asarray(point, dtype=float)
        if p.shape == (target.q,) and np.all(np.isfinite(p)):
            return target.project(p)
    except (TypeError, ValueError, ProjectionError):
        pass
    raise GridError(f"point must be {target.q} finite numbers that the target "
                    f"can project, got {point!r}")


def constant_map(grid: SurfaceGrid, target: TargetManifold,
                 point=None) -> MapField:
    vals = empty_map((grid.nx, grid.ny, target.q))
    vals[...] = _basepoint(target, point)
    return MapField(vals, target)


def geodesic_wrap(grid: SurfaceGrid, target: TargetManifold,
                  m: int = 1, n: int = 0) -> MapField:
    """u = (cos theta, sin theta, 0, ...), theta = m x + n y.

    A closed geodesic wrap of the sphere; a critical point of the Dirichlet
    energy, and of the full action whenever the background fields vanish on
    the wrapped circle.
    """
    theta = (m * 2.0 * np.pi / grid.Lx) * grid.x[:, None] \
        + (n * 2.0 * np.pi / grid.Ly) * grid.y[None, :]
    vals = empty_map((grid.nx, grid.ny, target.q))
    vals.fill(0.0)
    vals[..., 0] = np.cos(theta)
    vals[..., 1] = np.sin(theta)
    return MapField(vals, target)


def clifford_map(grid: SurfaceGrid, target: TargetManifold,
                 m: int = 1, n: int = 0) -> MapField:
    """u = (cos mx, sin mx, cos ny, sin ny, 0, ...) / sqrt 2, with x and y
    scaled to the periods as in geodesic_wrap.

    For m, n != 0 a harmonic map onto a Clifford torus of S^3 with du of
    rank 2 and u^4 != 0, so a two-form such as y4 acts on it where it
    nearly vanishes on a wrap; GridError unless q >= 4.
    """
    if target.q < 4:
        raise GridError(f"clifford map needs q >= 4, got q = {target.q}")
    tx = (m * 2.0 * np.pi / grid.Lx) * grid.x
    ty = (n * 2.0 * np.pi / grid.Ly) * grid.y
    r = 1.0 / np.sqrt(2.0)
    vals = empty_map((grid.nx, grid.ny, target.q))
    vals.fill(0.0)
    vals[..., 0] = r * np.cos(tx)[:, None]
    vals[..., 1] = r * np.sin(tx)[:, None]
    vals[..., 2] = r * np.cos(ty)[None, :]
    vals[..., 3] = r * np.sin(ty)[None, :]
    return MapField(vals, target)


def bump_map(grid: SurfaceGrid, target: TargetManifold,
             center=None, scale: float = 0.5) -> MapField:
    """Inverse-stereographic bubble in the first three coordinates.

    Inside radius 0.45 min(Lx, Ly) of `center` the map covers a cap of the
    great 2-sphere of the first three coordinates, the whole target at
    q = 3; outside it sits at the pole (0, 0, 1, 0, ...).
    Smaller |scale| concentrates more Dirichlet energy near the center; a
    negative scale mirrors the bubble, and 0 or a non-finite scale or
    center is a GridError, as is a scale so small that (X / scale)^2
    overflows at the farthest node, half the period diagonal away.
    """
    if target.q < 3:
        raise GridError("bump_map needs an ambient dimension of at least 3")
    x0 = (0.5 * grid.Lx, 0.5 * grid.Ly) if center is None else center
    check_finite(scale=scale, center=x0)
    if scale == 0:
        raise GridError("bump scale must be nonzero")
    h = 0.5 * math.hypot(grid.Lx, grid.Ly) / abs(scale)
    if not math.isfinite(h * h):
        raise GridError(f"scale must be large enough that (half the period "
                        f"diagonal / scale)^2 is finite, got {scale!r}")
    support = 0.45 * min(grid.Lx, grid.Ly)
    X = grid.x[:, None] - x0[0]
    Y = grid.y[None, :] - x0[1]
    # periodic-aware displacement
    X = (X + 0.5 * grid.Lx) % grid.Lx - 0.5 * grid.Lx
    Y = (Y + 0.5 * grid.Ly) % grid.Ly - 0.5 * grid.Ly
    r = np.sqrt(X ** 2 + Y ** 2)
    # smooth cutoff: chi = 1 near center, 0 at/after `support`
    s = np.clip(r / support, 0.0, 1.0)
    chi = np.where(s < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - s ** 2, 1e-300)), 0.0)
    zx, zy = X / scale, Y / scale
    rho2 = zx ** 2 + zy ** 2
    denom = rho2 + 1.0
    bubble = np.stack([2.0 * zx / denom, 2.0 * zy / denom,
                       (rho2 - 1.0) / denom], axis=-1)
    pole = np.array([0.0, 0.0, 1.0])
    blended = chi[..., None] * bubble + (1.0 - chi[..., None]) * pole
    vals = empty_map((grid.nx, grid.ny, target.q))
    vals.fill(0.0)
    vals[..., :3] = blended
    vals = target.project(vals)
    return MapField(vals, target)


def _lowpass_noise(nx: int, ny: int, q: int, seed: int,
                   max_mode: int = 4) -> np.ndarray:
    """Seeded real periodic (nx, ny, q) noise with Fourier support
    |k| <= max_mode."""
    if seed < 0:
        raise GridError(f"seed must be >= 0, got {seed}")
    if max_mode < 0:
        raise GridError(f"max_mode must be >= 0, got {max_mode}")
    rng = np.random.default_rng(seed)
    kx = np.fft.fftfreq(nx, d=1.0 / nx)
    ky = np.fft.rfftfreq(ny, d=1.0 / ny)
    mask = (np.abs(kx)[:, None] <= max_mode) & (np.abs(ky)[None, :] <= max_mode)
    # the q planes in one draw and one batched transform each way; copied
    # into the map, since numpy 2.4.6's irfft2 ignores its `out` argument
    spec = np.fft.rfft2(rng.standard_normal((q, nx, ny))) * mask
    out = empty_map((nx, ny, q))
    component_first(out)[...] = np.fft.irfft2(spec, s=(nx, ny))
    m = np.max(np.abs(out))
    return out / m if m > 0 else out


def perturb(u: MapField, seed: int = 0, amplitude: float = 0.3,
            max_mode: int = 4) -> MapField:
    """A new map: the projection of u + amplitude * seeded low-pass noise
    onto u's target.

    Any start can be pushed off the symmetry it was built with, such as
    the great S^2 that a bump on S^3 never leaves.
    """
    check_finite(amplitude=amplitude)
    # the noise is a temporary, freed before the sum is projected
    vals = u.values + amplitude * _lowpass_noise(*u.values.shape, seed,
                                                 max_mode)
    return MapField(u.target.project(vals), u.target)


def small_energy_map(grid: SurfaceGrid, target: TargetManifold,
                     energy: float, seed: int = 0, max_mode: int = 4,
                     point=None) -> MapField:
    """Perturbed constant map whose Dirichlet energy equals `energy`.

    The amplitude of a fixed low-pass perturbation is found by bisection;
    energy is monotone in the amplitude over the bracket used.
    """
    check_finite(energy=energy)
    if energy <= 0:
        return constant_map(grid, target, point)
    p = _basepoint(target, point)
    noise = _lowpass_noise(grid.nx, grid.ny, target.q, seed, max_mode)
    st = Stencil(grid, noise)     # one stencil, reloaded by every trial energy

    def e_of(a):
        return st.load(target.project(p + a * noise)).dirichlet()

    lo, hi = 0.0, 1e-3
    while e_of(hi) < energy:
        hi *= 2.0
        if hi > 1e6:
            raise GridError("cannot reach requested energy with this noise")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if e_of(mid) < energy:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    a = 0.5 * (lo + hi)
    return MapField(target.project(p + a * noise), target)


# the config kinds that are a base map perturbed, with the config's defaults
def _random_smooth(grid, target, seed=0, amplitude=0.3, max_mode=4,
                   point=None):
    return perturb(constant_map(grid, target, point), seed, amplitude,
                   max_mode)


def _noisy_wrap(grid, target, m=1, n=0, seed=0, amplitude=0.3, max_mode=4):
    return perturb(geodesic_wrap(grid, target, m, n), seed, amplitude,
                   max_mode)


# initial.kind -> (builder, the `initial` config keys it takes as keywords)
MAP_BUILDERS = {
    "constant": (constant_map, ("point",)),
    "geodesic_wrap": (geodesic_wrap, ("m", "n")),
    "clifford": (clifford_map, ("m", "n")),
    "bump": (bump_map, ("scale",)),
    "random_smooth": (_random_smooth,
                      ("seed", "amplitude", "max_mode", "point")),
    "noisy_wrap": (_noisy_wrap, ("m", "n", "seed", "amplitude", "max_mode")),
    "small_energy": (small_energy_map, ("energy", "seed", "max_mode", "point")),
}
