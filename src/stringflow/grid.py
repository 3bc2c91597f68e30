"""Discrete geometry of the domain: the conformal 2-torus, its stencils and quadrature.

The metric is h = e^{2*lam} (dx^2 + dy^2) on a periodic rectangle of size
Lx x Ly.  Fields live on an nx x ny node grid; axis 0 is x, axis 1 is y.
Vector fields carry a trailing component axis.  Inside a run every map is
component-major (`empty_map`): the logical shape stays (nx, ny, q), but each
component plane is contiguous, so plane-wise arithmetic streams through
memory.  Every function here accepts either layout and gives the same values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ShapeError, UnsupportedConfigurationError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SurfaceGrid:
    """Periodic rectangular grid carrying a conformal factor and quadrature weights.

    Immutable after construction; the held arrays are marked read-only, so
    the properties derived from them are computed once.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    lam: np.ndarray      # (nx, ny) conformal exponent
    dx: float
    dy: float
    x: np.ndarray        # (nx,) node coordinates
    y: np.ndarray        # (ny,)
    e2l: np.ndarray      # e^{2 lam}
    em2l: np.ndarray     # e^{-2 lam}
    eml: np.ndarray      # e^{-lam}
    w: np.ndarray        # quadrature weights e^{2 lam} dx dy

    @functools.cached_property
    def is_flat(self) -> bool:
        return bool(np.all(self.lam == 0.0))

    @functools.cached_property
    def total_volume(self) -> float:
        return float(np.sum(self.w))

    @property
    def inj_radius(self) -> float:
        # flat-torus value; only used to bound admissible ball radii
        return 0.5 * min(self.Lx, self.Ly)

    def meshgrid(self):
        return np.meshgrid(self.x, self.y, indexing="ij")


def build_grid(nx: int, ny: int, Lx: float = TWO_PI, Ly: float = TWO_PI,
               lam=None) -> SurfaceGrid:
    """Build a SurfaceGrid.

    `lam` may be None (flat), a scalar, an (nx, ny) array, or a callable
    lam(X, Y) evaluated on the node mesh.
    """
    if nx < 8 or ny < 8:
        raise GridError(f"grid must be at least 8x8, got {nx}x{ny}")
    if Lx <= 0 or Ly <= 0:
        raise GridError(f"periods must be positive, got Lx={Lx}, Ly={Ly}")
    dx = Lx / nx
    dy = Ly / ny
    x = np.arange(nx) * dx
    y = np.arange(ny) * dy
    if lam is None:
        lam_arr = np.zeros((nx, ny))
    elif callable(lam):
        X, Y = np.meshgrid(x, y, indexing="ij")
        lam_arr = np.asarray(lam(X, Y), dtype=float)
        lam_arr = np.broadcast_to(lam_arr, (nx, ny)).copy()
    elif np.isscalar(lam):
        lam_arr = np.full((nx, ny), float(lam))
    else:
        lam_arr = np.asarray(lam, dtype=float)
        if lam_arr.shape != (nx, ny):
            raise GridError(f"lambda array shape {lam_arr.shape} != {(nx, ny)}")
        lam_arr = lam_arr.copy()
    if not np.all(np.isfinite(lam_arr)):
        raise GridError("conformal exponent contains non-finite values")
    e2l = np.exp(2.0 * lam_arr)
    em2l = np.exp(-2.0 * lam_arr)
    eml = np.exp(-lam_arr)
    w = e2l * (dx * dy)
    for a in (lam_arr, x, y, e2l, em2l, eml, w):
        a.setflags(write=False)
    return SurfaceGrid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), lam=lam_arr,
                       dx=dx, dy=dy, x=x, y=y, e2l=e2l, em2l=em2l, eml=eml, w=w)


def conformal_rescale(grid: SurfaceGrid, a: float) -> SurfaceGrid:
    """Grid with metric a*h, i.e. lam -> lam + ln(a)/2.  Volume scales by a."""
    if a <= 0:
        raise GridError(f"conformal factor must be positive, got {a}")
    return build_grid(grid.nx, grid.ny, grid.Lx, grid.Ly,
                      lam=grid.lam + 0.5 * math.log(a))


# -- stencils -----------------------------------------------------------------
# np.roll(f, -1, axis) brings f[i+1] to slot i; all stencils are exactly periodic.

def _centred_diff(f: np.ndarray, axis: int, out=None) -> np.ndarray:
    """f[i+1] - f[i-1] along `axis`, by slicing into `out`."""
    if out is None:
        out = np.empty_like(f)
    a = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1], a[-1], out=o[0])
    np.subtract(a[0], a[-2], out=o[-1])
    return out


def _centred(f: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2h) along `axis`, by slicing into `out`."""
    out = _centred_diff(f, axis, out)
    out /= 2.0 * h
    return out


def d0x(f: np.ndarray, grid: SurfaceGrid, out=None) -> np.ndarray:
    """Centered x-derivative (coordinate, not frame)."""
    return _centred(f, 0, grid.dx, out)


def d0y(f: np.ndarray, grid: SurfaceGrid, out=None) -> np.ndarray:
    return _centred(f, 1, grid.dy, out)


def _forward(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f[i+1] - f[i]) / h along `axis`, by slicing."""
    out = np.empty_like(f)
    a = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[1:], a[:-1], out=o[:-1])
    np.subtract(a[0], a[-1], out=o[-1])
    out /= h
    return out


def dpx(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Forward x-difference."""
    return _forward(f, 0, grid.dx)


def dpy(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    return _forward(f, 1, grid.dy)


def dxx(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    return (np.roll(f, -1, axis=0) + np.roll(f, 1, axis=0) - 2.0 * f) / grid.dx**2


def dyy(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    return (np.roll(f, -1, axis=1) + np.roll(f, 1, axis=1) - 2.0 * f) / grid.dy**2


def empty_map(shape) -> np.ndarray:
    """Uninitialised array of logical shape (nx, ny, q) whose component
    planes are each contiguous (component-major); a node-scalar shape
    (nx, ny) gives a plain C-order array.  np.empty_like keeps the layout."""
    shape = tuple(shape)
    if len(shape) < 3:
        return np.empty(shape)
    a = np.empty(shape[-1:] + shape[:-1])
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def component_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X, Y> over the trailing component axis, one plane at a time.

    Whole-plane multiply-adds in index order, so the value does not depend
    on the layout; on a component-major map every plane is contiguous.
    numpy's reduction over a short trailing axis is several times slower.
    """
    out = X[..., 0] * Y[..., 0]
    tmp = np.empty_like(out)
    for i in range(1, X.shape[-1]):
        np.multiply(X[..., i], Y[..., i], out=tmp)
        out += tmp
    return out


def _sum_components(a: np.ndarray) -> np.ndarray:
    """Fresh node-scalar sum over the trailing component axis, one plane at
    a time in index order whatever the layout (numpy's order for a short
    trailing axis); a scalar field is copied."""
    if a.ndim == 2:
        return a.copy()
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        out += a[..., i]
    return out


def _comp_weight(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Broadcast a node-scalar over an optional trailing component axis."""
    return a if f.ndim == 2 else a[..., None]


def laplace_beltrami(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """e^{-2 lam} (f_xx + f_yy) with the 5-point periodic stencil.

    Self-adjoint in the e^{2 lam}-weighted inner product by construction.
    """
    return _comp_weight(grid.em2l, f) * (dxx(f, grid) + dyy(f, grid))


def frame_derivatives(u: np.ndarray, grid: SurfaceGrid):
    """Orthonormal-frame derivatives du(e1), du(e2), e_alpha = e^{-lam} d/dx_alpha."""
    s = _comp_weight(grid.eml, u)
    return s * d0x(u, grid), s * d0y(u, grid)


class Stencil:
    """The four periodic neighbour shifts of one field, in reusable buffers.

    `load(f)` fills xp[i] = f[i+1] and xm[i] = f[i-1] along x, and yp, ym
    along y, by slicing.  The Laplacian and the forward and centred
    differences are then all formed from these shifts, so one pass over f
    serves every first- and second-order term.  `forward` and `centred`
    write into the same pair of buffers (gx, gy); each call overwrites what
    the previous one left there, and so does `grad_sq`.  `tmp` is scratch:
    the Laplacian uses it, and so may a caller once the Laplacian is formed.
    `hessian_sq` overwrites every buffer, the shifts included, so it comes
    last before the next `load`.

    The buffers are component-major (`empty_map`).  `f` is the array whose
    shifts are loaded, or None once they are spent.  `forward`, `centred`,
    `grad_sq` and the use of `tmp` leave the shifts intact, so a caller that
    knows f has not been written since `load` may reuse them; `f is a`
    proves that only when nothing mutates `a` in place, as inside a run.
    """

    def __init__(self, grid: SurfaceGrid, shape):
        self.grid = grid
        self.xp, self.xm, self.yp, self.ym, self.gx, self.gy, self.tmp = (
            empty_map(shape) for _ in range(7))
        self.f = None

    def load(self, f: np.ndarray) -> "Stencil":
        if f.shape != self.xp.shape:
            raise ShapeError(f"stencil holds {self.xp.shape}, got {f.shape}")
        self.xp[:-1] = f[1:]
        self.xp[-1] = f[0]
        self.xm[1:] = f[:-1]
        self.xm[0] = f[-1]
        self.yp[:, :-1] = f[:, 1:]
        self.yp[:, -1] = f[:, 0]
        self.ym[:, 1:] = f[:, :-1]
        self.ym[:, 0] = f[:, -1]
        self.f = f
        return self

    def forward(self):
        """(D+x f, D+y f), equal to dpx and dpy."""
        np.subtract(self.xp, self.f, out=self.gx)
        self.gx /= self.grid.dx
        np.subtract(self.yp, self.f, out=self.gy)
        self.gy /= self.grid.dy
        return self.gx, self.gy

    def centred(self):
        """(D0x f, D0y f), equal to d0x and d0y."""
        np.subtract(self.xp, self.xm, out=self.gx)
        self.gx /= 2.0 * self.grid.dx
        np.subtract(self.yp, self.ym, out=self.gy)
        self.gy /= 2.0 * self.grid.dy
        return self.gx, self.gy

    def laplacian(self, out: np.ndarray) -> np.ndarray:
        """Flat 5-point Laplacian f_xx + f_yy into `out` (no conformal factor)."""
        f, tmp = self.f, self.tmp
        np.add(self.xp, self.xm, out=out)
        out -= f
        out -= f
        out /= self.grid.dx ** 2
        np.add(self.yp, self.ym, out=tmp)
        tmp -= f
        tmp -= f
        tmp /= self.grid.dy ** 2
        out += tmp
        return out

    def grad_sq(self) -> np.ndarray:
        """|D0x f|^2 + |D0y f|^2 at each node, summed over components.

        This is the coordinate density; the frame density |df|^2 is
        e^{-2 lam} times it, so |df|^2 dvol = grad_sq * dx dy on any
        conformal grid.  Squares the unscaled differences, then scales.
        """
        gx, gy = self.gx, self.gy
        np.subtract(self.xp, self.xm, out=gx)
        np.subtract(self.yp, self.ym, out=gy)
        gx *= gx
        gx *= 0.25 / self.grid.dx ** 2
        gy *= gy
        gy *= 0.25 / self.grid.dy ** 2
        gx += gy
        return _sum_components(gx)

    def hessian_sq(self) -> np.ndarray:
        """Flat Hessian density f_xx^2 + 2 f_xy^2 + f_yy^2, summed over components.

        f_xx and f_yy are the second differences of the shifts; f_xy is the
        centred 4-corner cross difference D0x(D0y f) = D0y(D0x f), taken
        along the contiguous x axis.  Squares the unscaled differences,
        then scales.
        """
        grid = self.grid
        nxx, nxy, nyy, f2 = self.xp, self.gy, self.yp, self.tmp
        np.subtract(self.yp, self.ym, out=self.gx)
        _centred_diff(self.gx, 0, out=nxy)
        np.multiply(self.f, 2.0, out=f2)
        nxx += self.xm
        nxx -= f2
        nyy += self.ym
        nyy -= f2
        nxx *= nxx
        nxx *= 1.0 / grid.dx ** 4
        nxy *= nxy
        nxy *= 0.125 / (grid.dx * grid.dy) ** 2
        nyy *= nyy
        nyy *= 1.0 / grid.dy ** 4
        nxx += nxy
        nxx += nyy
        self.f = None       # the shifts are spent
        return _sum_components(nxx)


def grad_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |du|^2 = |du(e1)|^2 + |du(e2)|^2 (centered differences)."""
    d = Stencil(grid, u.shape).load(u).grad_sq()
    if not grid.is_flat:
        d *= grid.em2l
    return d


def hessian_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |flat Hessian|^2 = u_xx^2 + 2 u_xy^2 + u_yy^2."""
    return Stencil(grid, u.shape).load(u).hessian_sq()


def l2_inner(f: np.ndarray, g: np.ndarray, grid: SurfaceGrid) -> float:
    """Discrete integral of <f, g> against dvol_h.

    Reduction order is fixed (numpy pairwise summation over the flattened
    array), so results are bit-reproducible for identical inputs.
    """
    if f.shape != g.shape:
        raise ShapeError(f"shape mismatch: {f.shape} vs {g.shape}")
    pw = component_dot(f, g) if f.ndim == 3 else f * g
    return float(np.sum(pw * grid.w))


def l2_norm(f: np.ndarray, grid: SurfaceGrid) -> float:
    return math.sqrt(max(l2_inner(f, f, grid), 0.0))


def ricci_identity_check(v: np.ndarray, grid: SurfaceGrid):
    """(lhs, rhs) = (int |Delta v|^2, int |Hess v|^2) on the flat torus.

    On the flat torus Scal = 0 and the two integrals agree up to O(dx^2);
    the conformal case needs Christoffel symbols and is not supported.
    """
    if not grid.is_flat:
        raise UnsupportedConfigurationError(
            "ricci_identity_check requires a flat grid (lam == 0)")
    lap = laplace_beltrami(v, grid)
    lhs = l2_inner(lap, lap, grid)
    rhs = float(np.sum(hessian_sq_density(v, grid) * grid.w))
    return lhs, rhs


# -- balls --------------------------------------------------------------------

def periodic_delta(coords: np.ndarray, c: float, L: float) -> np.ndarray:
    """Signed periodic displacement coords - c reduced to [-L/2, L/2)."""
    d = (coords - c) % L
    return np.where(d >= L / 2.0, d - L, d)


def ball_mask(grid: SurfaceGrid, x0, R: float) -> np.ndarray:
    """Boolean mask of nodes within flat periodic coordinate distance R of node x0.

    x0 is a node index pair (ix, iy).  Exact geodesic balls only for lam == 0;
    for lam != 0 this is a documented approximation.
    """
    if not (0.0 < R < grid.inj_radius):
        raise GridError(f"ball radius {R} outside (0, {grid.inj_radius})")
    ix, iy = x0
    ddx = periodic_delta(grid.x, grid.x[int(ix) % grid.nx], grid.Lx)
    ddy = periodic_delta(grid.y, grid.y[int(iy) % grid.ny], grid.Ly)
    return (ddx[:, None]**2 + ddy[None, :]**2) <= R * R


def ball_kernel(grid: SurfaceGrid, R: float) -> np.ndarray:
    """Ball indicator centered at node (0, 0); symmetric under index negation."""
    return ball_mask(grid, (0, 0), R).astype(float)


@functools.lru_cache(maxsize=8)
def _kernel_transform(nx: int, ny: int, Lx: float, Ly: float,
                      R: float) -> np.ndarray:
    K = np.fft.rfft2(ball_kernel(build_grid(nx, ny, Lx, Ly), R))
    K.setflags(write=False)
    return K


def ball_kernel_transform(grid: SurfaceGrid, R: float) -> np.ndarray:
    """rfft2 of ball_kernel(grid, R), read-only and cached.

    The ball ignores lam, so the kernel depends only on (nx, ny, Lx, Ly, R);
    a bounded cache keyed on those serves every grid that shares them.
    """
    return _kernel_transform(grid.nx, grid.ny, grid.Lx, grid.Ly, R)


def ball_sum_map(density: np.ndarray, grid: SurfaceGrid, R: float) -> np.ndarray:
    """S[ix, iy] = sum of `density` over the ball of radius R around each node.

    Computed by circular FFT convolution with the (symmetric) ball indicator;
    agrees with direct masked sums to roundoff.
    """
    return np.fft.irfft2(np.fft.rfft2(density) * ball_kernel_transform(grid, R),
                         s=density.shape)
