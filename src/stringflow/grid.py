"""Discrete geometry of the domain: the conformal 2-torus, its stencils and quadrature.

The metric is h = e^{2*lam} (dx^2 + dy^2) on a periodic rectangle of size
Lx x Ly.  Fields live on an nx x ny node grid; axis 0 is x, axis 1 is y.
Vector fields carry a trailing component axis.  Inside a run every map is
component-major (`empty_map`): the logical shape stays (nx, ny, q), but each
component plane is contiguous, so plane-wise arithmetic streams through
memory.  Every function here accepts either layout and gives the same values.

Every difference of a field comes from a `Stencil`, which loads the four
periodic shifts once; the free functions below (the Laplace-Beltrami
operator, the frame derivatives, the densities) load one per call.  The one
exception is `centred`, a single-axis difference for a field whose other
shifts are never needed (the flux divergence of the B-force).

Hot loops work on the component-first view (`component_first`: (q, nx, ny),
C-contiguous for a component-major map), where numpy takes its contiguous
fast path, and the `Stencil` stacks the shifts and differences of both
directions so that one call serves x and y.  Sums over components go along
the leading axis of that view, plane by plane in index order in either
layout (`component_dot`).  On contiguous operands a contraction is one
`np.einsum`, which writes no product array: einsum adds the planes of two
C-contiguous (q, nx, ny) operands in index order, bit for bit as
`np.add.reduce` does, and the tests pin that contract.  Grid constants
enter as precomputed reciprocals (a multiply costs about half a divide).
Only the forward differences (`Stencil.forward`) still divide a full map by
dx and dy: the ledger's Dirichlet term is pinned bit for bit to
(f[i+1] - f[i]) / dx.

A `Stencil` forms the centred differences once per load and hands the same
stack to every later caller; its Laplacian and Hessian work in the shift
stack and spend it, so they come last before the next load.
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
    lam_min: float       # min lam, which sets the CFL bound

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
                       dx=dx, dy=dy, x=x, y=y, e2l=e2l, em2l=em2l, eml=eml, w=w,
                       lam_min=float(np.min(lam_arr)))


def conformal_rescale(grid: SurfaceGrid, a: float) -> SurfaceGrid:
    """Grid with metric a*h, i.e. lam -> lam + ln(a)/2.  Volume scales by a."""
    if a <= 0:
        raise GridError(f"conformal factor must be positive, got {a}")
    return build_grid(grid.nx, grid.ny, grid.Lx, grid.Ly,
                      lam=grid.lam + 0.5 * math.log(a))


# -- stencils -----------------------------------------------------------------

def _centred_diff(f: np.ndarray, axis: int, out=None) -> np.ndarray:
    """f[i+1] - f[i-1] along `axis`, periodic, by slicing into `out`."""
    if out is None:
        out = np.empty_like(f)
    a = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1], a[-1], out=o[0])
    np.subtract(a[0], a[-2], out=o[-1])
    return out


def centred(f: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """(f[i+1] - f[i-1]) * (0.5/h) along one axis, by slicing into `out`;
    the same operations as Stencil.centred.  For a field whose shifts along
    the other axis are never needed, where loading a Stencil would copy
    four shifts to use one difference."""
    out = _centred_diff(f, axis, out)
    out *= 0.5 / h
    return out


def empty_map(shape) -> np.ndarray:
    """Uninitialised array of logical shape (nx, ny, q) whose component
    planes are each contiguous (component-major); a node-scalar shape
    (nx, ny) gives a plain C-order array.  np.empty_like keeps the layout."""
    shape = tuple(shape)
    if len(shape) < 3:
        return np.empty(shape)
    a = np.empty(shape[-1:] + shape[:-1])
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


# transpose axes that bring the trailing axis first, indexed by ndim - 1
_COMPONENT_FIRST = tuple((n - 1,) + tuple(range(n - 1)) for n in range(1, 33))


def component_first(a: np.ndarray) -> np.ndarray:
    """The view of a (..., q) array with the component axis first, so that
    plane i is [i]; C-contiguous when `a` is component-major."""
    return a.transpose(_COMPONENT_FIRST[a.ndim - 1])


def _plane_sum(P: np.ndarray) -> np.ndarray:
    """Sum of a C-contiguous component-first array along its leading axis,
    plane by plane in index order.  np.add.reduce does that when a plane
    holds more than one element; a lone vector it sums pairwise, so that
    one is accumulated instead."""
    if P.size > len(P):
        return np.add.reduce(P, axis=0)
    return np.add.accumulate(P, axis=0)[-1]


def component_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X, Y> over the trailing component axis, a fresh node array.

    The products are summed along the leading axis of the component-first
    views, plane by plane in index order, so the value does not depend on
    the layout.  When both views are C-contiguous, as for component-major
    maps, this is one `np.einsum`, which forms no product array; over such
    operands einsum adds the planes in index order, bit for bit as the
    plane sum does.  numpy does not document that order: it was checked on
    numpy 2.4.6, and the tests pin it, up to the 128^2 maps of the
    benchmark, where a map outgrows einsum's iterator buffer.  A lone
    point is not such an operand: einsum reduces a single vector with
    several accumulators.
    Strided input and single points are multiplied into a component-first
    temporary and summed plane by plane.
    """
    x = component_first(X)
    y = x if Y is X else component_first(Y)
    if x.size > len(x) and x.flags.c_contiguous and y.flags.c_contiguous:
        return np.einsum("i...,i...->...", x, y)
    return _plane_sum(np.multiply(x, y, out=np.empty(x.shape)))


def _sum_components(a: np.ndarray) -> np.ndarray:
    """Fresh sum over the trailing component axis, in index order as
    component_dot sums; a row-major map is copied component-first, since
    numpy sums a contiguous component axis pairwise."""
    return _plane_sum(np.ascontiguousarray(component_first(a)))


def _comp_weight(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Broadcast a node-scalar over an optional trailing component axis."""
    return a if f.ndim == 2 else a[..., None]


class Stencil:
    """The four periodic neighbour shifts of one field, in reusable buffers.

    Inside, every buffer is component-first: a map of shape (nx, ny, q) is
    held as (q, nx, ny), a node scalar as (nx, ny), so x is axis -2 and y
    is axis -1 and each plane is contiguous.  `shifts` stacks
    [xp, yp, xm, ym] (xp[i] = f[i+1] and xm[i] = f[i-1] along x, yp and ym
    along y) and `grads` stacks [gx, gy]; an operator works on both
    directions at once, the plus pair `shifts[:2]` against the minus pair
    `shifts[2:]` or against f, with the x and y grid constants broadcast
    along the stack axis.  `scratch` is one more component-first buffer.
    The attributes xp, yp, xm, ym, gx, gy and tmp are the same buffers in
    the logical (nx, ny, q) layout, as `empty_map` gives them.

    `load(f)` fills the shifts by slicing; a component-major f gives its y
    shifts by one flat contiguous copy plus the wrap column.  Every first-
    and second-order term is then formed from these shifts, so one pass
    over f serves them all.  Grid constants enter as precomputed
    reciprocals (1/dx^2, 0.5/dx, ...); only `forward` divides a full map by
    dx and dy, because the forward differences of the ledger's Dirichlet
    term are pinned bit for bit to (f[i+1] - f[i]) / dx.  `dirichlet` gives
    the same energy without that divide, equal up to rounding.

    `forward`, `dirichlet`, `centred`, `grad_sq` and `hessian_sq` write
    (gx, gy), each over what the previous one left there.  `centred`
    remembers that (gx, gy) hold the centred differences of the loaded f
    and returns them again without a pass, until `load` or another
    operator writes the stack.  `laplacian` and `hessian_sq` work in the
    shift stack itself, so they spend the shifts and come last before the
    next `load`; the Laplacian leaves (gx, gy) alone, so centred
    differences asked for before it are still valid after it.
    `laplacian` and `hessian_sq` use tmp as scratch; a caller may use tmp
    once they are done.  An operator that needs the shifts raises
    GridError once they are spent.

    `f` is the array whose shifts are loaded, or None once they are spent.
    A caller that knows f has not been written since `load` may reuse the
    shifts; `f is a` proves that only when nothing mutates `a` in place,
    as inside a run.
    """

    def __init__(self, grid: SurfaceGrid, shape):
        shape = tuple(shape)
        self.grid = grid
        self.shape = shape
        self._is_map = len(shape) == 3
        planes = shape[-1:] + shape[:-1] if self._is_map else shape
        self.shifts = np.empty((4,) + planes)
        self.grads = np.empty((2,) + planes)
        self.scratch = np.empty(planes)
        self._plus, self._minus = self.shifts[:2], self.shifts[2:]
        self.xp, self.yp, self.xm, self.ym = (self._logical(a)
                                              for a in self.shifts)
        self.gx, self.gy = (self._logical(a) for a in self.grads)
        self.tmp = self._logical(self.scratch)
        self.f = self._F = None
        self._centred = False       # (gx, gy) hold D0 of the loaded f

    @functools.cached_property
    def _h(self) -> np.ndarray:
        """(dx, dy), shaped to broadcast along the stack axis; made on first
        use, so that building a stencil does no arithmetic."""
        return np.array([self.grid.dx, self.grid.dy]).reshape(
            (2,) + (1,) * self.scratch.ndim)

    @functools.cached_property
    def _half_inv_h(self) -> np.ndarray:
        return 0.5 / self._h

    @functools.cached_property
    def _inv_h2(self) -> np.ndarray:
        return 1.0 / (self._h * self._h)

    def _logical(self, a: np.ndarray) -> np.ndarray:
        """The (nx, ny, q) view of a component-first buffer."""
        return a.transpose(1, 2, 0) if self._is_map else a

    def _node_sum(self, a: np.ndarray) -> np.ndarray:
        """Fresh node scalar: a component-first buffer summed over its
        components, or a copy of a node-scalar one."""
        return _sum_components(self._logical(a)) if self._is_map else a.copy()

    def _loaded(self) -> np.ndarray:
        """The component-first view of the loaded f; GridError once the
        shifts are spent."""
        if self._F is None:
            raise GridError("the stencil's shifts are spent (laplacian or "
                            "hessian_sq) or were never loaded; load a field "
                            "first")
        return self._F

    def _write_grads(self) -> np.ndarray:
        """The gradient stack, for an operator about to overwrite it."""
        self._loaded()
        self._centred = False
        return self.grads

    def load(self, f: np.ndarray) -> "Stencil":
        if f.shape != self.shape:
            raise ShapeError(f"stencil holds {self.shape}, got {f.shape}")
        F = f.transpose(2, 0, 1) if self._is_map else f
        xp, yp, xm, ym = self.shifts
        xp[..., :-1, :] = F[..., 1:, :]
        xp[..., -1, :] = F[..., 0, :]
        xm[..., 1:, :] = F[..., :-1, :]
        xm[..., 0, :] = F[..., -1, :]
        if F.flags.c_contiguous:
            # flat copies; only the wrap column is then wrong
            flat = F.reshape(-1)
            yp.reshape(-1)[:-1] = flat[1:]
            ym.reshape(-1)[1:] = flat[:-1]
        else:
            yp[..., :-1] = F[..., 1:]
            ym[..., 1:] = F[..., :-1]
        yp[..., -1] = F[..., 0]
        ym[..., 0] = F[..., -1]
        self.f, self._F = f, F
        self._centred = False
        return self

    def forward(self):
        """(D+x f, D+y f) = ((xp - f) / dx, (yp - f) / dy)."""
        G = self._write_grads()
        np.subtract(self._plus, self._F, out=G)
        G /= self._h
        return self.gx, self.gy

    def dirichlet(self) -> float:
        """sum(|D+x f|^2 + |D+y f|^2) dx dy, the Dirichlet energy of the
        forward differences.  One einsum contracts the unscaled differences
        of each direction with themselves, and each direction's sum is
        scaled once, so no full map is divided or squared in place; equal
        to squaring `forward()` up to rounding, not bit for bit."""
        G = self._write_grads()
        np.subtract(self._plus, self._F, out=G)
        Gf = G.reshape(2, -1)
        sx, sy = np.einsum("dk,dk->d", Gf, Gf)
        dx, dy = self.grid.dx, self.grid.dy
        return float(sx * (dy / dx) + sy * (dx / dy))

    def centred(self):
        """(D0x f, D0y f) = ((xp - xm) * (0.5/dx), (yp - ym) * (0.5/dy)).

        Formed once per load: while (gx, gy) still hold them, a second call
        returns them without a pass."""
        if not self._centred:
            G = self._write_grads()
            np.subtract(self._plus, self._minus, out=G)
            G *= self._half_inv_h
            self._centred = True
        return self.gx, self.gy

    def laplacian(self, out: np.ndarray) -> np.ndarray:
        """Flat 5-point Laplacian f_xx + f_yy into `out` (no conformal
        factor): ((xp + xm - 2f) / dx^2) + ((yp + ym - 2f) / dy^2).

        Formed in the plus shifts, which spends them; (gx, gy) are left as
        they were."""
        F = self._loaded()
        P, f2 = self._plus, self.scratch
        P += self._minus
        np.add(F, F, out=f2)
        P -= f2
        P *= self._inv_h2
        np.add(P[0], P[1], out=out.transpose(2, 0, 1) if self._is_map else out)
        self.f = self._F = None       # the shifts are spent
        return out

    def grad_sq(self) -> np.ndarray:
        """|D0x f|^2 + |D0y f|^2 at each node, summed over components.

        This is the coordinate density; the frame density |df|^2 is
        e^{-2 lam} times it, so |df|^2 dvol = grad_sq * dx dy on any
        conformal grid.  Squares the unscaled differences, then scales.
        """
        G = self._write_grads()
        np.subtract(self._plus, self._minus, out=G)
        G *= G
        G *= 0.25 * self._inv_h2
        G[0] += G[1]
        return self._node_sum(G[0])

    def hessian_sq(self) -> np.ndarray:
        """Flat Hessian density f_xx^2 + 2 f_xy^2 + f_yy^2, summed over components.

        f_xx and f_yy are the second differences of the shifts; f_xy is the
        centred 4-corner cross difference D0x(D0y f) = D0y(D0x f), taken
        along x.  Squares the unscaled differences, then scales.  Spends
        the shifts.
        """
        grid = self.grid
        dy_f, nxy = self._write_grads()
        F, second, f2 = self._F, self._plus, self.scratch
        np.subtract(self.shifts[1], self.shifts[3], out=dy_f)
        _centred_diff(dy_f, -2, out=nxy)
        np.add(F, F, out=f2)
        second += self._minus
        second -= f2
        second *= second
        second *= self._inv_h2 * self._inv_h2
        nxy *= nxy
        nxy *= 0.125 / (grid.dx * grid.dy) ** 2
        nxx = second[0]
        nxx += nxy
        nxx += second[1]
        self.f = self._F = None       # the shifts are spent
        return self._node_sum(nxx)


def laplace_beltrami(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """e^{-2 lam} (f_xx + f_yy) with the 5-point periodic stencil, in the
    layout of f.

    Self-adjoint in the e^{2 lam}-weighted inner product by construction.
    """
    lap = Stencil(grid, f.shape).load(f).laplacian(np.empty_like(f))
    if not grid.is_flat:
        lap *= _comp_weight(grid.em2l, f)
    return lap


def frame_derivatives(u: np.ndarray, grid: SurfaceGrid):
    """Orthonormal-frame derivatives du(e1), du(e2), e_alpha = e^{-lam} d/dx_alpha."""
    # no caller in the package: kept because the benchmark's tracer wraps
    # it by name
    ux, uy = Stencil(grid, u.shape).load(u).centred()
    s = _comp_weight(grid.eml, u)
    return s * ux, s * uy


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
