"""Discrete geometry of the domain: the conformal 2-torus, its stencils and quadrature.

The metric is h = e^{2*lam} (dx^2 + dy^2) on a periodic rectangle of size
Lx x Ly.  Fields live on an nx x ny node grid; axis 0 is x, axis 1 is y.
Vector fields carry a trailing component axis.  Inside a run every map is
component-major (`empty_map`): the logical shape stays (nx, ny, q), but each
component plane is contiguous, so plane-wise arithmetic streams through
memory.  Every function here but `centred` accepts either layout and gives
the same values.

Every difference of a field comes from a `Stencil`, which holds one
field form: a C-contiguous component-first stack (q, nx, ny).  A node
scalar is one plane, and a field whose component-first view is strided,
such as a row-major map, is copied once into the stencil's scratch at
load.  A stencil is built from the field it holds, `Stencil(grid, f)`,
and differences it by slicing it, with no copy of a shift, at every size:
a run's stencil, which several operators share per load and which each
candidate reloads, and the stencil that each free function below (the
Laplace-Beltrami operator, the frame derivatives, the densities) builds
to apply one operator.  The one exception is `centred`, a single-axis
difference for a contiguous field of which nothing else is needed (the
flux divergence of the B-force), which slices in the same way.

Hot loops work on the component-first view (`component_first`: (q, nx, ny),
C-contiguous for a component-major map), where numpy takes its contiguous
fast path.  A `Stencil` takes each direction in one call per stack on the
flat array plus the wrap rows.  Sums over components go along the leading
axis of that view, plane by plane in index order in either layout
(`component_dot`).  On contiguous operands a contraction is one
`np.einsum`, which writes no product array: einsum adds the planes of two
C-contiguous (q, nx, ny) operands in index order, bit for bit as
`np.add.reduce` does, and the tests pin that contract.  Grid constants
enter as precomputed reciprocals (a multiply costs about half a divide),
and no full map is divided.

Each energy quantity has one formula.  The Dirichlet energy of the
forward differences is `Stencil.dirichlet`, which takes it by summation by
parts from the centred and second differences, one contraction of each
stack, each sum scaled once; the action, the ledger and
`dirichlet_energy` all take it from there.  The |du|^2 density is
`Stencil.grad_sq`, the centred differences contracted with themselves as
the II term of the flow contracts them.  The ball-energy density |du|^2 dvol
is `Stencil.energy_density`, grad_sq * dx dy: the ledger's
sup_local_energy, the dt_min event, `concentration_scan` and the energy
sums of the diagnostics all take it from there, so they agree bit for bit.
All three work in the stencil's component-first buffers, so their bits do
not depend on the layout of the input.

A `Stencil` load forms both difference stacks, the centred differences
and the undivided second differences, and every operator reads them, so a
flow step's action, its rhs and the ledger record that follows share one
load.  No operator writes the stacks, so the operators may come in any
order, and each gives the bits of a stencil freshly built from the field.
"""

from __future__ import annotations

import functools
import math
import sys
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
    em2l: np.ndarray     # e^{-2 lam}
    eml: np.ndarray      # e^{-lam}
    w: np.ndarray        # quadrature weights e^{2 lam} dx dy
    lam_min: float       # min lam, which sets the CFL bound

    @functools.cached_property
    def is_flat(self) -> bool:
        return bool(np.all(self.lam == 0.0))

    def check_nodes(self, shape):
        """ShapeError unless a field of `shape` lives on this grid's nodes:
        its first two axes must be (nx, ny).  The one home of that check,
        for every operator that takes a field with its grid."""
        if tuple(shape[:2]) != (self.nx, self.ny):
            raise ShapeError(f"field of shape {tuple(shape)} on a {self.nx} "
                             f"x {self.ny} grid: its nodes must be the grid's")

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
        raise GridError(f"nx and ny must be at least 8, got nx={nx}, "
                        f"ny={ny}")
    if nx * ny > np.iinfo(np.intp).max // 8:
        raise GridError(f"nx*ny = {nx * ny} nodes: more than numpy can index")
    if not (math.isfinite(Lx) and Lx > 0 and math.isfinite(Ly) and Ly > 0):
        raise GridError(f"periods must be finite and > 0: Lx={Lx}, Ly={Ly}")
    dx = Lx / nx
    dy = Ly / ny
    # the stencils divide by dx^2 and dy^2: a square that overflows makes
    # every difference along that axis 0, one that is subnormal or 0 makes
    # it inf or loses its precision
    for name, L, n, h in (("Lx", Lx, nx, dx), ("Ly", Ly, ny, dy)):
        if not sys.float_info.min <= h * h < math.inf:
            raise GridError(f"period {name}={L!r} over {n} nodes gives the "
                            f"spacing {h!r}, whose square {h * h!r} is not "
                            "a positive normal double")
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
    # a NaN or infinite lam fails this check too
    with np.errstate(over="ignore"):
        em2l = np.exp(-2.0 * lam_arr)
        w = np.exp(2.0 * lam_arr) * (dx * dy)
    if not (np.isfinite(w).all() and np.isfinite(em2l).all()):
        raise GridError(f"lam {lam_arr.min()}..{lam_arr.max()}: e^(2|lam|) dx dy "
                        "is not finite")
    eml = np.exp(-lam_arr)
    for a in (lam_arr, x, y, em2l, eml, w):
        a.setflags(write=False)
    return SurfaceGrid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), lam=lam_arr,
                       dx=dx, dy=dy, x=x, y=y, em2l=em2l, eml=eml, w=w,
                       lam_min=float(np.min(lam_arr)))


def conformal_rescale(grid: SurfaceGrid, a: float) -> SurfaceGrid:
    """Grid with metric a*h, i.e. lam -> lam + ln(a)/2.  Volume scales by a."""
    if a <= 0:
        raise GridError(f"conformal factor must be positive, got {a}")
    return build_grid(grid.nx, grid.ny, grid.Lx, grid.Ly,
                      lam=grid.lam + 0.5 * math.log(a))


# -- stencils -----------------------------------------------------------------

# cached: `centred` asks for the same calls at each flux of every B-force
@functools.lru_cache(maxsize=64)
def _wrap_calls(shape: tuple, axis: int) -> tuple:
    """The three calls of op(f[i+1], f[i-1]) along `axis`, periodic, on
    C-contiguous arrays of `shape`, each as (form, result key, key of the
    operand after, key of the operand before), where form 0 indexes the
    flat arrays and form 1 the arrays themselves.

    The flat call writes the interior of the result from the operands one
    step of `axis` after and before it; it is wrong only in the wrap rows,
    which the row calls then write again, the last row and then the
    first."""
    ax = axis % len(shape)
    s, n = math.prod(shape[ax + 1:]), math.prod(shape)
    tail = (slice(None),) * (len(shape) - 1 - ax)
    row = [(Ellipsis, i) + tail for i in (-2, -1, 0, 1)]
    return ((0, slice(s, n - s), slice(2 * s, None), slice(None, n - 2 * s)),
            (1, row[1], row[2], row[0]), (1, row[2], row[3], row[1]))


def _neighbours(op, f: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """op(f[i+1], f[i-1]) along `axis`, periodic, by slicing into `out`;
    f and out must be C-contiguous.  The operations of Stencil.load, for
    `centred` and the Hessian's cross difference."""
    forms = (f.reshape(-1), out.reshape(-1)), (f, out)
    for form, ko, ka, kb in _wrap_calls(f.shape, axis):
        a, o = forms[form]
        op(a[ka], a[kb], out=o[ko])
    return out


def centred(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """(f[i+1] - f[i-1]) * (0.5/h) along one axis, by slicing into `out`;
    f and out must be C-contiguous.  The same operations as the centred
    differences of Stencil.load, for a field of which only this difference
    is needed, where loading a Stencil would form both stacks in both
    directions to use one difference."""
    _neighbours(np.subtract, f, axis, out)
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


def _comp_weight(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Broadcast a node-scalar over an optional trailing component axis."""
    return a if f.ndim == 2 else a[..., None]


def _planes(f: np.ndarray) -> np.ndarray:
    """The component-first view (q, nx, ny) of a field: a map's planes, or
    a node scalar as one plane (q = 1).  Always a view, never a copy."""
    return f.reshape(f.shape[:2] + (-1,)).transpose(2, 0, 1)


class Stencil:
    """The periodic neighbour differences of one field, in reusable buffers.

    `Stencil(grid, f)` allocates the buffers for fields of f's shape and
    loads f; `load(f)` reloads them with another field of that shape.  A
    load forms both difference stacks of f at once: `grads`, the
    centred differences [D0x f, D0y f] = [(xp - xm) * (0.5/dx),
    (yp - ym) * (0.5/dy)], and `second`, the undivided second differences
    [xp + xm - 2f, yp + ym - 2f] (xp[i] = f[i+1] and xm[i] = f[i-1] along
    x, yp and ym along y).  `source` is the array last loaded.  Every
    operator only reads the stacks, and writes at most the scratch and its
    own result, so any operator may follow any other, and each gives the
    bits it gives on a stencil freshly built from the field.

    The stencil holds one field form: a C-contiguous component-first stack
    (q, nx, ny), so x is axis -2 and y is axis -1 and each plane is
    contiguous.  A map of shape (nx, ny, q) is held as its q planes, a node
    scalar (nx, ny) as one plane.  A field whose component-first view is
    not C-contiguous, such as a row-major map, is copied once into
    `scratch`, one more such buffer, and differenced from there.  The
    attributes gx, gy and tmp are the centred differences and the scratch
    as views in the field's shape, laid out as `empty_map` gives it.
    Grid constants enter as precomputed reciprocals (1/dx^2, 0.5/dx, ...),
    broadcast along the stack axis, or scale a sum once, so no operator
    divides a full map.  Every result is formed in these component-first
    buffers, so it has the same bits for either layout of f.
    `laplacian` and `hessian_sq` use tmp as scratch; a caller may use tmp
    once the operators it needs are done.

    The load slices both stacks straight from f, with no copy of a shift:
    per direction, one call per stack on the flat field, the neighbours one
    step of that direction apart, then one per wrap row, the operations of
    `_neighbours`.  The result views and the keys of f's views are formed
    when the stencil is built, so a load only indexes f and calls numpy,
    which keeps its per-call work small on small maps.  A stencil holds 5
    maps: both stacks and the scratch.
    """

    def __init__(self, grid: SurfaceGrid, f: np.ndarray):
        shape = f.shape
        grid.check_nodes(shape)
        self.grid = grid
        self.shape = shape
        planes = (math.prod(shape[2:]),) + shape[:2]
        # two blocks: the centred differences, which a caller may keep past
        # the stencil, and [scratch, second x, second y].  Separate arrays
        # would be trimmed from the heap and faulted in again on every
        # one-shot call (640 minor faults per hessian_sq_density at 128^2,
        # against 0)
        self.grads = np.empty((2,) + planes)
        buf = np.empty((3,) + planes)
        self.scratch, self.second = buf[0], buf[1:]
        # the six calls of a load, three per direction (x is axis -2, y
        # axis -1): the form and keys of the operands, and the result views
        # in both stacks, formed once
        self._calls = []
        for d in (0, 1):
            G, P = self.grads[d], self.second[d]
            forms = (G.reshape(-1), P.reshape(-1)), (G, P)
            for form, ko, ka, kb in _wrap_calls(planes, d - 2):
                g, p = forms[form]
                self._calls.append((form, ka, kb, g[ko], p[ko]))
        # views in the field's shape: a node scalar drops its one plane
        self.gx, self.gy, self.tmp = (a.transpose(1, 2, 0).reshape(shape)
                                      for a in (*self.grads, self.scratch))
        h = np.array([grid.dx, grid.dy]).reshape((2,) + (1,) * len(planes))
        self._half_inv_h = 0.5 / h
        self._inv_h2 = 1.0 / (h * h)
        self.load(f)

    def load(self, f: np.ndarray) -> "Stencil":
        if f.shape != self.shape:
            raise ShapeError(f"stencil holds {self.shape}, got {f.shape}")
        F = _planes(f)
        if not F.flags.c_contiguous:
            np.copyto(self.scratch, F)
            F = self.scratch
        forms = F.reshape(-1), F
        for form, ka, kb, g, p in self._calls:
            a, b = forms[form][ka], forms[form][kb]
            np.subtract(a, b, out=g)
            np.add(a, b, out=p)
        G, P = self.grads, self.second
        G *= self._half_inv_h
        P -= np.add(F, F, out=self.scratch)
        self.source = f
        return self

    def dirichlet(self) -> float:
        """sum(|D+x f|^2 + |D+y f|^2) dx dy, the Dirichlet energy of the
        forward differences D+x f = (xp - f) / dx, from the two stacks.

        On the periodic grid, summation by parts gives, along each axis,
            sum |f[i+1] - f[i]|^2 = sum |(f[i+1] - f[i-1]) / 2|^2
                                    + 1/4 sum |f[i+1] + f[i-1] - 2 f[i]|^2
        exactly, so
            E = dx dy sum(|D0x f|^2 + |D0y f|^2)
                + 1/4 ((dy/dx) sum |d2x f|^2 + (dx/dy) sum |d2y f|^2),
        with d2 the undivided second differences.  One einsum contracts
        each stack with itself, and each sum is scaled once, so no full map
        is divided or squared in place."""
        Gf, Pf = self.grads.reshape(2, -1), self.second.reshape(2, -1)
        cx, cy = np.einsum("dk,dk->d", Gf, Gf)
        sx, sy = np.einsum("dk,dk->d", Pf, Pf)
        dx, dy = self.grid.dx, self.grid.dy
        return float((cx + cy) * (dx * dy)
                     + 0.25 * (sx * (dy / dx) + sy * (dx / dy)))

    def centred(self):
        """(D0x f, D0y f) = ((xp - xm) * (0.5/dx), (yp - ym) * (0.5/dy)),
        the stack the load formed, as the views (gx, gy)."""
        return self.gx, self.gy

    def laplacian(self, out: np.ndarray) -> np.ndarray:
        """Flat 5-point Laplacian f_xx + f_yy into `out` (no conformal
        factor): ((xp + xm - 2f) / dx^2) + ((yp + ym - 2f) / dy^2).

        Scales the second differences into `out` and scratch, so the
        stacks stay as they were."""
        P = self.second
        o = np.multiply(P[0], self._inv_h2[0], out=_planes(out))
        o += np.multiply(P[1], self._inv_h2[1], out=self.scratch)
        return out

    def grad_sq(self) -> np.ndarray:
        """|D0x f|^2 + |D0y f|^2 at each node, summed over components.

        This is the coordinate density; the frame density |df|^2 is
        e^{-2 lam} times it, so |df|^2 dvol = grad_sq * dx dy on any
        conformal grid (`energy_density`).  Each component-first stack is
        contracted with itself by one einsum, the call `component_dot`
        makes on contiguous operands, as the II term of the flow contracts
        the centred differences (`SphereTarget.sff_trace`).
        """
        G = self.grads
        d = np.einsum("i...,i...->...", G[0], G[0])
        d += np.einsum("i...,i...->...", G[1], G[1])
        return d

    def energy_density(self) -> np.ndarray:
        """|df|^2 dvol at each node, grad_sq * dx dy: the one density of
        every ball energy and every sum of |df|^2 dvol."""
        d = self.grad_sq()
        d *= self.grid.dx * self.grid.dy
        return d

    def hessian_sq(self) -> np.ndarray:
        """Flat Hessian density f_xx^2 + 2 f_xy^2 + f_yy^2, summed over components.

        f_xx and f_yy come from the undivided second differences; f_xy is
        the centred cross difference D0x(D0y f), whose undivided form nxy
        is formed from the centred y differences into scratch.  Each term
        is one einsum of its component-first stack with itself, as in
        `grad_sq`, scaled once, so the stacks stay as they were.
        """
        P = self.second
        nxy = _neighbours(np.subtract, self.grads[1], -2, self.scratch)
        ix2, iy2 = self._inv_h2.flat
        d = np.einsum("i...,i...->...", P[0], P[0])
        d *= ix2 * ix2
        # 2 (nxy * 0.5/dx)^2 = nxy^2 * 0.5/dx^2
        for A, c in ((nxy, 0.5 * ix2), (P[1], iy2 * iy2)):
            t = np.einsum("i...,i...->...", A, A)
            t *= c
            d += t
        return d


def laplace_beltrami(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """e^{-2 lam} (f_xx + f_yy) with the 5-point periodic stencil, in the
    layout of f.

    Self-adjoint in the e^{2 lam}-weighted inner product by construction.
    The weight is applied on every grid: on a flat one it is 1.0 exactly.
    """
    lap = Stencil(grid, f).laplacian(np.empty_like(f))
    lap *= _comp_weight(grid.em2l, f)
    return lap


def frame_derivatives(u: np.ndarray, grid: SurfaceGrid):
    """Orthonormal-frame derivatives du(e1), du(e2), e_alpha = e^{-lam} d/dx_alpha."""
    # no caller in the package: kept because the benchmark's tracer wraps
    # it by name
    ux, uy = Stencil(grid, u).centred()
    s = _comp_weight(grid.eml, u)
    return s * ux, s * uy


def grad_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |du|^2 = |du(e1)|^2 + |du(e2)|^2 (centered differences)."""
    d = Stencil(grid, u).grad_sq()
    d *= grid.em2l
    return d


def energy_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |du|^2 dvol (Stencil.energy_density)."""
    return Stencil(grid, u).energy_density()


def hessian_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |flat Hessian|^2 = u_xx^2 + 2 u_xy^2 + u_yy^2."""
    return Stencil(grid, u).hessian_sq()


def l2_inner(f: np.ndarray, g: np.ndarray, grid: SurfaceGrid) -> float:
    """Discrete integral of <f, g> against dvol_h.

    Reduction order is fixed (numpy pairwise summation over the flattened
    array), so results are bit-reproducible for identical inputs.
    """
    if f.shape != g.shape:
        raise ShapeError(f"shape mismatch: {f.shape} vs {g.shape}")
    grid.check_nodes(f.shape)
    pw = component_dot(f, g) if f.ndim == 3 else f * g
    pw *= grid.w
    return float(np.sum(pw))


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
        raise GridError(f"ball radius {R} outside (0, {grid.inj_radius}), "
                        "half the smaller period of Lx, Ly")
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
    agrees with direct masked sums to roundoff.  The transforms are
    irfft2(rfft2(density) * K, s=density.shape) axis by axis, in the order
    numpy's rfftn and irfftn take them, so the bits are the same; the
    complex spectrum is one array, transformed in place.  ShapeError
    unless the density is a node scalar of shape (nx, ny).
    """
    grid.check_nodes(density.shape)
    if density.ndim != 2:
        raise ShapeError(f"density of shape {density.shape}: the ball sum "
                         "takes a node scalar (nx, ny)")
    F = np.fft.rfft(density, axis=1)
    np.fft.fft(F, axis=0, out=F)
    F *= ball_kernel_transform(grid, R)
    np.fft.ifft(F, axis=0, out=F)
    return np.fft.irfft(F, n=density.shape[1], axis=1)
