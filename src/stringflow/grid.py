"""Discrete geometry of the domain: the conformal 2-torus, its stencils and quadrature.

The metric is h = e^{2*lam} (dx^2 + dy^2) on a periodic rectangle of size
Lx x Ly.  Fields live on an nx x ny node grid; axis 0 is x, axis 1 is y.
Vector fields carry a trailing component axis.  Inside a run every map is
component-major (`empty_map`): the logical shape stays (nx, ny, q), but each
component plane is contiguous, so plane-wise arithmetic streams through
memory.  Every function here accepts either layout and gives the same values.

Every difference of a field comes from a `Stencil`.  A run's stencil,
which several operators share per load, copies the four periodic shifts of
a small field once and differences them; a field whose shift stack would
outgrow the cache (SLICE_ABOVE_BYTES) is differenced by slicing it, with
no copy.  The free functions below (the Laplace-Beltrami operator, the
frame derivatives, the densities) apply one operator per call, so each
takes a one-shot stencil (`Stencil.once`) that slices at every size and
allocates only the buffers of its operator.  The other exception is
`centred`, a single-axis difference for a field whose other shifts are
never needed (the flux divergence of the B-force), which slices as well.

Hot loops work on the component-first view (`component_first`: (q, nx, ny),
C-contiguous for a component-major map), where numpy takes its contiguous
fast path.  A small field's `Stencil` stacks the shifts and differences of
both directions so that one call serves x and y; a large field's takes
each direction in one call on the flat array plus the wrap rows.  Sums
over components go along the leading axis of that view, plane by plane in
index order in either layout (`component_dot`).  On contiguous operands a contraction is one
`np.einsum`, which writes no product array: einsum adds the planes of two
C-contiguous (q, nx, ny) operands in index order, bit for bit as
`np.add.reduce` does, and the tests pin that contract.  Grid constants
enter as precomputed reciprocals (a multiply costs about half a divide),
and no full map is divided.

Each energy quantity has one formula.  The Dirichlet energy is
`Stencil.dirichlet`, which contracts the undivided forward differences and
scales each direction's sum once; the action, the ledger and
`dirichlet_energy` all take it from there.  The |du|^2 density is
`Stencil.grad_sq`, the centred differences contracted with themselves as
the II term of the flow contracts them.  The ball-energy density |du|^2 dvol
is `Stencil.energy_density`, grad_sq * dx dy: the ledger's
sup_local_energy, the dt_min event, `concentration_scan` and the energy
sums of the diagnostics all take it from there, so they agree bit for bit.
All three work in the stencil's component-first buffers, so their bits do
not depend on the layout of the input.

A `Stencil` forms the centred differences once per load and hands the same
stack to every later caller.  Its Laplacian leaves the undivided second
differences in the stencil, where the Hessian reads them again, so a flow
step's rhs and the ledger record that follows it share one load.  After a
load its operators may come in any order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ShapeError, UnsupportedConfigurationError

TWO_PI = 2.0 * math.pi

# A Stencil slices every difference straight from its field, instead of
# copying four shifts, when that four-shift stack (32 q nx ny bytes) would
# pass this size, half of a 2 MiB per-core L2.  Per flow step at q = 4,
# zero fields (2-core VM, numpy 2.4.6), copy -> slice: 48^2 155 -> 168 us,
# 64^2 255 -> 256 us (the stack is 512 KiB), 96^2 651 -> 616 us
# (1.1 MiB), 128^2 1217 -> 1066 us.
SLICE_ABOVE_BYTES = 1 << 20


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
    if not (math.isfinite(Lx) and Lx > 0 and math.isfinite(Ly) and Ly > 0):
        raise GridError(f"periods must be finite and > 0: Lx={Lx}, Ly={Ly}")
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

def _neighbours(op, f: np.ndarray, axis: int, out: np.ndarray,
                back: int = 1) -> np.ndarray:
    """op(f[i+1], f[i-back]) along `axis`, periodic, by slicing into `out`:
    back=1 pairs the two neighbours of each node (centred), back=0 the next
    neighbour with the node itself (forward).

    When f and out are C-contiguous the interior is one call on the flat
    arrays, the neighbour one step of `axis` away; that call is wrong only
    in the wrap rows, which are then written again.  Each value is op of
    the same two operands on either path, so the bits are the same."""
    a, o = f.swapaxes(axis, 0), out.swapaxes(axis, 0)
    if f.flags.c_contiguous and out.flags.c_contiguous:
        s = math.prod(f.shape[axis % f.ndim + 1:])
        a_flat, o_flat = f.reshape(-1), out.reshape(-1)
        op(a_flat[(back + 1) * s:], a_flat[:a_flat.size - (back + 1) * s],
           out=o_flat[back * s:o_flat.size - s])
    else:
        op(a[back + 1:], a[:len(a) - 1 - back], out=o[back:-1])
    op(a[0], a[-1 - back], out=o[-1])
    if back:
        op(a[1], a[-1], out=o[0])
    return out


def centred(f: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """(f[i+1] - f[i-1]) * (0.5/h) along one axis, by slicing into `out`;
    the same operations as Stencil.centred.  For a field whose shifts along
    the other axis are never needed, where loading a Stencil would copy
    four shifts to use one difference."""
    if out is None:
        out = np.empty_like(f)
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


def _sum_components(a: np.ndarray) -> np.ndarray:
    """Fresh sum over the trailing component axis, in index order as
    component_dot sums; a row-major map is copied component-first, since
    numpy sums a contiguous component axis pairwise."""
    return _plane_sum(np.ascontiguousarray(component_first(a)))


def _comp_weight(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Broadcast a node-scalar over an optional trailing component axis."""
    return a if f.ndim == 2 else a[..., None]


class Stencil:
    """The periodic neighbour differences of one field, in reusable buffers.

    Inside, every buffer is component-first: a map of shape (nx, ny, q) is
    held as (q, nx, ny), a node scalar as (nx, ny), so x is axis -2 and y
    is axis -1 and each plane is contiguous.  `grads` stacks [gx, gy], and
    `scratch` is one more component-first buffer.  The attributes gx, gy
    and tmp are the gradient and scratch buffers in the logical
    (nx, ny, q) layout, as `empty_map` gives them.  Grid constants enter as
    precomputed reciprocals (1/dx^2, 0.5/dx, ...), broadcast along the
    stack axis, or scale a sum once, so no operator divides a full map.
    Every result is formed in these component-first buffers, so it has the
    same bits for either layout of f.  Each buffer is allocated when an
    operator first needs it (or all at once by `allocate`), so a stencil
    holds only what its operators have used: a lone `dirichlet` or
    `centred` allocates just (gx, gy).

    The stencil takes one of two paths, and both give the same bits (each
    value is the same operation on the same operands).  By default the
    size of the field picks it; `sliced` forces one, and `Stencil.once`
    slices for a caller that applies a single operator, since copying
    shifts pays only when several operators share one load, as in a run.
    On the copy path, for fields whose four-shift stack stays
    within SLICE_ABOVE_BYTES, `load(f)` copies `shifts`, the stack
    [xp, yp, xm, ym] (xp[i] = f[i+1] and xm[i] = f[i-1] along x, yp and ym
    along y); a component-major f gives its y shifts by one flat copy plus
    the wrap column.  Each operator then works on both directions in one
    call, the plus pair `shifts[:2]` against the minus pair `shifts[2:]` or
    against f.  On the sliced path, for larger fields, `shifts` is None and
    `load` copies nothing: each operator slices its differences straight
    from f (`_neighbours`), one call per direction plus the wrap rows, so
    no stack that outgrows the cache is written and read back.

    After a `load`, any operator may follow any other, and each gives the
    bits it gives on a freshly loaded stencil; before the first load each
    raises GridError.  `dirichlet` and `centred` write (gx, gy), each over
    what the other left there; `grad_sq` reads them through `centred`.
    `centred` remembers that (gx, gy) hold the centred differences of the
    loaded f and returns them again without a pass, until `load` or another
    operator writes the stack.  `laplacian` and `hessian_sq` share the
    undivided second differences (xp + xm - 2f, yp + ym - 2f), formed once
    per load, and a second `laplacian` and `hessian_sq` read them again.
    The Laplacian leaves (gx, gy) alone, so centred differences asked for
    before it are still valid after it.  `hessian_sq` takes its cross term
    from the centred differences and overwrites them and the second
    differences.  On the sliced path the second differences have their
    own 2-map buffer.  On the copy path they are formed in the plus
    shifts, and an operator that reads the shifts after that loads
    `source` again; the run's order (centred differences, Laplacian,
    Hessian) never does.  `laplacian` and `hessian_sq` use tmp as
    scratch; a caller may use tmp once they are done.  `source` is the
    array last loaded, kept until the next `load`.
    """

    def __init__(self, grid: SurfaceGrid, shape, *,
                 sliced: bool | None = None):
        shape = tuple(shape)
        self.grid = grid
        self.shape = shape
        self._is_map = len(shape) == 3
        self._planes = shape[-1:] + shape[:-1] if self._is_map else shape
        if sliced is None:
            sliced = 32 * math.prod(self._planes) > SLICE_ABOVE_BYTES
        self.sliced = sliced
        self.source = None
        self._F = None
        self._centred = False       # (gx, gy) hold D0 of the loaded f
        self._second = False        # _second_buf holds second differences
        self._plus_stale = False    # second differences in the plus shifts

    def allocate(self) -> "Stencil":
        """Allocate every buffer of the stencil's path now, for a stencil
        whose operators will need them all."""
        for name in ("shifts", "_second_buf", "grads", "scratch"):
            getattr(self, name)
        return self

    @classmethod
    def once(cls, grid: SurfaceGrid, f: np.ndarray) -> "Stencil":
        """A stencil loaded with f for a caller that applies one operator:
        it slices f at every size, since a shift stack pays for itself only
        when several operators share one load."""
        return cls(grid, f.shape, sliced=True).load(f)

    @functools.cached_property
    def shifts(self) -> np.ndarray | None:
        return None if self.sliced else np.empty((4,) + self._planes)

    @functools.cached_property
    def _second_buf(self) -> np.ndarray:
        # on the copy path the second differences take the plus shifts'
        # place: a 2-map buffer of their own cost 6-11% of the gap and
        # bubble benchmarks' run_s (48^2 and 64^2, q = 4; 2-core VM, numpy
        # 2.4.6)
        if self.sliced:
            return np.empty((2,) + self._planes)
        return self.shifts[:2]

    @functools.cached_property
    def grads(self) -> np.ndarray:
        return np.empty((2,) + self._planes)

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        return np.empty(self._planes)

    @functools.cached_property
    def gx(self) -> np.ndarray:
        return self._logical(self.grads[0])

    @functools.cached_property
    def gy(self) -> np.ndarray:
        return self._logical(self.grads[1])

    @functools.cached_property
    def tmp(self) -> np.ndarray:
        return self._logical(self.scratch)

    @functools.cached_property
    def _h(self) -> np.ndarray:
        """(dx, dy), shaped to broadcast along the stack axis; made on first
        use, so that building a stencil does no arithmetic."""
        return np.array([self.grid.dx, self.grid.dy]).reshape(
            (2,) + (1,) * len(self._planes))

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

    def _shifts(self) -> np.ndarray:
        """The component-first view of the loaded f, for an operator that
        reads it or the shifts; loads f again on the copy path once the
        second differences took the plus shifts' place, and raises
        GridError before the first load."""
        if self._F is None:
            raise GridError("the stencil was never loaded; load a field first")
        if self._plus_stale:
            self.load(self.source)
        return self._F

    def _write_grads(self) -> np.ndarray:
        """The gradient stack, for an operator about to overwrite it."""
        self._shifts()
        self._centred = False
        return self.grads

    def _pairs(self, op, back: int, out: np.ndarray) -> np.ndarray:
        """op(f[i+1], f[i-back]) along x into out[0] and along y into
        out[1]: the plus shifts against the minus ones (back=1) or against
        f (back=0) on the copy path, sliced straight from f otherwise."""
        F = self._F
        if self.sliced:
            _neighbours(op, F, -2, out[0], back)
            _neighbours(op, F, -1, out[1], back)
        else:
            S = self.shifts
            op(S[:2], S[2:] if back else F, out=out)
        return out

    def load(self, f: np.ndarray) -> "Stencil":
        if f.shape != self.shape:
            raise ShapeError(f"stencil holds {self.shape}, got {f.shape}")
        F = f.transpose(2, 0, 1) if self._is_map else f
        if not self.sliced:
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
        self.source, self._F = f, F
        self._centred = self._second = self._plus_stale = False
        return self

    def dirichlet(self) -> float:
        """sum(|D+x f|^2 + |D+y f|^2) dx dy, the Dirichlet energy of the
        forward differences D+x f = (xp - f) / dx.  One einsum contracts the
        undivided differences of each direction with themselves, and each
        direction's sum is scaled once, so no full map is divided or
        squared in place."""
        G = self._pairs(np.subtract, 0, self._write_grads())
        Gf = G.reshape(2, -1)
        sx, sy = np.einsum("dk,dk->d", Gf, Gf)
        dx, dy = self.grid.dx, self.grid.dy
        return float(sx * (dy / dx) + sy * (dx / dy))

    def centred(self):
        """(D0x f, D0y f) = ((xp - xm) * (0.5/dx), (yp - ym) * (0.5/dy)).

        Formed once per load: while (gx, gy) still hold them, a second call
        returns them without a pass."""
        if not self._centred:
            G = self._pairs(np.subtract, 1, self._write_grads())
            G *= self._half_inv_h
            self._centred = True
        return self.gx, self.gy

    def _second_differences(self) -> np.ndarray:
        """The undivided second differences [xp + xm - 2f, yp + ym - 2f],
        formed once per load in the plus shifts (copy path) or in their
        own buffer (sliced path)."""
        if not self._second:
            F = self._shifts()
            S = self._pairs(np.add, 1, self._second_buf)
            S -= np.add(F, F, out=self.scratch)
            self._second = True
            self._plus_stale = not self.sliced
        return self._second_buf

    def laplacian(self, out: np.ndarray) -> np.ndarray:
        """Flat 5-point Laplacian f_xx + f_yy into `out` (no conformal
        factor): ((xp + xm - 2f) / dx^2) + ((yp + ym - 2f) / dy^2).

        Scales the second differences into `out` and scratch, so they stay
        in the stencil for `hessian_sq`; (gx, gy) are left as they were."""
        P, c = self._second_differences(), self._inv_h2
        o = out.transpose(2, 0, 1) if self._is_map else out
        np.multiply(P[0], c[0], out=o)
        o += np.multiply(P[1], c[1], out=self.scratch)
        return out

    def grad_sq(self) -> np.ndarray:
        """|D0x f|^2 + |D0y f|^2 at each node, summed over components.

        This is the coordinate density; the frame density |df|^2 is
        e^{-2 lam} times it, so |df|^2 dvol = grad_sq * dx dy on any
        conformal grid (`energy_density`).  The centred differences come
        from `centred`, so ones already formed for this load are reused,
        and a map's are contracted with themselves as the II term of the
        flow contracts them (`SphereTarget.sff_trace`); a node scalar's are
        squared.
        """
        gx, gy = self.centred()
        if not self._is_map:
            return gx * gx + gy * gy
        d = component_dot(gx, gx)
        d += component_dot(gy, gy)
        return d

    def energy_density(self) -> np.ndarray:
        """|df|^2 dvol at each node, grad_sq * dx dy: the one density of
        every ball energy and every sum of |df|^2 dvol."""
        d = self.grad_sq()
        d *= self.grid.dx * self.grid.dy
        return d

    def hessian_sq(self) -> np.ndarray:
        """Flat Hessian density f_xx^2 + 2 f_xy^2 + f_yy^2, summed over components.

        f_xx and f_yy come from the undivided second differences, which a
        `laplacian` of this load may have formed already; f_xy is the
        centred cross difference D0x(D0y f), formed from the centred
        differences into gx.  Squares the unscaled second differences, then
        scales, so a later operator forms both kinds again.
        """
        self.centred()
        second = self._second_differences()
        nxy = _neighbours(np.subtract, self.grads[1], -2, self.grads[0])
        nxy *= nxy
        nxy *= 0.5 / self.grid.dx ** 2          # 2 (nxy * 0.5/dx)^2
        second *= second
        second *= self._inv_h2 * self._inv_h2
        nxx = second[0]
        nxx += nxy
        nxx += second[1]
        self._centred = self._second = False
        return self._node_sum(nxx)


def laplace_beltrami(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """e^{-2 lam} (f_xx + f_yy) with the 5-point periodic stencil, in the
    layout of f.

    Self-adjoint in the e^{2 lam}-weighted inner product by construction.
    """
    lap = Stencil.once(grid, f).laplacian(np.empty_like(f))
    if not grid.is_flat:
        lap *= _comp_weight(grid.em2l, f)
    return lap


def frame_derivatives(u: np.ndarray, grid: SurfaceGrid):
    """Orthonormal-frame derivatives du(e1), du(e2), e_alpha = e^{-lam} d/dx_alpha."""
    # no caller in the package: kept because the benchmark's tracer wraps
    # it by name
    ux, uy = Stencil.once(grid, u).centred()
    s = _comp_weight(grid.eml, u)
    return s * ux, s * uy


def grad_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |du|^2 = |du(e1)|^2 + |du(e2)|^2 (centered differences)."""
    d = Stencil.once(grid, u).grad_sq()
    if not grid.is_flat:
        d *= grid.em2l
    return d


def energy_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |du|^2 dvol (Stencil.energy_density)."""
    return Stencil.once(grid, u).energy_density()


def hessian_sq_density(u: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """Pointwise |flat Hessian|^2 = u_xx^2 + 2 u_xy^2 + u_yy^2."""
    return Stencil.once(grid, u).hessian_sq()


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
