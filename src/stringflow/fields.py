"""Background fields: the B-field two-form, its exterior derivative, the
Z-operator, the scalar potential with its nonnegative shift, and the
closed-form sup norms and constants of the paper's smallness hypotheses.

The B-field is given by an ambient skew coefficient matrix b(y) restricted to
the target, B(xi, eta) = xi^T b(y) eta.  Every two-form here is linear,
b_ij(y) = y^k C_kij with a constant tensor C skew in (i, j), so d_k b_ij =
C_kij and the three-form Omega = dB has the constant coefficients
Omega_kij = C_kij + C_ijk + C_jki.  Every potential is linear too,
V(y) = <a, y>, with the constant gradient a.

Each field owns its discrete term of the action and that term's exact
gradient, the one formula of each: TwoFormField.integral is the B term of
a loaded map and TwoFormField.add_gradient its coordinate gradient, the
wedges and flux differences; ScalarPotential.integral is int tilde(V) dvol
and ScalarPotential.add_gradient folds its gradient a in.  The action
(action._action_terms), its force (action._bfield_force), pullback_integral
and smallness_report all call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .grid import Stencil, SurfaceGrid, centred
from .registry import build_kind
from .targets import TargetManifold, tangent_project


# -- two-form -----------------------------------------------------------------

@dataclass(eq=False)
class TwoFormField:
    """Linear skew coefficient field b_ij(y) = y^k C_kij.

    `C` has shape (q, q, q) and must be skew in its last two indices.  The
    contractions below loop over `terms`, the nonzero C_kij with i < j (the
    skew partner C_kji = -C_kij is folded in), each a few whole-plane
    multiply-adds.
    """

    name: str
    C: np.ndarray
    terms: tuple = field(init=False, repr=False)
    Omega: np.ndarray = field(init=False, repr=False)
    is_zero: bool = field(init=False, repr=False)

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        if C.ndim != 3 or not C.shape[0] == C.shape[1] == C.shape[2]:
            raise ValueError(f"two-form tensor must have shape (q, q, q), "
                             f"got {C.shape}")
        if not np.array_equal(C, -np.swapaxes(C, 1, 2)):
            raise ValueError("two-form tensor C_kij must be skew in (i, j)")
        Omega = C + np.moveaxis(C, (0, 1, 2), (1, 2, 0)) \
                  + np.moveaxis(C, (0, 1, 2), (2, 0, 1))
        for a in (C, Omega):
            a.setflags(write=False)
        self.C, self.Omega = C, Omega
        self.terms = tuple((int(k), int(i), int(j), float(C[k, i, j]))
                           for k, i, j in zip(*np.nonzero(C)) if i < j)
        self.is_zero = not C.any()

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def coeff(self, y: np.ndarray) -> np.ndarray:
        """b(y), shape (..., q, q)."""
        return np.tensordot(y, self.C, axes=(-1, 0))

    def dcoeff(self, y: np.ndarray) -> np.ndarray:
        """d_k b_ij = C_kij at every point, shape (..., q, q, q) (read-only)."""
        return np.broadcast_to(self.C, y.shape[:-1] + self.C.shape)

    def omega(self, y: np.ndarray) -> np.ndarray:
        """Omega_kij = dB coefficients, fully antisymmetric. Shape (..., q, q, q)."""
        return np.broadcast_to(self.Omega, y.shape[:-1] + self.Omega.shape)

    def dcoeff_fd(self, y: np.ndarray, step: float = 1e-6) -> np.ndarray:
        """Central-difference derivative oracle for dcoeff."""
        out = np.zeros(y.shape[:-1] + (self.q, self.q, self.q))
        for k in range(self.q):
            e = np.zeros(self.q)
            e[k] = step
            out[..., k, :, :] = (self.coeff(y + e) - self.coeff(y - e)) / (2 * step)
        return out

    def pullback(self, u: np.ndarray, ux: np.ndarray,
                 uy: np.ndarray) -> np.ndarray:
        """ux^i b_ij(u) uy^j = sum over terms of C_kij u^k (ux^i uy^j - ux^j uy^i)."""
        dens = np.zeros(u.shape[:-1])
        for k, i, j, c in self.terms:
            dens += (c * u[..., k]) * wedge(ux, uy, i, j)
        return dens

    def integral(self, st: Stencil) -> float:
        """The B term sum_n (D0x u)^T b(u) (D0y u) dx dy of u, the map that
        `st` last loaded (its `source`), from its centred differences; 0.0
        for a zero form.  No conformal weight: the B term is conformally
        invariant."""
        # zero-field fast path: the sum is 4 us a trial at 48^2, this 0.06 us
        if self.is_zero:
            return 0.0
        dens = self.pullback(st.source, *st.centred())
        return float(np.sum(dens) * st.grid.dx * st.grid.dy)

    def add_gradient(self, g: np.ndarray, st: Stencil):
        """g += the coordinate gradient of `integral` / (dx dy) at the map
        that `st` last loaded, in place.

        Gradient of sum_n (D0x u)^T b(u) (D0y u), b_ij(u) = u^k C_kij:
            g^k = C_kij ux^i uy^j - D0x(b_kj uy^j) - D0y(ux^i b_ik),
        which converges to Omega_kij ux^i uy^j.  In the flow, e^{-2 lam}
        P(u) g = Z(du(e1) ^ du(e2)) + O(dx^2).  ux, uy are the stencil's
        centred differences.  Each term (k, i, j, c) adds its wedge to g^k
        and differences its four fluxes straight into g:
            g^i -= D0x(c u^k uy^j),  g^j += D0x(c u^k uy^i),
            g^j -= D0y(c u^k ux^i),  g^i += D0y(c u^k ux^j),
        each flux and its difference formed in the first two planes of the
        stencil's scratch `tmp`.  When no k of b is another term's i or j,
        as for y4, each plane gets the operations of summing the fluxes
        over the terms and differencing the sums, bit for bit.  A zero
        form adds nothing.
        """
        grid = st.grid
        ux, uy, u = st.gx, st.gy, st.source
        flux, diff = st.tmp[..., 0], st.tmp[..., 1]
        for k, i, j, c in self.terms:   # C_kij = c = -C_kji
            w = wedge(ux, uy, i, j)
            w *= c
            g[..., k] += w
            cu = c * u[..., k]
            g[..., i] -= centred(np.multiply(cu, uy[..., j], out=flux), 0,
                                 grid.dx, out=diff)
            g[..., j] += centred(np.multiply(cu, uy[..., i], out=flux), 0,
                                 grid.dx, out=diff)
            g[..., j] -= centred(np.multiply(cu, ux[..., i], out=flux), 1,
                                 grid.dy, out=diff)
            g[..., i] += centred(np.multiply(cu, ux[..., j], out=flux), 1,
                                 grid.dy, out=diff)


def wedge(ux: np.ndarray, uy: np.ndarray, i: int, j: int) -> np.ndarray:
    """The plane ux^i uy^j - ux^j uy^i."""
    w = ux[..., i] * uy[..., j]
    w -= ux[..., j] * uy[..., i]
    return w


def zero_two_form(q: int) -> TwoFormField:
    return TwoFormField("zero", np.zeros((q, q, q)))


def y4_two_form(beta: float, q: int = 4) -> TwoFormField:
    """b_12(y) = beta * y^4 (so Omega = beta dy^1 ^ dy^2 ^ dy^4)."""
    if q < 4:
        raise ValueError("y4 two-form needs q >= 4")
    C = np.zeros((q, q, q))
    C[3, 0, 1] = beta
    C[3, 1, 0] = -beta
    return TwoFormField("y4", C)


# fields.b_kind -> (builder, the `fields` config keys it takes as keywords)
TWO_FORMS = {
    "zero": (zero_two_form, ()),
    "y4": (y4_two_form, ("beta",)),
}


def make_two_form(kind: str, q: int, beta: float = 0.0) -> TwoFormField:
    return build_kind(TWO_FORMS, "fields.b_kind", kind, {"beta": beta}, q=q)


# -- scalar potential ----------------------------------------------------------

@dataclass(eq=False)
class ScalarPotential:
    """Linear scalar potential V(y) = <a, y> on the ambient space.

    V is held by its constant gradient `a`, as a two-form is by its tensor
    C; the Hessian vanishes, and `is_zero` is `not a.any()`.  `shift` is
    A1 = -min_N V >= 0, so V + shift >= 0 on N; |a| on the unit sphere.
    """

    name: str
    a: np.ndarray
    shift: float
    terms: tuple = field(init=False, repr=False)
    is_zero: bool = field(init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.ndim != 1:
            raise ValueError(f"potential gradient must be a vector, "
                             f"got shape {a.shape}")
        a.setflags(write=False)
        self.a = a
        self.terms = tuple((int(k), float(a[k])) for k in np.flatnonzero(a))
        self.is_zero = not a.any()

    @property
    def q(self) -> int:
        return self.a.shape[0]

    def value(self, y: np.ndarray) -> np.ndarray:
        """<a, y>, the nonzero a_k y^k summed in index order."""
        out = np.zeros(y.shape[:-1])
        for k, a_k in self.terms:
            out += a_k * y[..., k]
        return out

    def grad(self, y: np.ndarray) -> np.ndarray:
        """a at every point, a read-only broadcast of y's shape."""
        return np.broadcast_to(self.a, y.shape)

    def hess(self, y: np.ndarray) -> np.ndarray:
        return np.zeros(y.shape[:-1] + (self.q, self.q))

    def shifted(self, y: np.ndarray) -> np.ndarray:
        return self.value(y) + self.shift

    def integral(self, u: np.ndarray, grid: SurfaceGrid) -> float:
        """int tilde(V)(u) dvol = sum (V(u) + shift) e^{2 lam} dx dy, the V
        term of the action; 0.0 for a zero potential (whose shift is 0).
        ShapeError unless u lives on the grid's nodes."""
        grid.check_nodes(u.shape)
        # zero-field fast path: the sum is 6 us a trial at 48^2, this 0.06 us
        if self.is_zero:
            return 0.0
        Vw = self.shifted(u)
        Vw *= grid.w
        return float(np.sum(Vw))

    def add_gradient(self, g: np.ndarray):
        """g += a, the gradient of V at every node, in place over the
        nonzero a_k."""
        for k, a_k in self.terms:
            g[..., k] += a_k

    def grad_fd(self, y: np.ndarray, step: float = 1e-6) -> np.ndarray:
        out = np.zeros(y.shape[:-1] + (self.q,))
        for k in range(self.q):
            e = np.zeros(self.q)
            e[k] = step
            out[..., k] = (self.value(y + e) - self.value(y - e)) / (2 * step)
        return out


def zero_potential(q: int) -> ScalarPotential:
    return ScalarPotential("zero", np.zeros(q), shift=0.0)


def height_potential(epsilon: float, q: int = 4) -> ScalarPotential:
    """V(y) = epsilon * y^1; on the unit sphere min V = -|epsilon|."""
    a = np.zeros(q)
    a[0] = epsilon
    return ScalarPotential("height", a, shift=abs(epsilon))


# fields.v_kind -> (builder, the `fields` config keys it takes as keywords)
POTENTIALS = {
    "zero": (zero_potential, ()),
    "height": (height_potential, ("epsilon",)),
}


def make_potential(kind: str, q: int, epsilon: float = 0.0) -> ScalarPotential:
    return build_kind(POTENTIALS, "fields.v_kind", kind, {"epsilon": epsilon},
                      q=q)


@dataclass
class FieldBackground:
    """Bundle of the B-field and scalar potential acting on one target."""

    b: TwoFormField
    V: ScalarPotential


def zero_background(q: int) -> FieldBackground:
    return FieldBackground(zero_two_form(q), zero_potential(q))


# -- operations ----------------------------------------------------------------

def pullback_density(u: np.ndarray, b: TwoFormField,
                     grid: SurfaceGrid) -> np.ndarray:
    """(d_x u)^T b(u) (d_y u) at each node (coordinate derivatives).

    The pullback integral is sum(density) * dx * dy, with no conformal
    weight: the B-term is conformally invariant.
    """
    return b.pullback(u, *Stencil(grid, u).centred())


def pullback_integral(u: np.ndarray, b: TwoFormField, grid: SurfaceGrid) -> float:
    """The B term of u from a load of its own: TwoFormField.integral, the
    sum that the action reads."""
    return b.integral(Stencil(grid, u))


def z_operator(u: np.ndarray, xi1: np.ndarray, xi2: np.ndarray,
               b: TwoFormField, target: TargetManifold) -> np.ndarray:
    """Z(xi1 ^ xi2) = P(u) w with w^k = Omega_kij(u) xi1^i xi2^j.

    Defined by <Z(xi1 ^ xi2), eta> = Omega(eta, xi1, xi2) for tangent eta;
    antisymmetric in (xi1, xi2) and tangent-valued.  u, xi1 and xi2 have
    one shape.  w is one (..., q^2) @ (q^2, q) product of the outer
    products xi1^i xi2^j with the constant Omega, so a batch of pairs
    broadcasts no (q, q, q) tensor.
    """
    q = b.q
    flat = xi1.shape[:-1] + (q * q,)
    w = (xi1[..., :, None] * xi2[..., None, :]).reshape(flat) \
        @ b.Omega.reshape(q, q * q).T
    return tangent_project(target, u, w)


def tangential_grad_V(u: np.ndarray, V: ScalarPotential,
                      target: TargetManifold) -> np.ndarray:
    """P(u) grad V(u), a fresh array, for the diagnostics; the flow's rhs
    folds a into the B-force's sum with ScalarPotential.add_gradient and
    projects both at once (action._bfield_force)."""
    return tangent_project(target, u, V.grad(u))


# -- sup norms -----------------------------------------------------------------

@dataclass
class SupNorms:
    """Upper bounds of the sups of |B| (comass), |Z| and |Hess V| on N."""

    B_inf: float
    Z_inf: float
    hessV_inf: float


def _skew_bound(X: np.ndarray) -> float:
    """sigma_max(X_(1)) / sqrt(2) for a (q, q, q) tensor skew in its last
    two indices, X_(1) its (q, q^2) unfolding.

    For a unit vector v the skew matrix v^k X_k has spectral norm at most
    its Frobenius norm |X_(1)^T v| over sqrt(2); dually, X_(1) sees only
    the skew part of xi1 xi2^T, of Frobenius norm 1/sqrt(2) for an
    orthonormal pair, so maps it to a vector of norm at most
    sigma_max / sqrt(2).  sigma_max^2 is the top eigenvalue of the (q, q)
    Gram matrix.  M is scaled by its largest |entry| s, and the root by s,
    so the Gram matrix neither overflows nor underflows for any finite X.

    The Gram matrix is an einsum, not a BLAS product.  When its rows are
    orthogonal, as for every registered two-form (y4's C and Omega alike)
    and for a zero tensor (whose Gram matrix is 0, so the bound is 0.0),
    it is diagonal and its top eigenvalue is its largest diagonal entry.
    Only a tensor whose Gram matrix is not diagonal calls LAPACK, whose
    first call maps about 0.8 MB of library pages that a run never needs.
    """
    M = X.reshape(X.shape[0], -1)
    s = float(np.max(np.abs(M))) or 1.0
    M = M / s
    G = np.einsum("ik,jk->ij", M, M)
    d = np.diagonal(G)
    top = d.max() if np.array_equal(G, np.diag(d)) \
        else np.linalg.eigvalsh(G)[-1]
    return s * math.sqrt(float(top) / 2.0)


def sup_norms(b: TwoFormField, V: ScalarPotential,
              target: TargetManifold) -> SupNorms:
    """|B|_inf, |Z|_inf and |Hess V|_inf on a sphere of radius r, in closed
    form from the constant coefficients.

    |B|_inf <= r * _skew_bound(C), since b(y) = y^k C_k with |y| = r;
    |Z|_inf <= _skew_bound(Omega), since |Z(xi1 ^ xi2)| <= |w|; and
    |Hess V|_inf = |a| / r, since Hess V(X, X) = <a, II(X, X)> =
    -<a, u> |X|^2 / r^2.  All three are exact for `y4` and `height`, and
    0.0 for a zero form or potential, with no LAPACK call (_skew_bound).
    """
    r = target.radius
    return SupNorms(B_inf=r * _skew_bound(b.C), Z_inf=_skew_bound(b.Omega),
                    hessV_inf=math.hypot(*V.a) / r)


# -- hypothesis report -----------------------------------------------------------

def delta_constants(B_inf: float):
    """delta2 = 1/(1/2 - |B|), delta3 = (1/2 + |B|)/(1/2 - |B|); needs |B| < 1/2."""
    if not 0.0 <= B_inf < 0.5:
        raise HypothesisError(f"|B|_inf = {B_inf} outside [0, 1/2)")
    delta2 = 1.0 / (0.5 - B_inf)
    delta3 = (0.5 + B_inf) / (0.5 - B_inf)
    return delta2, delta3


@dataclass
class SmallnessReport:
    integral_tilde_V: float
    delta1: float
    delta2: float
    required_bound: float      # delta1 / delta2
    B_inf: float
    passes_bfield: bool
    passes_potential: bool     # requires passes_bfield
    passes: bool               # both hypotheses: passes_potential


def smallness_report(u0: np.ndarray, grid: SurfaceGrid, fields: FieldBackground,
                     delta1: float, B_inf: float) -> SmallnessReport:
    """Check the hypotheses |B|_inf < 1/2 and int tilde(V)(u0) <= d1/d2,
    the integral the action's V term is (ScalarPotential.integral); where
    |B|_inf >= 1/2, delta2 is inf and the bound 0."""
    integral = fields.V.integral(u0, grid)
    passes_b = B_inf < 0.5
    delta2 = delta_constants(B_inf)[0] if passes_b else math.inf
    bound = delta1 / delta2
    passes = passes_b and integral <= bound
    return SmallnessReport(
        integral_tilde_V=integral,
        delta1=delta1,
        delta2=delta2,
        required_bound=bound,
        B_inf=B_inf,
        passes_bfield=passes_b,
        passes_potential=passes,
        passes=passes,
    )
