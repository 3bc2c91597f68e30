"""Background fields: the B-field two-form, its exterior derivative, the
Z-operator, the scalar potential with its nonnegative shift, and sup-norm
estimates entering the hypothesis checks.

The B-field is given by an ambient skew coefficient matrix b(y) restricted to
the target, B(xi, eta) = xi^T b(y) eta.  Every two-form here is linear,
b_ij(y) = y^k C_kij with a constant tensor C skew in (i, j), so d_k b_ij =
C_kij and the three-form Omega = dB has the constant coefficients
Omega_kij = C_kij + C_ijk + C_jki.  Every potential is linear too,
V(y) = <a, y>, with the constant gradient a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .grid import Stencil, SurfaceGrid
from .registry import build_kind
from .targets import TargetManifold, tangent_project


# -- two-form -----------------------------------------------------------------

@dataclass(eq=False)
class TwoFormField:
    """Linear skew coefficient field b_ij(y) = y^k C_kij.

    `C` has shape (q, q, q) and must be skew in its last two indices.  The
    contractions below loop over `terms`, the nonzero C_kij with i < j (the
    skew partner C_kji = -C_kij is folded in), each a few whole-plane
    multiply-adds.  The B-force writes its fluxes only in the planes
    `flux_planes` (a slice over every i and j of the terms) and its
    gradient only in `force_planes` (every k, i and j).
    """

    name: str
    C: np.ndarray
    terms: tuple = field(init=False, repr=False)
    flux_planes: slice = field(init=False, repr=False)
    force_planes: tuple = field(init=False, repr=False)
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
        flux = sorted({p for _, i, j, _ in self.terms for p in (i, j)})
        self.flux_planes = slice(flux[0], flux[-1] + 1) if flux else slice(0)
        self.force_planes = tuple(sorted({t[0] for t in self.terms}
                                         | set(flux)))
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

    @property
    def trivial(self) -> bool:
        return self.b.is_zero and self.V.is_zero


def zero_background(q: int) -> FieldBackground:
    return FieldBackground(zero_two_form(q), zero_potential(q))


# -- operations ----------------------------------------------------------------

def pullback_density(u: np.ndarray, b: TwoFormField,
                     grid: SurfaceGrid) -> np.ndarray:
    """(d_x u)^T b(u) (d_y u) at each node (coordinate derivatives).

    The pullback integral is sum(density) * dx * dy, with no conformal
    weight: the B-term is conformally invariant.
    """
    return b.pullback(u, *Stencil(grid, u.shape).load(u).centred())


def pullback_integral(u: np.ndarray, b: TwoFormField, grid: SurfaceGrid) -> float:
    if b.is_zero:
        return 0.0
    return float(np.sum(pullback_density(u, b, grid)) * grid.dx * grid.dy)


def z_operator(u: np.ndarray, xi1: np.ndarray, xi2: np.ndarray,
               b: TwoFormField, target: TargetManifold) -> np.ndarray:
    """Z(xi1 ^ xi2) = P(u) w with w^k = Omega_kij(u) xi1^i xi2^j.

    Defined by <Z(xi1 ^ xi2), eta> = Omega(eta, xi1, xi2) for tangent eta;
    antisymmetric in (xi1, xi2) and tangent-valued.
    """
    om = b.omega(u)
    w = np.einsum("...kij,...i,...j->...k", om, xi1, xi2)
    return tangent_project(target, u, w)


def tangential_grad_V(u: np.ndarray, V: ScalarPotential,
                      target: TargetManifold, out=None) -> np.ndarray:
    """P(u) grad V(u), into `out` when given (not aliasing u)."""
    return tangent_project(target, u, V.grad(u), out=out)


# -- sup norms -----------------------------------------------------------------

@dataclass
class SupNorms:
    """Sampled sup-norm estimates (lower bounds of the true sup)."""

    B_inf: float
    Z_inf: float
    gradV_inf: float
    hessV_inf: float
    A1: float
    n_samples: int


def _sample_points(target: TargetManifold, n: int, rng) -> np.ndarray:
    y = rng.standard_normal((n, target.q))
    return target.project(y)


def _orthonormal_tangent_pair(target, u, rng):
    """One orthonormal tangent pair per sampled point."""
    n = u.shape[0]
    a = tangent_project(target, u, rng.standard_normal((n, target.q)))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    c = tangent_project(target, u, rng.standard_normal((n, target.q)))
    c -= np.sum(c * a, axis=-1, keepdims=True) * a
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    return a, c


def sup_norms(b: TwoFormField, V: ScalarPotential, target: TargetManifold,
              n_samples: int = 4096, seed: int = 0,
              pairs_per_point: int = 4) -> SupNorms:
    """Estimate |B|_inf (comass), |Z|_inf, |grad V|_inf, |Hess V|_inf and A1.

    Deterministic seeded sampling; estimates are lower bounds of the sup and
    are reported together with the sample count.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for sup-norm estimates")
    rng = np.random.default_rng(seed)
    u = _sample_points(target, n_samples, rng)

    B_inf = 0.0
    Z_inf = 0.0
    if not b.is_zero:
        # comass of b at u: spectral norm of the tangentially restricted matrix
        P = target.tangent_projector(u)
        bu = b.coeff(u)
        rest = np.einsum("...ia,...ab,...bj->...ij", P, bu, P)
        B_inf = float(np.max(np.linalg.norm(rest, ord=2, axis=(-2, -1))))
        for _ in range(pairs_per_point):
            xi1, xi2 = _orthonormal_tangent_pair(target, u, rng)
            z = z_operator(u, xi1, xi2, b, target)
            Z_inf = max(Z_inf, float(np.max(np.linalg.norm(z, axis=-1))))

    gradV_inf = 0.0
    hessV_inf = 0.0
    A1 = V.shift
    if not V.is_zero:
        gv = tangential_grad_V(u, V, target)
        gradV_inf = float(np.max(np.linalg.norm(gv, axis=-1)))
        A1 = max(A1, float(-np.min(V.value(u))))
        # intrinsic Hessian on N along tangent X:
        # X^T Hess_amb X + <grad V, II(X, X)>
        for _ in range(pairs_per_point):
            X, _ = _orthonormal_tangent_pair(target, u, rng)
            h_amb = np.einsum("...i,...ij,...j->...", X, V.hess(u), X)
            h_ii = np.sum(V.grad(u) * target.sff(u, X, X), axis=-1)
            hessV_inf = max(hessV_inf, float(np.max(np.abs(h_amb + h_ii))))

    return SupNorms(B_inf=B_inf, Z_inf=Z_inf, gradV_inf=gradV_inf,
                    hessV_inf=hessV_inf, A1=A1, n_samples=n_samples)


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
    passes_potential: bool

    @property
    def passes(self) -> bool:
        return self.passes_bfield and self.passes_potential

    def to_dict(self) -> dict:
        return {
            "integral_tilde_V": self.integral_tilde_V,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "required_bound": self.required_bound,
            "B_inf": self.B_inf,
            "passes_bfield": self.passes_bfield,
            "passes_potential": self.passes_potential,
            "passes": self.passes,
        }


def smallness_report(u0: np.ndarray, grid: SurfaceGrid, fields: FieldBackground,
                     delta1: float, B_inf: float) -> SmallnessReport:
    """Check the hypotheses |B|_inf < 1/2 and int tilde(V)(u0) <= d1/d2."""
    integral = float(np.sum(fields.V.shifted(u0) * grid.w))
    passes_b = B_inf < 0.5
    if passes_b:
        delta2, _ = delta_constants(B_inf)
    else:
        delta2 = math.inf
    bound = delta1 / delta2 if passes_b else 0.0
    return SmallnessReport(
        integral_tilde_V=integral,
        delta1=delta1,
        delta2=delta2,
        required_bound=bound,
        B_inf=B_inf,
        passes_bfield=passes_b,
        passes_potential=passes_b and integral <= bound,
    )
