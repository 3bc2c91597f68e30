"""Embedded compact targets N in R^q: projection, tangent/normal structure.

All point operations are vectorized over arbitrary leading axes; the
component axis is last.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import OffManifoldError, ProjectionError, TangencyError
from .grid import component_dot, component_first
from .registry import build_kind

ON_MANIFOLD_TOL = 1e-8
TANGENT_TOL = 1e-6


class TargetManifold(ABC):
    """Compact N in R^q with nearest-point projection well-defined in a tube."""

    q: int                 # ambient dimension
    n: int                 # intrinsic dimension
    tubular_radius: float
    name: str = "target"

    @abstractmethod
    def project(self, y: np.ndarray) -> np.ndarray:
        """Nearest point on N; raises ProjectionError outside the tube."""

    @abstractmethod
    def distance(self, y: np.ndarray) -> np.ndarray:
        """Pointwise distance to N."""

    @abstractmethod
    def tangent_projector(self, u: np.ndarray) -> np.ndarray:
        """(..., q, q) orthogonal projector onto T_u N."""

    @abstractmethod
    def sff(self, u: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Second fundamental form II(X, Y), unchecked fast path.

        Convention: II equals the second derivative of the nearest-point
        projection on tangent vectors, so for the unit sphere
        II(X, Y) = -<X, Y> u.
        """

    def sff_trace(self, u: np.ndarray, X1: np.ndarray, X2: np.ndarray,
                  out=None) -> np.ndarray:
        """II(X1, X1) + II(X2, X2), the II term of the tension field for
        frame derivatives X1, X2; into `out` when given, which may not
        share memory with u, X1 or X2.  Subclasses may use a closed form."""
        return np.add(self.sff(u, X1, X1), self.sff(u, X2, X2), out=out)

    def tangent_project(self, u: np.ndarray, X: np.ndarray,
                        out=None) -> np.ndarray:
        """P(u) X through the full projector; subclasses may use a closed
        form.  `out`, when given, receives the result and may not share
        memory with X or u."""
        return np.einsum("...ij,...j->...i", self.tangent_projector(u), X,
                         out=out)

    @abstractmethod
    def normal_frame(self, u: np.ndarray) -> np.ndarray:
        """(..., q - n, q) orthonormal basis of the normal space at u."""

    def frame_jacobian(self, u: np.ndarray, step: float = 1e-5) -> np.ndarray:
        """(..., q - n, q, q) array J[l, i, j] = d nu_l^i / d y^j at u.

        Central differences of the frame field extended by nu(y) =
        normal_frame(project(y)); subclasses may override with a closed form.
        """
        L = self.q - self.n
        out = np.zeros(u.shape[:-1] + (L, self.q, self.q))
        for j in range(self.q):
            e = np.zeros(self.q)
            e[j] = step
            fp = self.normal_frame(self.project(u + e))
            fm = self.normal_frame(self.project(u - e))
            out[..., :, :, j] = (fp - fm) / (2.0 * step)
        return out

    def frame_derivative(self, u: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(..., q - n, q) array dnu(X)[l, i] = d nu_l^i / d y^j X^j, the
        derivative of the normal frame along X; contracts frame_jacobian
        unless a subclass has a closed form."""
        return np.einsum("...lij,...j->...li", self.frame_jacobian(u), X)

    # -- checked public wrappers ---------------------------------------------

    def check_on_manifold(self, u: np.ndarray, tol: float = ON_MANIFOLD_TOL):
        d = float(np.max(self.distance(u)))
        # `not <=`, so that a NaN distance is rejected too (as in check_tangent)
        if not d <= tol:
            raise OffManifoldError(f"max dist to target {d:.3e} > {tol:.1e}")

    def check_tangent(self, u: np.ndarray, X: np.ndarray):
        P = self.tangent_projector(u)
        r = np.einsum("...ij,...j->...i", P, X) - X
        defect = float(np.max(np.linalg.norm(r, axis=-1)))
        scale = max(float(np.max(np.linalg.norm(X, axis=-1))), 1.0)
        if not defect <= TANGENT_TOL * scale:
            raise TangencyError(f"normal component {defect:.3e} beyond tolerance")

    def second_fundamental_form(self, u, X, Y) -> np.ndarray:
        """II(X, Y) after checking that u is on N (OffManifoldError) and X,
        Y are tangent at u (TangencyError)."""
        self.check_on_manifold(u)
        self.check_tangent(u, X)
        self.check_tangent(u, Y)
        return self.sff(u, X, Y)

    def second_fundamental_form_fd(self, u, X, Y, h: float | None = None,
                                   richardson: bool = True) -> np.ndarray:
        """Finite-difference oracle for II via second differences of project.

        II(X, X) = (pi(u + hX) + pi(u - hX) - 2u) / h^2 + O(h^2); mixed
        arguments by polarization.  Independent of the analytic sff.
        """
        if h is None:
            h = 1e-4 * self.tubular_radius

        def diag(Z):
            d2 = (self.project(u + h * Z) + self.project(u - h * Z) - 2.0 * u) / h**2
            if richardson:
                h2 = 0.5 * h
                d2h = (self.project(u + h2 * Z) + self.project(u - h2 * Z)
                       - 2.0 * u) / h2**2
                d2 = (4.0 * d2h - d2) / 3.0
            return d2

        XY_same = X is Y or (np.shape(X) == np.shape(Y) and np.array_equal(X, Y))
        if XY_same:
            return diag(X)
        return 0.25 * (diag(X + Y) - diag(X - Y))


class SphereTarget(TargetManifold):
    """Unit sphere S^{q-1} in R^q with closed-form geometry."""

    def __init__(self, q: int = 4):
        if q < 4:
            raise ValueError("sphere target needs q >= 4 (dim N >= 3)")
        self.q = q
        self.n = q - 1
        self.tubular_radius = 1.0
        self.name = "sphere"

    def project(self, y: np.ndarray) -> np.ndarray:
        """y * (1 / |y|), a fresh array in the layout of y; the reciprocal
        is taken once per point."""
        out = np.empty_like(y, dtype=float)
        r = np.sqrt(component_dot(y, y))
        if r.min() < 1e-8:
            raise ProjectionError("projection undefined near the sphere center")
        np.multiply(component_first(y), 1.0 / r, out=component_first(out))
        return out

    def distance(self, y: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.norm(y, axis=-1) - 1.0)

    def tangent_projector(self, u: np.ndarray) -> np.ndarray:
        eye = np.eye(self.q)
        return eye - u[..., :, None] * u[..., None, :]

    def sff(self, u, X, Y):
        return -component_dot(X, Y)[..., None] * u

    def sff_trace(self, u, X1, X2, out=None):
        """-(|X1|^2 + |X2|^2) u: two contractions and one multiply of u,
        instead of two multiplies."""
        if out is None:
            out = np.empty_like(u)
        s = component_dot(X1, X1)
        s += component_dot(X2, X2)
        np.negative(s, out=s)
        np.multiply(component_first(u), s, out=component_first(out))
        return out

    def tangent_project(self, u, X, out=None):
        """X - <X, u> u; X has the shape of u and may be a read-only
        broadcast.  A fresh result takes the layout of u."""
        if out is None:
            out = np.empty_like(u)
        P = component_first(out)
        np.multiply(component_first(u), component_dot(X, u), out=P)
        np.subtract(component_first(X), P, out=P)
        return out

    def normal_frame(self, u: np.ndarray) -> np.ndarray:
        return u[..., None, :]

    def frame_jacobian(self, u: np.ndarray, step: float = 1e-5) -> np.ndarray:
        # d(y/|y|)^i/dy^j = delta_ij - u_i u_j on the sphere
        eye = np.eye(self.q)
        J = eye - u[..., :, None] * u[..., None, :]
        return J[..., None, :, :]  # (..., 1, q, q)

    def frame_derivative(self, u, X):
        """(X - u <u, X>)[..., None, :]: the frame is u itself, so its
        derivative along X is the tangent part of X, and no (q, q)
        Jacobian is formed."""
        return self.tangent_project(u, X)[..., None, :]


def tangent_project(target: TargetManifold, u: np.ndarray, X: np.ndarray,
                    out=None) -> np.ndarray:
    """P(u) X; the target's method, which avoids the full projector when a
    closed form exists.  With `out`, the result is written there; `out` may
    not share memory with X or u (ValueError), since the closed forms write
    it before they have read all of X."""
    if out is not None and (np.may_share_memory(out, X)
                            or np.may_share_memory(out, u)):
        raise ValueError("tangent_project: out may not alias X or u")
    return target.tangent_project(u, X, out=out)


# target.kind -> (builder, the `target` config keys it takes as keywords)
TARGETS = {"sphere": (SphereTarget, ("q",))}


def make_target(kind: str, q: int = 4) -> TargetManifold:
    return build_kind(TARGETS, "target.kind", kind, {"q": q})
