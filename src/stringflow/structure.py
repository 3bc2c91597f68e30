"""The antisymmetric-potential rewriting of the Euler-Lagrange equation and
the gap and Bochner diagnostics.

The critical-point equation Delta u = II(du, du) + Z(du_x ^ du_y) + P grad V
can be rewritten as -Delta u = A . grad u - P grad V with A = (F, G) built
from normal-frame derivatives and the dB coefficients; F and G are skew by
construction.  This module assembles A, measures the residual of the
rewritten equation, and evaluates the small-energy gap and the pointwise
Bochner formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import flow_rhs
from .errors import GridError
from .fields import FieldBackground, tangential_grad_V
from .grid import (Stencil, SurfaceGrid, grad_sq_density, hessian_sq_density,
                   l2_norm, laplace_beltrami)
from .targets import TargetManifold, tangent_project


@dataclass
class AntisymmetricPotential:
    """Per-node pair (F, G) of q x q skew matrices, the two slots of A."""

    F: np.ndarray     # (nx, ny, q, q)
    G: np.ndarray

    def skew_defect(self) -> float:
        return max(float(np.max(np.abs(self.F + np.swapaxes(self.F, -1, -2)))),
                   float(np.max(np.abs(self.G + np.swapaxes(self.G, -1, -2)))))


def assemble_A(u_values: np.ndarray, grid: SurfaceGrid, target: TargetManifold,
               fields: FieldBackground) -> AntisymmetricPotential:
    """Assemble the antisymmetric potential at u.

    F^m_i = K^m_i(u_x) - 1/2 Omega_mij u_y^j,
    G^m_i = K^m_i(u_y) + 1/2 Omega_mij u_x^j,
    with K^m_i(X) = sum_{l,j} (dnu_l^i/dy^j nu_l^m - dnu_l^m/dy^j nu_l^i) X^j.
    Then A . grad u = -II(du, du) - Omega(., du_x, du_y), each term skew.
    On a conformal grid F and G carry the metric's e^{-2 lam}, as the
    Laplacian of rewrite_residual does, so the rewritten equation is the
    flow's e^{-2 lam} (Delta u - II - Omega) - P grad V.

    K(X) = T - T^T with T^m_i = sum_l a_l^i nu_l^m and a = dnu(X), the
    target's `frame_derivative`, so no per-node (q, q, q) tensor is formed:
    the memory per node is O(q^2).  One (q, q) scratch per node serves F
    and G, and each difference is written straight to its result.  Omega
    is constant and contracts with u_x and u_y directly.  One formula
    serves every grid and form: a zero form adds exact zeros, and a flat
    grid's weight is exactly 1.0.
    """
    ux, uy = Stencil(grid, u_values).centred()
    nu = target.normal_frame(u_values)          # (..., L, q)
    # the scratch in the layout einsum gives these products, each (m, i)
    # plane contiguous; F and G inherit it
    q = u_values.shape[-1]
    T = np.empty((q, q) + u_values.shape[:-1]).transpose(2, 3, 0, 1)

    def K(X):
        np.einsum("...li,...lm->...mi", target.frame_derivative(u_values, X),
                  nu, out=T)
        return np.subtract(T, np.swapaxes(T, -1, -2))

    F, G = K(ux), K(uy)
    # 0.5 Omega is exact, so this is 0.5 (Omega . X) bit for bit; each
    # product is formed in the scratch
    half_om = 0.5 * fields.b.Omega            # (m, i, j)
    F -= np.einsum("mij,...j->...mi", half_om, uy, out=T)
    G += np.einsum("mij,...j->...mi", half_om, ux, out=T)
    F *= grid.em2l[..., None, None]
    G *= grid.em2l[..., None, None]
    return AntisymmetricPotential(F=F, G=G)


def rewrite_residual(u_values: np.ndarray, A: AntisymmetricPotential,
                     grid: SurfaceGrid, target: TargetManifold,
                     fields: FieldBackground) -> float:
    """L2 norm of Delta u + F . u_x + G . u_y - P grad V(u).

    Vanishes to O(dx^2) for smooth critical points; an A whose F is zero
    ablates the F term (negative control).  One stencil gives the centred
    differences and the Laplacian; the terms are added into the Laplacian
    in the order written, each formed in the stencil's scratch, so the
    residual allocates one map.  One formula serves every grid and
    potential: a flat grid's weight is exactly 1.0 and a zero potential's
    P grad V is exactly 0.  ShapeError unless F and G live on the grid's
    nodes.
    """
    for slot in (A.F, A.G):
        grid.check_nodes(slot.shape)
    st = Stencil(grid, u_values)
    ux, uy = st.centred()
    res = st.laplacian(np.empty_like(u_values))
    res *= grid.em2l[..., None]          # as laplace_beltrami does
    term = st.tmp
    res += np.einsum("...mi,...i->...m", A.F, ux, out=term)
    res += np.einsum("...mi,...i->...m", A.G, uy, out=term)
    res -= tangent_project(target, u_values, fields.V.grad(u_values), out=term)
    return l2_norm(res, grid)


# -- gap / Bochner -------------------------------------------------------------------

def _lp_norm(density: np.ndarray, grid: SurfaceGrid, p: float) -> float:
    return float(np.sum(density ** p * grid.w)) ** (1.0 / p)


def w2_43_seminorm(u_values: np.ndarray, grid: SurfaceGrid) -> float:
    """Discrete W^{2,4/3} seminorm: (sum |second differences|^{4/3} w)^{3/4}."""
    h = np.sqrt(hessian_sq_density(u_values, grid))
    return _lp_norm(h, grid, 4.0 / 3.0)


def gap_check(u_values: np.ndarray, grid: SurfaceGrid, target: TargetManifold,
              fields: FieldBackground, eps_energy: float) -> dict:
    """Small-energy gap diagnostics.

    Reports ||du||_L2, the W^{2,4/3} seminorm of u (second differences do
    not see u's mean), and ||P grad V(u)||_{L^{4/3}}; when grad V vanishes
    and the energy is below eps_energy the map is expected to be constant
    (small-energy triviality).
    """
    du_l2 = float(np.sqrt(np.sum(Stencil(grid, u_values).energy_density())))
    semi = w2_43_seminorm(u_values, grid)
    gv = tangential_grad_V(u_values, fields.V, target)
    gv_norm = _lp_norm(np.linalg.norm(gv, axis=-1), grid, 4.0 / 3.0)
    small = du_l2 < eps_energy
    ratio = 0.0 if semi == 0.0 else (gv_norm / semi if gv_norm > 0 else 0.0)
    return {
        "du_l2": du_l2,
        "w2_43_seminorm": semi,
        "gradV_l43": gv_norm,
        "ratio": ratio,
        "small_energy": small,
        "expect_constant": bool(small and fields.V.is_zero),
    }


def bochner_density(u_values: np.ndarray, grid: SurfaceGrid,
                    target: TargetManifold, fields: FieldBackground,
                    kappa_N: float, Z_inf: float,
                    hessV_inf: float) -> np.ndarray:
    """Pointwise Bochner diagnostic, nonnegative up to O(dx^2) truncation:

        Delta(|du|^2 / 2) - [ |Hess u|^2 + (Scal/2)|du|^2 - kappa |du|^4
                              - |Z| |du|^2 |tau| - |Hess V| |du|^2 ].
    """
    if not grid.is_flat:
        raise GridError("bochner_density needs a flat grid")
    g2 = grad_sq_density(u_values, grid)
    lap_half = laplace_beltrami(0.5 * g2, grid)
    hess2 = hessian_sq_density(u_values, grid)
    tau = flow_rhs(u_values, grid, target, fields)
    tau_norm = np.linalg.norm(tau, axis=-1)
    bracket = (hess2 - kappa_N * g2 ** 2 - Z_inf * g2 * tau_norm
               - hessV_inf * g2)
    return lap_half - bracket
