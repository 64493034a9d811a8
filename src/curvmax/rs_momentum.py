"""Complex (Riemann--Silberstein) and momentum representations.

The complex layer packs the contravariant field pairs into
F^i = E^i + i B^i and G^i = D^i + i H^i, forms the complementary vectors
K = (G + F)/2 and L = (conj(G) - conj(F))/2, and evaluates the residuals
of the complex system, with c = 1 as in the solver,

    div (K + L) = 4 pi rho,
    -i d_t (K - L)^i + e^{ijk} nabla_j (K - L)_k = i 4 pi j^i,

numerically on a chart by central finite differences of step 1e-5.  Since
K + L = D + iB and K - L = E + iH, the first residual equals
gauss_D + i gauss_B of the real 3-vector form for any fields, and the
second equals faraday + i ampere exactly when D = E and H = B (vacuum
constitutive relations); the complex system is the vacuum form.

The momentum layer works on uniform periodic lattices with a constant
metric: unitary FFTs (the discrete counterpart of the symmetric
1/sqrt(2 pi)^3 normalization), wavevectors k_j = 2 pi fftfreq, the
derivative rule fft(d_j f) = i k_j fft(f), and the per-mode residuals
(c = 1)

    i (1/sqrt(g)) eps^{ijk} k_j E_k + d_t B^i = 0,
    i (1/sqrt(g)) eps^{ijk} k_j H_k - d_t D^i - 4 pi j^i = 0,
    i k_i D^i - 4 pi rho = 0,   i k_i B^i = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffops import CYCLIC
from .maxwell4 import _fd_divergence, _fd_matrix
from .symexpr import lambdify

__all__ = [
    "RSError", "RSField", "KLPair", "MediumParams", "SpectralField",
    "to_rs", "kl_from_rs",
    "rs_residual", "isotropic_residual",
    "fft_forward", "fft_inverse", "wavevectors",
    "spectral_derivative_check", "maxwell_k_residual",
]


class RSError(Exception):
    pass


# ---------------------------------------------------------------------------
# Complex field packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RSField:
    """Complex field pair F^i = E^i + iB^i, G^i = D^i + iH^i."""

    F: tuple
    G: tuple

    def __post_init__(self):
        if len(self.F) != 3 or len(self.G) != 3:
            raise RSError("RSField needs 3 components per vector")


@dataclass(frozen=True)
class KLPair:
    """Complementary vectors K = (G+F)/2, L = (conj(G)-conj(F))/2."""

    K: tuple
    L: tuple

    def __post_init__(self):
        if len(self.K) != 3 or len(self.L) != 3:
            raise RSError("KLPair needs 3 components per vector")


@dataclass(frozen=True)
class MediumParams:
    """Homogeneous isotropic medium: permittivity and permeability."""

    epsilon: float
    mu: float

    def __post_init__(self):
        if self.epsilon <= 0 or self.mu <= 0:
            raise RSError("medium parameters must be positive")


def to_rs(E, B, D, H):
    """Pack contravariant (E, B, D, H) triples into an RSField."""
    return RSField(tuple(complex(e) + 1j * complex(b) for e, b in zip(E, B)),
                   tuple(complex(d) + 1j * complex(h) for d, h in zip(D, H)))


def kl_from_rs(rs):
    return KLPair(tuple((g + f) / 2 for f, g in zip(rs.F, rs.G)),
                  tuple((g.conjugate() - f.conjugate()) / 2
                        for f, g in zip(rs.F, rs.G)))


# ---------------------------------------------------------------------------
# Point residuals of the complex system (finite differences on a chart)
# ---------------------------------------------------------------------------

_H = 1e-5  # central-difference step of the complex residuals


def _div_curl_dt(u_func, w_func, m, point):
    """Central-difference operators at (t, x1, x2, x3) on chart metric ``m``.

    Returns (1/sqrt g) d_i(sqrt g u^i), the rotor
    (1/sqrt g)(d_j w_k - d_k w_j) of w lowered with g_ij (cyclic i, j, k)
    and d_t w^i, for contravariant ``u_func``/``w_func`` of the 4-point.
    Metric factors are evaluated pointwise; a zero or non-finite sqrt g at
    the point raises RSError.
    """
    sqrt_g = lambdify(m.sqrt_abs_g)
    g_lo = [[lambdify(m.g_lo[i][j]) for j in range(3)] for i in range(3)]

    def chart_point(x):  # the binding of the chart coordinates of a 4-point
        return dict(zip(m.chart.coords, x[1:]))

    s0 = float(sqrt_g(chart_point(point)))
    if s0 == 0.0 or not np.isfinite(s0):
        raise RSError("singular metric at the sample point")

    def dens(x):
        return float(sqrt_g(chart_point(x))) * u_func(x)

    def lower(x):
        binding = chart_point(x)
        g = np.array([[g_lo[i][j](binding) for j in range(3)] for i in range(3)])
        return g @ w_func(x)

    div_u = _fd_divergence(dens, point, (1, 2, 3), _H) / s0
    jac = np.array([_fd_matrix(lower, point, 1 + a, _H) for a in range(3)])
    curl_w = np.array([(jac[j, k] - jac[k, j]) / s0 for _, j, k in CYCLIC])
    return div_u, curl_w, _fd_matrix(w_func, point, 0, _H)


def rs_residual(kl_func, src_func, m, point):
    """Residuals of the complex system at (t, x1, x2, x3), with c = 1.

    ``kl_func(point4) -> KLPair`` with contravariant holonomic components;
    ``src_func(point4) -> (rho, j)`` with contravariant j.  Returns
    (gauss_residual, curl_residual[3]) as complex values; derivatives by
    central differences of step 1e-5, metric factors evaluated pointwise
    on the chart.
    """
    point = np.asarray(point, dtype=float)

    def kl_arrays(x):
        kl = kl_func(x)
        return np.asarray(kl.K, complex), np.asarray(kl.L, complex)

    div_sum, curl_w, dt_diff = _div_curl_dt(lambda x: np.add(*kl_arrays(x)),
                                            lambda x: np.subtract(*kl_arrays(x)),
                                            m, point)
    rho, j = src_func(point)
    gauss = div_sum - 4.0 * math.pi * complex(rho)
    curl = -1j * dt_diff + curl_w - 1j * (4.0 * math.pi) * np.asarray(j, complex)
    return gauss, curl


def isotropic_residual(eb_func, src_func, medium, m, point):
    """Residuals of the homogeneous-isotropic complex form, with c = 1.

    Uses F^i = sqrt(eps) E^i + i B^i / sqrt(mu) and checks
    div F = (4 pi / sqrt(eps)) rho and
    e^{ijk} nabla_j F_k = i 4 pi sqrt(mu) j^i + i sqrt(eps mu) d_t F^i.
    ``eb_func(point4) -> (E, B)`` contravariant triples; derivatives by
    central differences of step 1e-5, as in ``rs_residual``.
    """
    se, sm = math.sqrt(medium.epsilon), math.sqrt(medium.mu)
    point = np.asarray(point, dtype=float)

    def f_up(x):
        E, B = eb_func(x)
        return se * np.asarray(E, complex) + 1j * np.asarray(B, complex) / sm

    div_f, curl_f, dt_f = _div_curl_dt(f_up, f_up, m, point)
    rho, j = src_func(point)
    gauss = div_f - (4.0 * math.pi / se) * complex(rho)
    curl = (curl_f - 1j * (4.0 * math.pi * sm) * np.asarray(j, complex)
            - 1j * (se * sm) * dt_f)
    return gauss, curl


# ---------------------------------------------------------------------------
# Momentum representation on uniform periodic lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    """Unitary FFT of one field component on a uniform periodic lattice."""

    values: np.ndarray
    kvecs: tuple  # 1-D wavevector arrays per axis


def wavevectors(shape, spacing):
    """Wavevector grids k_j = 2 pi fftfreq per axis."""
    return tuple(2.0 * math.pi * np.fft.fftfreq(n, d=d)
                 for n, d in zip(shape, spacing))


def fft_forward(samples, spacing):
    """Unitary forward transform of a real- or complex-valued lattice."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise RSError("cannot transform an empty lattice")
    spacing = tuple(float(d) for d in spacing)
    if len(spacing) != samples.ndim:
        raise RSError("spacing must list one step per lattice axis")
    return SpectralField(np.fft.fftn(samples, norm="ortho"),
                         wavevectors(samples.shape, spacing))


def fft_inverse(spec):
    """Unitary inverse transform back to lattice samples."""
    return np.fft.ifftn(spec.values, norm="ortho")


def spectral_derivative_check(f_grid, df_grid, spacing, axis):
    """Max deviation of fft(d f / d x_axis) from i k_axis fft(f).

    ``df_grid`` holds independently computed samples of the derivative
    (analytic where available); the comparison is the discrete form of the
    Fourier derivative rule.
    """
    fh = fft_forward(f_grid, spacing)
    dfh = fft_forward(df_grid, spacing)
    k = fh.kvecs[axis].reshape([-1 if a == axis else 1
                                for a in range(np.ndim(f_grid))])
    return float(np.max(np.abs(dfh.values - 1j * k * fh.values)))


def maxwell_k_residual(Ehat, Hhat, Dhat, Bhat, dtDhat, dtBhat, rhohat, jhat,
                       kvecs, g3=None):
    """Per-mode residuals of the constant-metric momentum-space system, c = 1.

    Field spectra are contravariant, shape (3, N1, N2, N3); ``dtDhat`` and
    ``dtBhat`` are the spectra of the time derivatives.  ``g3`` is the
    constant spatial metric (identity by default); covariant components and
    sqrt(g) are formed with it.  Returns a dict with keys ``faraday``,
    ``ampere`` (each (3, ...)), ``gauss_D`` and ``gauss_B``.
    """
    if g3 is None:
        g3 = np.eye(3)
    g3 = np.asarray(g3, dtype=float)
    det = float(np.linalg.det(g3))
    if det <= 0:
        raise RSError("spatial metric must have positive determinant")
    sg = math.sqrt(det)
    kk = np.meshgrid(*kvecs, indexing="ij")

    E_lo = np.einsum("ij,j...->i...", g3, np.asarray(Ehat))
    H_lo = np.einsum("ij,j...->i...", g3, np.asarray(Hhat))

    def curl_k(w_lo):
        return np.stack([(kk[j] * w_lo[k] - kk[k] * w_lo[j]) / sg
                         for _, j, k in CYCLIC])

    faraday = 1j * curl_k(E_lo) + np.asarray(dtBhat)
    ampere = 1j * curl_k(H_lo) - np.asarray(dtDhat) - 4.0 * math.pi * np.asarray(jhat)
    gauss_D = 1j * sum(kk[i] * np.asarray(Dhat)[i] for i in range(3)) \
        - 4.0 * math.pi * np.asarray(rhohat)
    gauss_B = 1j * sum(kk[i] * np.asarray(Bhat)[i] for i in range(3))
    return {"faraday": faraday, "ampere": ampere,
            "gauss_D": gauss_D, "gauss_B": gauss_B}
