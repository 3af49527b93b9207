"""Symmetric second-order tensors stored as 6-vectors.

Component order is [xx, yy, zz, xy, yz, xz] with *tensor* shear components
(eps_xy, not the engineering gamma_xy).  All helpers accept either a single
6-vector or an (n, 6) stack and preserve the leading shape.
"""
from __future__ import annotations

import numpy as np

# doubles the shear entries in contractions: a:b = sum_i W[i] a[i] b[i]
CONTRACTION_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

UNIAXIAL_X = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def trace(t):
    t = np.asarray(t, dtype=float)
    return t[..., 0] + t[..., 1] + t[..., 2]


def deviator(t):
    t = np.asarray(t, dtype=float)
    out = t.copy()
    mean = trace(t) / 3.0
    out[..., 0] -= mean
    out[..., 1] -= mean
    out[..., 2] -= mean
    return out


def contract(a, b):
    """Double contraction a:b of two symmetric tensors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(CONTRACTION_WEIGHTS * a * b, axis=-1)


def von_mises(t):
    """Von Mises equivalent sqrt(3/2 dev(t):dev(t))."""
    d = deviator(t)
    return np.sqrt(1.5 * contract(d, d))


def normal_projection(t, n):
    """Quadratic form n . t . n for unit vector(s) n; the leading shapes broadcast."""
    t = np.asarray(t, dtype=float)
    n = np.asarray(n, dtype=float)
    n0, n1, n2 = n[..., 0], n[..., 1], n[..., 2]
    return (
        t[..., 0] * n0 * n0
        + t[..., 1] * n1 * n1
        + t[..., 2] * n2 * n2
        + 2.0 * (t[..., 3] * n0 * n1 + t[..., 4] * n1 * n2 + t[..., 5] * n0 * n2)
    )


def to_matrix(t):
    t = np.asarray(t, dtype=float)
    m = np.empty(t.shape[:-1] + (3, 3))
    m[..., 0, 0] = t[..., 0]
    m[..., 1, 1] = t[..., 1]
    m[..., 2, 2] = t[..., 2]
    m[..., 0, 1] = m[..., 1, 0] = t[..., 3]
    m[..., 1, 2] = m[..., 2, 1] = t[..., 4]
    m[..., 0, 2] = m[..., 2, 0] = t[..., 5]
    return m


def from_matrix(m):
    m = np.asarray(m, dtype=float)
    return np.stack(
        [
            m[..., 0, 0],
            m[..., 1, 1],
            m[..., 2, 2],
            0.5 * (m[..., 0, 1] + m[..., 1, 0]),
            0.5 * (m[..., 1, 2] + m[..., 2, 1]),
            0.5 * (m[..., 0, 2] + m[..., 2, 0]),
        ],
        axis=-1,
    )


def elastic_stress(strain, youngs_modulus, poisson_ratio):
    """Isotropic Hooke's law, strain 6-vector(s) -> stress 6-vector(s)."""
    strain = np.asarray(strain, dtype=float)
    lam = youngs_modulus * poisson_ratio / ((1.0 + poisson_ratio) * (1.0 - 2.0 * poisson_ratio))
    mu = youngs_modulus / (2.0 * (1.0 + poisson_ratio))
    out = 2.0 * mu * strain
    vol = lam * trace(strain)
    out[..., 0] += vol
    out[..., 1] += vol
    out[..., 2] += vol
    return out


def elastic_strain(stress, youngs_modulus, poisson_ratio):
    """Isotropic inverse Hooke's law, stress 6-vector(s) -> strain 6-vector(s)."""
    stress = np.asarray(stress, dtype=float)
    out = (1.0 + poisson_ratio) / youngs_modulus * stress
    vol = poisson_ratio / youngs_modulus * trace(stress)
    out[..., 0] -= vol
    out[..., 1] -= vol
    out[..., 2] -= vol
    return out
