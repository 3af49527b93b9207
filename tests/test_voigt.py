import numpy as np
from numpy.testing import assert_allclose

from porelife import voigt
from oracles import from_matrix, rotate


def test_matrix_round_trip(rng):
    t = rng.standard_normal(6)
    assert_allclose(from_matrix(voigt.to_matrix(t)), t, atol=1e-15)


def test_von_mises_uniaxial():
    assert_allclose(voigt.von_mises([100.0, 0, 0, 0, 0, 0]), 100.0, rtol=1e-14)
    assert voigt.von_mises([50.0, 50.0, 50.0, 0, 0, 0]) == 0.0


def test_von_mises_pure_shear():
    assert_allclose(voigt.von_mises([0, 0, 0, 10.0, 0, 0]), np.sqrt(3.0) * 10.0, rtol=1e-14)


def test_hooke_inverse_pair(rng):
    strain = 1e-3 * rng.standard_normal((4, 6))
    stress = voigt.elastic_stress(strain, 75500.0, 0.3)
    assert_allclose(voigt.elastic_strain(stress, 75500.0, 0.3), strain, atol=1e-18)


def test_rotation_preserves_invariants(rng):
    t = rng.standard_normal(6) * 50.0
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = rotate(t, q)
    assert_allclose(voigt.von_mises(rotated), voigt.von_mises(t), rtol=1e-12)
    assert_allclose(voigt.trace(rotated), voigt.trace(t), rtol=1e-12)


def test_normal_projection_matches_matrix_form(rng):
    t = rng.standard_normal(6)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    assert_allclose(voigt.normal_projection(t, n), n @ voigt.to_matrix(t) @ n, atol=1e-14)


def test_normal_projection_broadcasts_a_stack_of_directions(rng):
    t = rng.standard_normal((4, 5, 6))
    n = rng.standard_normal((4, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    stacked = voigt.normal_projection(t, n[:, None, :])
    for i in range(4):
        assert stacked[i].tobytes() == voigt.normal_projection(t[i], n[i]).tobytes()
