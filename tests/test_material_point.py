import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from porelife import material_point, return_mapping, voigt
from porelife.material_point import (
    ALSI7MG,
    CERTIFICATE_SLACK,
    ChabocheParams,
    ProportionalityError,
    TensorHistory,
    _decompose,
    _proportional_decomposition,
    _settled_cells,
    cosine_cycle,
    criterion_delta_eps,
    critical_direction,
    critical_directions,
    neuber_correct,
    settled_delta_eps,
)
from porelife.return_mapping import (
    MaterialPointState,
    chaboche_cycle,
    chaboche_step,
    stress_driven_cycle,
    uniaxial_strain_cycle,
)
from oracles import (
    decompose_elastic_delta_eps,
    neuber_reference,
    rotate,
    scalar_critical_direction,
    scalar_neuber_correct,
    scalar_uniaxial_forward_euler,
    tensor_forward_euler,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def yield_gap(params, stress, state):
    xi = voigt.deviator(stress) - state.X
    j = math.sqrt(1.5 * voigt.contract(xi, xi))
    return j - params.sigma_y - params.isotropic_stress(state.p)


@pytest.mark.parametrize("name", ["E", "b", "sigma_y", "D"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_constants_rejected(material, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(material, **{name: value})


class TestChabocheStep:
    def test_elastic_uniaxial(self, material):
        eps = np.array([0.002, -0.3 * 0.002, -0.3 * 0.002, 0, 0, 0])
        state, stress = chaboche_step(material, MaterialPointState.virgin(), eps)
        assert_allclose(stress[0], 151.0, atol=1e-9)
        assert_allclose(stress[1:], 0.0, atol=1e-9)
        assert state.p == 0.0

    def test_hydrostatic_stays_elastic(self, material):
        for magnitude in (1e-4, 0.01, 0.2):
            eps = np.array([magnitude, magnitude, magnitude, 0, 0, 0])
            state, stress = chaboche_step(material, MaterialPointState.virgin(), eps)
            assert state.p == 0.0
            assert_allclose(state.eps_p, 0.0, atol=1e-15)
            assert_allclose(voigt.deviator(stress), 0.0, atol=1e-8)

    def test_plastic_ramp_vs_explicit_substepping(self, material):
        # fixed tensor ramp, lateral at the elastic ratio, imposed identically
        # on the return mapping and the explicit rate integrator
        target = np.array([0.004, -0.0012, -0.0012, 0, 0, 0])
        n_steps = 100
        state = MaterialPointState.virgin()
        for k in range(1, n_steps + 1):
            state, stress = chaboche_step(material, state, target * (k / n_steps))
        ref_stress, _, _, ref_p = tensor_forward_euler(
            material, target[None, :], substeps=10_000
        )
        assert state.p > 0.0
        assert_allclose(stress[0], ref_stress[0], rtol=5e-3)
        assert_allclose(state.p, ref_p, rtol=5e-3)

    def test_uniaxial_ramp_vs_scalar_substepping(self, material):
        # free-lateral ramp to 0.004: mixed-control return mapping against
        # the explicit scalar uniaxial-stress integration
        from porelife.return_mapping import _step_kernel

        target, n_steps = 0.004, 100
        lam = material.E * material.nu / ((1 + material.nu) * (1 - 2 * material.nu))
        stiff = 2.0 * (lam + material.shear_modulus)
        eps_p, x_back, p = np.zeros(6), np.zeros(6), 0.0
        eps = np.zeros(6)
        lateral = 0.0
        for k in range(1, n_steps + 1):
            eps[0] = target * k / n_steps
            for _ in range(200):
                eps[1] = eps[2] = lateral
                ep_new, x_new, p_new, sig = _step_kernel(material, eps_p, x_back, p, eps)
                if abs(sig[1]) < 1e-9 * material.sigma_y:
                    break
                lateral -= sig[1] / stiff
            eps_p, x_back, p = ep_new, x_new, p_new
        ref_sigma, ref_p = scalar_uniaxial_forward_euler(material, [target], substeps=10_000)
        assert sig[0] > material.sigma_y  # the ramp yields
        assert_allclose(sig[0], ref_sigma, rtol=5e-3)
        assert_allclose(p, ref_p, rtol=5e-3)

    def test_uniaxial_cycling_stabilized_peak_vs_scalar(self, material):
        # after several cycles the stabilized peak must agree between the
        # return-mapping driver and the explicit oracle integrated over the
        # same waveform (the one-step initial jump of the cosine start fades)
        n_cycles, samples = 10, 200
        res = uniaxial_strain_cycle(material, 0.004, n_cycles=n_cycles, samples=samples)
        wave = 0.004 * np.cos(2 * math.pi * np.arange(samples) / samples)
        path = np.tile(wave, n_cycles)
        ref_sigma_end, ref_p = scalar_uniaxial_forward_euler(material, path, substeps=400_000)
        assert_allclose(res.state.p, ref_p, rtol=0.02)
        assert_allclose(res.stress.values[-1, 0], ref_sigma_end, rtol=5e-3)

    def test_yield_consistency_random_paths(self, material, rng):
        for _ in range(20):
            state = MaterialPointState.virgin()
            eps = np.zeros(6)
            for _ in range(15):
                eps += rng.uniform(-1.5e-3, 1.5e-3, size=6) * np.array([1, 1, 1, 0.5, 0.5, 0.5])
                state, stress = chaboche_step(material, state, eps)
                assert yield_gap(material, stress, state) <= 1e-8

    def test_plastic_incompressibility(self, material, rng):
        state = MaterialPointState.virgin()
        eps = np.zeros(6)
        for _ in range(60):
            eps += rng.uniform(-2e-3, 2e-3, size=6)
            state, _ = chaboche_step(material, state, eps)
            assert abs(voigt.trace(state.eps_p)) < 1e-10

    def test_dissipation_sign(self, material, rng):
        state = MaterialPointState.virgin()
        eps = np.zeros(6)
        previous_p = 0.0
        for _ in range(40):
            eps += rng.uniform(-3e-3, 3e-3, size=6)
            state, stress = chaboche_step(material, state, eps)
            assert state.p >= previous_p
            previous_p = state.p
        # elastic unloading step: tiny reversal from a converged state
        state2, _ = chaboche_step(material, state, eps * 0.999)
        assert state2.p == state.p


class TestChabocheCycle:
    def test_elastic_cycle_metric_zero(self, material):
        path = cosine_cycle(np.array([1.0, -0.3, -0.3, 0, 0, 0]), amplitude=0.001)
        res = chaboche_cycle(material, path, n_cycles=3)
        assert res.stabilization_metric == 0.0
        assert_allclose(res.stress.values[:, 0], 75.5 * np.cos(2 * math.pi * np.arange(40) / 40), atol=1e-9)

    def test_single_cycle_identity(self, material):
        path = cosine_cycle(voigt.UNIAXIAL_X * 1e-3, amplitude=2.0)
        res = chaboche_cycle(material, path, n_cycles=1)
        assert np.array_equal(res.strain.values, path.values)
        assert math.isnan(res.stabilization_metric)

    def test_metric_decreases_after_cycle_3(self, material):
        res = uniaxial_strain_cycle(material, 0.004, n_cycles=20)
        metrics = res.metric_history[3:]  # metric entries exist from cycle 2 on
        assert np.all(np.diff(metrics) < 0.0)

    def test_stabilization_trend_saturates(self, material):
        res = uniaxial_strain_cycle(material, 0.004, n_cycles=20)
        assert res.metric_history[-1] < 0.1 * np.nanmax(res.metric_history)


class TestStressDriven:
    def test_matches_strain_driven_on_elastic(self, material):
        path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=120.0)
        res = stress_driven_cycle(material, path, n_cycles=2)
        assert_allclose(res.stress.values, path.values, atol=1e-6)
        assert_allclose(res.strain.values[:, 0], path.values[:, 0] / material.E, atol=1e-12)

    def test_consistent_with_scalar_reduction(self, material):
        # proportional stress driving must reduce exactly to the scalar model
        from oracles import scalar_stress_cycles

        amp = 230.0
        path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=amp)
        res = stress_driven_cycle(material, path, n_cycles=5)
        ep_hist, p_scalar = scalar_stress_cycles(material, path.values[:, 0], n_cycles=5)
        assert_allclose(res.strain.values[:, 0], path.values[:, 0] / material.E + ep_hist, rtol=1e-5, atol=1e-9)
        assert_allclose(res.state.p, p_scalar, rtol=1e-5)

    def test_reproduces_the_uniaxial_strain_driver(self, material):
        # one cycle only: over several cycles strain and stress control harden differently
        strain_driven = uniaxial_strain_cycle(material, 0.004, n_cycles=1)
        lateral = strain_driven.stress.values[:, 1:]
        assert np.max(np.abs(lateral)) < 1e-9 * material.sigma_y  # the driver's own solve tolerance
        res = stress_driven_cycle(material, strain_driven.stress, n_cycles=1)
        peak = np.max(np.abs(strain_driven.stress.values))
        assert peak > material.sigma_y
        assert np.max(np.abs(res.stress.values - strain_driven.stress.values)) < 1e-9 * peak
        assert_allclose(res.strain.values, strain_driven.strain.values, rtol=0.0, atol=1e-10)
        assert_allclose(res.state.p, strain_driven.state.p, rtol=0.0, atol=1e-10)

    def test_above_saturation_does_not_converge(self, material):
        # no hardened surface reaches 320 MPa: sigma_y + Q + C_kin / D is about 285.6 MPa
        assert material.sigma_y + material.Q + material.C_kin / material.D < 320.0
        with pytest.raises(return_mapping.IntegrationError, match="stress-driven step did not converge"):
            stress_driven_cycle(material, cosine_cycle(voigt.UNIAXIAL_X, amplitude=320.0), n_cycles=1)


class TestNeuberCorrect:
    def test_sub_yield_identity_exact(self, material):
        path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=0.99 * material.sigma_y)
        stress, strain = neuber_correct(material, path)
        assert np.array_equal(stress.values, path.values)
        assert_allclose(strain.values, voigt.elastic_strain(path.values, material.E, material.nu), atol=1e-18)

    def test_uniaxial_vs_reference(self, material):
        path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=226.5)
        _, strain = neuber_correct(material, path)
        fast = criterion_delta_eps(strain, np.array([1.0, 0.0, 0.0]))
        ref = neuber_reference(material, path)
        assert abs(fast - ref) / ref < 0.05
        # plasticity must widen the strain range beyond the elastic value
        assert fast > 2 * 226.5 / material.E

    def test_neuber_inequality_biaxial(self, material):
        direction = np.array([1.0, 0.5, 0, 0, 0, 0])
        unit = direction / voigt.von_mises(direction)
        peak = 1.2 * material.sigma_y
        path = cosine_cycle(unit, amplitude=peak)
        stress, strain = neuber_correct(material, path)
        vm_corrected = voigt.von_mises(stress.values)
        vm_elastic = voigt.von_mises(path.values)
        k = int(np.argmax(vm_elastic))
        assert vm_corrected[k] <= vm_elastic[k] + 1e-9
        # corrected strain along the load direction exceeds the elastic one
        n_star = critical_direction(unit)
        eps_c = voigt.normal_projection(strain.values, n_star)
        eps_e = voigt.normal_projection(
            voigt.elastic_strain(path.values, material.E, material.nu), n_star
        )
        assert eps_c[k] >= eps_e[k]

    def test_rejects_non_proportional(self, material):
        values = np.zeros((8, 6))
        values[:, 0] = 200.0 * np.cos(2 * math.pi * np.arange(8) / 8)
        values[:, 3] = 120.0 * np.sin(2 * math.pi * np.arange(8) / 8)
        history = TensorHistory(times=np.arange(8) / 8.0, values=values)
        with pytest.raises(ProportionalityError):
            neuber_correct(material, history)

    def test_stacked_decomposition_equals_one_history_at_a_time(self, rng):
        proportional = cosine_cycle(rng.standard_normal(6), amplitude=90.0).values
        crooked = proportional.copy()
        crooked[3, 4] += 1.0
        hydrostatic = cosine_cycle([2.0, 2.0, 2.0, 0.0, 0.0, 0.0], amplitude=30.0).values
        split = _decompose(np.stack([proportional, crooked, hydrostatic, np.zeros_like(proportional)]))
        assert split.proportional.tolist() == [True, False, True, True]
        assert split.ref_norm[3] == 0.0 and split.j_ref[2] == 0.0
        direction, amp = _proportional_decomposition(proportional)
        assert split.direction[0].tobytes() == direction.tobytes()
        assert split.amp[0].tobytes() == amp.tobytes()
        with pytest.raises(ProportionalityError, match="not proportional"):
            _proportional_decomposition(crooked)
        assert _proportional_decomposition(hydrostatic)[0] is None

    def test_overflowing_history_rejected(self, material):
        # the squared norm overflows to inf; the history must not pass as hydrostatic
        history = cosine_cycle(np.array([1e200, 0, 0, 0, 0, 0]), amplitude=50.0)
        with pytest.raises(ProportionalityError, match="not finite"):
            neuber_correct(material, history)

    def test_distorted_wave_vs_reference(self, material):
        # proportional but non-sinusoidal cycles (second-harmonic distortion,
        # asymmetric extremes) must stay within the 5 % oracle envelope
        t = np.arange(80) / 80
        for h2 in (0.1, 0.2, 0.35):
            wave = np.cos(2 * math.pi * t) + h2 * np.cos(4 * math.pi * t)
            wave = wave / np.max(np.abs(wave))
            values = np.outer(250.0 * wave, voigt.UNIAXIAL_X)
            history = TensorHistory(times=t, values=values)
            _, strain = neuber_correct(material, history)
            fast = criterion_delta_eps(strain, np.array([1.0, 0, 0]))
            ref = neuber_reference(material, history)
            assert abs(fast - ref) / ref < 0.05

    def test_oracle_equivalence_mixed_directions(self, material, rng):
        worst = 0.0
        for trial in range(8):
            if trial % 2 == 0:
                direction = voigt.UNIAXIAL_X.copy()
            else:
                direction = np.array([1.0, rng.uniform(0.2, 0.8), 0, rng.uniform(0, 0.3), 0, 0])
            unit = direction / voigt.von_mises(direction)
            peak = rng.uniform(0.5, 1.5) * material.sigma_y
            path = cosine_cycle(unit, amplitude=peak)
            _, strain = neuber_correct(material, path)
            n_star = critical_direction(unit)
            fast = criterion_delta_eps(strain, n_star)
            ref = neuber_reference(material, path)
            worst = max(worst, abs(fast - ref) / ref)
        assert worst < 0.05


class TestCriticalDirection:
    def test_distinct_eigenvalue(self):
        n = critical_direction(np.array([100.0, 0, 0, 0, 0, 0]))
        assert_allclose(n, [1.0, 0.0, 0.0], atol=1e-12)

    def test_hydrostatic_tie_break(self):
        n = critical_direction(np.array([50.0, 50.0, 50.0, 0, 0, 0]))
        assert_allclose(n, [1.0, 0.0, 0.0], atol=1e-12)

    def test_planar_tie_break(self):
        # eigenvalues 100, 100, 0: subspace is the xy plane, pick max |x|
        n = critical_direction(np.array([100.0, 100.0, 0.0, 0, 0, 0]))
        assert_allclose(n, [1.0, 0.0, 0.0], atol=1e-9)

    def test_rotation_equivariance(self, rng):
        base = np.array([100.0, 10.0, -30.0, 5.0, 0.0, 2.0])
        n0 = critical_direction(base)
        for _ in range(25):
            rot = random_rotation(rng)
            n1 = critical_direction(rotate(base, rot))
            aligned = rot @ n0
            assert min(np.linalg.norm(n1 - aligned), np.linalg.norm(n1 + aligned)) < 1e-9

    def test_sign_normalization(self):
        n = critical_direction(np.array([0.0, 0.0, -50.0, 0, 0, 0]))
        assert n[0] > 0 or (n[0] == 0 and (n[1] > 0 or (n[1] == 0 and n[2] > 0)))


class TestCriterion:
    def test_uniaxial_elastic_cycle(self, material):
        amp = 80.0
        path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=amp)
        strain = TensorHistory(
            times=path.times,
            values=voigt.elastic_strain(path.values, material.E, material.nu),
        )
        value = criterion_delta_eps(strain, np.array([1.0, 0, 0]))
        assert_allclose(value, 2 * amp / material.E, rtol=1e-12)

    def test_constant_history_zero(self):
        values = np.tile(np.array([1e-3, 0, 0, 0, 0, 0]), (5, 1))
        history = TensorHistory(times=np.arange(5.0), values=values)
        assert criterion_delta_eps(history, np.array([1.0, 0, 0])) == 0.0

    def test_plastic_widening(self, material):
        res = stress_driven_cycle(material, cosine_cycle(voigt.UNIAXIAL_X, amplitude=226.5), n_cycles=20)
        value = criterion_delta_eps(res.strain, np.array([1.0, 0, 0]))
        assert value > 2 * 226.5 / material.E

    def test_empty_history_rejected(self):
        history = TensorHistory(times=np.array([]), values=np.zeros((0, 6)))
        with pytest.raises(ValueError):
            criterion_delta_eps(history, np.array([1.0, 0, 0]))

    def test_non_unit_vector_rejected(self):
        history = TensorHistory(times=np.array([0.0]), values=np.zeros((1, 6)))
        with pytest.raises(ValueError):
            criterion_delta_eps(history, np.array([1.0, 1.0, 0]))

    def test_default_sampling_resolution(self, material):
        # 40 samples per cycle keep the criterion within 0.3 % of a 400-point
        # discretization for fully reversed proportional loading
        n_star = np.array([1.0, 0, 0])
        values = {}
        for samples in (40, 400):
            path = cosine_cycle(voigt.UNIAXIAL_X, amplitude=226.5, samples=samples)
            _, strain = neuber_correct(material, path)
            values[samples] = criterion_delta_eps(strain, n_star)
        assert abs(values[40] - values[400]) / values[400] < 0.003

    def test_frame_invariance(self, material, rng):
        path = cosine_cycle(np.array([1.0, 0.3, 0, 0.2, 0, 0]), amplitude=150.0)
        strain = TensorHistory(
            times=path.times,
            values=voigt.elastic_strain(path.values, material.E, material.nu),
        )
        base = criterion_delta_eps(strain, critical_direction(path.values[0]))
        for _ in range(20):
            rot = random_rotation(rng)
            strain_rot = TensorHistory(times=path.times, values=rotate(strain.values, rot))
            n_rot = critical_direction(rotate(path.values[0], rot))
            rotated = criterion_delta_eps(strain_rot, n_rot)
            assert abs(rotated - base) / base < 1e-9


class TestValidation:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ChabocheParams(E=-1, nu=0.3, sigma_y=170, b=19, Q=20, C_kin=1e5, D=1e3)
        with pytest.raises(ValueError):
            ChabocheParams(E=75500, nu=0.6, sigma_y=170, b=19, Q=20, C_kin=1e5, D=1e3)

    def test_history_validation(self):
        with pytest.raises(ValueError):
            TensorHistory(times=np.array([0.0, 0.0]), values=np.zeros((2, 6)))
        with pytest.raises(ValueError):
            TensorHistory(times=np.array([0.0]), values=np.zeros((2, 6)))


def outcome(fn, *args, **kwargs):
    """The bytes of every array ``fn`` returns, or the type and text of what it raises."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return tuple(np.asarray(getattr(part, "values", part)).tobytes() for part in result)


#: What :func:`neuber_correct` raises for a plastic history whose peak and trough are equal.
NO_REVERSAL = "elastic history has no load reversal: its peak and trough equivalents are equal"


class TestHoistedNeuber:
    """The corrector with hoisted residual constants equals its scalar copy byte for byte."""

    @settings(max_examples=120)
    @given(
        wave=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=60),
        mean=st.floats(-0.8, 0.8),
        peak=st.floats(20.0, 2000.0),
        seed=st.integers(0, 2**32 - 1),
        n_cycles=st.integers(1, 40),
        material=st.sampled_from([ALSI7MG, dataclasses.replace(ALSI7MG, D=0.0)]),
    )
    @example(wave=[1.0, -1.0], mean=0.0, peak=400.0, seed=0, n_cycles=20, material=dataclasses.replace(ALSI7MG, D=0.0))
    @example(wave=[0.5, 0.5], mean=0.0, peak=800.0, seed=0, n_cycles=20, material=ALSI7MG)
    def test_equals_scalar_copy(self, wave, mean, peak, seed, n_cycles, material):
        direction = np.random.default_rng(seed).standard_normal(6)
        values = np.outer(peak * (np.array(wave) + mean), direction / voigt.von_mises(direction))
        history = TensorHistory(times=np.arange(len(wave)) / len(wave), values=values)
        expected = outcome(scalar_neuber_correct, material, history, n_cycles)
        if expected[0] is ZeroDivisionError:  # a plastic history without a reversal: the copy divides by its zero span
            expected = (ValueError, NO_REVERSAL)
        assert outcome(neuber_correct, material, history, n_cycles) == expected

    @pytest.mark.parametrize("values", [[[200.0, 0, 0, 0, 0, 0]] * 2, [[0, 0, 0, 150.0, 0, 0]] * 3])
    def test_plastic_history_without_reversal_refused(self, material, values):
        history = TensorHistory(np.linspace(0.0, 0.5, len(values)), values)
        with pytest.raises(ValueError, match=NO_REVERSAL):
            neuber_correct(material, history)

    @pytest.mark.parametrize("peak", [171.0, 250.0, 400.0, 1e4])
    def test_equals_scalar_copy_on_cosine_cycles(self, material, peak):
        for n_cycles in (1, 20):
            history = cosine_cycle([1.0, 0.3, -0.2, 0.1, 0.0, 0.05], amplitude=peak)
            assert outcome(neuber_correct, material, history, n_cycles) == outcome(
                scalar_neuber_correct, material, history, n_cycles)


def cells_of(kind, seed, kt):
    """A (tensor, level) pair whose cell the elastic-mask certificate must handle."""
    rng = np.random.default_rng(seed)
    shape = voigt.UNIAXIAL_X + 0.4 * rng.standard_normal(6)
    unit = shape / voigt.von_mises(shape)
    level = float(rng.choice([20.0, 40.0, 85.0, 100.0, 150.0]))
    if kind == "near_yield":  # peak equivalent within a few slacks of the yield stress
        off = float(rng.choice([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 3e-9, -3e-9, 1e-7, -1e-7]))
        return unit * (ALSI7MG.sigma_y / level * (1.0 + off)), level
    if kind == "near_hydrostatic":
        return kt * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) + kt * float(rng.choice([0.0, 1e-16, 1e-12, 1e-9, 1e-6])) * unit, level
    if kind == "zero":
        return np.zeros(6), level
    if kind == "tiny":
        return unit * kt * float(rng.choice([1e-120, 1e-150, 1e-160, 1e-300])), level
    if kind == "huge":
        return unit * kt * float(rng.choice([1e120, 1e150, 1e160, 1e300])), level
    if kind == "subnormal":
        tensor = unit * kt
        tensor[rng.integers(6)] = float(rng.choice([5e-324, -1e-310, 2.2e-308]))
        return tensor, level
    return unit * kt, level


CELL_KINDS = ["near_yield", "near_hydrostatic", "zero", "tiny", "huge", "subnormal", "plain"]


def chain_delta_eps(tensor, n_star, level, samples, n_cycles=20):
    """The criterion of one cell through the per-cell chain: cycle, corrector, range."""
    _, strain = neuber_correct(ALSI7MG, cosine_cycle(tensor, amplitude=level, samples=samples), n_cycles=n_cycles)
    return criterion_delta_eps(strain, n_star)


class TestCertifiedElasticMask:
    """``settled_delta_eps`` equals the stacked ``_decompose`` of every elastic cell and the chain of every other."""

    @settings(max_examples=80)
    @given(
        cells=st.lists(st.tuples(st.sampled_from(CELL_KINDS), st.integers(0, 2**32 - 1), st.floats(0.3, 2.5)),
                       min_size=1, max_size=8),
        extra_levels=st.lists(st.floats(1.0, 300.0), max_size=3),
        samples=st.sampled_from([1, 2, 3, 7, 40]),
    )
    def test_equals_decompose_everywhere(self, cells, extra_levels, samples):
        tensors, levels = zip(*(cells_of(*cell) for cell in cells))
        tensors = np.array(tensors)
        levels = sorted(set(levels) | set(extra_levels))
        n_stars = np.tile([1.0, 0.0, 0.0], (len(tensors), 1))
        fast, settled = settled_delta_eps(ALSI7MG, tensors, n_stars, levels, samples)
        slow, elastic = decompose_elastic_delta_eps(ALSI7MG, tensors, n_stars, levels, samples)
        assert fast[settled & elastic].tobytes() == slow[settled & elastic].tobytes()
        for k, j in zip(*np.nonzero(settled & ~elastic)):
            assert fast[k, j].tobytes() == np.float64(chain_delta_eps(tensors[k], n_stars[k], levels[j], samples)).tobytes()

    @pytest.mark.parametrize("tensor, level, samples", [
        ([0.0, 1.24330533e-157, -7.54646586e-158, 2.50372388e-158, 0.0, -7.05702469e-158], 1.1484276843099452e-05, 2),
        ([1.09722571e-159, 0.0, -1.15266312e-214, -1.40128811e-216, 9.83783928e-215, -0.0], 1.6593415089431033e-05, 1),
        ([1.86194817e-161, 0.0, 1.21214255e-161, 1.32574707e-161, 0.0, -1.47185957e-161], 0.010468655026238297, 2),
    ])
    def test_cells_whose_squares_underflow_stay_open(self, tensor, level, samples):
        # the stacked _decompose finds no direction here: the samples' squared norms underflow
        tensors, n_stars = np.array([tensor]), np.array([[1.0, 0.0, 0.0]])
        _, settled = settled_delta_eps(ALSI7MG, tensors, n_stars, [level], samples)
        _, elastic = decompose_elastic_delta_eps(ALSI7MG, tensors, n_stars, [level], samples)
        assert settled.tolist() == elastic.tolist() == [[False]]

    def test_at_yield_and_hydrostatic_cells_stay_open(self):
        # Kt 2.0 at 85 MPa peaks exactly at the yield stress; [1, 1, 1, 0, 0, 0] has no direction
        tensors = np.array([[2.0, 0, 0, 0, 0, 0], [1.0, 1.0, 1.0, 0, 0, 0], np.zeros(6)])
        _, wave = material_point._cosine_wave(np.array([40.0, 85.0, 100.0]), 40)
        assert _settled_cells(ALSI7MG, tensors, wave).tolist() == [[True, False, False], [False] * 3, [False] * 3]
        n_stars = np.tile([1.0, 0.0, 0.0], (3, 1))
        assert settled_delta_eps(ALSI7MG, tensors, n_stars, [40.0, 85.0, 100.0])[1].tolist() == [
            [True, True, True], [False] * 3, [False] * 3]

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_settles_a_mesh_of_distinct_tensors(self, seed):
        # the certificates are not vacuous: away from the yield stress they settle every cell
        rng = np.random.default_rng(seed)
        shape = voigt.UNIAXIAL_X + 0.2 * rng.standard_normal((200, 6))
        tensors = shape * ((1.0 + 0.3 * rng.lognormal(0.0, 0.6, 200)) / voigt.von_mises(shape))[:, None]
        levels = np.arange(20.0, 101.0, 10.0)
        _, wave = material_point._cosine_wave(levels, 40)
        elastic = _settled_cells(ALSI7MG, tensors, wave)
        peak = np.outer(voigt.von_mises(tensors), levels)
        near = np.abs(peak / ALSI7MG.sigma_y - 1.0) < 4.0 * CERTIFICATE_SLACK
        assert np.all(elastic | (peak > ALSI7MG.sigma_y) | near)
        assert not np.any(elastic & (peak > ALSI7MG.sigma_y))
        _, settled = settled_delta_eps(ALSI7MG, tensors, critical_directions(tensors)[0], levels)
        assert np.all(settled | near)


def direction_outcomes(tensors, direction=scalar_critical_direction):
    """Per row: the bytes of ``direction`` of the row, or its exception's type and text."""
    return [outcome(lambda t: (direction(t),), tensor) for tensor in tensors]


def stacked_outcomes(tensors):
    n_stars, errors = critical_directions(tensors)
    return [(type(errors[k]), str(errors[k])) if k in errors else (n_stars[k].tobytes(),) for k in range(len(tensors))]


def spectral_tensor(seed, gaps, scale):
    """``scale R diag(-0.5 + gaps[1], 1 - gaps[0], 1) R^T`` in voigt form, R a seeded random rotation."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    evals = np.array([-0.5 + gaps[1], 1.0 - gaps[0], 1.0])
    return scale * voigt.from_matrix(q @ np.diag(evals) @ q.T)


GAPS = st.sampled_from([0.0, 1e-16, 1e-12, 5e-10, 1e-9, 1.5e-9, 2e-9, 1e-8, 1e-3, 0.5])

EXACT_TIES = [
    np.zeros(6), [50.0, 50.0, 50.0, 0, 0, 0], [100.0, 100.0, 0.0, 0, 0, 0], [1.0, 1.0, -0.5, 0, 0, 0],
    [0.0, 0.0, -50.0, 0, 0, 0], [-1.0, 2.0, 2.0, 0, 0, 0], [2.0, -1.0, 2.0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0],
    [0, 0, 0, 0, 0, -3.0], [1e-300, 1e-300, 1e-300, 0, 0, 0], [5e-324, 0, 0, 0, 0, 0], [-1.0, -1.0, -1.0, 0, 0, 0],
]
OVERFLOWING = [
    [1e200, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1e154], [1e154, 0, 0, 0, 0, 0], [-1.6e154, 1e154, 0, 0, 0, 0],
    [math.inf, 0, 0, 0, 0, 0], [math.nan, 1.0, 0, 0, 0, 0], [1e308, 1e308, 1e308, 0, 0, 0], [1e153, 0, 0, 0, 0, 0],
]


class TestStackedDirections:
    """``critical_directions`` and ``critical_direction`` equal the scalar oracle per row, bit and error alike."""

    def test_stacked_eigh_equals_one_matrix_at_a_time(self, rng):
        # the stacked path rests on this; it depends on the LAPACK build, so it is checked here
        mats = voigt.to_matrix(np.vstack([rng.standard_normal((200, 6)), np.array(EXACT_TIES, dtype=float)]))
        evals, evecs = np.linalg.eigh(mats)
        for k, mat in enumerate(mats):
            one_vals, one_vecs = np.linalg.eigh(mat)
            assert evals[k].tobytes() == one_vals.tobytes() and evecs[k].tobytes() == one_vecs.tobytes()

    @settings(max_examples=100)
    @given(
        specs=st.lists(st.tuples(st.integers(0, 2**32 - 1), GAPS, GAPS, st.sampled_from([1.0, -1.0, 1e-100, 3e100, 1e150])),
                       min_size=1, max_size=10),
        extras=st.lists(st.sampled_from(EXACT_TIES + OVERFLOWING), max_size=4),
    )
    def test_equals_scalar_rule(self, specs, extras):
        tensors = np.array([spectral_tensor(seed, (g0, g1), scale) for seed, g0, g1, scale in specs] + extras, dtype=float)
        expected = direction_outcomes(tensors)
        assert stacked_outcomes(tensors) == expected
        assert direction_outcomes(tensors, critical_direction) == expected

    def test_every_kind_at_once(self, rng):
        tensors = np.vstack([rng.standard_normal((40, 6)), np.array(EXACT_TIES + OVERFLOWING, dtype=float)])
        expected = direction_outcomes(tensors)
        assert stacked_outcomes(tensors) == expected
        assert direction_outcomes(tensors, critical_direction) == expected
        assert sum(len(row) == 2 for row in expected) == 6  # every overflowing row but the two that fit
        assert stacked_outcomes(tensors[:0]) == []


class TestCountValidation:
    """Cycle and sample counts must be integers of at least 1, named when they are not."""

    @pytest.mark.parametrize("value, message", [
        (0, "must be at least 1, got 0"), (-3, "must be at least 1, got -3"), (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"), (math.nan, "must be an integer, got nan"),
        (np.float64(1.5), "must be an integer, got 1.5"), (np.bool_(True), "must be an integer, got True"),
    ])
    def test_bad_counts_rejected(self, material, value, message):
        history = cosine_cycle(voigt.UNIAXIAL_X, amplitude=250.0)
        with pytest.raises(ValueError, match=f"n_cycles {message}"):
            neuber_correct(material, history, n_cycles=value)
        with pytest.raises(ValueError, match=f"samples {message}"):
            cosine_cycle(voigt.UNIAXIAL_X, amplitude=250.0, samples=value)
        with pytest.raises(ValueError, match=f"samples {message}"):
            uniaxial_strain_cycle(material, 0.004, n_cycles=1, samples=value)
        with pytest.raises(ValueError, match=f"n_cycles {message}"):
            uniaxial_strain_cycle(material, 0.004, n_cycles=value)

    def test_integral_counts_accepted(self, material):
        history = cosine_cycle(voigt.UNIAXIAL_X, amplitude=250.0, samples=np.int64(40))
        assert history.values.tobytes() == cosine_cycle(voigt.UNIAXIAL_X, amplitude=250.0, samples=40.0).values.tobytes()
        for n_cycles in (np.int32(20), 20.0):
            assert outcome(neuber_correct, material, history, n_cycles) == outcome(neuber_correct, material, history, 20)
