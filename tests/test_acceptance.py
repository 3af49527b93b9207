"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 have a second test each, which checks the same claim
through the likelihood kernel that every command runs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""
import math
import time

import numpy as np
from scipy import stats as scipy_stats

from porelife import voigt
from porelife.config import RunConfig
from porelife.field import (
    CriterionTable,
    PoreFieldStats,
    criterion_table,
    notch_variant,
    thin_variant,
    tile_field,
)
from porelife.likelihood import (
    LOG_FLOOR,
    Homogeneous,
    ObservationArrays,
    homogeneous_objective,
    loglik_heterogeneous,
    loglik_unknown_pores,
    structure_for,
)
from porelife.material_point import (
    ALSI7MG,
    TensorHistory,
    cosine_cycle,
    criterion_delta_eps,
    critical_direction,
    neuber_correct,
)
from porelife.optimize import CalibrationProblem, calibrate, one_line_mask
from porelife.return_mapping import uniaxial_strain_cycle
from porelife.strain_life import (
    StrainLifeParams,
    cycles_to_failure,
    element_scale_array,
)
from porelife.weakest_link import (
    StructureLifetime,
    sample_lifetimes,
    structure_scale,
    wohler_quantiles,
)
from oracles import (
    failure_term,
    neuber_reference,
    rotate,
    runout_term,
    scalar_uniaxial_forward_euler,
    strain_amplitude,
    survival_product_cdf,
    synth_field,
    weibull_cdf,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_weakest_link_closed_form_vs_brute_force(rng):
    start = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        scales = rng.uniform(10.0, 1e6, size=n)
        if rng.random() < 0.3:
            scales[rng.integers(n)] = math.inf
        m = float(rng.uniform(0.5, 5.0))
        struct = StructureLifetime(scale=structure_scale(scales, m), shape=m)
        for cycles in np.linspace(5.0, 2e6, 20):
            gap = abs(weibull_cdf(struct, cycles) - survival_product_cdf(scales, m, cycles))
            worst = max(worst, gap)
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"closed form vs survival product, max |gap| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_01_on_the_kernel_path(rng):
    # criterion 1's element scales, as the strain ranges and volumes of a
    # one-level table that give them, through the likelihood kernel every
    # command runs; odd trials take the two-line curve, even ones the one-line curve
    start = time.time()
    level = 80.0
    worst = 0.0
    volume_rng = np.random.default_rng(1)  # criterion 1's scales and shapes come from rng, in its order
    for trial in range(100):
        n = int(rng.integers(1, 21))
        scales = rng.uniform(10.0, 1e6, size=n)
        if rng.random() < 0.3:
            scales[rng.integers(n)] = math.inf
        m = float(rng.uniform(0.5, 5.0))
        two_line = dict(B=0.35, beta=0.72) if trial % 2 else {}
        params = StrainLifeParams(m=m, A=0.0047, alpha=0.129, C=3e-4, V0=593.0, **two_line)
        volumes = volume_rng.uniform(1.0, 100.0, size=n)
        # scale = N(delta_eps / 2) (V0 / (V ln 2))^(1/m); the fatigue limit C gives infinite life
        lives = scales * (volumes * math.log(2.0) / params.V0) ** (1.0 / m)
        delta = np.where(np.isfinite(scales), 2.0 * strain_amplitude(params, lives), 2.0 * params.C)
        table = CriterionTable(element_ids=np.arange(n), volumes=volumes, load_levels=[level],
                               delta_eps=delta[:, None])
        struct = structure_for(params, table, level)
        for cycles in np.linspace(5.0, 2e6, 20):
            gap = abs(weibull_cdf(struct, cycles) - survival_product_cdf(scales, m, cycles))
            worst = max(worst, gap)
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"kernel path vs survival product, max |gap| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_tiling_size_effect():
    start = time.time()
    params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
    stats = PoreFieldStats(gauge_radius_mm=1.5, gauge_length_mm=8.0)
    field = synth_field(stats, seed=21)
    level = 70.0
    delta = 2.0 * level / ALSI7MG.E * field.sigma_unit[:, 0]
    base_scale = structure_scale(element_scale_array(params, delta, field.volumes), params.m)
    worst_exact = 0.0
    worst_q50 = 0.0
    for k in (2, 4, 8):
        tiled = tile_field(field, k)
        delta_k = 2.0 * level / ALSI7MG.E * tiled.sigma_unit[:, 0]
        scale_k = structure_scale(element_scale_array(params, delta_k, tiled.volumes), params.m)
        expected = base_scale * k ** (-1.0 / params.m)
        worst_exact = max(worst_exact, abs(scale_k - expected) / expected)
        base_q50 = np.median(sample_lifetimes(StructureLifetime(base_scale, params.m), 10_000, seed=k)[0])
        tiled_q50 = np.median(sample_lifetimes(StructureLifetime(scale_k, params.m), 10_000, seed=100 + k)[0])
        worst_q50 = max(worst_q50, abs(tiled_q50 / base_q50 - k ** (-1.0 / params.m)) / k ** (-1.0 / params.m))
    elapsed = time.time() - start
    ok = worst_exact < 1e-12 and worst_q50 < 0.03 and elapsed < 10.0
    report(2, ok, f"scale law exact to {worst_exact:.2e}, sampled q50 ratio off by {worst_q50:.2%}, {elapsed:.1f}s")


def test_criterion_02_on_the_kernel_path():
    # criterion 2's tiled fields, as tables of their elastic strain ranges,
    # through the likelihood kernel every command runs
    start = time.time()
    params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
    stats = PoreFieldStats(gauge_radius_mm=1.5, gauge_length_mm=8.0)
    field = synth_field(stats, seed=21)
    level = 70.0

    def structure(f):
        delta = 2.0 * level / ALSI7MG.E * f.sigma_unit[:, 0]
        table = CriterionTable(element_ids=f.ids, volumes=f.volumes, load_levels=[level], delta_eps=delta[:, None])
        return structure_for(params, table, level)

    base = structure(field)
    worst_exact = 0.0
    worst_q50 = 0.0
    for k in (2, 4, 8):
        tiled = structure(tile_field(field, k))
        expected = base.scale * k ** (-1.0 / params.m)
        worst_exact = max(worst_exact, abs(tiled.scale - expected) / expected)
        base_q50 = np.median(sample_lifetimes(base, 10_000, seed=k)[0])
        tiled_q50 = np.median(sample_lifetimes(tiled, 10_000, seed=100 + k)[0])
        worst_q50 = max(worst_q50, abs(tiled_q50 / base_q50 - k ** (-1.0 / params.m)) / k ** (-1.0 / params.m))
    elapsed = time.time() - start
    ok = worst_exact < 1e-12 and worst_q50 < 0.03 and elapsed < 10.0
    report(2, ok, f"kernel path: scale law exact to {worst_exact:.2e}, sampled q50 ratio off by {worst_q50:.2%}, "
                  f"{elapsed:.1f}s")


def test_criterion_03_curve_round_trip(rng):
    start = time.time()
    worst = 0.0
    for _ in range(100):
        params = StrainLifeParams(
            m=float(rng.uniform(0.5, 5.0)),
            A=float(rng.uniform(1e-3, 1.0)),
            alpha=float(rng.uniform(0.05, 0.8)),
            B=float(rng.uniform(0.0, 0.5)),
            beta=float(rng.uniform(0.1, 1.5)),
            C=float(rng.uniform(0.0, 1e-3)),
        )
        top = strain_amplitude(params, 1.0)
        eps = params.C + (top - params.C) * rng.uniform(1e-6, 1.0, size=100)
        n = cycles_to_failure(params, eps)
        worst = max(worst, float(np.max(np.abs(strain_amplitude(params, n) - eps) / eps)))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report(3, ok, f"10^4 round trips, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_corrector_vs_integrator(rng):
    start = time.time()
    worst = 0.0
    n_subyield = 0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            direction = voigt.UNIAXIAL_X.copy()
        elif kind == 1:
            direction = np.array([1.0, float(rng.uniform(0.2, 0.8)), 0, 0, 0, 0])
        else:
            direction = np.array(
                [1.0, float(rng.uniform(0.2, 0.6)), 0, float(rng.uniform(0.0, 0.3)), 0, 0]
            )
        unit = direction / voigt.von_mises(direction)
        peak = float(rng.uniform(0.4, 1.5)) * ALSI7MG.sigma_y
        history = cosine_cycle(unit, amplitude=peak)
        _, strain = neuber_correct(ALSI7MG, history)
        n_star = critical_direction(unit)
        fast = criterion_delta_eps(strain, n_star)
        ref = neuber_reference(ALSI7MG, history)
        if peak <= ALSI7MG.sigma_y:
            n_subyield += 1
            assert fast == ref, "sub-yield case must match the reference exactly"
        else:
            worst = max(worst, abs(fast - ref) / ref)
    elapsed = time.time() - start
    ok = worst < 0.05 and n_subyield > 0 and elapsed < 30.0
    report(
        4,
        ok,
        f"50 proportional histories, worst planned-vs-reference {worst:.2%} "
        f"({n_subyield} sub-yield exact), {elapsed:.1f}s",
    )


def test_criterion_05_chaboche_stabilization():
    # The cycle-19 -> cycle-20 peak gap is checked against the explicit
    # integration of the model's own rate equations on the same 40-waypoint
    # waveform, not against a fixed bound: with ALSI7MG at 0.004 the
    # isotropic stress is about 68 % saturated after 20 cycles, and the gap
    # the rate equations give there is about 0.2 MPa.
    n_cycles, amplitude = 20, 0.004
    start = time.perf_counter()
    result = uniaxial_strain_cycle(ALSI7MG, amplitude, n_cycles=n_cycles)
    elapsed = time.perf_counter() - start
    peaks = result.peak_history
    gap_10 = peaks[9] - peaks[8]
    gap_20 = peaks[-1] - peaks[-2]

    samples = len(result.stress)
    wave = amplitude * np.cos(2.0 * math.pi * np.arange(samples) / samples)
    _, _, oracle_stress = scalar_uniaxial_forward_euler(
        ALSI7MG, np.tile(wave, n_cycles), substeps=500 * n_cycles * samples, waypoint_stress=True
    )
    oracle_peaks = np.max(np.abs(oracle_stress.reshape(n_cycles, samples)), axis=1)
    oracle_gap = oracle_peaks[-1] - oracle_peaks[-2]
    # The implicit driver at 40 samples per cycle and the explicit oracle
    # differ by 2.7 % in this gap (0.2036 vs 0.1982 MPa), a discretization
    # difference; 5 % leaves room for it and still rejects a driver whose
    # isotropic hardening is off (Q = 0: gap 0) or twice as fast (b = 38:
    # gap 0.137 MPa).
    rel = abs(gap_20 - oracle_gap) / oracle_gap
    ok = rel < 0.05 and 0.0 < gap_20 < gap_10 and elapsed < 1.0
    report(
        5,
        ok,
        f"cycle-20 vs cycle-19 peak stress difference {gap_20:.4f} MPa, "
        f"explicit oracle {oracle_gap:.4f} MPa (rel {rel:.1%}, criterion < 5 %), "
        f"cycle-10 gap {gap_10:.4f} MPa, driver {elapsed:.2f}s",
    )


def test_criterion_06_censored_likelihood_identities():
    start = time.time()
    # run-out term against the closed-form floored survival
    worst_runout = 0.0
    for scale, m in ((3e6, 2.0), (5e5, 1.3), (1e4, 4.0)):
        expected = math.log(scipy_stats.weibull_min.sf(2e6, m, scale=scale) + LOG_FLOOR)
        worst_runout = max(worst_runout, abs(runout_term(scale, m, 2e6) - expected))
    # and the specific value exp(-4/9)
    worst_runout = max(
        worst_runout, abs(runout_term(3e6, 2.0, 2e6) - math.log(math.exp(-4.0 / 9.0) + LOG_FLOOR))
    )
    # Monte Carlo floor on zero-density cases
    floor_exact = failure_term(math.inf, 2.0, 1e5) == math.log(1e-10)
    # degenerate equivalence of the marginalized and known-field paths
    from test_likelihood import bulk_table

    params = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)
    obs = ObservationArrays([80.0, 120.0], [3e5, 2e6], [False, True])
    table = bulk_table()
    gap_nk = abs(
        loglik_unknown_pores(params, obs, [table]) - loglik_heterogeneous(params, obs, [table])
    )
    elapsed = time.time() - start
    ok = worst_runout < 1e-12 and floor_exact and gap_nk < 1e-9 and elapsed < 1.0
    report(
        6,
        ok,
        f"run-out identity gap {worst_runout:.2e}, floor exact {floor_exact}, "
        f"n_k-degenerate gap {gap_nk:.2e}, {elapsed:.2f}s",
    )


def test_criterion_07_parameter_recovery():
    start = time.time()
    true = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)
    levels = (80.0, 95.0, 110.0, 125.0, 140.0, 150.0)
    passed = 0
    results = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        draws = np.concatenate([structure_for(true, Homogeneous(volume=true.V0), level).scale
                                * (-np.log1p(-rng.random(37))) ** (1.0 / true.m) for level in levels])
        obs = ObservationArrays(np.repeat(levels, 37), np.minimum(draws, 2e6), draws >= 2e6)
        problem = CalibrationProblem(
            objective=homogeneous_objective(obs, true.V0),
            x0=StrainLifeParams(m=1.0, A=0.05, alpha=0.4, C=2e-4, V0=true.V0),
            free_mask=one_line_mask(),
            budget=400,
        )
        fit = calibrate(problem, n_starts=5, seed=seed).params
        errs = {
            "A": abs(fit.A - true.A) / true.A,
            "alpha": abs(fit.alpha - true.alpha) / true.alpha,
            "C": abs(fit.C - true.C) / true.C,
            "m": abs(fit.m - true.m) / true.m,
        }
        good = errs["A"] < 0.2 and errs["alpha"] < 0.2 and errs["C"] < 0.2 and errs["m"] < 0.35
        passed += good
        results.append((seed, good, errs))
    elapsed = time.time() - start
    ok = passed >= 4 and elapsed < 120.0
    detail = ", ".join(f"seed {s}: {'ok' if g else 'miss'}" for s, g, _ in results)
    report(7, ok, f"recovery in {passed}/5 seeds ({detail}), {elapsed:.1f}s")


def test_criterion_08_nested_model_dominance():
    start = time.time()
    true = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)
    levels = (80.0, 95.0, 110.0, 125.0, 140.0, 150.0)
    rng = np.random.default_rng(0)
    draws = np.concatenate([structure_for(true, Homogeneous(volume=true.V0), level).scale
                            * (-np.log1p(-rng.random(37))) ** 0.5 for level in levels])
    obs = ObservationArrays(np.repeat(levels, 37), np.minimum(draws, 2e6), draws >= 2e6)
    objective = homogeneous_objective(obs, true.V0)
    x0 = StrainLifeParams(m=1.0, A=0.05, alpha=0.4, C=2e-4, V0=true.V0)
    one = calibrate(
        CalibrationProblem(objective=objective, x0=x0, free_mask=one_line_mask(), budget=400),
        n_starts=5,
        seed=0,
    )
    x0_two = StrainLifeParams(
        m=one.params.m, A=one.params.A, alpha=one.params.alpha,
        B=1e-8, beta=0.5, C=one.params.C, V0=true.V0,
    )
    two = calibrate(
        CalibrationProblem(objective=objective, x0=x0_two, free_mask=(True,) * 6, budget=400),
        n_starts=5,
        seed=0,
    )
    x0_noc = StrainLifeParams(m=1.0, A=0.05, alpha=0.4, C=0.0, V0=true.V0)
    no_limit = calibrate(
        CalibrationProblem(
            objective=objective, x0=x0_noc, free_mask=one_line_mask()[:-1] + (False,), budget=400  # C pinned at 0
        ),
        n_starts=5,
        seed=0,
    )
    nesting_gap = two.log_likelihood - one.log_likelihood
    drop_c_margin = one.log_likelihood - no_limit.log_likelihood
    elapsed = time.time() - start
    ok = nesting_gap >= -1e-6 and drop_c_margin > 0.0
    report(
        8,
        ok,
        f"two-line minus one-line LL = {nesting_gap:+.3e} (>= -1e-6), "
        f"dropping C costs {drop_c_margin:.3f} in LL (> 0), {elapsed:.1f}s",
    )


def test_criterion_09_iso_volume_surface_effect():
    start = time.time()
    params = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
    stats = PoreFieldStats()  # full-size gauge, surface_kt_boost = 1.25 > 1
    thin_stats = thin_variant(stats, 4.0)
    levels = (40.0, 55.0, 70.0, 85.0, 100.0)
    structs = {"base": {lv: [] for lv in levels}, "thin": {lv: [] for lv in levels}}
    for seed in range(30):
        for name, st in (("base", stats), ("thin", thin_stats)):
            field = synth_field(st, seed=seed)
            table = criterion_table(field, ALSI7MG, levels)
            for lv in levels:
                structs[name][lv].append(structure_for(params, table, lv))
    ok = True
    ratios = []
    for lv in levels:
        base_q = wohler_quantiles({lv: structs["base"][lv]}, quantiles=(0.5,), samples_per_struct=1000, seed=1)
        thin_q = wohler_quantiles({lv: structs["thin"][lv]}, quantiles=(0.5,), samples_per_struct=1000, seed=2)
        b = base_q[lv]["quantiles"][0.5]
        t = thin_q[lv]["quantiles"][0.5]
        ratios.append(t / b)
        ok &= t <= b
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report(
        9,
        ok,
        "thin/base q50 ratios per level: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f" (all <= 1), {elapsed:.1f}s",
    )


def test_criterion_10_homogenization_transferability():
    start = time.time()
    from porelife.cli import _gauge_structure, _pooled_median, fit_homogenized_model, synthesize_observations

    stats = PoreFieldStats(gauge_radius_mm=1.5, gauge_length_mm=8.0)
    levels = (55.0, 65.0, 75.0, 85.0, 95.0)
    mu_a = StrainLifeParams(m=2.0, A=0.0047, alpha=0.129, C=3e-4, V0=593.0)
    config = RunConfig(
        fatigue=mu_a,
        load_levels=levels,
        pores=stats,
        samples_per_struct=1000,
        n_starts=3,
        budget=400,
        seed=3,
    )
    fields = [synth_field(stats, seed=s) for s in range(10)]
    tables = [criterion_table(f, config.material, levels) for f in fields]
    structs_by_table = [[structure_for(mu_a, t, level) for level in levels] for t in tables]
    observations = synthesize_observations(structs_by_table, levels, 1000, config.seed, config.runout_cycles)
    mu_b = fit_homogenized_model(config, observations)

    porous_challenge = criterion_table(notch_variant(fields[0], 2.2, 0.02), config.material, levels)
    bare = synth_field(stats, seed=99, n_pores=0)
    bare_challenge = criterion_table(notch_variant(bare, 2.2, 0.02), config.material, levels)

    cylinder_ok = True
    direction_ok = True
    rows = []
    for level in levels:
        structs_a = [structure_for(mu_a, t, level) for t in tables]
        med_a = _pooled_median(structs_a, 1000, config.seed, config.runout_cycles)
        med_b = _gauge_structure(mu_b, config, level).median()
        cha_a = structure_for(mu_a, porous_challenge, level).median()
        cha_b = structure_for(mu_b, bare_challenge, level).median()
        cylinder_ok &= abs(med_b - med_a) / med_a < 0.10
        direction_ok &= cha_a < cha_b
        rows.append(f"{level:.0f}: cyl {abs(med_b - med_a) / med_a:.1%}, A<B {cha_a < cha_b}")
    elapsed = time.time() - start
    ok = cylinder_ok and direction_ok and elapsed < 180.0
    report(10, ok, "; ".join(rows) + f", {elapsed:.1f}s")


def test_criterion_11_frame_invariance(rng):
    start = time.time()
    sigma = np.array([120.0, 30.0, -15.0, 20.0, 5.0, 0.0])
    history = cosine_cycle(sigma / voigt.von_mises(sigma), amplitude=140.0)
    strain = TensorHistory(
        times=history.times,
        values=voigt.elastic_strain(history.values, ALSI7MG.E, ALSI7MG.nu),
    )
    base = criterion_delta_eps(strain, critical_direction(sigma))
    worst = 0.0
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        strain_rot = TensorHistory(times=strain.times, values=rotate(strain.values, q))
        n_rot = critical_direction(rotate(sigma, q))
        worst = max(worst, abs(criterion_delta_eps(strain_rot, n_rot) - base) / base)
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(11, ok, f"100 rotations, worst relative deviation {worst:.2e}, {elapsed:.2f}s")
