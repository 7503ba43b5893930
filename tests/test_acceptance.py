"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The slow shared
artifacts (the 60x60 spectral reference and the desk-scale inclusion
inversions) are built once per session.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from waverom.cli import local_minima_census, main as cli_main
from waverom.config import load_config, run_from_dict
from waverom.forward import (
    DataSet,
    DiscreteOperator,
    Pulse,
    SensorArray,
    initial_states,
    line_array,
    propagate_snapshots,
    synthesize_dataset,
    synthesize_measurements,
    symmetrize_and_sample,
)
from waverom.inversion import GnConfig, LayerSchedule, jacobian, run_inversion
from waverom.model import (
    GaussianBump,
    Grid2D,
    Parametrization,
    VelocityModel,
    evaluate_velocity,
    make_camembert_model,
    make_constant_model,
)
from waverom.objective import Acquisition
from waverom.rom import assemble_mass, assemble_stiffness, build_rom, restrict
from waverom.inversion import make_residual_fn

from oracles import FlatPulse, eigenpairs, truncate

REPO = Path(__file__).resolve().parent.parent


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def spectral_reference():
    """60x60 Dirichlet grid, m = 4, n = 8, spectral path, with snapshots."""
    t0 = time.time()
    g = Grid2D(60, 60, 2000 / 61, 2000 / 61)
    v = make_camembert_model(g)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(g, 4, depth=150.0)
    tau = pulse.default_tau()
    n = 8
    op = DiscreteOperator(v)
    ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
    w, q = eigenpairs(op)
    u0 = initial_states((w, q), v, arr, pulse)
    snaps = propagate_snapshots((w, q), u0, tau, n)
    return {
        "grid": g, "model": v, "pulse": pulse, "array": arr, "tau": tau, "n": n,
        "dataset": ds, "operator": op, "eigenvalues": w, "snapshots": snaps,
        "build_seconds": time.time() - t0,
    }


@pytest.fixture(scope="session")
def camembert_runs():
    """Criterion 7 runs from the shipped desk config: ROM twice (for the
    determinism check) and FWI once, identical starts."""
    run = load_config(REPO / "configs" / "camembert_desk.json")
    truth, acq = run.truth, run.acquisition
    ref_ds = acq.dataset(truth)
    ref_rom = build_rom(ref_ds)
    param, schedule, gn = run.search, run.schedule, run.gn
    est_rom, updates_rom = run_inversion(ref_rom, param, schedule, gn, acq)
    est_rom2, updates_rom2 = run_inversion(ref_rom, param, schedule, gn, acq)
    est_fwi, updates_fwi = run_inversion(ref_ds, param, schedule, gn, acq)
    return {
        "truth": truth, "acq": acq, "param": param,
        "schedule": schedule, "gn": gn, "ref_rom": ref_rom, "ref_ds": ref_ds,
        "rom": (est_rom, updates_rom), "rom2": (est_rom2, updates_rom2),
        "fwi": (est_fwi, updates_fwi),
    }


def test_criterion_1_trig_identity_mass_stiffness(spectral_reference):
    s = spectral_reference
    w = s["grid"].quad_weight
    mass = assemble_mass(s["dataset"])
    gram = w * (s["snapshots"].T @ s["snapshots"])
    err_m = np.linalg.norm(mass - gram) / np.linalg.norm(gram)
    stiff = assemble_stiffness(s["dataset"])
    direct = w * (s["snapshots"].T @ (s["operator"].matrix @ s["snapshots"]))
    err_s = np.linalg.norm(stiff - direct) / np.linalg.norm(direct)
    elapsed = s["build_seconds"]
    report(
        1,
        err_m < 1e-10 and err_s < 1e-10 and elapsed < 60.0,
        f"mass err {err_m:.2e}, stiffness err {err_s:.2e} (tol 1e-10), "
        f"setup {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_rom_factorization_contract(spectral_reference):
    s = spectral_reference
    ds = s["dataset"]
    mass = assemble_mass(ds)
    stiff = assemble_stiffness(ds)
    rom = build_rom(ds)
    err_fact = np.linalg.norm(rom.r.T @ rom.r - mass) / np.linalg.norm(mass)
    raw = scipy.linalg.solve_triangular(
        rom.r,
        scipy.linalg.solve_triangular(rom.r, stiff, lower=False, trans="T").T,
        lower=False, trans="T",
    ).T
    asym = np.linalg.norm(raw - raw.T) / np.linalg.norm(raw)
    w_op = s["eigenvalues"]
    w_rom = np.linalg.eigvalsh(rom.a_rom)
    span = w_op[-1] - w_op[0]
    contained = w_rom[0] >= w_op[0] - 1e-10 * span and w_rom[-1] <= w_op[-1] + 1e-10 * span
    report(
        2,
        err_fact < 1e-12 and asym < 1e-10 and contained,
        f"|R^T R - M|/|M| = {err_fact:.2e} (tol 1e-12), asymmetry {asym:.2e} "
        f"(tol 1e-10), Ritz values in [{w_rom[0]:.3g}, {w_rom[-1]:.3g}] vs "
        f"operator [{w_op[0]:.3g}, {w_op[-1]:.3g}]",
    )


def test_criterion_3_causality_of_restriction():
    # dataset engineered with near-orthogonal snapshots so the 10%-perturbed
    # mass matrix stays SPD for every k
    g = Grid2D(16, 16, 100.0, 100.0)
    rng = np.random.default_rng(11)
    v = VelocityModel(g, 1500.0 * (1.0 + 0.5 * rng.random((16, 16))))
    lam_max = eigenpairs(DiscreteOperator(v))[0][-1]
    arr = SensorArray(
        np.array([[300.0, 300.0], [1300.0, 500.0], [800.0, 1400.0]]), theta_width=100.0
    )
    tau = 5.0 * np.pi / np.sqrt(lam_max) * 1.0173
    ds = synthesize_dataset(v, arr, FlatPulse(), tau, 5, method="spectral")
    rom = build_rom(ds)
    worst = 0.0
    for k in (1, 2, 4):
        d = np.array(ds.d)
        ddot = np.array(ds.ddot)
        d[2 * k - 1 :] *= 1.1
        ddot[2 * k - 1 :] *= 1.1
        rom_p = build_rom(DataSet(d, ddot, ds.tau))
        a, b = restrict(rom, k), restrict(rom_p, k)
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(a))
        # same causality, expressed through the truncated build
        small = build_rom(truncate(ds, k))
        worst = max(worst, np.linalg.norm(small.a_rom - a) / np.linalg.norm(a))
    report(3, worst < 1e-10, f"max [A_rom]_k change {worst:.2e} for k in (1,2,4) (tol 1e-10)")


def test_criterion_4_data_interpolation():
    g = Grid2D(30, 30, 60.0, 60.0)
    v = make_constant_model(1500.0, g)
    pulse = Pulse(14.0, 0.4)
    arr = line_array(g, 2, depth=200.0)
    tau = pulse.default_tau()
    n = 4
    ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
    rom = build_rom(ds)
    w, q = np.linalg.eigh(rom.a_rom)
    u0t = rom.r[:, : rom.m]
    worst = 0.0
    for j in range(2 * n - 1):
        cosj = q @ (np.cos(j * tau * np.sqrt(np.maximum(w, 0.0)))[:, None] * (q.T @ u0t))
        dj = u0t.T @ cosj
        worst = max(worst, np.linalg.norm(dj - ds.d[j]) / np.linalg.norm(ds.d[j]))
    report(4, worst < 1e-8, f"max reconstruction error {worst:.2e} over j = 0..{2 * n - 2} (tol 1e-8)")


def test_criterion_5_cross_path_consistency(spectral_reference):
    s = spectral_reference
    t0 = time.time()
    tau, n = s["tau"], s["n"]
    rec = synthesize_measurements(s["model"], s["array"], s["pulse"], tau, n)
    ds_time = symmetrize_and_sample(rec, s["array"], s["model"], n)
    errs = {}
    for field in ("d", "ddot"):
        a = getattr(ds_time, field)
        b = getattr(s["dataset"], field)
        errs[field] = float(np.sqrt(np.sum((a - b) ** 2)) / np.sqrt(np.sum(b**2)))
    elapsed = time.time() - t0
    report(
        5,
        errs["d"] < 1e-3 and errs["ddot"] < 1e-3 and elapsed < 300.0,
        f"D err {errs['d']:.2e}, Ddot err {errs['ddot']:.2e} at dt = tau/50 "
        f"(tol 1e-3), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_6_topography_landscape(tmp_path):
    t0 = time.time()
    rc = cli_main([
        "sweep",
        "--config", str(REPO / "configs" / "topography_sweep.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    census = json.loads((tmp_path / "census.json").read_text())
    rom_minima = census["rom"]
    fwi_minima = census["fwi"]
    interior = [rec for rec in rom_minima["minima"] if rec["interior"]]
    ok_rom = len(interior) == 1
    # within one grid cell of (1.2 km, contrast 2): truth sits at cell (10, 10)
    ok_loc = ok_rom and abs(interior[0]["i"] - 10) <= 1 and abs(interior[0]["j"] - 10) <= 1
    ok_fwi = fwi_minima["count"] >= 2
    elapsed = time.time() - t0
    loc = (interior[0]["depth_left"], interior[0]["contrast"]) if interior else None
    report(
        6,
        ok_rom and ok_loc and ok_fwi and elapsed < 1800.0,
        f"ROM census: {rom_minima['count_interior']} interior minimum at {loc} "
        f"(truth (1200.0, 2.0) +- 1 cell); FWI census: {fwi_minima['count']} minima "
        f"(>= 2); {elapsed:.0f}s (< 1800s)",
    )


def test_criterion_7_camembert_paired_dominance(camembert_runs):
    r = camembert_runs
    truth = r["truth"]
    initial_err = r["param"].background.rel_l2_error(truth)
    rom_err = r["rom"][0].rel_l2_error(truth)
    fwi_err = r["fwi"][0].rel_l2_error(truth)
    ok_a = rom_err <= 0.6 * initial_err
    ok_b = rom_err < fwi_err
    report(
        7,
        ok_a and ok_b,
        f"initial error {initial_err:.4f}, ROM {rom_err:.4f} "
        f"({rom_err / initial_err:.2f}x, need <= 0.6x), FWI {fwi_err:.4f} "
        f"(ROM strictly smaller: {ok_b})",
    )


def test_criterion_8_optimizer_contracts(camembert_runs):
    r = camembert_runs
    est, updates = r["rom"]
    est2, updates2 = r["rom2"]

    # (a) accepted-step monotonicity of the penalized functional
    mono = all(f_new <= f_old * (1 + 1e-12) for f_new, f_old in (u.penalized for u in updates))

    # (b) mu_i = (sigma_{floor(gamma N)})^2, recomputed via an independent SVD
    acq, param, gn = r["acq"], r["param"], r["gn"]
    n_params = param.n_params
    idx = max(int(np.floor(gn.gamma * n_params)), 1)
    mu_ok = True
    for i in (1, len(updates) // 2, len(updates)):
        eta_prev = np.zeros(n_params) if i == 1 else updates[i - 2].eta
        residual_fn = make_residual_fn(
            r["ref_rom"], param, acq, r["schedule"].d, updates[i - 1].k
        )
        base = residual_fn(eta_prev)
        jac = jacobian(
            residual_fn, eta_prev, gn.fd_step, base, np.empty((base.size, n_params), order="F")
        )
        sigma = scipy.linalg.svdvals(jac)
        mu_indep = float(sigma[idx - 1] ** 2)
        if not np.isclose(mu_indep, updates[i - 1].mu, rtol=1e-9):
            mu_ok = False

    # (c) bitwise determinism across two executions
    det = (
        np.array_equal(updates[-1].eta, updates2[-1].eta)
        and np.array_equal(est.c, est2.c)
        and [(u.objective, u.mu, u.alpha) for u in updates]
        == [(u.objective, u.mu, u.alpha) for u in updates2]
    )
    report(
        8,
        mono and mu_ok and det,
        f"monotone accepted steps: {mono}; mu matches independent SVD at "
        f"iterations (1, mid, last): {mu_ok}; bitwise determinism: {det}",
    )


def test_rom_recovers_from_a_poor_initial_guess():
    """The paper's claim that the ROM misfit converges from an initial guess
    far enough off that FWI does not: the desk config from c0 = 2500 m/s."""
    path = REPO / "configs" / "camembert_desk.json"
    raw = json.loads(path.read_text())
    raw["search"]["background"]["c0"] = 2500.0
    run = run_from_dict(raw, path.parent)
    truth, acq, param = run.truth, run.acquisition, run.search
    ref_ds = acq.dataset(run.reference)
    est_rom, _ = run_inversion(build_rom(ref_ds), param, run.schedule, run.gn, acq)
    est_fwi, _ = run_inversion(ref_ds, param, run.schedule, run.gn, acq)
    initial_err = param.background.rel_l2_error(truth)
    rom_err, fwi_err = est_rom.rel_l2_error(truth), est_fwi.rel_l2_error(truth)
    report(
        "poor-initial-guess",
        rom_err <= 0.6 * initial_err and rom_err < fwi_err and fwi_err > initial_err,
        f"initial error {initial_err:.4f}, ROM {rom_err:.4f} (need <= 0.6x initial), "
        f"FWI {fwi_err:.4f} (need above ROM and above initial)",
    )


def test_criterion_9_identifiable_toy_recovery():
    t0 = time.time()
    g = Grid2D(24, 24, 1500 / 25, 1500 / 25)
    bg = make_constant_model(2000.0, g)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(g, 4, depth=120.0)
    acq = Acquisition(arr, pulse, pulse.default_tau(), 6, method="chebyshev")
    bumps = tuple(
        GaussianBump((x, z), 220.0) for x in (500.0, 1000.0) for z in (500.0, 1000.0)
    )
    param = Parametrization(bg, bumps)
    eta_star = np.array([120.0, -80.0, 60.0, 150.0])
    v_true = evaluate_velocity(param, eta=eta_star)
    ref_rom = build_rom(acq.dataset(v_true))
    schedule = LayerSchedule((acq.n,), q=10, d=acq.n)
    cfg = GnConfig(regularization="off")
    est, updates = run_inversion(ref_rom, param, schedule, cfg, acq)
    err = np.linalg.norm(updates[-1].eta - eta_star) / np.linalg.norm(eta_star)
    elapsed = time.time() - t0
    report(
        9,
        err < 1e-4 and len(updates) <= 10 and elapsed < 120.0,
        f"|eta - eta*|/|eta*| = {err:.2e} (tol 1e-4) after {len(updates)} iterations "
        f"(<= 10), {elapsed:.0f}s (< 120s)",
    )


def test_marmousi_smoke_runs_end_to_end(tmp_path):
    script = REPO / "scripts" / "make_marmousi_smoke.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rc = cli_main([
        "invert",
        "--config", str(tmp_path / "marmousi_smoke.json"),
        "--out", str(tmp_path / "run"),
        "--mode", "rom",
    ])
    ok = rc == 0 and (tmp_path / "run" / "estimate.bin").exists()
    report("marmousi-smoke", ok, f"cropped-section smoke run exit code {rc} (need 0)")
