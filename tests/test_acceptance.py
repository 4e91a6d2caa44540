"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are fixed here, not tuned at runtime.
"""

import filecmp
import json
import math
import os

import numpy as np
import pytest

from subbeam.arrays import ArrayGeometry, beamforming_gain, conjugate_beam
from subbeam.channel import PathModel, Reflector, Scene, SceneUser
from subbeam.cli import main as cli_main
from subbeam.codebook import (
    OptimizerConfig,
    SensingTarget,
    UserLink,
    optimize_max_min,
    optimize_weighted_sum,
)
from subbeam.experiments.imaging import run_imaging
from subbeam.experiments.link import run_link
from subbeam.experiments.localization import run_localization
from subbeam.experiments.mobility import default_sweep_scenario, run_mobility
from subbeam.experiments.tradeoff import epsilon_sweep
from subbeam.sensing import (
    DelaySearchConfig,
    OpCounter,
    estimate_symbol_csi,
    sliding_dft,
)
from subbeam.waveform import Numerology, SubSymbolSchedule, generate_slot

from cli_cases import CASES

NUM = Numerology()


def report(tag, ok, detail):
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def db(x):
    return 10.0 * math.log10(max(x, 1e-300))


def test_accept_01_conjugate_gain_identity():
    geo = ArrayGeometry.ula(16)
    angle = math.radians(7.0)
    gain = beamforming_gain(conjugate_beam(geo, angle), geo, angle)
    ok = abs(gain - 256.0) / 256.0 < 1e-9
    report("ACCEPT-01 conjugate-gain-identity", ok, f"gain={gain:.12f}, 24.08 dB")


def test_accept_02_solver_parity():
    # Operating points where the weighted-sum objective values sensing like
    # one average user (degenerate across allocations; the deterministic
    # fairness tie-break selects the balanced optimum) and the max-min
    # radius sits at the sensing/communication crossover.
    sines = (0.125, 0.25, 0.5)
    six = sorted([math.degrees(math.asin(s)) for s in sines]
                 + [-math.degrees(math.asin(s)) for s in sines])
    scenarios = [
        ("2 users, N=16", 16, [-30.0, 30.0], 0.5, 0.9),
        ("6 users, N=48", 48, six, 1.0 / 6.0, 1.6),
    ]
    worsts = []
    for label, n, user_degs, alpha, eps in scenarios:
        geo = ArrayGeometry.ula(n)
        users = [UserLink(math.radians(a), 1.0) for a in user_degs]
        target = SensingTarget(0.0, 1.0)
        w_sum = optimize_weighted_sum(users, target, geo, OptimizerConfig(), sensing_weight=alpha)
        entry = optimize_max_min(users, target.angle, geo, OptimizerConfig(epsilon=eps))
        angles = [0.0] + [u.angle for u in users]
        diffs = [
            abs(db(beamforming_gain(w_sum, geo, a)) - db(beamforming_gain(entry.weights, geo, a)))
            for a in angles
        ]
        worsts.append((label, max(diffs)))
    ok = all(w < 1.0 for _, w in worsts)
    detail = "; ".join(f"{label}: worst {w:.2f} dB" for label, w in worsts)
    report("ACCEPT-02 solver-parity", ok, detail)


def test_accept_03_epsilon_tradeoff():
    geo = ArrayGeometry.ula(16)
    users = [UserLink(math.radians(-30), 1.0), UserLink(math.radians(30), 1.0)]
    rows = epsilon_sweep(
        users, 0.0, geo,
        [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], OptimizerConfig(),
    )
    sens = [r["sensing_gain_db"] for r in rows.rows]
    comm = [r["min_snr_db"] for r in rows.rows]
    tol = 0.2
    mono_s = all(b <= a + tol for a, b in zip(sens, sens[1:]))
    mono_c = all(b >= a - tol for a, b in zip(comm, comm[1:]))
    diffs = [s - c for s, c in zip(sens, comm)]
    crossover = diffs[0] > 0 and any(d < 0 for d in diffs)
    ok = mono_s and mono_c and crossover
    report(
        "ACCEPT-03 epsilon-tradeoff",
        ok,
        f"sensing {sens[0]:.2f}->{sens[-1]:.2f} dB non-increasing={mono_s}, "
        f"min-user non-decreasing={mono_c}, dB crossover in (0,1.5)={crossover}",
    )


def test_accept_04_sliding_dft():
    worst = 0.0
    for length in (16, 30, 64):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            buf = rng.standard_normal(length + 64) + 1j * rng.standard_normal(length + 64)
            spec = sliding_dft(np.fft.fft(buf[:length]), buf[length : length + 64], buf[:64])[-1]
            direct = np.fft.fft(buf[64 : 64 + length])
            worst = max(worst, float(np.max(np.abs(spec - direct)) / np.max(np.abs(direct))))
    tx = generate_slot(NUM, "QPSK", seed=0).symbol_body(NUM.dmrs_positions()[0])
    sched = SubSymbolSchedule.for_numerology(NUM, 34)
    window = SubSymbolSchedule(1, sched.sub_len, NUM.fft_size)  # beam 0 alone
    fast, slow = OpCounter(), OpCounter()
    estimate_symbol_csi(np.roll(tx, 3), tx, window, DelaySearchConfig(10), counter=fast)
    estimate_symbol_csi(
        np.roll(tx, 3), tx, window, DelaySearchConfig(10), counter=slow, accelerated=False
    )
    ok = worst < 1e-7 and fast.total * 2 <= slow.total
    report(
        "ACCEPT-04 sliding-dft",
        ok,
        f"max rel err {worst:.2e} (<1e-7); ops {fast.total} vs {slow.total} "
        f"({slow.total/fast.total:.2f}x at 10 candidates)",
    )


def test_accept_05_delay_recovery():
    sched = SubSymbolSchedule.for_numerology(NUM, 34)
    length = sched.sub_len
    window = SubSymbolSchedule(1, length, NUM.fft_size)  # beam m alone, from sample m*length
    cfg = DelaySearchConfig(10)
    tx = generate_slot(NUM, "QPSK", seed=1).symbol_body(NUM.dmrs_positions()[0])

    exact = True
    for true_delay in range(10):
        rx = np.zeros(len(tx) + 32, dtype=complex)
        rx[true_delay : true_delay + len(tx)] = 0.7 * np.exp(0.3j) * tx
        res = estimate_symbol_csi(rx[5 * length :], tx[5 * length :], window, cfg)[0]
        exact &= res.best_delay == true_delay

    hits = 0
    trials = 500
    snr = 10.0  # dB per bin == per sample for a flat channel
    sigma = math.sqrt(0.7**2 * float(np.mean(np.abs(tx) ** 2)) / 10 ** (snr / 10.0))
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        slot_seed = 2000 + trial
        tx_t = generate_slot(NUM, "QPSK", seed=slot_seed, dmrs_seed=slot_seed).symbol_body(
            NUM.dmrs_positions()[0]
        )
        d = int(rng.integers(0, 10))
        m = int(rng.integers(0, 33))
        rx = np.zeros(len(tx_t) + 48, dtype=complex)
        rx[d : d + len(tx_t)] = 0.7 * np.exp(1j * rng.uniform(-np.pi, np.pi)) * tx_t
        rx += sigma / math.sqrt(2) * (
            rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx))
        )
        res = estimate_symbol_csi(rx[m * length :], tx_t[m * length :], window, cfg)[0]
        hits += abs(res.best_delay - d) <= 1
    rate = hits / trials
    ok = exact and rate >= 0.95
    report(
        "ACCEPT-05 delay-recovery",
        ok,
        f"noiseless exact={exact}; {100*rate:.1f}% within +/-1 sample at 10 dB ({trials} trials)",
    )


def test_accept_06_predistortion_evm():
    geo = ArrayGeometry.ula(16)
    users = (
        SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.1, 3)),
        SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.2, 4)),
    )
    scene = Scene(users=users, noise_power=1e-9, self_interference_inr_db=None)
    sweep = [math.radians(a) for a in np.linspace(-16.5, 16.5, 34)]
    kwargs = dict(snr_db=30.0, modulation="64QAM", seed=11, num_slots=4)
    on = run_link(scene, geo, sweep, NUM, OptimizerConfig(), DelaySearchConfig(10), **kwargs)
    off = run_link(
        scene, geo, sweep, NUM, OptimizerConfig(), DelaySearchConfig(10),
        predistort=False, **kwargs,
    )
    inflation = [u["evm_percent"] - u["evm_percent_genie"] for u in on.per_user.rows]
    ordered = all(
        u_off["evm_percent"] > u_on["evm_percent"]
        for u_on, u_off in zip(on.per_user.rows, off.per_user.rows)
    )
    ok = all(i < 1.0 for i in inflation) and ordered
    report(
        "ACCEPT-06 predistortion-evm",
        ok,
        f"EVM inflation {['%.2f%%' % i for i in inflation]} (<1% abs); "
        f"no-predistortion strictly worse={ordered} "
        f"({['%.1f%%' % u['evm_percent'] for u in off.per_user.rows]})",
    )


def test_accept_07_imaging():
    geo = ArrayGeometry.planar(16, 16)
    strong = (5.0, 0.0)
    weak = (-8.0, 6.0)
    scene = Scene(
        reflectors=(
            Reflector(math.radians(strong[0]), PathModel(1.0, 0.0, 4),
                      elevation=math.radians(strong[1]), label="strong"),
            Reflector(math.radians(weak[0]), PathModel(0.5, 0.9, 7),
                      elevation=math.radians(weak[1]), label="weak"),
        ),
        noise_power=1e-7,
        self_interference_inr_db=20.0,
    )
    az = np.radians(np.linspace(-15, 15, 31))
    el = np.radians(np.linspace(-15, 15, 31))
    grid = run_imaging(
        scene, az, el, NUM, geo, 34, OptimizerConfig(), DelaySearchConfig(10),
        seed=5, repeats=4,
    )
    m = grid.power_db
    j1, i1 = np.unravel_index(np.argmax(m), m.shape)
    peak1 = (math.degrees(az[i1]), math.degrees(el[j1]))
    masked = m.copy()
    masked[max(0, j1 - 6) : j1 + 7, max(0, i1 - 6) : i1 + 7] = -999
    j2, i2 = np.unravel_index(np.argmax(masked), masked.shape)
    peak2 = (math.degrees(az[i2]), math.degrees(el[j2]))
    hit1 = abs(peak1[0] - strong[0]) <= 1.0 and abs(peak1[1] - strong[1]) <= 1.0
    hit2 = abs(peak2[0] - weak[0]) <= 1.0 and abs(peak2[1] - weak[1]) <= 1.0
    brighter = m[j1, i1] > m[j2, i2]
    air_ok = (
        grid.slots_used == 8
        and grid.air_time_ms == pytest.approx(1.0)
        and grid.air_time_ms_dmrs == pytest.approx(0.875)
    )
    ok = hit1 and hit2 and brighter and air_ok
    report(
        "ACCEPT-07 imaging",
        ok,
        f"peaks at {peak1} and {peak2} (truth {strong} > {weak}), "
        f"air time {grid.slots_used} slots / {grid.air_time_ms:.3f} ms whole-slot / "
        f"{grid.air_time_ms_dmrs:.3f} ms DMRS-counted",
    )


def test_accept_08_mobility():
    geo = ArrayGeometry.ula(32)
    scenario = default_sweep_scenario(duration=10.0, tick_interval=5e-3)
    # The reuse tolerance is the config-exposed Algorithm knob; 2.0 linear
    # (~0.3 dB at the operating SNR) reproduces the paper-style skip rate.
    cfg = OptimizerConfig(epsilon=0.5, snr_match_tol=2.0)
    out = run_mobility(scenario, [1.0] * 4, [0.0], geo, cfg, validate_ticks=20)
    stats = out["stats"]
    gains = [r["sensing_gain_db"] for r in out["records"].rows]
    band = max(gains) - min(gains)
    validated = out["validation"] is not None and all(c["sound"] for c in out["validation"])
    frac = stats["reoptimized_tick_fraction"]
    ok = frac < 0.5 and band <= 1.5 and validated and len(out["validation"]) == 20
    report(
        "ACCEPT-08 mobility",
        ok,
        f"re-optimized {100*frac:.1f}% of {stats['ticks']} ticks (<50%), sensing band "
        f"{band:.2f} dB (<=1.5), reuse validated on {len(out['validation'])} ticks",
    )


def test_accept_09_sp_localization():
    geo = ArrayGeometry.ula(16)
    res = run_localization(geo, NUM, DelaySearchConfig(10), seed=11)
    ok = res["median_distance_error_m"] <= 0.5 and res["median_angle_error_deg"] <= 2.0
    report(
        "ACCEPT-09 sp-localization",
        ok,
        f"median distance error {res['median_distance_error_m']:.3f} m (<=0.5), "
        f"median angle error {res['median_angle_error_deg']:.3f} deg (<=2)",
    )


def test_accept_10_cli_determinism(tmp_path):
    mismatches = []
    for case, name, cfg in CASES:
        cfg_path = tmp_path / f"{case}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{case}_{run}"
            assert cli_main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        if names != sorted(os.listdir(outs[1])):
            mismatches.append(case)
            continue
        _, bad, err = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        if bad or err:
            mismatches.append(case)
    ok = not mismatches
    report(
        "ACCEPT-10 cli-determinism",
        ok,
        f"{len(CASES)} commands re-run byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
