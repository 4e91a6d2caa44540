"""Tests of the benchmark itself: inputs, span arithmetic and correctness checks."""

import json
import math
import os

import numpy as np
import pytest

import checks
import layers
import run
import spans
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(workloads.make_inputs(workload, 7), sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(workloads.make_inputs(workload, 8), sort_keys=True)


def test_workloads_draw_from_separate_streams():
    assert workloads.make_inputs("link", 3)[0]["seed"] != workloads.make_inputs("mobility", 3)[0]["seed"]


def test_localize_rank_check_runs_before_simulation():
    loc = workloads.make_inputs("localize", 1)[0]["localization"]
    workloads.check_localize_rank(loc, dmrs_per_slot=4)
    # 31 beams with 2 slots per position: 8 rows per position.
    too_small = dict(loc, sweep_deg=list(np.linspace(-15, 15, 31)), slots_per_position=2)
    with pytest.raises(ValueError, match="rank-deficient"):
        workloads.check_localize_rank(too_small, dmrs_per_slot=4)


def test_rank_check_matches_calibration_split():
    # run_localization keeps half of each position's captures for calibration.
    assert workloads.localize_training_rows(15, 4, 4) == 15 * 8
    assert workloads.localize_training_rows(3, 3, 3) == 3 * 4


# --- spans and self time ----------------------------------------------------


def _span(name, layer, start, end, parent=-1):
    return spans.Span(name, layer, start, end, parent)


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == pytest.approx(3.0)


def test_self_time_subtracts_only_direct_children():
    s = [
        _span("root", "cli", 0.0, 10.0),
        _span("a", "codebook", 1.0, 4.0, parent=0),
        _span("a.inner", "arrays", 1.5, 3.5, parent=1),
        _span("b", "sensing", 5.0, 6.0, parent=0),
    ]
    own = spans.self_times(s)
    assert own == pytest.approx([6.0, 1.0, 2.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_busy_counts_nested_repeats_once():
    s = [
        _span("f", "arrays", 0.0, 4.0),
        _span("f", "arrays", 1.0, 2.0, parent=0),
        _span("g", "arrays", 5.0, 6.0),
    ]
    assert spans.busy_by(s, lambda x: x.name) == pytest.approx({"f": 4.0, "g": 1.0})
    assert spans.busy_by(s, lambda x: x.layer) == pytest.approx({"arrays": 5.0})


def test_tracer_records_parents_and_self_times_sum_to_root():
    tr = spans.Tracer()
    root = tr.open("cli.main", "cli")
    child = tr.open("codebook.build_codebook", "codebook")
    tr.close(child)
    tr.close(root)
    assert [sp.parent for sp in tr.spans] == [-1, 0]
    assert sum(spans.self_times(tr.spans)) == pytest.approx(tr.spans[0].duration)


def test_patch_wraps_every_binding_and_restores():
    import subbeam.codebook
    import subbeam.experiments.link

    original = subbeam.codebook.build_codebook
    tr = spans.Tracer()
    patch = spans.Patch()
    patch.install({original: ("codebook", "codebook.build_codebook")}, spans.span_wrapper(tr))
    try:
        assert subbeam.codebook.build_codebook is not original
        assert subbeam.experiments.link.build_codebook is subbeam.codebook.build_codebook
    finally:
        patch.restore()
    assert subbeam.codebook.build_codebook is original
    assert subbeam.experiments.link.build_codebook is original


def test_layer_metrics_report_every_per_layer_name():
    s = [_span("cli.main", "cli", 0.0, 2.0), _span("runio.write_csv", "runio", 0.5, 1.0, parent=0)]
    m = layers.layer_metrics(s, traced_wall=2.0, overhead=0.5)
    assert set(m) | {"trace.ref_ms"} == {name for name, _ in layers.PER_LAYER}
    assert m["runio.busy_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_speed_probe_scales_each_stretch_by_its_end_probes():
    p = speed.SpeedProbe()
    # Kernel times 5 ms, 10 ms, 5 ms: both stretches ran at 7.5 ms.
    p.starts, p.ends = [0.0, 1.0, 3.0], [0.005, 1.010, 3.005]
    factor = speed.NOMINAL_S / 0.0075
    assert p.scaled(0.5, 0.6) == pytest.approx(0.1 * factor)
    # The probe between 1.0 and 1.010 is left out.
    assert p.scaled(0.9, 1.1) == pytest.approx(0.19 * factor)
    assert p.scaled(0.005, 3.0) == pytest.approx((0.995 + 1.99) * factor)


def test_computed_ops_match_opcounter():
    from subbeam.sensing import DelaySearchConfig, OpCounter, estimate_symbol_csi
    from subbeam.waveform import Numerology, SubSymbolSchedule, generate_slot

    num = Numerology()
    sched = SubSymbolSchedule.for_numerology(num, 15)
    body = generate_slot(num, "QPSK", seed=3).symbol_body(num.dmrs_positions()[0])
    counter = OpCounter()
    estimate_symbol_csi(np.roll(body, 2), body, sched, DelaySearchConfig(10), counter=counter)
    assert (counter.fft_ops, counter.slide_ops) == layers.computed_ops(sched.sub_len, 15, 10)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# --- correctness checks -----------------------------------------------------

LINK_CFG = {
    "geometry": {"layout": "ula", "num_elements": 8},
    "scene": {
        "users": [{"angle_deg": -30.0}, {"angle_deg": 30.0}],
        "reflectors": [{"azimuth_deg": 1.0, "path": {"delay_samples": 4}}],
    },
    "sweep_deg": {"start": -16.5, "stop": 16.5, "count": 3},
}


def _entry(angle_deg, weights):
    snrs = [
        abs(workloads.steering(len(weights), math.radians(u["angle_deg"])) @ weights) ** 2
        for u in LINK_CFG["scene"]["users"]
    ]
    return {
        "sensing_angle_deg": angle_deg,
        "weights": [[float(c.real), float(c.imag)] for c in weights],
        "min_snr_db": 10.0 * math.log10(min(snrs)),
        "converged": True,
    }


def _write_link_outputs(run_dir, entries=None, delays=(4, 4)):
    n = LINK_CFG["geometry"]["num_elements"]
    if entries is None:
        entries = [
            _entry(a, np.conj(workloads.steering(n, math.radians(a))))
            for a in workloads.sweep_angles_deg(LINK_CFG)
        ]
    with open(run_dir / "codebook.json", "w") as f:
        json.dump({"entries": entries}, f)
    rows = ["slot,symbol,beam_index,best_delay"]
    for sym, d in enumerate(delays):
        rows += [f"0,{sym},0,7", f"0,{sym},1,{d}", f"0,{sym},2,0"]
    (run_dir / "sensing.csv").write_text("\n".join(rows) + "\n")
    (run_dir / "users.csv").write_text("user,evm_percent\n0,3.5\n1,3.9\n")


def test_link_check_accepts_correct_outputs(tmp_path):
    _write_link_outputs(tmp_path)
    quality, failures = checks.check_link(LINK_CFG, str(tmp_path), {})
    assert failures == []
    assert quality["evm_pct"] == 3.9
    assert quality["sensing_gain_db"] == pytest.approx(20 * math.log10(8))


def test_link_check_rejects_infeasible_weights(tmp_path):
    n = LINK_CFG["geometry"]["num_elements"]
    entries = []
    for i, a in enumerate(workloads.sweep_angles_deg(LINK_CFG)):
        w = np.conj(workloads.steering(n, math.radians(a)))
        if i == 2:
            w = w * 0.3 + 0.7  # moves elements beyond epsilon=0.5 of the anchor
        entries.append(_entry(a, w))
    _write_link_outputs(tmp_path, entries=entries)
    _, failures = checks.check_link(LINK_CFG, str(tmp_path), {})
    assert any("infeasible" in f for f in failures)


def test_codebook_check_rejects_weights_outside_unit_disk():
    # Within epsilon of the broadside anchor (all ones) but |w| > 1.
    entry = {"sensing_angle_deg": 0.0, "weights": [[1.2, 0.0]] * 4, "min_snr_db": 0.0}
    assert any("infeasible" in f for f in checks.codebook_failures([entry], [0.0], [1.0], 0.5))


def test_link_check_rejects_stale_min_snr(tmp_path):
    n = LINK_CFG["geometry"]["num_elements"]
    entries = [
        _entry(a, np.conj(workloads.steering(n, math.radians(a))))
        for a in workloads.sweep_angles_deg(LINK_CFG)
    ]
    entries[2]["min_snr_db"] += 0.01
    _write_link_outputs(tmp_path, entries=entries)
    _, failures = checks.check_link(LINK_CFG, str(tmp_path), {})
    assert any("entry 2 stored min SNR" in f for f in failures)


def test_link_check_rejects_shifted_reflector_delay(tmp_path):
    _write_link_outputs(tmp_path, delays=(4, 5))
    _, failures = checks.check_link(LINK_CFG, str(tmp_path), {})
    assert any("best delay 5 != reflector delay 4" in f for f in failures)


def test_picks_check_rejects_a_shifted_pick():
    golden = [[1, 1, 2], [3, 1, 0]]
    assert checks.picks_failures([row[:] for row in golden], golden, 10) == []
    shifted = [[1, 1, 2], [3, 2, 0]]
    assert any("differ from golden" in f for f in checks.picks_failures(shifted, golden, 10))
    assert any("out of range" in f for f in checks.picks_failures([[10]], None, 10))


def _write_localize_outputs(run_dir, dist, angle):
    with open(run_dir / "localization.json", "w") as f:
        json.dump({"median_distance_error_m": dist, "median_angle_error_deg": angle}, f)


def test_localize_check_enforces_acceptance_bounds(tmp_path):
    cfg = {"search": {"num_candidates": 10}}
    captured = {"picks": [[1, 2]], "golden_picks": [[1, 2]]}
    _write_localize_outputs(tmp_path, 0.2, 0.5)
    assert checks.check_localize(cfg, str(tmp_path), captured)[1] == []
    _write_localize_outputs(tmp_path, 0.51, 0.5)
    assert checks.check_localize(cfg, str(tmp_path), captured)[1]
    _write_localize_outputs(tmp_path, 0.2, 2.5)
    assert checks.check_localize(cfg, str(tmp_path), captured)[1]


def _write_mobility_outputs(run_dir, gains, sound=True):
    rows = ["tick,min_snr,sensing_gain_db"]
    rows += [f"{i + 1},40.0,{g}" for i, g in enumerate(gains)]
    (run_dir / "timeseries.csv").write_text("\n".join(rows) + "\n")
    with open(run_dir / "reuse_validation.json", "w") as f:
        json.dump([{"tick": 3, "sound": True}, {"tick": 9, "sound": sound}], f)
    with open(run_dir / "mobility_stats.json", "w") as f:
        json.dump({"reoptimized_tick_fraction": 0.6}, f)


def test_mobility_check_rejects_unsound_reuse_and_wide_band(tmp_path):
    _write_mobility_outputs(tmp_path, [28.0, 28.5, 29.0])
    quality, failures = checks.check_mobility({}, str(tmp_path), {})
    assert failures == []
    assert quality["reopt_frac"] == 0.6
    _write_mobility_outputs(tmp_path, [28.0, 29.0], sound=False)
    assert any("not sound" in f for f in checks.check_mobility({}, str(tmp_path), {})[1])
    _write_mobility_outputs(tmp_path, [27.0, 28.6])
    assert any("sensing band" in f for f in checks.check_mobility({}, str(tmp_path), {})[1])
