"""CLI exercise and output-determinism tests."""

import dataclasses
import filecmp
import hashlib
import inspect
import json
import os
import re

import numpy as np
import pytest

from subbeam.arrays import ArrayGeometry
from subbeam.cli import CONFIG_SECTIONS, _users, load_config, main, scene_from_dict
from subbeam.codebook import OptimizerConfig
from subbeam.experiments.imaging import run_imaging
from subbeam.experiments.localization import run_localization
from subbeam.experiments.mobility import MobilityScenario, default_sweep_scenario, run_mobility
from subbeam.runio import Table, write_table
from subbeam.sensing import DelaySearchConfig
from subbeam.waveform import Numerology, generate_slot, read_iq

from cli_cases import (
    BASE_CFG, BENCH_CFG, CASES, CODEBOOK_CFG, IMG_CFG, LOC_CFG, MOB_CFG, SIM_CFG, TRADE_CFG,
)

def run_cmd(tmp_path, name, cfg, out, extra=()):
    cfg_path = tmp_path / f"{name}_{out}.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [name, "--config", str(cfg_path), "--out", str(tmp_path / out), *extra]
    assert main(args) == 0
    return tmp_path / out


def dirs_identical(a, b):
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    if names_a != names_b:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


# The sha256 of every output of each case, by case and file name, recorded
# from known-good outputs. A change meant to alter an output re-records it.
with open(os.path.join(os.path.dirname(__file__), "cli_hashes.json")) as f:
    RECORDED_SHA256 = json.load(f)


def files_unlike_recorded(run_dir, recorded):
    """Files whose sha256 differs from ``recorded``, and files only one side has."""
    names = sorted(set(os.listdir(run_dir)) | set(recorded))
    return [
        name for name in names
        if name not in recorded or not (run_dir / name).exists()
        or hashlib.sha256((run_dir / name).read_bytes()).hexdigest() != recorded[name]
    ]


@pytest.mark.parametrize("case,name,cfg", CASES, ids=[c[0] for c in CASES])
def test_rerun_is_byte_identical(tmp_path, case, name, cfg):
    a = run_cmd(tmp_path, name, cfg, "a")
    b = run_cmd(tmp_path, name, cfg, "b")
    assert dirs_identical(a, b)
    assert files_unlike_recorded(a, RECORDED_SHA256[case]) == []


def test_manifest_lists_outputs(tmp_path):
    out = run_cmd(tmp_path, "simulate", SIM_CFG, "run")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 7
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert "users.csv" in manifest["outputs"]
    assert "sensing.csv" in manifest["outputs"]


def test_seed_override_changes_outputs(tmp_path):
    a = run_cmd(tmp_path, "simulate", SIM_CFG, "a")
    b = run_cmd(tmp_path, "simulate", SIM_CFG, "b", extra=("--seed", "8"))
    assert not dirs_identical(a, b)
    manifest = json.loads((b / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 8


def test_mobility_no_reopt_keeps_codebook_stable(tmp_path):
    # static scenario: the time series shows zero re-optimizations
    cfg = dict(MOB_CFG)
    cfg["mobility"] = {"duration": 0.05, "tick_interval": 0.005,
                       "waypoints": [[[0.0, -20.0]], [[0.0, 15.0]]],
                       "base_snrs": [1.0, 1.0]}
    out = run_cmd(tmp_path, "mobility", cfg, "static")
    rows = (out / "timeseries.csv").read_text().strip().split("\n")[1:]
    reopt_col = [int(r.split(",")[-3]) for r in rows]
    assert all(v == 0 for v in reopt_col)


def test_image_reads_repeats(tmp_path):
    twice = run_cmd(tmp_path, "image", {**IMG_CFG, "repeats": 2}, "twice")
    once = run_cmd(tmp_path, "image", {**IMG_CFG, "repeats": 1}, "once")
    g = IMG_CFG["grid_deg"]
    angles = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    num = Numerology()
    grid = run_imaging(
        scene_from_dict(IMG_CFG["scene"], num.sample_rate), angles, angles, num,
        ArrayGeometry(64, layout="planar", planar_shape=(8, 8)), IMG_CFG["num_beams"],
        OptimizerConfig(), DelaySearchConfig(), IMG_CFG["seed"], repeats=2,
    )
    write_table(tmp_path / "want.csv", grid.heatmap())
    heatmap = (twice / "heatmap.csv").read_bytes()
    assert heatmap == (tmp_path / "want.csv").read_bytes()
    assert heatmap != (once / "heatmap.csv").read_bytes()


def test_image_pgm_well_formed(tmp_path):
    out = run_cmd(tmp_path, "image", IMG_CFG, "img")
    blob = (out / "heatmap.pgm").read_bytes()
    assert blob.startswith(b"P5\n9 9\n255\n")
    assert len(blob) == len(b"P5\n9 9\n255\n") + 81
    stats = json.loads((out / "imaging_stats.json").read_text())
    assert stats["pixels"] == 81
    assert stats["slots_used"] == 1


def _with_scene(where, key, value, cfg=SIM_CFG):
    """``cfg`` with ``key`` set on the scene object reached by the ``where`` indices."""
    scene = json.loads(json.dumps(cfg["scene"]))
    obj = scene
    for part in where:
        obj = obj[part]
    obj[key] = value
    return {**cfg, "scene": scene}


TYPOS = [
    ("top", "simulate", {**SIM_CFG, "snr_dB": 20}, "snr_dB"),
    ("geometry", "codebook", {**CODEBOOK_CFG, "geometry": {"num_element": 16}},
     "geometry.num_element"),
    ("numerology", "simulate", {**SIM_CFG, "numerology": {"fft_sise": 512}}, "numerology.fft_sise"),
    ("optimizer", "codebook", {**CODEBOOK_CFG, "optimizer": {"epsilom": 0.3}}, "optimizer.epsilom"),
    ("search", "simulate", {**SIM_CFG, "search": {"num_candidate": 12}}, "search.num_candidate"),
    ("localization", "localize",
     {**LOC_CFG, "localization": {**LOC_CFG["localization"], "noise": 1.0}},
     "localization.noise"),
    ("mobility", "mobility", {**MOB_CFG, "mobility": {"durration": 1.0}}, "mobility.durration"),
    # Library knobs the config does not expose are rejected like typos.
    ("min_tx_fraction", "simulate", {**SIM_CFG, "search": {"min_tx_fraction": 0.1}},
     "search.min_tx_fraction"),
    ("slot_duration_s", "image", {**IMG_CFG, "numerology": {"slot_duration_s": 1e-4}},
     "numerology.slot_duration_s"),
    ("sensing_weight", "codebook", {**CODEBOOK_CFG, "optimizer": {"sensing_weight": 0.5}},
     "optimizer.sensing_weight"),
    # Inputs no output depends on are rejected the same way.
    ("target_base_snr", "codebook", {**CODEBOOK_CFG, "target_base_snr": 1000.0},
     "target_base_snr"),
    ("grad_tol", "codebook", {**CODEBOOK_CFG, "optimizer": {"grad_tol": 1e-3}},
     "optimizer.grad_tol"),
    ("angle_task_distance_m", "localize",
     {**LOC_CFG, "localization": {**LOC_CFG["localization"], "angle_task_distance_m": 2.0}},
     "localization.angle_task_distance_m"),
    ("scene", "simulate", _with_scene((), "noise_powr_db", -80), "scene.noise_powr_db"),
    ("user", "simulate", _with_scene(("users", 1), "base_snr_dB", 3),
     "scene.users[1].base_snr_dB"),
    ("reflector", "baseline", _with_scene(("reflectors", 0), "elevation", 0),
     "scene.reflectors[0].elevation"),
    ("path", "simulate", _with_scene(("reflectors", 0, "path"), "attenuation", -6),
     "scene.reflectors[0].path.attenuation"),
]


@pytest.mark.parametrize("name,cfg,key", [t[1:] for t in TYPOS], ids=[t[0] for t in TYPOS])
def test_unknown_key_fails_before_any_work(tmp_path, monkeypatch, name, cfg, key):
    def fail(*args, **kwargs):
        raise AssertionError("the run started before the config was checked")

    for fn in ("build_codebook", "epsilon_sweep", "run_link", "run_baseline", "run_imaging",
               "run_localization", "run_mobility"):
        monkeypatch.setattr(f"subbeam.cli.{fn}", fail)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=r"bad key\(s\) in .*: (.*, )?unknown " + re.escape(key)):
        main([name, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


BAD_VALUES = [
    ("user_key", "codebook",
     {**CODEBOOK_CFG, "users": [{"angle_deg": -30, "snr_db": 10}, {"angle_deg": 30}]},
     "users[0].snr_db"),
    ("sweep_stray", "simulate",
     {**SIM_CFG, "sweep_deg": {"start": -15, "stop": 15, "count": 8, "cout": 8}}, "sweep_deg.cout"),
    ("sweep_missing", "codebook", {**CODEBOOK_CFG, "sweep_deg": {"start": 0, "stop": 10}},
     "sweep_deg.count"),
    ("grid", "image", {**IMG_CFG, "grid_deg": {"start": -8, "stop": 8, "step": 2}},
     "grid_deg.step"),
    ("pattern_grid", "pattern",
     {**CODEBOOK_CFG, "pattern_grid_deg": {"start": -60, "stop": 60, "count": 5}},
     "pattern_grid_deg.count"),
    ("layout", "simulate", {**SIM_CFG, "geometry": {"layout": "planr", "num_elements": 16}},
     "'planr'"),
    ("planar_size", "image", {**IMG_CFG, "geometry": {"layout": "planar", "num_elements": 16}},
     "num_elements 16"),
    ("ula_shape", "codebook", {**CODEBOOK_CFG, "geometry": {"planar_shape": [4, 4]}},
     "planar_shape (4, 4)"),
    ("planar_shape_three", "image",
     {**IMG_CFG, "geometry": {"layout": "planar", "planar_shape": [4, 4, 1]}},
     "planar_shape (4, 4, 1) must have two entries"),
    ("dmrs_indices_empty", "simulate", {**SIM_CFG, "numerology": {"dmrs_symbol_indices": []}},
     "dmrs_symbol_indices must name at least one DMRS symbol"),
    ("cp_length_over_fft_size", "simulate", {**SIM_CFG, "numerology": {"cp_length": 2000}},
     "cp_length 2000 outside 0..fft_size 1024"),
    ("snr_match_tol_negative", "codebook", {**CODEBOOK_CFG, "optimizer": {"snr_match_tol": -1.0}},
     "snr_match_tol must be >= 0, got -1.0"),
    *[(f"sample_rate_{name}", "simulate", {**SIM_CFG, "numerology": {"sample_rate": rate}},
       f"sample_rate must be > 0, got {rate}")
      for name, rate in (("negative", -5.0), ("zero", 0))],
    ("user_snr_twice", "codebook",
     {**CODEBOOK_CFG, "users": [{"angle_deg": 0, "base_snr": 2, "base_snr_db": 10}]},
     "base_snr / base_snr_db"),
    ("noise_twice", "simulate", _with_scene((), "noise_power", 1e-3),
     "noise_power / noise_power_db"),
    ("bench_repeats", "bench", {**BENCH_CFG, "repeats": 0},
     "repeats: expected an integer >= 1, got 0"),
    ("bench_candidates", "bench", {**BENCH_CFG, "candidate_grid": [0]}, "num_candidates 0"),
    ("image_no_beams", "image", {**IMG_CFG, "num_beams": 0},
     "num_beams: expected an integer >= 1, got 0"),
    ("image_beams_too_many", "image", {**IMG_CFG, "num_beams": 2000}, "num_beams 2000"),
    ("image_empty_grid", "image", {**IMG_CFG, "grid_deg": {"start": -8, "stop": 8, "count": 0}},
     "grid_deg.count: expected an integer >= 1, got 0"),
    ("simulate_no_slots", "simulate", {**SIM_CFG, "num_slots": 0},
     "num_slots: expected an integer >= 1, got 0"),
    ("sweep_count_zero", "codebook",
     {**CODEBOOK_CFG, "sweep_deg": {"start": 0, "stop": 10, "count": 0}},
     "sweep_deg.count: expected an integer >= 1, got 0"),
    ("sweep_empty_list", "simulate", {**SIM_CFG, "sweep_deg": []},
     "sweep_deg: expected a non-empty list of numbers, got []"),
    ("sweep_empty_mobility", "mobility", {**MOB_CFG, "sweep_deg": []},
     "sweep_deg: expected a non-empty list of numbers, got []"),
    ("moved_users_short", "codebook", {**CODEBOOK_CFG, "moved_users_deg": [-28]},
     "moved_users_deg has 1 angles for 2 users"),
    ("moved_users_long", "codebook", {**CODEBOOK_CFG, "moved_users_deg": [-28, 30, 5]},
     "moved_users_deg has 3 angles for 2 users"),
    ("mobility_base_snrs", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"], "base_snrs": [1.0, 1.0]}},
     "base_snrs has 2 values for 4 trajectories"),
    ("simulate_modulation", "simulate", {**SIM_CFG, "modulation": "8PSK"}, "'8PSK'"),
    ("baseline_modulation", "baseline", {**BASE_CFG, "modulation": "8PSK"}, "'8PSK'"),
    ("baseline_unknown_mode", "baseline", {**BASE_CFG, "modes": ["subf", "fixd"]},
     "unknown baseline mode 'fixd'"),
    ("mobility_no_ticks", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"], "duration": 0.002}},
     "duration 0.002 s is under half a tick_interval of 0.005 s"),
    ("mobility_waypoints_backwards", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"], "waypoints": [[[1, -10], [0, 10]]]}},
     "waypoint times [1, 0] must strictly increase"),
    ("mobility_waypoints_empty", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"],
                              "waypoints": [[[0, -30], [0.05, 30]], []]}},
     "trajectory 1 has no waypoints"),
    ("localize_empty_sweep", "localize",
     {**LOC_CFG, "localization": {**LOC_CFG["localization"], "sweep_deg": []}},
     "sweep_deg [] names no beam"),
    ("localize_angle_outside_fov", "localize",
     {**LOC_CFG, "localization": {**LOC_CFG["localization"], "angles_deg": [-10, 0, 70]}},
     "angles_deg 70.0 outside the field of view"),
    *[(f"localize_distance_{name}", "localize",
       {**LOC_CFG, "localization": {**LOC_CFG["localization"], "distances_m": [1, 2, distance]}},
       f"distances_m {float(distance)} must be > 0")
      for name, distance in (("negative", -1), ("zero", 0))],
    *[(f"localize_one_{task}", "localize",
       {**LOC_CFG, "localization": {**LOC_CFG["localization"], key: [3] * 5}},
       f"{task} task: need 2 distinct truth values, got [3, 3, 3, 3, 3]")
      for task, key in (("distance", "distances_m"), ("angle", "angles_deg"))],
    ("localize_rank", "localize",
     {**LOC_CFG, "localization": {"distances_m": [1, 2], "angles_deg": [-5, 5],
                                  "sweep_deg": [-12, 0, 12], "slots_per_position": 1}},
     "rank-deficient"),
    *[(f"{name}_reflector_delay", name,
       _with_scene(("reflectors", 0, "path"), "delay_samples", 30, cfg),
       "round-trip delay 30 samples")
      for name, cfg in (("simulate", SIM_CFG), ("baseline", BASE_CFG), ("image", IMG_CFG))],
    ("pattern_no_codebook_file", "pattern",
     {"codebook_file": "no_such_codebook.json"}, "no_such_codebook.json"),
    # A file source and the inline values it replaces are not both accepted.
    *[(f"pattern_codebook_file_and_{key}", "pattern",
       {"codebook_file": "codebook.json", key: CODEBOOK_CFG[key]},
       f"codebook_file is set together with {key}, which it replaces")
      for key in ("geometry", "users", "sweep_deg")],
    ("pattern_codebook_file_and_optimizer", "pattern",
     {"codebook_file": "codebook.json", "optimizer": {"epsilon": 0.1}},
     "codebook_file is set together with optimizer, which it replaces"),
    ("pattern_codebook_file_and_all", "pattern", {**CODEBOOK_CFG, "codebook_file": "codebook.json"},
     "codebook_file is set together with geometry, users, sweep_deg, which it replaces"),
    *[(f"{name}_scene_file_and_scene", name, {**cfg, "scene_file": "scene.json"},
       "scene_file is set together with scene, which it replaces")
      for name, cfg in (("simulate", SIM_CFG), ("baseline", BASE_CFG), ("image", IMG_CFG))],
    # num_beams only sizes the default sweep.
    *[(f"{name}_sweep_and_num_beams", name, {**cfg, "sweep_deg": [0, 5], "num_beams": 34},
       "sweep_deg is set together with num_beams, which it replaces")
      for name, cfg in (("simulate", SIM_CFG), ("baseline", BASE_CFG))],
    ("tradeoff_negative_radius", "tradeoff", {**TRADE_CFG, "epsilons": [0.5, -1.0]},
     "epsilon must be >= 0"),
    ("pattern_zero_step", "pattern",
     {**CODEBOOK_CFG, "pattern_grid_deg": {"start": -60, "stop": 60, "step": 0}},
     "pattern_grid_deg.step: expected a number > 0, got 0"),
    ("pattern_negative_step", "pattern",
     {**CODEBOOK_CFG, "pattern_grid_deg": {"start": -60, "stop": 60, "step": -1}},
     "pattern_grid_deg.step: expected a number > 0, got -1"),
    *[(f"pattern_grid_{key}_beyond_90", "pattern",
       {**CODEBOOK_CFG, "pattern_grid_deg": {"start": -60, "stop": 60, "step": 1, key: sign * 91}},
       f"pattern_grid_deg.{key}: expected a number in [-90, 90], got {sign * 91}")
      for key, sign in (("start", -1), ("stop", 1))],
    ("mobility_negative_validate_ticks", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"], "validate_ticks": -2}},
     "validate_ticks -2"),
    # Entries of the wrong kind are named by path like unknown keys.
    ("user_not_object", "codebook", {**CODEBOOK_CFG, "users": [30]},
     "users[0]: expected an object"),
    ("users_not_list", "codebook", {**CODEBOOK_CFG, "users": 30}, "users: expected a list"),
    ("reflector_not_object", "simulate", _with_scene((), "reflectors", [5]),
     "scene.reflectors[0]: expected an object"),
    ("geometry_not_object", "simulate", {**SIM_CFG, "geometry": 5},
     "geometry: expected an object"),
    # Values of the wrong kind are named by path too.
    ("predistort_string", "simulate", {**SIM_CFG, "predistort": "false"},
     "predistort: expected a boolean, got 'false'"),
    ("user_angle_bool", "codebook",
     {**CODEBOOK_CFG, "users": [{"angle_deg": True}, {"angle_deg": 30}]},
     "users[0].angle_deg: expected a number, got True"),
    ("candidates_float", "simulate", {**SIM_CFG, "search": {"num_candidates": 10.5}},
     "search.num_candidates: expected an integer, got 10.5"),
    ("snr_string", "simulate", {**SIM_CFG, "snr_db": "30"}, "snr_db: expected a number, got '30'"),
    ("max_iters_float", "codebook", {**CODEBOOK_CFG, "optimizer": {"max_iters": 20.5}},
     "optimizer.max_iters: expected an integer, got 20.5"),
    ("seed_float", "simulate", {**SIM_CFG, "seed": 1.5}, "seed: expected an integer >= 0, got 1.5"),
    ("seed_negative", "simulate", {**SIM_CFG, "seed": -1},
     "seed: expected an integer >= 0, got -1"),
    ("epsilon_string", "codebook", {**CODEBOOK_CFG, "optimizer": {"epsilon": "0.5"}},
     "optimizer.epsilon: expected a number, got '0.5'"),
    ("num_slots_string", "simulate", {**SIM_CFG, "num_slots": "2"},
     "num_slots: expected an integer >= 1, got '2'"),
    ("repeats_float", "bench", {**BENCH_CFG, "repeats": 1.5},
     "repeats: expected an integer >= 1, got 1.5"),
    ("sweep_count_float", "codebook",
     {**CODEBOOK_CFG, "sweep_deg": {"start": 0, "stop": 10, "count": 2.0}},
     "sweep_deg.count: expected an integer >= 1, got 2.0"),
    ("waypoints_not_pairs", "mobility",
     {**MOB_CFG, "mobility": {**MOB_CFG["mobility"], "waypoints": [[0.0, 10.0]]}},
     "mobility.waypoints[0][0]: expected a [t, deg] pair of numbers, got 0.0"),
    ("dmrs_indices_string", "simulate", {**SIM_CFG, "numerology": {"dmrs_symbol_indices": "3"}},
     "numerology.dmrs_symbol_indices: expected a list, got '3'"),
    ("reflector_label_number", "simulate", _with_scene(("reflectors", 0), "label", 5),
     "scene.reflectors[0].label: expected a string, got 5"),
]

# The bindings through which each subcommand starts its expensive work.
WORK = [
    ("cli", "build_codebook"),
    *[(f"experiments.{module}", fn)
      for module in ("link", "baselines", "imaging")
      for fn in ("build_codebook", "sense_dmrs")],
    ("experiments.localization", "sense_dmrs"),
    ("experiments.mobility", "build_codebook"),
    ("experiments.mobility", "optimize_max_min"),
    ("experiments.tradeoff", "optimize_max_min"),
]


@pytest.fixture
def no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the run started before the config was checked")

    for module, fn in WORK:
        monkeypatch.setattr(f"subbeam.{module}.{fn}", fail)


@pytest.mark.parametrize("name,cfg,value", [b[1:] for b in BAD_VALUES],
                         ids=[b[0] for b in BAD_VALUES])
def test_bad_value_fails_before_any_work(tmp_path, no_work, name, cfg, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # A codebook_file that does not exist raises FileNotFoundError.
    with pytest.raises((ValueError, FileNotFoundError), match=re.escape(value)):
        main([name, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_seed_override_takes_the_config_seed_kind(tmp_path, no_work):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SIM_CFG))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError, match=re.escape("--seed: seed: expected an integer >= 0")):
        main([*argv, "--seed", "-1"])
    assert not (tmp_path / "out").exists()


def test_top_level_user_reads_base_snr_db():
    users = _users({"users": [{"angle_deg": -30, "base_snr_db": 10}, {"angle_deg": 30}]})
    assert users[0].base_snr == pytest.approx(10.0)
    assert users[1].base_snr == 1.0


def test_every_unknown_key_named(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {**_with_scene(("reflectors", 0), "azimuth", 5), "sead": 1,
           "optimizer": {"epsilom": 0.3}}
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=re.escape(
        ": unknown scene.reflectors[0].azimuth, unknown sead, unknown optimizer.epsilom"
    ) + "$"):
        load_config(str(cfg_path))


def test_scene_file_keys_checked(tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(_with_scene(("users", 0, "path"), "delay", 3)["scene"]))
    cfg_path = tmp_path / "cfg.json"
    cfg = {k: v for k, v in SIM_CFG.items() if k != "scene"}
    cfg_path.write_text(json.dumps({**cfg, "scene_file": str(scene_path)}))
    with pytest.raises(ValueError, match=re.escape("users[0].path.delay")):
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("cfg", [c[2] for c in CASES], ids=[c[0] for c in CASES])
def test_case_configs_load(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert load_config(str(cfg_path)) == json.loads(json.dumps(cfg))


def test_section_keys_are_parameters_of_their_callees():
    # Sections are splatted into these callees; a key outside their
    # parameters would pass the loader and then raise TypeError mid-run.
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def params(fn):
        return set(inspect.signature(fn).parameters)

    # Every field of these config dataclasses is settable from the config.
    assert set(CONFIG_SECTIONS["optimizer"]) == fields(OptimizerConfig)
    assert set(CONFIG_SECTIONS["search"]) == fields(DelaySearchConfig)
    assert set(CONFIG_SECTIONS["numerology"]) == fields(Numerology)
    assert set(CONFIG_SECTIONS["localization"]) <= params(run_localization)
    timing = {"duration", "tick_interval"}
    assert timing <= set(CONFIG_SECTIONS["mobility"])
    assert timing <= fields(MobilityScenario) and timing <= params(default_sweep_scenario)
    assert "validate_ticks" in params(run_mobility)


def test_saved_iq_is_the_transmitted_slot_without_predistortion(tmp_path):
    # Without pre-distortion the slot sent is the plain reference slot.
    cfg = {**SIM_CFG, "predistort": False, "save_iq": True}
    out = run_cmd(tmp_path, "simulate", cfg, "iq")
    samples, meta = read_iq(out / "tx_slot.iq")
    sent = generate_slot(Numerology(), cfg["modulation"], seed=cfg["seed"]).samples
    assert meta["modulation"] == "64QAM"
    np.testing.assert_allclose(samples, sent, rtol=0, atol=1e-6 * np.max(np.abs(sent)))


USERS_HEADER = "user,angle_deg,evm_percent,evm_percent_genie,ber"
SENSING_HEADER = (
    "slot,symbol,beam_index,angle_deg,best_delay,power_db,power_db_normalized,slope,loss"
)
BASELINES_HEADER = (
    "mode,user,evm_percent,evm_percent_genie,ber,sensing_amplitude_db,beam_switches_per_dmrs"
)
TRADEOFF_HEADER = "epsilon,sensing_gain_db,min_snr_db,user0_gain_db,user1_gain_db"
TABLES = [
    ("simulate", "simulate", SIM_CFG,
     {"users.csv": (USERS_HEADER, 2), "sensing.csv": (SENSING_HEADER, 32)}),
    ("baseline", "baseline", BASE_CFG, {"baselines.csv": (BASELINES_HEADER, 6)}),
    ("mobility", "mobility", MOB_CFG,
     {"timeseries.csv": ("tick,t,user0_deg,user1_deg,user2_deg,user3_deg,"
                         "reused,reoptimized,min_snr,sensing_gain_db", 50),
      "timing.csv": ("tick,update_seconds", 50)}),
    ("tradeoff", "tradeoff", TRADE_CFG, {"tradeoff.csv": (TRADEOFF_HEADER, 3)}),
    # A table with no rows keeps its header.
    ("simulate_no_users", "simulate", _with_scene((), "users", []),
     {"users.csv": (USERS_HEADER, 0)}),
    ("baseline_no_modes", "baseline", {**BASE_CFG, "modes": []},
     {"baselines.csv": (BASELINES_HEADER, 0)}),
    ("tradeoff_no_epsilons", "tradeoff", {**TRADE_CFG, "epsilons": []},
     {"tradeoff.csv": (TRADEOFF_HEADER, 0)}),
    ("pattern_no_angles", "pattern",
     {**CODEBOOK_CFG, "pattern_grid_deg": {"start": 10, "stop": -10, "step": 1}},
     {"pattern.csv": ("angle_deg,entry0_gain_db,entry1_gain_db,entry2_gain_db", 0)}),
]


@pytest.mark.parametrize("name,cfg,tables", [t[1:] for t in TABLES], ids=[t[0] for t in TABLES])
def test_table_header_and_row_count(tmp_path, name, cfg, tables):
    # Re-runs compare the code with itself, so they cannot see a column that
    # moved or was renamed; these pins can.
    extra = ("--timing",) if "timing.csv" in tables else ()
    out = run_cmd(tmp_path, name, cfg, "run", extra)
    for table, (header, rows) in tables.items():
        lines = (out / table).read_text().splitlines()
        assert (lines[0], len(lines) - 1) == (header, rows), table


def test_table_keeps_repeated_columns_and_checks_row_length(tmp_path):
    table = Table(["angle", "angle"])
    table.add(0.0, 1.5)
    with pytest.raises(ValueError, match="1 values for 2 columns"):
        table.add(0.0)
    write_table(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text() == "angle,angle\n0.0,1.5\n"
