"""Command-line experiment runner.

Each subcommand reads one JSON config, runs deterministically from the
resolved seed, and writes its outputs (plus a manifest echoing the resolved
config) under the run directory. Re-running with the same config and seed
reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .arrays import ArrayGeometry, beamforming_gain
from .channel import USER_KEYS, Scene, load_scene, scene_from_dict, user_link_from_dict
from .codebook import (
    Codebook,
    OptimizerConfig,
    SensingTarget,
    UserLink,
    build_codebook,
    load_codebook,
    save_codebook,
    update_codebook,
)
from .experiments.baselines import BASELINE_MODES, run_baseline
from .experiments.imaging import run_imaging
from .experiments.link import run_link
from .experiments.localization import run_localization
from .experiments.mobility import MobilityScenario, default_sweep_scenario, run_mobility
from .experiments.tradeoff import epsilon_sweep
from .runio import RunDir, fmt, write_csv, write_json, write_pgm
from .sensing import DelaySearchConfig, OpCounter, estimate_beam_csi
from .waveform import Numerology, SubSymbolSchedule, constellation, generate_slot, write_iq

DEFAULT_SEED = 1

# The config schema: the keys read inside each section (optimizer, search and
# numerology keys are fields of OptimizerConfig, DelaySearchConfig and
# Numerology, localization keys are run_localization arguments), and every
# top-level key some subcommand reads. One schema serves all subcommands
# because configs are shared between them.
CONFIG_SECTIONS = {
    "geometry": {"layout", "num_elements", "planar_shape", "spacing"},
    "numerology": {
        "fft_size", "occupied_subcarriers", "cp_length", "sample_rate",
        "symbols_per_slot", "dmrs_symbol_indices",
    },
    "optimizer": {"epsilon", "sensing_weight", "grad_tol", "max_iters", "snr_match_tol"},
    "search": {"num_candidates"},
    "localization": {"distances_m", "angles_deg", "slots_per_position", "sweep_deg", "noise_power"},
    "mobility": {"waypoints", "duration", "tick_interval", "base_snrs", "validate_ticks"},
}
CONFIG_KEYS = {
    *CONFIG_SECTIONS, "seed", "users", "sweep_deg", "scene", "scene_file", "target_base_snr",
    "moved_users_deg", "codebook_file", "pattern_grid_deg", "sensing_angle_deg", "epsilons",
    "num_beams", "snr_db", "modulation", "num_slots", "predistort", "save_iq", "modes",
    "grid_deg", "candidate_grid", "repeats",
}


def load_config(path: str | None) -> dict:
    """Read a JSON config; raise ValueError naming every key no subcommand reads."""
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    unknown = [k for k in cfg if k not in CONFIG_KEYS] + [
        f"{s}.{k}" for s, keys in CONFIG_SECTIONS.items() for k in cfg.get(s, {}) if k not in keys
    ]
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return cfg


def _given(section: dict, *keys: str) -> dict:
    """The entries of ``keys`` that ``section`` sets, so callees keep their defaults."""
    return {k: section[k] for k in keys if k in section}


def _check_keys(d: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    """Raise ValueError naming each key of ``d`` outside both tuples and each missing one."""
    bad = [f"unknown key {where}.{k}" for k in d if k not in (*required, *optional)]
    bad += [f"missing key {where}.{k}" for k in required if k not in d]
    if bad:
        raise ValueError(f"config: {', '.join(bad)}")


def _geometry(cfg: dict, default: dict | None = None) -> ArrayGeometry:
    g = cfg.get("geometry", default or {})
    layout = g.get("layout", "ula")
    shape = g.get("planar_shape", [8, 8] if layout == "planar" else None)
    return ArrayGeometry(
        g.get("num_elements", math.prod(shape) if shape else 16),
        layout=layout,
        planar_shape=tuple(shape) if shape else None,
        **_given(g, "spacing"),
    )


def _numerology(cfg: dict) -> Numerology:
    n = dict(cfg.get("numerology", {}))
    if "dmrs_symbol_indices" in n:
        n["dmrs_symbol_indices"] = frozenset(n["dmrs_symbol_indices"])
    return Numerology(**n)


def _optimizer(cfg: dict) -> OptimizerConfig:
    return OptimizerConfig(**cfg.get("optimizer", {}))


def _search(cfg: dict) -> DelaySearchConfig:
    return DelaySearchConfig(**cfg.get("search", {}))


def _users(cfg: dict) -> list[UserLink]:
    users = cfg.get("users", [])
    for i, u in enumerate(users):
        _check_keys(u, f"users[{i}]", ("angle_deg",), USER_KEYS)
    return [user_link_from_dict(u) for u in users]


def _sweep(cfg: dict, default_count: int = 4) -> list[float]:
    s = cfg.get("sweep_deg", {"start": 0.0, "stop": 15.0, "count": default_count})
    if isinstance(s, list):
        degs = s
    else:
        _check_keys(s, "sweep_deg", ("start", "stop", "count"))
        degs = np.linspace(s["start"], s["stop"], s["count"]).tolist()
    if not degs:
        raise ValueError("config: sweep_deg is empty")
    return [math.radians(d) for d in degs]


def _modulation(cfg: dict) -> str:
    modulation = cfg.get("modulation", "64QAM")
    constellation(modulation)  # fails on an unknown modulation
    return modulation


def _scene(cfg: dict, numerology: Numerology) -> Scene:
    if "scene_file" in cfg:
        return load_scene(cfg["scene_file"], numerology.sample_rate)
    return scene_from_dict(cfg.get("scene", {}), numerology.sample_rate)


def _resolved(cfg: dict, seed: int) -> dict:
    out = dict(cfg)
    out["seed"] = seed
    return out


def _print_codebook(codebook: Codebook, geometry: ArrayGeometry) -> None:
    print("entry  angle_deg  sensing_gain_db  min_user_snr_db  converged")
    for i, e in enumerate(codebook.entries):
        gain = beamforming_gain(e.weights, geometry, e.sensing_angle)
        min_db = "inf" if math.isinf(e.min_snr) else f"{10*math.log10(max(e.min_snr,1e-30)):.2f}"
        print(
            f"{i:5d}  {math.degrees(e.sensing_angle):9.2f}  "
            f"{10*math.log10(gain):15.2f}  {min_db:>15s}  {e.converged}"
        )


def cmd_codebook(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    sweep = _sweep(cfg)
    moved = None
    if "moved_users_deg" in cfg:
        moved_deg = cfg["moved_users_deg"]
        if len(moved_deg) != len(users):
            raise ValueError(f"moved_users_deg has {len(moved_deg)} angles for {len(users)} users")
        moved = [UserLink(math.radians(d), u.base_snr) for d, u in zip(moved_deg, users)]
    run = RunDir(args.out)
    codebook = build_codebook(users, sweep, cfg.get("target_base_snr", 1.0), geometry, opt)
    save_codebook(run.file("codebook.json"), codebook, geometry)
    _print_codebook(codebook, geometry)
    if moved is not None:
        updated, stats = update_codebook(codebook, moved, geometry, opt)
        save_codebook(run.file("codebook_updated.json"), updated, geometry)
        print(f"update: reused {stats.reused}, re-optimized {stats.reoptimized}")
        _print_codebook(updated, geometry)
    run.finish("codebook", _resolved(cfg, seed))


def cmd_pattern(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    sweep = _sweep(cfg)
    grid_cfg = cfg.get("pattern_grid_deg", {"start": -60.0, "stop": 60.0, "step": 0.5})
    _check_keys(grid_cfg, "pattern_grid_deg", ("start", "stop", "step"))
    run = RunDir(args.out)
    if "codebook_file" in cfg:
        codebook, geometry = load_codebook(cfg["codebook_file"])
    else:
        codebook = build_codebook(users, sweep, cfg.get("target_base_snr", 1.0), geometry, opt)
    grid = np.arange(grid_cfg["start"], grid_cfg["stop"] + 1e-9, grid_cfg["step"])
    header = ["angle_deg"] + [
        f"entry{i}_gain_db" for i in range(len(codebook.entries))
    ]
    rows = []
    beams = codebook.beams()
    for deg in grid:
        angle = math.radians(float(deg))
        row = [float(deg)] + [
            10.0 * math.log10(beamforming_gain(b, geometry, angle) + 1e-30) for b in beams
        ]
        rows.append(row)
    write_csv(run.file("pattern.csv"), header, rows)
    run.finish("pattern", _resolved(cfg, seed))
    print(f"wrote pattern.csv with {len(rows)} angles x {len(beams)} entries")


def cmd_tradeoff(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    run = RunDir(args.out)
    target = SensingTarget(math.radians(cfg.get("sensing_angle_deg", 0.0)))
    epsilons = cfg.get("epsilons", [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    rows = epsilon_sweep(users, target, geometry, epsilons, opt)
    header = ["epsilon", "sensing_gain_db", "min_snr_db"] + [
        f"user{i}_gain_db" for i in range(len(users))
    ]
    table = [
        [r["epsilon"], r["sensing_gain_db"], r["min_snr_db"], *r["user_gains_db"]]
        for r in rows
    ]
    write_csv(run.file("tradeoff.csv"), header, table)
    run.finish("tradeoff", _resolved(cfg, seed))
    for r in rows:
        print(
            f"eps={r['epsilon']:.2f} sensing {r['sensing_gain_db']:6.2f} dB "
            f"min-user {r['min_snr_db']:6.2f} dB"
        )


def cmd_simulate(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    modulation = _modulation(cfg)
    if cfg.get("num_slots", 1) < 1:
        raise ValueError(f"num_slots {cfg['num_slots']} must be >= 1")
    run = RunDir(args.out)
    result = run_link(
        scene,
        geometry,
        sweep,
        numerology,
        opt,
        search,
        snr_db=cfg.get("snr_db", 30.0),
        modulation=modulation,
        seed=seed,
        **_given(cfg, "num_slots", "predistort"),
    )
    write_csv(
        run.file("users.csv"),
        ["user", "angle_deg", "evm_percent", "evm_percent_genie", "ber"],
        [
            [u["user"], u["angle_deg"], u["evm_percent"], u["evm_percent_genie"], u["ber"]]
            for u in result.per_user
        ],
    )
    write_csv(
        run.file("sensing.csv"),
        [
            "slot", "symbol", "beam_index", "angle_deg", "best_delay",
            "power_db", "power_db_normalized", "slope", "loss",
        ],
        [
            [
                r["slot"], r["symbol"], r["beam_index"], r["angle_deg"], r["best_delay"],
                r["power_db"], r["power_db_normalized"], r["slope"], r["loss"],
            ]
            for r in result.sensing_rows
        ],
    )
    save_codebook(run.file("codebook.json"), result.codebook, geometry)
    if cfg.get("save_iq", False):
        write_iq(
            run.file("tx_slot.iq"), result.tx.samples, numerology,
            extra={"modulation": result.tx.modulation, "num_beams": len(result.codebook)},
        )
    run.finish("simulate", _resolved(cfg, seed))
    for u in result.per_user:
        print(
            f"user {u['user']} @ {u['angle_deg']:+.1f} deg: EVM {u['evm_percent']:.2f}% "
            f"(genie {u['evm_percent_genie']:.2f}%), BER {u['ber']:.2e}"
        )


def cmd_baseline(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    modulation = _modulation(cfg)
    run = RunDir(args.out)
    sensing_angle = math.radians(cfg.get("sensing_angle_deg", 0.0))
    modes = cfg.get("modes", list(BASELINE_MODES))
    rows = []
    for mode in modes:
        res = run_baseline(
            mode, scene, sensing_angle, sweep, geometry, numerology, opt, search,
            cfg.get("snr_db", 30.0), modulation, seed,
        )
        for u in res["per_user"]:
            rows.append(
                [
                    mode, u["user"], u["evm_percent"], u["evm_percent_genie"], u["ber"],
                    res["sensing"]["amplitude_db_normalized"], res["beam_switches_per_dmrs"],
                ]
            )
        print(
            f"{mode}: user EVM "
            + ", ".join(f"{u['evm_percent']:.2f}%" for u in res["per_user"])
            + f"; sensing level {res['sensing']['amplitude_db_normalized']:.2f} dB; "
            + f"{res['beam_switches_per_dmrs']} switch(es)/DMRS"
        )
    write_csv(
        run.file("baselines.csv"),
        [
            "mode", "user", "evm_percent", "evm_percent_genie", "ber",
            "sensing_amplitude_db", "beam_switches_per_dmrs",
        ],
        rows,
    )
    run.finish("baseline", _resolved(cfg, seed))


def cmd_image(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg, {"layout": "planar"})
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    num_beams = cfg.get("num_beams", 34)
    g = cfg.get("grid_deg", {"start": -15.0, "stop": 15.0, "count": 31})
    _check_keys(g, "grid_deg", ("start", "stop", "count"))
    if g["count"] < 1:
        raise ValueError(f"grid_deg.count {g['count']} must be >= 1")
    az = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    el = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    SubSymbolSchedule.for_numerology(numerology, num_beams)  # fails on a bad num_beams
    run = RunDir(args.out)
    grid = run_imaging(scene, az, el, numerology, geometry, num_beams, opt, search, seed)
    header = ["el_deg\\az_deg"] + [fmt(float(a)) for a in np.degrees(grid.az_angles)]
    rows = [
        [fmt(float(np.degrees(grid.el_angles[j])))] + [grid.power_db[j, i] for i in range(len(az))]
        for j in range(len(el))
    ]
    write_csv(run.file("heatmap.csv"), header, rows)
    write_pgm(run.file("heatmap.pgm"), grid.power_db)
    write_json(
        run.file("imaging_stats.json"),
        {
            "pixels": int(len(az) * len(el)),
            "beams_per_symbol": num_beams,
            "slots_used": grid.slots_used,
            "air_time_ms": grid.air_time_ms,
            "air_time_ms_dmrs_counted": grid.air_time_ms_dmrs,
        },
    )
    run.finish("image", _resolved(cfg, seed))
    print(
        f"{len(az)}x{len(el)} pixels in {grid.slots_used} slots "
        f"({grid.air_time_ms:.3f} ms whole-slot, {grid.air_time_ms_dmrs:.3f} ms DMRS-counted)"
    )


def cmd_localize(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    search = _search(cfg)
    run = RunDir(args.out)
    result = run_localization(geometry, numerology, search, seed, **cfg.get("localization", {}))
    write_json(
        run.file("localization.json"),
        {
            "median_distance_error_m": result["median_distance_error_m"],
            "median_angle_error_deg": result["median_angle_error_deg"],
        },
    )
    write_csv(
        run.file("weights.csv"),
        ["index", "distance_weight", "angle_weight"],
        [
            [i, float(d), float(a)]
            for i, (d, a) in enumerate(zip(result["distance_weights"], result["angle_weights"]))
        ],
    )
    run.finish("localize", _resolved(cfg, seed))
    print(
        f"median distance error {result['median_distance_error_m']:.3f} m; "
        f"median angle error {result['median_angle_error_deg']:.3f} deg"
    )


def cmd_mobility(args, cfg: dict, seed: int) -> None:
    geometry = _geometry(cfg, {"num_elements": 32})
    opt = _optimizer(cfg)
    mob = cfg.get("mobility", {})
    timing = _given(mob, "duration", "tick_interval")
    if "waypoints" in mob:
        waypoints = tuple(tuple(tuple(p) for p in wp) for wp in mob["waypoints"])
        scenario = MobilityScenario(waypoints, **timing)
    else:
        scenario = default_sweep_scenario(**timing)
    base_snrs = mob.get("base_snrs", [1.0] * len(scenario.waypoints))
    if len(base_snrs) != len(scenario.waypoints):
        raise ValueError(
            f"mobility.base_snrs has {len(base_snrs)} values for "
            f"{len(scenario.waypoints)} trajectories"
        )
    sweep = _sweep(cfg, default_count=1)
    run = RunDir(args.out)
    result = run_mobility(
        scenario, base_snrs, sweep, geometry, opt, **_given(mob, "validate_ticks")
    )
    n_users = len(scenario.waypoints)
    header = (
        ["tick", "t"]
        + [f"user{i}_deg" for i in range(n_users)]
        + ["reused", "reoptimized", "min_snr", "sensing_gain_db"]
    )
    rows = [
        [r["tick"], r["t"], *r["angles_deg"], r["reused"], r["reoptimized"],
         r["min_snr"], r["sensing_gain_db"]]
        for r in result["records"]
    ]
    write_csv(run.file("timeseries.csv"), header, rows)
    stats = dict(result["stats"])
    wall = stats.pop("update_wall_seconds")
    write_json(run.file("mobility_stats.json"), stats)
    if args.timing:
        write_csv(
            run.file("timing.csv"),
            ["tick", "update_seconds"],
            [[i + 1, w] for i, w in enumerate(wall)],
        )
    if result["validation"] is not None:
        write_json(run.file("reuse_validation.json"), result["validation"])
    run.finish("mobility", _resolved(cfg, seed))
    print(
        f"{stats['ticks']} ticks: re-optimized on "
        f"{stats['reoptimized_tick_fraction']*100:.1f}% of ticks "
        f"({stats['entries_reoptimized']} entry solves)"
    )


def cmd_bench(args, cfg: dict, seed: int) -> None:
    numerology = _numerology(cfg)
    schedule = SubSymbolSchedule.for_numerology(numerology, cfg.get("num_beams", 34))
    searches = [DelaySearchConfig(n) for n in cfg.get("candidate_grid", [2, 4, 6, 8, 10, 12, 16])]
    repeats = cfg.get("repeats", 20)
    if repeats < 1:
        raise ValueError(f"repeats {repeats} must be >= 1")
    run = RunDir(args.out)
    slot = generate_slot(numerology, "QPSK", seed=seed)
    body = slot.symbol_body(numerology.dmrs_positions()[0])
    rng = np.random.default_rng(seed)
    rx = body + 0.01 * (rng.standard_normal(len(body)) + 1j * rng.standard_normal(len(body)))
    rows = []
    for search in searches:
        n_cand = search.num_candidates
        ops = {}
        secs = {}
        for accelerated in (True, False):
            counter = OpCounter()
            t0 = time.perf_counter()
            for _ in range(repeats):
                estimate_beam_csi(
                    rx, body, schedule, 0, search,
                    counter=counter, accelerated=accelerated,
                )
            secs[accelerated] = (time.perf_counter() - t0) / repeats
            ops[accelerated] = counter.total // repeats
        rows.append([n_cand, ops[True], ops[False], ops[False] / ops[True]])
        print(
            f"candidates={n_cand:3d}: ops {ops[True]:6d} vs {ops[False]:6d} "
            f"(x{ops[False]/ops[True]:.2f}); wall {secs[True]*1e6:7.1f} us vs "
            f"{secs[False]*1e6:7.1f} us"
        )
    write_csv(
        run.file("bench.csv"),
        ["num_candidates", "ops_accelerated", "ops_recompute", "ratio"],
        rows,
    )
    run.finish("bench", _resolved(cfg, seed))


COMMANDS = {
    "codebook": cmd_codebook,
    "pattern": cmd_pattern,
    "tradeoff": cmd_tradeoff,
    "simulate": cmd_simulate,
    "baseline": cmd_baseline,
    "image": cmd_image,
    "localize": cmd_localize,
    "mobility": cmd_mobility,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subbeam",
        description="Sub-symbol beam-switching ISAC simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file", default=None)
        p.add_argument("--out", help="run output directory", default=f"runs/{name}")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "mobility":
            p.add_argument(
                "--timing",
                action="store_true",
                help="also write per-update wall times (non-deterministic)",
            )
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    COMMANDS[args.command](args, cfg, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
