"""Command-line experiment runner and the one reader of its configs.

Each subcommand reads one JSON config, runs deterministically from the
resolved seed, and writes its outputs (plus a manifest echoing the resolved
config) under the run directory. Re-running with the same config and seed
reproduces every output byte for byte.

``load_config`` checks every key of a config against one key tree, and
``load_scene`` a scene file against its subtree, so one ``ValueError`` names
every unknown or missing key and every entry of the wrong kind by its full
path before any work starts. Scene dicts become ``channel.Scene`` objects
here, with degrees and dB converted at this boundary. ``main`` owns the run
directory, which is created at the first output written: a run that fails
before that leaves none.

The experiments return their output tables (``users.csv``, ``sensing.csv``,
``baselines.csv``, ``timeseries.csv``, ``tradeoff.csv`` and the ``timing.csv``
of ``mobility --timing``) as ``runio.Table`` objects that name and order their
own columns, so a subcommand writes each with one ``write_table`` call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from .arrays import ArrayGeometry, beamforming_gain
from .channel import SPEED_OF_LIGHT, PathModel, Reflector, Scene, SceneUser
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
from .runio import RunDir, fmt, write_csv, write_json, write_pgm, write_table
from .sensing import DelaySearchConfig, OpCounter, estimate_beam_csi
from .waveform import Numerology, SubSymbolSchedule, constellation, generate_slot, write_iq

DEFAULT_SEED = 1

# The keys read inside each section: optimizer, search and numerology keys
# are the fields of OptimizerConfig, DelaySearchConfig and Numerology, and
# localization keys are run_localization arguments.
CONFIG_SECTIONS = {
    "geometry": {"layout", "num_elements", "planar_shape", "spacing"},
    "numerology": {f.name for f in fields(Numerology)},
    "optimizer": {f.name for f in fields(OptimizerConfig)},
    "search": {f.name for f in fields(DelaySearchConfig)},
    "localization": {"distances_m", "angles_deg", "slots_per_position", "sweep_deg", "noise_power"},
    "mobility": {"waypoints", "duration", "tick_interval", "base_snrs", "validate_ticks"},
}

# The key tree of a config. A node maps each key some subcommand reads to
# its child: None for a value, _REQUIRED for a value that must be given, a
# node for an object, a one-node list for a list of objects. One tree serves
# all subcommands because configs are shared between them. ``sweep_deg`` is
# either a list of angles (a value) or a range object (_ListOr).
_REQUIRED = "required"


class _ListOr(dict):
    """An object node whose value may instead be a plain list."""


_PATH = dict.fromkeys(("delay_samples", "delay_meters", "attenuation_db", "phase_deg"))
_USER = {"angle_deg": _REQUIRED, "base_snr": None, "base_snr_db": None}
_SCENE = {
    "users": [{**_USER, "path": _PATH}],
    "reflectors": [{"azimuth_deg": _REQUIRED, "elevation_deg": None, "path": _PATH, "label": None}],
    **dict.fromkeys(("noise_power", "noise_power_db", "self_interference_inr_db")),
}
_RANGE = dict.fromkeys(("start", "stop", "count"), _REQUIRED)
_CONFIG = {
    **dict.fromkeys((
        "seed", "scene_file", "target_base_snr", "moved_users_deg", "codebook_file",
        "sensing_angle_deg", "epsilons", "num_beams", "snr_db", "modulation", "num_slots",
        "predistort", "save_iq", "modes", "candidate_grid", "repeats",
    )),
    **{section: dict.fromkeys(keys) for section, keys in CONFIG_SECTIONS.items()},
    "users": [_USER],
    "sweep_deg": _ListOr(_RANGE),
    "grid_deg": _RANGE,
    "pattern_grid_deg": dict.fromkeys(("start", "stop", "step"), _REQUIRED),
    "scene": _SCENE,
}


def _key_errors(obj, node: dict, where: str = "") -> list[str]:
    """Each key of the object ``obj`` outside ``node``, each required key it
    lacks and each entry of the wrong kind, by full path."""
    if not isinstance(obj, dict):
        return [f"{where or 'top level'}: expected an object"]
    prefix = f"{where}." if where else ""
    errors = []
    for key, value in obj.items():
        child = node.get(key)
        if key not in node:
            errors.append(f"unknown {prefix}{key}")
        elif isinstance(child, list) and not isinstance(value, list):
            errors.append(f"{prefix}{key}: expected a list")
        elif isinstance(child, list):
            for i, item in enumerate(value):
                errors += _key_errors(item, child[0], f"{prefix}{key}[{i}]")
        elif isinstance(child, _ListOr) and isinstance(value, list):
            continue  # a plain list is a value
        elif isinstance(child, dict):
            errors += _key_errors(value, child, f"{prefix}{key}")
    errors += [f"missing {prefix}{k}" for k, v in node.items() if v is _REQUIRED and k not in obj]
    return errors


def _check_key_tree(obj, node: dict, source: str) -> None:
    errors = _key_errors(obj, node)
    if errors:
        raise ValueError(f"bad key(s) in {source}: {', '.join(errors)}")


def load_config(path: str | None) -> dict:
    """Read a JSON config; raise ValueError naming every key outside the key tree
    and every entry of the wrong kind."""
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    _check_key_tree(cfg, _CONFIG, path)
    return cfg


def _given(section: dict, *keys: str) -> dict:
    """The entries of ``keys`` that ``section`` sets, so callees keep their defaults."""
    return {k: section[k] for k in keys if k in section}


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


def user_link_from_dict(d: dict) -> UserLink:
    """A user's angle and linear base SNR (``base_snr`` or ``base_snr_db``, else 1)."""
    if "base_snr" in d and "base_snr_db" in d:
        raise ValueError("specify at most one of base_snr / base_snr_db")
    if "base_snr" in d:
        base_snr = d["base_snr"]
    elif "base_snr_db" in d:
        base_snr = 10.0 ** (d["base_snr_db"] / 10.0)
    else:
        base_snr = 1.0
    return UserLink(math.radians(d["angle_deg"]), base_snr)


def _path_from_dict(d: dict, sample_rate: float, round_trip: bool) -> PathModel:
    """A path with its delay in samples; ``delay_meters`` converts one-way for
    users and round-trip for reflectors at ``sample_rate``."""
    if ("delay_samples" in d) == ("delay_meters" in d):
        raise ValueError("specify exactly one of delay_samples / delay_meters")
    if "delay_samples" in d:
        delay = int(d["delay_samples"])
    else:
        trips = 2.0 if round_trip else 1.0
        delay = round(sample_rate * trips * float(d["delay_meters"]) / SPEED_OF_LIGHT)
    return PathModel(
        attenuation=10.0 ** (float(d.get("attenuation_db", 0.0)) / 20.0),
        phase_shift=math.radians(float(d.get("phase_deg", 0.0))),
        delay_samples=delay,
    )


def scene_from_dict(d: dict, sample_rate: float) -> Scene:
    """A scene from a dict whose keys have been checked against the scene subtree."""
    if "noise_power" in d and "noise_power_db" in d:
        raise ValueError("specify at most one of noise_power / noise_power_db")
    users = [
        SceneUser(
            link=user_link_from_dict(u),
            path=_path_from_dict(u.get("path", {"delay_samples": 0}), sample_rate, False),
        )
        for u in d.get("users", [])
    ]
    reflectors = [
        Reflector(
            azimuth=math.radians(r["azimuth_deg"]),
            elevation=math.radians(r.get("elevation_deg", 0.0)),
            path=_path_from_dict(r.get("path", {}), sample_rate, True),
            label=r.get("label", ""),
        )
        for r in d.get("reflectors", [])
    ]
    noise_power = (
        d["noise_power"]
        if "noise_power" in d
        else 10.0 ** (d.get("noise_power_db", -30.0) / 10.0)
    )
    return Scene(
        users=tuple(users),
        reflectors=tuple(reflectors),
        noise_power=noise_power,
        self_interference_inr_db=d.get("self_interference_inr_db", 20.0),
    )


def load_scene(path, sample_rate: float) -> Scene:
    """Read a JSON scene file; raise ValueError naming every key outside the scene subtree."""
    with open(path) as f:
        d = json.load(f)
    _check_key_tree(d, _SCENE, path)
    return scene_from_dict(d, sample_rate)


def _users(cfg: dict) -> list[UserLink]:
    return [user_link_from_dict(u) for u in cfg.get("users", [])]


def _sweep(cfg: dict, default_count: int = 4) -> list[float]:
    s = cfg.get("sweep_deg", {"start": 0.0, "stop": 15.0, "count": default_count})
    degs = s if isinstance(s, list) else np.linspace(s["start"], s["stop"], s["count"]).tolist()
    if not degs:
        raise ValueError("config: sweep_deg is empty")
    return [math.radians(d) for d in degs]


def _modulation(cfg: dict) -> str:
    modulation = cfg.get("modulation", "64QAM")
    constellation(modulation)  # fails on an unknown modulation
    return modulation


def _scene(cfg: dict, numerology: Numerology) -> Scene:
    """The config's scene, from ``scene_file`` or the inline ``scene``."""
    if "scene_file" in cfg:
        return load_scene(cfg["scene_file"], numerology.sample_rate)
    return scene_from_dict(cfg.get("scene", {}), numerology.sample_rate)


def _print_codebook(codebook: Codebook, geometry: ArrayGeometry) -> None:
    print("entry  angle_deg  sensing_gain_db  min_user_snr_db  converged")
    for i, e in enumerate(codebook.entries):
        gain = beamforming_gain(e.weights, geometry, e.sensing_angle)
        min_db = "inf" if math.isinf(e.min_snr) else f"{10*math.log10(max(e.min_snr,1e-30)):.2f}"
        print(
            f"{i:5d}  {math.degrees(e.sensing_angle):9.2f}  "
            f"{10*math.log10(gain):15.2f}  {min_db:>15s}  {e.converged}"
        )


def cmd_codebook(args, cfg: dict, seed: int, run: RunDir) -> None:
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
    codebook = build_codebook(users, sweep, cfg.get("target_base_snr", 1.0), geometry, opt)
    save_codebook(run.file("codebook.json"), codebook, geometry)
    _print_codebook(codebook, geometry)
    if moved is not None:
        updated, stats = update_codebook(codebook, moved, geometry, opt)
        save_codebook(run.file("codebook_updated.json"), updated, geometry)
        print(f"update: reused {stats.reused}, re-optimized {stats.reoptimized}")
        _print_codebook(updated, geometry)


def cmd_pattern(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    sweep = _sweep(cfg)
    grid_cfg = cfg.get("pattern_grid_deg", {"start": -60.0, "stop": 60.0, "step": 0.5})
    if grid_cfg["step"] <= 0:
        raise ValueError(f"pattern_grid_deg.step {grid_cfg['step']} must be > 0")
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
    print(f"wrote pattern.csv with {len(rows)} angles x {len(beams)} entries")


def cmd_tradeoff(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    target = SensingTarget(math.radians(cfg.get("sensing_angle_deg", 0.0)))
    epsilons = cfg.get("epsilons", [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    table = epsilon_sweep(users, target, geometry, epsilons, opt)
    write_table(run.file("tradeoff.csv"), table)


def cmd_simulate(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    modulation = _modulation(cfg)
    if cfg.get("num_slots", 1) < 1:
        raise ValueError(f"num_slots {cfg['num_slots']} must be >= 1")
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
    write_table(run.file("users.csv"), result.per_user)
    write_table(run.file("sensing.csv"), result.sensing_rows)
    save_codebook(run.file("codebook.json"), result.codebook, geometry)
    if cfg.get("save_iq", False):
        write_iq(
            run.file("tx_slot.iq"), result.tx.samples, numerology,
            extra={"modulation": result.tx.modulation, "num_beams": len(result.codebook)},
        )


def cmd_baseline(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    modulation = _modulation(cfg)
    sensing_angle = math.radians(cfg.get("sensing_angle_deg", 0.0))
    table = run_baseline(
        cfg.get("modes", BASELINE_MODES), scene, sensing_angle, sweep, geometry, numerology,
        opt, search, cfg.get("snr_db", 30.0), modulation, seed,
    )
    write_table(run.file("baselines.csv"), table)


def cmd_image(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg, {"layout": "planar"})
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    num_beams = cfg.get("num_beams", 34)
    g = cfg.get("grid_deg", {"start": -15.0, "stop": 15.0, "count": 31})
    if g["count"] < 1:
        raise ValueError(f"grid_deg.count {g['count']} must be >= 1")
    az = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    el = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
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
    print(
        f"{len(az)}x{len(el)} pixels in {grid.slots_used} slots "
        f"({grid.air_time_ms:.3f} ms whole-slot, {grid.air_time_ms_dmrs:.3f} ms DMRS-counted)"
    )


def cmd_localize(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    search = _search(cfg)
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
    print(
        f"median distance error {result['median_distance_error_m']:.3f} m; "
        f"median angle error {result['median_angle_error_deg']:.3f} deg"
    )


def cmd_mobility(args, cfg: dict, seed: int, run: RunDir) -> None:
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
    result = run_mobility(
        scenario, base_snrs, sweep, geometry, opt, **_given(mob, "validate_ticks")
    )
    write_table(run.file("timeseries.csv"), result["records"])
    stats = result["stats"]
    write_json(run.file("mobility_stats.json"), stats)
    if args.timing:
        write_table(run.file("timing.csv"), result["timing"])
    if result["validation"] is not None:
        write_json(run.file("reuse_validation.json"), result["validation"])
    print(
        f"{stats['ticks']} ticks: re-optimized on "
        f"{stats['reoptimized_tick_fraction']*100:.1f}% of ticks "
        f"({stats['entries_reoptimized']} entry solves)"
    )


def cmd_bench(args, cfg: dict, seed: int, run: RunDir) -> None:
    numerology = _numerology(cfg)
    schedule = SubSymbolSchedule.for_numerology(numerology, cfg.get("num_beams", 34))
    searches = [DelaySearchConfig(n) for n in cfg.get("candidate_grid", [2, 4, 6, 8, 10, 12, 16])]
    repeats = cfg.get("repeats", 20)
    if repeats < 1:
        raise ValueError(f"repeats {repeats} must be >= 1")
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
    run = RunDir(args.out)
    COMMANDS[args.command](args, cfg, seed, run)
    run.finish(args.command, {**cfg, "seed": seed})
    return 0


if __name__ == "__main__":
    sys.exit(main())
