"""Command-line experiment runner and the one reader of its configs.

Each subcommand reads one JSON config, runs deterministically from the
resolved seed, and writes its outputs (plus a manifest echoing the resolved
config) under the run directory. Re-running with the same config and seed
reproduces every output byte for byte.

``load_config`` checks a config against one key tree, and ``load_scene`` a
scene file against its subtree. Each leaf of the tree is the kind of its
value, with a bound where no callee checks the value before its work, so one
``ValueError`` names every unknown or missing key and every value of the
wrong kind by its full path before any work starts, and no subcommand checks
a value itself. Scene dicts become ``channel.Scene`` objects here, with
degrees and dB converted at this boundary. ``main`` owns the run
directory, which is created at the first output written: a run that fails
before that leaves none.

Every output table (``users.csv``, ``sensing.csv``, ``baselines.csv``,
``timeseries.csv``, ``tradeoff.csv``, ``pattern.csv``, ``heatmap.csv``,
``weights.csv``, ``bench.csv`` and the ``timing.csv`` of ``mobility --timing``)
is a ``runio.Table`` filled where its rows are produced, which names and
orders its own columns, so a subcommand writes each with one ``write_table`` call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, get_type_hints

import numpy as np

from .arrays import LAYOUTS, ArrayGeometry, beamforming_gain
from .channel import PathModel, Reflector, Scene, SceneUser, meters_to_samples
from .codebook import (
    Codebook,
    OptimizerConfig,
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
from .experiments.tradeoff import beam_patterns, epsilon_sweep
from .runio import RunDir, Table, write_json, write_pgm, write_table
from .sensing import DelaySearchConfig, OpCounter, estimate_symbol_csi
from .waveform import MODULATIONS, Numerology, SubSymbolSchedule, generate_slot, write_iq

DEFAULT_SEED = 1


@dataclass(frozen=True)
class _Kind:
    """A leaf of the key tree: the values ``test`` accepts, and whether the key is ``required``."""

    expected: str
    test: Callable[[object], bool]
    required: bool = False


def _one_of(names: tuple) -> _Kind:
    return _Kind(f"one of {', '.join(map(repr, names))}", lambda x: x in names)


# A JSON true or false is neither a number nor an integer.
_NUMBER = _Kind("a number", lambda x: isinstance(x, (int, float)) and not isinstance(x, bool))
_INTEGER = _Kind("an integer", lambda x: isinstance(x, int) and not isinstance(x, bool))
_COUNT = _Kind("an integer >= 1", lambda x: _INTEGER.test(x) and x >= 1)
_BOOL = _Kind("a boolean", lambda x: isinstance(x, bool))
_STRING = _Kind("a string", lambda x: isinstance(x, str))
_GIVEN_NUMBER = replace(_NUMBER, required=True)
_PAIR = _Kind("a [t, deg] pair of numbers",
              lambda x: isinstance(x, list) and len(x) == 2 and all(map(_NUMBER.test, x)))


def _kinds_of(cls) -> dict:
    """Each field of the dataclass ``cls`` with the kind of its annotation."""
    by_type = {int: _INTEGER, float: _NUMBER, frozenset: [_INTEGER]}
    return {name: by_type[t] for name, t in get_type_hints(cls).items()}


# The keys read inside each section: optimizer, search and numerology keys
# are the fields of OptimizerConfig, DelaySearchConfig and Numerology, and
# localization keys are run_localization arguments.
CONFIG_SECTIONS = {
    "geometry": {"layout": _one_of(LAYOUTS), "num_elements": _INTEGER,
                 "planar_shape": [_INTEGER], "spacing": _NUMBER},
    "numerology": _kinds_of(Numerology),
    "optimizer": _kinds_of(OptimizerConfig),
    "search": _kinds_of(DelaySearchConfig),
    "localization": {**dict.fromkeys(("distances_m", "angles_deg", "sweep_deg"), [_NUMBER]),
                     "slots_per_position": _INTEGER, "noise_power": _NUMBER},
    "mobility": {"waypoints": [[_PAIR]], "duration": _NUMBER, "tick_interval": _NUMBER,
                 "base_snrs": [_NUMBER], "validate_ticks": _INTEGER},
}

# The key tree of a config. A node maps each key some subcommand reads to
# its child: a _Kind for a value, a node for an object, a one-item list for a
# list of that child, and a (kind, node) pair for a value that is either a
# list of that kind or that object. One tree serves all subcommands because
# configs are shared between them. A bound sits here only where no callee
# checks the value before the work starts.
_PATH = {"delay_samples": _INTEGER,
         **dict.fromkeys(("delay_meters", "attenuation_db", "phase_deg"), _NUMBER)}
_USER = {"angle_deg": _GIVEN_NUMBER, "base_snr": _NUMBER, "base_snr_db": _NUMBER}
_SCENE = {
    "users": [{**_USER, "path": _PATH}],
    "reflectors": [{"azimuth_deg": _GIVEN_NUMBER, "elevation_deg": _NUMBER, "path": _PATH,
                    "label": _STRING}],
    **dict.fromkeys(("noise_power", "noise_power_db"), _NUMBER),
    "self_interference_inr_db": _Kind("a number or null", lambda x: x is None or _NUMBER.test(x)),
}
_RANGE = {"start": _GIVEN_NUMBER, "stop": _GIVEN_NUMBER, "count": replace(_COUNT, required=True)}
_CONFIG = {
    "seed": _Kind("an integer >= 0", lambda x: _INTEGER.test(x) and x >= 0),
    **dict.fromkeys(("scene_file", "codebook_file"), _STRING),
    **dict.fromkeys(("sensing_angle_deg", "snr_db"), _NUMBER),
    **dict.fromkeys(("moved_users_deg", "epsilons"), [_NUMBER]),
    **dict.fromkeys(("num_beams", "num_slots", "repeats"), _COUNT),
    **dict.fromkeys(("predistort", "save_iq"), _BOOL),
    "modulation": _one_of(tuple(MODULATIONS)),
    "modes": [_STRING],
    "candidate_grid": [_INTEGER],
    **CONFIG_SECTIONS,
    "users": [_USER],
    "sweep_deg": (_Kind("a non-empty list of numbers",
                        lambda x: bool(x) and all(map(_NUMBER.test, x))), _RANGE),
    "grid_deg": _RANGE,
    "pattern_grid_deg": {
        **dict.fromkeys(("start", "stop"), _Kind(
            "a number in [-90, 90]", lambda x: _NUMBER.test(x) and -90 <= x <= 90, required=True
        )),
        "step": _Kind("a number > 0", lambda x: _NUMBER.test(x) and x > 0, required=True),
    },
    "scene": _SCENE,
}


def _errors(value, node, path: str = "") -> list[str]:
    """Each key of ``value`` outside the tree ``node``, each required key it
    lacks and each value or entry of the wrong kind, by full path."""
    if isinstance(node, tuple):
        node = node[0] if isinstance(value, list) else node[1]
    if isinstance(node, _Kind):
        return [] if node.test(value) else [f"{path}: expected {node.expected}, got {value!r}"]
    if isinstance(node, list):
        if not isinstance(value, list):
            return [f"{path}: expected a list, got {value!r}"]
        return [e for i, item in enumerate(value) for e in _errors(item, node[0], f"{path}[{i}]")]
    if not isinstance(value, dict):
        return [f"{path or 'top level'}: expected an object, got {value!r}"]
    prefix = f"{path}." if path else ""
    errors = []
    for key, item in value.items():
        if key in node:
            errors += _errors(item, node[key], prefix + key)
        else:
            errors.append(f"unknown {prefix}{key}")
    required = [k for k, v in node.items() if isinstance(v, _Kind) and v.required]
    return errors + [f"missing {prefix}{k}" for k in required if k not in value]


def _check_key_tree(obj, node: dict, source: str) -> None:
    errors = _errors(obj, node)
    if errors:
        raise ValueError(f"bad key(s) in {source}: {', '.join(errors)}")


def load_config(path: str | None) -> dict:
    """Read a JSON config; raise ValueError naming every key outside the key tree
    and every value or entry of the wrong kind."""
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
        delay = d["delay_samples"]
    else:
        delay = meters_to_samples(d["delay_meters"], sample_rate, 2.0 if round_trip else 1.0)
    return PathModel(
        attenuation=10.0 ** (d.get("attenuation_db", 0.0) / 20.0),
        phase_shift=math.radians(d.get("phase_deg", 0.0)),
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
    return [math.radians(d) for d in degs]


def _one_source(cfg: dict, key: str, *replaced: str) -> None:
    """Raise ValueError when ``key`` is set together with any of the
    ``replaced`` keys it stands in for: their values would be checked and ignored."""
    both = [k for k in replaced if k in cfg]
    if key in cfg and both:
        raise ValueError(f"{key} is set together with {', '.join(both)}, which it replaces")


def _scene(cfg: dict, numerology: Numerology) -> Scene:
    """The config's scene, from ``scene_file`` or the inline ``scene``, not both."""
    _one_source(cfg, "scene_file", "scene")
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
    codebook = build_codebook(users, sweep, geometry, opt)
    save_codebook(run.file("codebook.json"), codebook, geometry)
    _print_codebook(codebook, geometry)
    if moved is not None:
        updated, stats = update_codebook(codebook, moved, geometry, opt)
        save_codebook(run.file("codebook_updated.json"), updated, geometry)
        print(f"update: reused {stats.reused}, re-optimized {stats.reoptimized}")
        _print_codebook(updated, geometry)


def cmd_pattern(args, cfg: dict, seed: int, run: RunDir) -> None:
    _one_source(cfg, "codebook_file", "geometry", "users", "sweep_deg", "optimizer")
    grid_cfg = cfg.get("pattern_grid_deg", {"start": -60.0, "stop": 60.0, "step": 0.5})
    if "codebook_file" in cfg:
        codebook, geometry = load_codebook(cfg["codebook_file"])
    else:
        geometry = _geometry(cfg)
        codebook = build_codebook(_users(cfg), _sweep(cfg), geometry, _optimizer(cfg))
    grid = np.arange(grid_cfg["start"], grid_cfg["stop"] + 1e-9, grid_cfg["step"])
    write_table(run.file("pattern.csv"), beam_patterns(codebook, geometry, grid))
    print(f"wrote pattern.csv with {len(grid)} angles x {len(codebook)} entries")


def cmd_tradeoff(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    opt = _optimizer(cfg)
    users = _users(cfg)
    sensing_angle = math.radians(cfg.get("sensing_angle_deg", 0.0))
    epsilons = cfg.get("epsilons", [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    table = epsilon_sweep(users, sensing_angle, geometry, epsilons, opt)
    write_table(run.file("tradeoff.csv"), table)


def cmd_simulate(args, cfg: dict, seed: int, run: RunDir) -> None:
    geometry = _geometry(cfg)
    numerology = _numerology(cfg)
    opt = _optimizer(cfg)
    search = _search(cfg)
    scene = _scene(cfg, numerology)
    _one_source(cfg, "sweep_deg", "num_beams")
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    result = run_link(
        scene,
        geometry,
        sweep,
        numerology,
        opt,
        search,
        snr_db=cfg.get("snr_db", 30.0),
        modulation=cfg.get("modulation", "64QAM"),
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
    _one_source(cfg, "sweep_deg", "num_beams")
    sweep = _sweep(cfg, default_count=cfg.get("num_beams", 8))
    sensing_angle = math.radians(cfg.get("sensing_angle_deg", 0.0))
    table = run_baseline(
        cfg.get("modes", BASELINE_MODES), scene, sensing_angle, sweep, geometry, numerology,
        opt, search, cfg.get("snr_db", 30.0), cfg.get("modulation", "64QAM"), seed,
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
    az = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    el = np.radians(np.linspace(g["start"], g["stop"], g["count"]))
    grid = run_imaging(
        scene, az, el, numerology, geometry, num_beams, opt, search, seed, **_given(cfg, "repeats")
    )
    write_table(run.file("heatmap.csv"), grid.heatmap())
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
    write_table(run.file("weights.csv"), result.pop("weights"))
    write_json(run.file("localization.json"), result)
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
    sub_len = SubSymbolSchedule.for_numerology(numerology, cfg.get("num_beams", 34)).sub_len
    window = SubSymbolSchedule(1, sub_len, numerology.fft_size)  # the first window alone
    searches = [DelaySearchConfig(n) for n in cfg.get("candidate_grid", [2, 4, 6, 8, 10, 12, 16])]
    repeats = cfg.get("repeats", 20)
    slot = generate_slot(numerology, "QPSK", seed=seed)
    body = slot.symbol_body(numerology.dmrs_positions()[0])
    rng = np.random.default_rng(seed)
    rx = body + 0.01 * (rng.standard_normal(len(body)) + 1j * rng.standard_normal(len(body)))
    table = Table(["num_candidates", "ops_accelerated", "ops_recompute", "ratio"])
    for search in searches:
        n_cand = search.num_candidates
        ops = {}
        secs = {}
        for accelerated in (True, False):
            counter = OpCounter()
            t0 = time.perf_counter()
            for _ in range(repeats):
                estimate_symbol_csi(
                    rx, body, window, search, counter=counter, accelerated=accelerated
                )
            secs[accelerated] = (time.perf_counter() - t0) / repeats
            ops[accelerated] = counter.total // repeats
        table.add(n_cand, ops[True], ops[False], ops[False] / ops[True])
        print(
            f"candidates={n_cand:3d}: ops {ops[True]:6d} vs {ops[False]:6d} "
            f"(x{ops[False]/ops[True]:.2f}); wall {secs[True]*1e6:7.1f} us vs "
            f"{secs[False]*1e6:7.1f} us"
        )
    write_table(run.file("bench.csv"), table)


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
    if args.seed is not None:  # the override takes the kind of the config seed
        _check_key_tree({"seed": args.seed}, _CONFIG, "--seed")
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    run = RunDir(args.out)
    COMMANDS[args.command](args, cfg, seed, run)
    run.finish(args.command, {**cfg, "seed": seed})
    return 0


if __name__ == "__main__":
    sys.exit(main())
