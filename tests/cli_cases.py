"""Shared CLI experiment configurations for determinism checks."""

SIM_CFG = {
    "geometry": {"layout": "ula", "num_elements": 16},
    "scene": {
        "users": [
            {"angle_deg": -30, "path": {"attenuation_db": 0, "phase_deg": 10, "delay_samples": 3}},
            {"angle_deg": 30, "path": {"attenuation_db": 0, "phase_deg": -20, "delay_samples": 4}},
        ],
        "reflectors": [
            {"label": "sheet", "azimuth_deg": 5, "path": {"attenuation_db": -6, "delay_samples": 5}}
        ],
        "noise_power_db": -80,
        "self_interference_inr_db": 20,
    },
    "sweep_deg": {"start": -15, "stop": 15, "count": 8},
    "snr_db": 30,
    "modulation": "64QAM",
    "seed": 7,
}

IMG_CFG = {
    "geometry": {"layout": "planar", "planar_shape": [8, 8]},
    "scene": {
        "reflectors": [
            {"azimuth_deg": 4, "elevation_deg": 0, "path": {"attenuation_db": 0, "delay_samples": 3}}
        ],
        "noise_power_db": -70,
        "self_interference_inr_db": None,
    },
    "grid_deg": {"start": -8, "stop": 8, "count": 9},
    "num_beams": 34,
    "seed": 3,
}

MOB_CFG = {
    "geometry": {"layout": "ula", "num_elements": 32},
    "optimizer": {"epsilon": 0.5, "snr_match_tol": 2.0},
    "sweep_deg": [0.0],
    "mobility": {"duration": 0.25, "tick_interval": 0.005, "validate_ticks": 2},
    "seed": 4,
}

LOC_CFG = {
    "geometry": {"layout": "ula", "num_elements": 16},
    "localization": {
        "distances_m": [1.0, 2.0, 3.0, 4.0, 5.0],
        "angles_deg": [-10, -5, 0, 5, 10],
        "slots_per_position": 4,
        "sweep_deg": [-12, -8, -4, 0, 4, 8, 12],
    },
    "seed": 9,
}

TRADE_CFG = {
    "geometry": {"layout": "ula", "num_elements": 16},
    "users": [{"angle_deg": -30}, {"angle_deg": 30}],
    "sensing_angle_deg": 0.0,
    "epsilons": [0.0, 0.5, 1.0],
    "seed": 3,
}

CODEBOOK_CFG = {
    "geometry": {"layout": "ula", "num_elements": 16},
    "users": [{"angle_deg": -30}, {"angle_deg": 30}],
    "sweep_deg": {"start": 0, "stop": 10, "count": 3},
    "moved_users_deg": [-28, 30],
    "seed": 2,
}

BASE_CFG = {
    "geometry": {"layout": "ula", "num_elements": 16},
    "scene": SIM_CFG["scene"],
    "sweep_deg": {"start": -15, "stop": 15, "count": 8},
    "seed": 5,
}

BENCH_CFG = {"candidate_grid": [4, 10], "repeats": 2, "seed": 1}

# A grid of one angle: the heatmap's three columns share the name 0.0.
IMG_ONE_ANGLE_CFG = {
    **IMG_CFG,
    "scene": {**IMG_CFG["scene"],
              "reflectors": [{**IMG_CFG["scene"]["reflectors"][0], "azimuth_deg": 0}]},
    "grid_deg": {"start": 0, "stop": 0, "count": 3},
}

# (case, subcommand, config); each case's outputs are hashed in cli_hashes.json.
CASES = [
    ("simulate", "simulate", SIM_CFG),
    ("image", "image", IMG_CFG),
    ("mobility", "mobility", MOB_CFG),
    ("localize", "localize", LOC_CFG),
    ("tradeoff", "tradeoff", TRADE_CFG),
    ("codebook", "codebook", CODEBOOK_CFG),
    ("baseline", "baseline", BASE_CFG),
    ("bench", "bench", BENCH_CFG),
    ("pattern", "pattern", CODEBOOK_CFG),
    ("image_one_angle", "image", IMG_ONE_ANGLE_CFG),
]
