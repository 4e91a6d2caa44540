"""One benchmark run of one workload, in a process of its own.

Started by ``run.py``; not meant to be run by hand. Prints one JSON object
as its last standard-output line. With ``--setup-only`` it measures set-up
(importing ``subbeam``, generating the inputs, building the configs) and
stops there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
GOLDEN_SEED = 1
GOLDEN_PICKS = os.path.join(HERE, "golden", f"localize_picks_seed{GOLDEN_SEED}.json")

QUALITY = ("min_user_snr_db", "sensing_gain_db", "evm_pct", "dist_err_m", "angle_err_deg",
           "reopt_frac")
# Quality metrics that a workload does not produce read this constant; see README.md.
NOT_APPLICABLE = 1.0


def setup(workload: str, seed: int, out_dir: str) -> list[tuple[dict, str]]:
    """Import the package, generate the cases and write their CLI configs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subbeam.cli  # noqa: F401
    from subbeam.waveform import Numerology

    from workloads import check_localize_rank, make_inputs

    cases = []
    os.makedirs(out_dir, exist_ok=True)
    for k, cfg in enumerate(make_inputs(workload, seed)):
        if workload == "localize":
            check_localize_rank(cfg["localization"], len(Numerology().dmrs_positions()))
        cfg_path = os.path.join(out_dir, f"config{k}.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
        cases.append((cfg, cfg_path))
    return cases


STEP_FUNCTIONS = {
    "link": "codebook.optimize_max_min",
    "localize": "sensing.estimate_symbol_csi",
    "mobility": "codebook.update_codebook",
}


class Capture:
    """What the checks and the latency metric need from inside a run.

    ``steps`` holds the (start, end) of every call of the workload's step
    function: one codebook entry solve (``link``), one DMRS symbol's delay
    search (``localize``), one tick's codebook update (``mobility``). The
    speed probe runs between steps. ``picks`` collects the best delays of
    every localize delay search; ``first_search`` the arguments of the
    first delay search, replayed later with an ``OpCounter``.
    """

    def __init__(self, workload: str, probe):
        self.workload = workload
        self.probe = probe
        self.step = STEP_FUNCTIONS[workload]
        self.steps: list[tuple[float, float]] = []
        self.picks: list[list[int]] = []
        self.first_search = None

    def targets(self) -> dict:
        from subbeam import codebook, sensing

        functions = {
            "codebook.optimize_max_min": codebook.optimize_max_min,
            "codebook.update_codebook": codebook.update_codebook,
            "sensing.estimate_symbol_csi": sensing.estimate_symbol_csi,
        }
        names = {self.step}
        if self.workload != "mobility":
            names.add("sensing.estimate_symbol_csi")
        return {functions[n]: (n.split(".")[0], n) for n in names}

    def on_result(self, name: str, args, kwargs, result) -> None:
        if name == "sensing.estimate_symbol_csi":
            picks = [r.best_delay for r in result]
            if self.first_search is None:
                self.first_search = (args, kwargs, picks)
            if self.workload == "localize":
                self.picks.append(picks)

    def timing_wrapper(self, fn, label):
        name = label[1]
        is_step = name == self.step

        def wrapper(*args, **kwargs):
            if is_step:
                self.probe.maybe_probe()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            if is_step:
                self.steps.append((t0, time.perf_counter()))
            self.on_result(name, args, kwargs, result)
            return result

        return wrapper


def run_once(workload: str, cfg_path: str, rep_dir: str, capture: Capture, tracer=None):
    """One CLI run with capture hooks (span tracing instead when ``tracer`` is given).

    Returns the run's start and end times, each next to a speed probe.
    """
    import subbeam.cli
    from layers import annotate
    from spans import Patch, layer_functions, span_wrapper
    from workloads import COMMANDS

    if os.path.exists(rep_dir):
        shutil.rmtree(rep_dir)
    argv = [COMMANDS[workload], "--config", cfg_path, "--out", rep_dir]
    if workload == "mobility":
        argv.append("--timing")
    patch = Patch()
    if tracer is None:
        patch.install(capture.targets(), capture.timing_wrapper)
    else:
        def on_span(name, args, kwargs, result, info):
            annotate(name, args, kwargs, result, info)
            capture.on_result(name, args, kwargs, result)

        make_span = span_wrapper(tracer, on_span)

        def make_wrapper(fn, label):
            # The step function is probed as in an untraced run; the probe
            # gets a span of its own so no layer's self time includes it.
            wrapper = make_span(fn, label)
            if label[1] != capture.step:
                return wrapper

            def probed(*args, **kwargs):
                idx = tracer.open("trace.probe", "probe")
                capture.probe.maybe_probe()
                tracer.close(idx)
                return wrapper(*args, **kwargs)

            return probed

        patch.install(layer_functions(), make_wrapper)
    cli_out = io.StringIO()
    try:
        with contextlib.redirect_stdout(cli_out):
            capture.probe.probe()
            t0 = time.perf_counter()
            if tracer is None:
                rc = subbeam.cli.main(argv)
            else:
                root = tracer.open("cli.main", "cli")
                try:
                    rc = subbeam.cli.main(argv)
                finally:
                    tracer.close(root)
            t1 = time.perf_counter()
            capture.probe.probe()
    finally:
        patch.restore()
    with open(os.path.join(rep_dir, "cli_stdout.txt"), "w") as f:
        f.write(cli_out.getvalue())
    if rc != 0:
        raise RuntimeError(f"subbeam {argv[0]} exited with {rc}")
    return t0, t1


def mobility_update_s(rep_dir: str) -> dict[int, float]:
    """Tick index -> update seconds, for the ticks that re-solved the entry.

    Reused ticks take tens of microseconds and quick and capped re-solves
    form two further clusters, so a median over all ticks falls between
    clusters and jumps from seed to seed; over re-solves it does not.
    """
    import csv

    with open(os.path.join(rep_dir, "timing.csv"), newline="") as f:
        seconds = [float(r["update_seconds"]) for r in csv.DictReader(f)]
    with open(os.path.join(rep_dir, "timeseries.csv"), newline="") as f:
        resolved = [int(r["reoptimized"]) > 0 for r in csv.DictReader(f)]
    return {i: t for i, (t, r) in enumerate(zip(seconds, resolved)) if r}


def same_outputs(dir_a: str, dir_b: str) -> list[str]:
    """Output files that differ between two runs (wall-clock files excluded)."""
    skip = {"timing.csv"}
    names_a = sorted(set(os.listdir(dir_a)) - skip)
    names_b = sorted(set(os.listdir(dir_b)) - skip)
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    _, bad, err = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
    return [f"{n} differs from the first run" for n in bad + err]


def opcounter_failures(capture: Capture) -> list[str]:
    """Replay the first delay search with an OpCounter; its counts must match the model."""
    from subbeam.sensing import OpCounter, estimate_symbol_csi

    from layers import computed_ops, search_shape

    if capture.first_search is None:
        return ["no delay search was captured"]
    args, kwargs, picks = capture.first_search
    counter = OpCounter()
    result = estimate_symbol_csi(*args, **kwargs, counter=counter)
    fft, slide = computed_ops(*search_shape(args, kwargs))
    failures = []
    if (counter.fft_ops, counter.slide_ops) != (fft, slide):
        failures.append(
            f"OpCounter counted fft={counter.fft_ops} slide={counter.slide_ops}, "
            f"model computes fft={fft} slide={slide}"
        )
    if [r.best_delay for r in result] != picks:
        failures.append("replayed delay search picked different delays")
    return failures


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, HERE)

    out_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}")
    cases = setup(args.workload, args.seed, out_dir)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import CHECKS
    from spans import Tracer
    from speed import SpeedProbe

    golden = None
    if args.workload == "localize" and args.seed == GOLDEN_SEED:
        with open(GOLDEN_PICKS) as f:
            golden = json.load(f)

    walls: dict[int, list[float]] = {}
    update_s: list[float] = []
    qualities: list[dict] = []
    failures_seen: list[str] = []
    failed = 0
    tracer = None
    traced_wall = traced_raw_wall = None
    raw_walls: list[float] = []
    kernel_times: list[float] = []
    t_measure = time.perf_counter()
    rep = 0
    while True:
        # Untraced: every case once, then further passes while another run
        # still fits in --seconds. Traced: case 0 untraced, then traced.
        case = 0 if args.trace == 1 else rep % len(cases)
        traced = args.trace == 1 and rep == 1
        cfg, cfg_path = cases[case]
        first_pass = rep < len(cases) and not traced
        rep_dir = os.path.join(out_dir, f"case{case}" if first_pass else f"run{rep}")
        probe = SpeedProbe()
        capture = Capture(args.workload, probe)
        if traced:
            tracer = Tracer()
        t0, t1 = run_once(args.workload, cfg_path, rep_dir, capture, tracer if traced else None)
        raw_wall, wall = t1 - t0, probe.scaled(t0, t1)
        kernel_times += probe.kernel_times()

        captured = {"picks": capture.picks, "golden_picks": golden if case == 0 else None}
        quality, failures = CHECKS[args.workload](cfg, rep_dir, captured)
        step_s = [probe.scaled(a, b) for a, b in capture.steps]
        if args.workload == "mobility" and not traced:
            # The latency is the library's own per-tick figure, rescaled like
            # the tick's call around it.
            stats = mobility_update_s(rep_dir)
            steps = capture.steps
            step_s = [v * step_s[i] / (steps[i][1] - steps[i][0]) for i, v in stats.items()]
        if rep == 0 and args.workload != "mobility":
            failures += opcounter_failures(capture)
        if first_pass:
            qualities.append(quality)
            if capture.picks:
                with open(os.path.join(out_dir, f"picks{case}.json"), "w") as f:
                    json.dump(capture.picks, f, separators=(",", ":"))
        else:
            failures += same_outputs(os.path.join(out_dir, f"case{case}"), rep_dir)
            shutil.rmtree(rep_dir)
        if traced:
            traced_wall, traced_raw_wall = wall, raw_wall
        else:
            walls.setdefault(case, []).append(wall)
            raw_walls.append(raw_wall)
            update_s += step_s
        if failures:
            failed += 1
            failures_seen += [f"run {rep} (case {case}): {msg}" for msg in failures]
        rep += 1
        if args.trace == 1:
            if rep == 2:
                break
        elif rep >= len(cases):
            elapsed = time.perf_counter() - t_measure
            if elapsed / rep > args.seconds - elapsed:
                break

    for msg in failures_seen:
        print(f"FAILED CHECK: {msg}")

    if args.trace == 1:
        from layers import layer_metrics

        with open(os.path.join(out_dir, "spans.json"), "w") as f:
            json.dump(tracer.to_records(), f)
        # Span times are raw; the overhead compares two moments, so it uses
        # the rescaled walls.
        metrics = layer_metrics(tracer.spans, traced_raw_wall, traced_wall - walls[0][0])
        metrics["trace.ref_ms"] = statistics.median(kernel_times) * 1e3
    else:
        metrics = {
            "setup_s": setup_s,
            # Median over repeats of a case, mean over the seed's cases.
            "wall_s": statistics.mean(statistics.median(w) for w in walls.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "update_ms_p50": percentile(update_s, 50) * 1e3,
            "update_ms_p90": percentile(update_s, 90) * 1e3,
            "runs": sum(len(w) for w in walls.values()),
            "raw_wall_s": statistics.mean(raw_walls),
            "probes": len(kernel_times),
            "probe_ms_median": statistics.median(kernel_times) * 1e3,
            "update_samples": len(update_s),
            "not_applicable": [],
        }
        for key in QUALITY:
            values = [q[key] for q in qualities if key in q]
            if values:
                metrics[key] = statistics.mean(values)
            else:
                metrics[key] = NOT_APPLICABLE
                metrics["not_applicable"].append(key)
    print(json.dumps({"attempted": rep, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
