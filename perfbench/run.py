"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload city --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` it measures the end-to-end metrics of one workload
for ``--seconds`` of wall-clock; with ``--trace 1`` it runs the same
units alternately untraced and traced and reports the per-layer
metrics, the tracing overhead, and the inertness and counter
cross-checks. Either way every simulated output passes the
correctness gate first; a run that fails it reports no metrics and
exits 1. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details (sample
counts, environment, gate messages) go to the lines before it and to
``.perfbench/`` in the repository root, as do the traced run's spans.

``--record`` regenerates ``perfbench/reference.json`` (the reference
round and the default and held-out seeds of every workload); do that
only in a change that means to alter simulated behaviour.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - timed from interpreter start
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: The thirteen runtime knobs, pinned to their defaults for every run
#: (one worker process, the single-loop engine); every other REPRO_*
#: variable is removed.
KNOBS = {
    "REPRO_WORKERS": "1", "REPRO_SHARDS": "1",
    "REPRO_SNAPSHOT_CACHE": "1", "REPRO_FASTPATH": "1",
    "REPRO_REVOCATION": "1", "REPRO_EVENT_POOL": "1",
    "REPRO_COMBINE_MEMO": "1", "REPRO_BREAKER": "1",
    "REPRO_HEALTH_RANKING": "1", "REPRO_POPULATION_USERS": "1000",
    "REPRO_POPULATION_LOCALITY": "1", "REPRO_ADMISSION": "1",
    "REPRO_RETRY_BUDGET": "1",
}

#: Seed-derived rounds whose simulated outputs are scored; they follow
#: the reference rounds, which are checked and not scored. Fixed per
#: workload, so the simulated metrics of a seed never depend on how
#: fast the machine is.
SCORED_ROUNDS = {"city": 6, "figure3-sweep": 50, "flash-crowd": 10}

#: Rounds each traced-run pass simulates (reference rounds first).
TRACED_ROUNDS = {"city": 1, "figure3-sweep": 25, "flash-crowd": 1}

#: Fresh processes that measure set-up again, next to this one, spread
#: evenly over the measured window so that they sample the machine's
#: speed across the run, not one moment of it.
SETUP_PROBES = 9


def pin_knobs() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(KNOBS)


def percentile(values, q: float) -> float:
    """The population battery's linear-interpolation percentile."""
    from repro.experiments.population import percentile as interpolate

    return interpolate(sorted(values), q)


# ---------------------------------------------------------------------------
# Simulated outputs: scoring and the correctness gate
# ---------------------------------------------------------------------------


def by_kind(units, values) -> dict:
    """``values(unit)`` concatenated per unit kind (condition or arm)."""
    grouped = {}
    for unit in units:
        grouped.setdefault(unit.kind, []).extend(values(unit))
    return grouped


def kind_percentile(grouped: dict, q: float) -> float:
    """The mean over kinds of each kind's percentile.

    Conditions and arms have PLTs (and trial times) an order of
    magnitude apart, so percentiles of the pooled values sit on the
    boundary between kinds and jump from seed to seed.
    """
    values = [percentile(group, q) for group in grouped.values() if group]
    return statistics.fmean(values) if values else 0.0


def sim_scores(units) -> dict:
    """Simulated metrics of a set of units, with their sample counts.

    Goodput counts loads completed within the overload battery's SLO,
    on every workload.
    """
    from repro.experiments.overload import DEFAULT_CONFIG

    loads = [load for unit in units for load in unit.loads]
    completed = by_kind(units, lambda unit: [
        load.plt_ms for load in unit.loads if not load.failed])
    plts = [plt for group in completed.values() for plt in group]
    return {
        "attempted": len(loads),
        "completed": len(plts),
        "sim_plt_p50_ms": kind_percentile(completed, 0.50),
        "sim_plt_p95_ms": kind_percentile(completed, 0.95),
        "completed_load_share": len(plts) / len(loads),
        "sim_slo_goodput_share": sum(
            1 for plt in plts if plt <= DEFAULT_CONFIG.slo_ms) / len(loads),
    }


def digest(units) -> str:
    """Fingerprint of every simulated output, for bit-identity."""
    text = repr([unit.outputs() for unit in units])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Scored values a reference pins; each must match within the fast
#: path's PLT error bound, and ``attempted`` exactly.
PINNED = ("sim_plt_p50_ms", "sim_plt_p95_ms", "completed_load_share",
          "sim_slo_goodput_share")


def gate(workload, seed: int, units, scored, reference) -> list[str]:
    """Every correctness violation in ``units`` (empty: passed)."""
    from repro.simnet.fastpath import PLT_ERROR_BOUND

    problems = []
    for unit in units:
        for load in unit.loads:
            if load.failed and not workload.loads_may_fail:
                problems.append(f"{unit.label}: a load failed")
                break
            if unit.strict and load.noncompliant_resources:
                problems.append(f"{unit.label}: strict mode loaded "
                                f"{load.noncompliant_resources} "
                                f"non-compliant resource(s)")
                break
        problems += [f"{unit.label}: leak: {leak}" for leak in unit.leaks]

    def compare(label: str, got: dict, want: dict) -> None:
        if got["attempted"] != want["attempted"]:
            problems.append(f"{label}: {got['attempted']} loads, "
                            f"reference {want['attempted']}")
        for name in PINNED:
            if abs(got[name] - want[name]) > PLT_ERROR_BOUND * abs(
                    want[name]):
                problems.append(f"{label}: {name} {got[name]!r} is off "
                                f"reference {want[name]!r} by more "
                                f"than {PLT_ERROR_BOUND:.0%}")

    entry = reference.get(workload.name)
    if entry is None:
        problems.append(f"no reference recorded for {workload.name}")
        return problems
    size = workload.round_size
    for index, want in enumerate(entry["reference_rounds"]):
        round_units = units[index * size:(index + 1) * size]
        if len(round_units) == size:
            compare(f"reference round {index}", sim_scores(round_units),
                    want)
    recorded = entry["seeds"].get(str(seed))
    if recorded is not None and scored is not None:
        compare(f"seed {seed}", scored, recorded)
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def setup_probe(workload, seed: int) -> float:
    """Set-up time of this process: start to the first world, built."""
    workload.build(next(workload.units(seed)))
    return time.perf_counter() - STARTED


def probe_setup(workload, seed: int) -> float:
    """Set-up time of a fresh process (imports and cold caches)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def scored_slice(workload) -> slice:
    """The scored units of a stream: the seeded rounds after the
    reference rounds."""
    first = len(workload.reference_seeds) * workload.round_size
    return slice(first,
                 first + SCORED_ROUNDS[workload.name] * workload.round_size)


def measure(workload, seed: int, seconds: float):
    """The untraced run: end-to-end metrics and every unit run."""
    stream = workload.units(seed)
    first = workload.build(next(stream))
    setups = [time.perf_counter() - STARTED]
    units = [workload.run(first)]
    scored_range = scored_slice(workload)
    walls = {}
    # The window excludes the set-up probes run inside it; the process
    # CPU clock never counts them.
    probing = 0.0
    started = time.perf_counter()
    cpu_started = time.process_time()

    def elapsed() -> float:
        return time.perf_counter() - started - probing

    while len(units) < scored_range.stop or elapsed() < seconds:
        if len(setups) <= SETUP_PROBES and \
                elapsed() >= (len(setups) - 1) * seconds / SETUP_PROBES:
            tick = time.perf_counter()
            setups.append(probe_setup(workload, seed))
            probing += time.perf_counter() - tick
            continue
        tick = time.perf_counter()
        units.append(workload.run(workload.build(next(stream))))
        # Per page load, so that city worlds of different sizes compare.
        walls.setdefault(units[-1].kind, []).append(
            (time.perf_counter() - tick) * 1000.0 / len(units[-1].loads))
    window = elapsed()
    cpu = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) <= SETUP_PROBES:
        setups.append(probe_setup(workload, seed))

    timed_loads = sum(len(unit.loads) for unit in units[1:])
    scored_units = units[scored_range]
    scored = sim_scores(scored_units)
    metrics = {
        "page_loads_per_s": (timed_loads / window, "1/s"),
        "cpu_ms_per_load": (cpu * 1000.0 / timed_loads, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "completed_load_share": (scored["completed_load_share"], "ratio"),
        "sim_plt_p50_ms": (scored["sim_plt_p50_ms"], "ms"),
        "sim_plt_p95_ms": (scored["sim_plt_p95_ms"], "ms"),
        "sim_slo_goodput_share": (scored["sim_slo_goodput_share"], "ratio"),
        "trial_ms_p50": (kind_percentile(walls, 0.50), "ms"),
        "trial_ms_p95": (kind_percentile(walls, 0.95), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    trials = sum(len(group) for group in walls.values())
    samples = {
        "page_loads_per_s": timed_loads, "cpu_ms_per_load": timed_loads,
        "completed_load_share": scored["attempted"],
        "sim_plt_p50_ms": scored["completed"],
        "sim_plt_p95_ms": scored["completed"],
        "sim_slo_goodput_share": scored["attempted"],
        "trial_ms_p50": trials, "trial_ms_p95": trials,
        "setup_s": len(setups),
    }
    details = {"samples": samples,
               "scored_units": [unit.label for unit in scored_units],
               "timed_units": trials, "window_s": window,
               "trial_ms": walls,
               "setups_s": setups, "digest": digest(scored_units)}
    return units, scored, metrics, details


def traced(workload, seed: int, seconds: float):
    """The traced run: untraced and traced passes over the same units."""
    import tracing
    from repro.internet.snapshot import clear_cache

    labels = list(itertools.islice(
        workload.units(seed),
        TRACED_ROUNDS[workload.name] * workload.round_size))
    first = workload.build(labels[0])

    def run_pass(recorder=None, built=None):
        # Every pass builds its control planes cold, as the first did.
        clear_cache()
        patches = tracing.install(recorder) if recorder else None
        try:
            tick = time.perf_counter()
            units = []
            for index, label in enumerate(labels):
                if index == 0 and built is not None:
                    units.append(workload.run(built))
                    continue
                if recorder is None:
                    unit = workload.build(label)
                else:
                    span = recorder.open(recorder.name_id(
                        tracing.SPANS["world"]))
                    try:
                        unit = workload.build(label)
                    finally:
                        recorder.close(span)
                units.append(workload.run(unit))
                if recorder is not None:
                    recorder.harvest()
            return units, time.perf_counter() - tick
        finally:
            if patches is not None:
                patches.restore()

    started = time.perf_counter()
    baseline, _ = run_pass(built=first)
    untraced_walls, traced_walls, problems = [], [], []
    recorder = None
    while not traced_walls or time.perf_counter() - started < seconds:
        pass_recorder = tracing.Recorder()
        units, wall = run_pass(pass_recorder)
        traced_walls.append(wall)
        # Metrics and spans come from the first traced pass; later
        # passes only refine the overhead estimate.
        recorder = recorder or pass_recorder
        if [u.outputs() for u in units] != [u.outputs() for u in baseline]:
            problems.append("tracing changed the simulated outputs")
        again, wall = run_pass()
        untraced_walls.append(wall)
        if [u.outputs() for u in again] != [u.outputs() for u in baseline]:
            problems.append("two untraced passes of one seed differ")
    problems += recorder.cross_check()

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.npz"
    recorder.write(str(spans_path))
    metrics = recorder.metrics()
    untraced_ms = statistics.median(untraced_walls) * 1000.0
    traced_ms = statistics.median(traced_walls) * 1000.0
    metrics.update({
        "trace.overhead_share": (traced_ms / untraced_ms - 1.0, "ratio"),
        "trace.untraced_pass_ms": (untraced_ms, "ms"),
        "trace.traced_pass_ms": (traced_ms, "ms"),
        "trace.spans": (len(recorder.start_col), "count"),
    })
    details = {"passes": len(traced_walls), "units": labels,
               "spans_file": str(spans_path.relative_to(ROOT)),
               "digest": digest(baseline)}
    return baseline, metrics, details, problems


def environment() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "knobs": dict(KNOBS)}


#: Seed used while writing the benchmark, and a seed held out from it
#: to check later claims on, per workload.
RECORDED_SEEDS = {
    "city": {"default": 1, "held_out": 7919},
    "figure3-sweep": {"default": 1, "held_out": 7919},
    "flash-crowd": {"default": 1, "held_out": 7919},
}


def record() -> int:
    """Rewrite reference.json from the current program."""
    import workloads

    reference = {}
    for name, spec in RECORDED_SEEDS.items():
        workload = workloads.WORKLOADS[name]()
        scored = scored_slice(workload)
        entry = {"default_seed": spec["default"],
                 "held_out_seed": spec["held_out"], "seeds": {}}
        size = workload.round_size
        for seed in (spec["default"], spec["held_out"]):
            stream = workload.units(seed)
            units = [workload.run(workload.build(next(stream)))
                     for _ in range(scored.stop)]
            entry["reference_rounds"] = [
                sim_scores(units[index * size:(index + 1) * size])
                for index in range(len(workload.reference_seeds))]
            entry["seeds"][str(seed)] = {**sim_scores(units[scored]),
                                         "digest": digest(units[scored])}
            print(f"recorded {name} seed {seed}", flush=True)
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                         + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("city", "figure3-sweep", "flash-crowd"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    pin_knobs()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(workload, args.seed)}))
        return 0

    reference = json.loads(REFERENCE.read_text())
    if args.trace:
        units, metrics, details, problems = traced(workload, args.seed,
                                                   args.seconds)
        problems = gate(workload, args.seed, units, None, reference) \
            + problems
    else:
        units, scored, metrics, details = measure(workload, args.seed,
                                                  args.seconds)
        problems = gate(workload, args.seed, units, scored, reference)
        recorded = reference.get(workload.name, {}).get("seeds", {}).get(
            str(args.seed))
        if recorded is not None:
            details["bit_identical_to_recorded"] = (
                details["digest"] == recorded["digest"])

    loads = [load for unit in units for load in unit.loads]
    # A session that raised or never finished aborts the run before this
    # point. A page load that ends failed is an operation failed on
    # city and figure3-sweep; on flash-crowd it is the designed outcome
    # (sheds and timeouts), scored by completed_load_share.
    failed = 0 if workload.loads_may_fail else sum(
        1 for load in loads if load.failed)
    report = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "problems": problems, **details,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"cpu_count={os.cpu_count()} python={platform.python_version()} "
          f"knobs={','.join(f'{k}={v}' for k, v in KNOBS.items())}")
    samples = details.get("samples", {})
    for name, (value, unit) in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:<40} {value:>14.4f} {unit}{count}")
    for problem in problems:
        print(f"  GATE: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": len(loads), "failed": failed,
        "metrics": ({name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()}
                    if correct else {})}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
