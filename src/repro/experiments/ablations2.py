"""Component ablation harness: leave-one-out importance + contracts.

Every optional subsystem this repo has grown — the hybrid-fidelity fast
path, the control-plane snapshot cache, revocation dissemination, event
pooling, the combine-segments memo, the proxy's circuit breakers, the
daemon's health ranking, tracing, population revisit locality,
admission control in the shared path services, the proxy's per-client
retry budget — is registered here as a :class:`Component` with three
declarative facts:

* **its toggle** — the ``REPRO_*`` environment knob (or, for tracing,
  the ``obs=`` kwarg) that switches it, resolved by the uniform rules in
  :mod:`repro.internet.knobs`;
* **its correctness contract** — ``bit_identical`` (flipping the toggle
  must not change a single sample of the fault-free Figure 3 slice) or
  ``statistically_equivalent`` (the fast path: jitter-free per-seed PLT
  within :data:`~repro.simnet.fastpath.PLT_ERROR_BOUND`);
* **the metrics it is expected to move** — PLT, TTR, events/sec, trial
  wall-clock — measured on the battery where the component matters
  (the Figure 3 slice, or the resilience battery for the
  failure-handling components).

:func:`run_ablations` then auto-generates one baseline run plus one
leave-one-out run per component, computes per-component importance
deltas (with p50/p95 spread of the per-seed paired deltas), verifies
every contract *exactly*, and collects in-process **evidence** that each
toggle actually took effect (``internet.fastpath is None``, a bypass
counter moved, a memo stayed cold, …) so an ablation can never silently
measure the wrong thing. Components whose off-run raises are reported
as ``error`` rows at the top of the ranking instead of being dropped.

Toggles are applied *inside* the trial functions (via
:func:`repro.internet.knobs.forced_many`), so serial and worker-pool
runs see identical environments and stay bit-identical — the
parametrized differential tests pin that. Batteries run sequentially
with ``workers=1`` by default so per-run wall-clock deltas are honest.

Usage::

    python -m repro.experiments.ablations2 --selftest      # CI gate, <10 s
    python -m repro.experiments.ablations2 [--trials N] [--json PATH]
    python -m repro.experiments.run_all --ablate           # full battery

Exit status 1 when any contract fails or any component run errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from repro.core.skip.breaker import BREAKER_ENV
from repro.core.skip.retry_budget import RETRY_BUDGET_ENV
from repro.experiments.harness import run_samples
from repro.internet.knobs import forced_many
from repro.internet.snapshot import SNAPSHOT_CACHE_ENV
from repro.scion.admission import ADMISSION_ENV
from repro.scion.combinator import COMBINE_MEMO_ENV, combine_segments
from repro.scion.health import HEALTH_RANKING_ENV
from repro.scion.revocation import REVOCATION_ENV
from repro.simnet.events import EVENT_POOL_ENV
from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND
from repro.workload.session import LOCALITY_ENV

#: Contract kinds.
BIT_IDENTICAL = "bit_identical"
STATISTICALLY_EQUIVALENT = "statistically_equivalent"

#: Batteries importance is measured on.
FIGURE3 = "figure3"
RESILIENCE = "resilience"
POPULATION = "population"
OVERLOAD = "overload"


@dataclass(frozen=True)
class Component:
    """One toggleable feature and the facts the harness needs about it.

    Attributes:
        name: stable identifier (report/JSON key).
        knob: the ``REPRO_*`` environment variable switching it, or
            ``None`` when the toggle is a build kwarg (tracing's
            ``obs=``).
        contract: what disabling promises — :data:`BIT_IDENTICAL` or
            :data:`STATISTICALLY_EQUIVALENT` — always stated against
            the fault-free Figure 3 slice.
        battery: where importance is measured (:data:`FIGURE3` or
            :data:`RESILIENCE` — the failure-handling components only
            matter under churn).
        metrics: run-level metrics this component is expected to move;
            the ranking score is the largest of their deltas.
        default_on: the component's default state; the leave-one-out
            run flips it (tracing defaults *off*, so its ablation turns
            it on and measures the overhead).
        context: extra knob pins for the *importance* measurement only,
            applied to both the context baseline and the off-run. The
            circuit breaker and health ranking use this to pin
            revocation off: with dissemination on, failures never reach
            the proxy, so a plain leave-one-out would report zero
            importance for components that only act under discovery-led
            recovery. Contracts are always verified without context.
        description: one line for the report.
    """

    name: str
    knob: str | None
    contract: str
    battery: str
    metrics: tuple[str, ...]
    default_on: bool = True
    context: tuple[tuple[str, bool], ...] = ()
    description: str = ""

    @property
    def ablated_state(self) -> bool:
        """The non-default state the leave-one-out run pins."""
        return not self.default_on


#: The registry: every toggleable component, in rough dependency order.
COMPONENTS: tuple[Component, ...] = (
    Component(
        name="fastpath", knob=FASTPATH_ENV,
        contract=STATISTICALLY_EQUIVALENT, battery=FIGURE3,
        metrics=("plt_ms", "events_per_s", "wallclock_ms"),
        description="hybrid-fidelity analytic transfers over the "
                    "packet-level oracle"),
    Component(
        name="snapshot_cache", knob=SNAPSHOT_CACHE_ENV,
        contract=BIT_IDENTICAL, battery=FIGURE3,
        metrics=("wallclock_ms",),
        description="cross-trial control-plane snapshot cache"),
    Component(
        name="event_pooling", knob=EVENT_POOL_ENV,
        contract=BIT_IDENTICAL, battery=FIGURE3,
        metrics=("wallclock_ms", "events_per_s"),
        description="event/timeout object recycling in the loop"),
    Component(
        name="combine_memo", knob=COMBINE_MEMO_ENV,
        contract=BIT_IDENTICAL, battery=FIGURE3,
        metrics=("wallclock_ms",),
        description="per-store memo of combined end-to-end paths"),
    Component(
        name="tracing", knob=None,
        contract=BIT_IDENTICAL, battery=FIGURE3,
        metrics=("wallclock_ms",), default_on=False,
        description="cross-layer span/metrics tracing (obs=True)"),
    Component(
        name="revocation", knob=REVOCATION_ENV,
        contract=BIT_IDENTICAL, battery=RESILIENCE,
        metrics=("ttr_ms", "plt_ms", "failed_requests"),
        description="SCMP-style network-wide revocation dissemination"),
    Component(
        name="circuit_breaker", knob=BREAKER_ENV,
        contract=BIT_IDENTICAL, battery=RESILIENCE,
        metrics=("ttr_ms", "plt_ms", "failed_requests"),
        context=((REVOCATION_ENV, False),),
        description="per-path circuit breakers in the SKIP proxy"),
    Component(
        name="health_ranking", knob=HEALTH_RANKING_ENV,
        contract=BIT_IDENTICAL, battery=RESILIENCE,
        metrics=("ttr_ms", "plt_ms", "failed_requests"),
        context=((REVOCATION_ENV, False),),
        description="observed-health demotion in daemon path ranking"),
    Component(
        name="population_locality", knob=LOCALITY_ENV,
        contract=BIT_IDENTICAL, battery=POPULATION,
        metrics=("daemon_hit_rate", "p99_plt_ms", "pool_wait_ms"),
        description="revisit locality in population session plans "
                    "(warm daemon caches + HTTP pools)"),
    Component(
        name="admission_control", knob=ADMISSION_ENV,
        contract=BIT_IDENTICAL, battery=OVERLOAD,
        metrics=("goodput_ratio", "retry_amplification", "drain_ms",
                 "shed_fraction"),
        description="bounded queues + load shedding in the shared "
                    "path daemon/server (only acts under overload)"),
    Component(
        name="retry_budget", knob=RETRY_BUDGET_ENV,
        contract=BIT_IDENTICAL, battery=OVERLOAD,
        metrics=("goodput_ratio", "retry_amplification", "drain_ms"),
        description="per-client retry token bucket + seeded backoff "
                    "jitter in the SKIP proxy"),
)


def component(name: str) -> Component:
    """Look up a registered component by name."""
    for comp in COMPONENTS:
        if comp.name == name:
            return comp
    raise KeyError(f"unknown component {name!r}")


def default_knob_states(components: tuple[Component, ...] = COMPONENTS
                        ) -> dict[str, bool]:
    """Every registered env knob pinned to its default.

    Both the baseline and each leave-one-out run pin *all* knobs, so
    the harness measures the registry's defaults — not whatever
    ``REPRO_*`` happens to be set in the ambient environment.
    """
    return {comp.knob: comp.default_on
            for comp in components if comp.knob is not None}


# -- trial functions (module-level: the worker pool pickles them) ---------


def figure3_ablation_trial(overrides: tuple[tuple[str, bool], ...],
                           condition: str, n_resources: int, obs: bool,
                           jitter: bool, seed: int) -> tuple[float, float]:
    """One Figure 3 trial under pinned knobs.

    Returns ``(plt_ms, loop_events)``. The knobs are forced *inside*
    the trial so spawned pool workers see exactly the same environment
    as a serial run, and are restored afterwards (the shared pool's
    workers persist across batteries).
    """
    from repro.experiments import local_setup

    calibration = local_setup.DEFAULT_CALIBRATION
    if not jitter:
        calibration = dataclasses.replace(calibration, host_jitter_ms=0.0)
    with forced_many(dict(overrides)):
        return local_setup.figure3_trial_events(
            condition, seed, n_resources=n_resources,
            calibration=calibration, obs=obs)


def resilience_ablation_trial(overrides: tuple[tuple[str, bool], ...],
                              loads: int, seed: int
                              ) -> tuple[float, float, float, float]:
    """One resilience-battery churn session under pinned knobs.

    ``revocation=None`` defers the world's revocation switch to the
    pinned environment, so the same trial function serves every
    component's leave-one-out run.
    """
    from repro.experiments.resilience_battery import resilience_trial

    with forced_many(dict(overrides)):
        return resilience_trial(None, "opportunistic", seed, loads=loads)


def population_ablation_trial(overrides: tuple[tuple[str, bool], ...],
                              users: int, sites: int, seed: int
                              ) -> tuple[float, float, float, float]:
    """One opportunistic population trial under pinned knobs.

    Returns ``(p99_plt_ms, p50_plt_ms, daemon_hit_rate, pool_wait_ms)``
    — p99 first so the paired-delta spread tracks the tail. The arrival
    window is compressed so even the selftest slice carries real
    concurrency (and therefore real pool contention).
    """
    from repro.experiments.population import population_trial
    from repro.workload.arrivals import ArrivalCurve

    with forced_many(dict(overrides)):
        sample = population_trial(
            "opportunistic-SCION", seed, users=users, sites=sites,
            arrival=ArrivalCurve(window_ms=3_000.0))
    return (sample.plt_p99_ms, sample.plt_p50_ms,
            sample.daemon_cache_hit_rate, sample.pool_wait_ms)


def overload_ablation_trial(overrides: tuple[tuple[str, bool], ...],
                            seed: int) -> tuple[float, float, float, float]:
    """One protections-on flash-crowd trial under pinned knobs.

    The leave-one-out run flips exactly one protection off while the
    rest of the stack stays at its defaults — the ablation measures
    what *that* protection contributes to surviving the spike. Returns
    ``(goodput_ratio, retry_amplification, shed_fraction, drain_ms)``.
    """
    from repro.experiments.overload import overload_trial

    with forced_many(dict(overrides)):
        sample = overload_trial("protections-on", seed)
    return (sample.goodput_ratio, sample.retry_amplification,
            sample.shed_fraction, sample.time_to_drain_ms)


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class AblationConfig:
    """Sizing of one ablation sweep.

    ``workers`` defaults to 1: batteries run one at a time so each
    run's wall-clock (and hence every ``wallclock_ms`` delta) is an
    honest single-stream measurement. Samples are bit-identical at any
    worker count — only the timing column gets noisier.
    """

    conditions: tuple[str, ...]
    trials: int = 8
    base_seed: int = 100
    n_resources: int = 12
    resilience_trials: int = 4
    resilience_base_seed: int = 4200
    resilience_loads: int = 6
    population_trials: int = 2
    population_base_seed: int = 910
    population_users: int = 60
    population_sites: int = 20
    overload_trials: int = 2
    overload_base_seed: int = 1300
    contract_trials: int = 2
    workers: int = 1

    @property
    def seeds(self) -> range:
        return range(self.base_seed, self.base_seed + self.trials)

    @property
    def resilience_seeds(self) -> range:
        return range(self.resilience_base_seed,
                     self.resilience_base_seed + self.resilience_trials)

    @property
    def population_seeds(self) -> range:
        return range(self.population_base_seed,
                     self.population_base_seed + self.population_trials)

    @property
    def overload_seeds(self) -> range:
        return range(self.overload_base_seed,
                     self.overload_base_seed + self.overload_trials)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def full_config(workers: int = 1) -> AblationConfig:
    """The full sweep ``run_all --ablate`` uses."""
    from repro.experiments.local_setup import FIGURE3_CONDITIONS
    from repro.experiments.resilience_battery import SESSION_LOADS

    return AblationConfig(conditions=tuple(FIGURE3_CONDITIONS),
                          trials=8, n_resources=12,
                          resilience_trials=4,
                          resilience_loads=SESSION_LOADS,
                          contract_trials=2, workers=workers)


def selftest_config(workers: int = 1) -> AblationConfig:
    """A small slice the CI gate finishes in seconds."""
    return AblationConfig(conditions=("SCION-only", "mixed SCION-IP"),
                          trials=3, n_resources=6,
                          resilience_trials=2, resilience_loads=3,
                          population_trials=1, population_users=10,
                          population_sites=8, overload_trials=1,
                          contract_trials=2, workers=workers)


# -- battery runs ----------------------------------------------------------


@dataclass(frozen=True)
class BatteryRun:
    """One battery sweep under one knob assignment."""

    battery: str
    #: Flat sample tuples in deterministic submission order.
    samples: tuple[tuple[float, ...], ...]
    wallclock_ms: float
    #: Run-level metrics derived from the samples + wall-clock.
    metrics: dict[str, float]


def _figure3_metrics(samples: list[tuple[float, float]],
                     wallclock_ms: float) -> dict[str, float]:
    plts = [row[0] for row in samples]
    events = sum(row[1] for row in samples)
    return {
        "plt_ms": sum(plts) / len(plts),
        "events_total": events,
        "events_per_s": events / (wallclock_ms / 1000.0)
        if wallclock_ms else 0.0,
        "wallclock_ms": wallclock_ms,
    }


def _resilience_metrics(samples: list[tuple[float, float, float, float]],
                        wallclock_ms: float) -> dict[str, float]:
    return {
        "ttr_ms": sum(row[0] for row in samples) / len(samples),
        "plt_ms": sum(row[1] for row in samples) / len(samples),
        "failed_requests": sum(row[2] for row in samples),
        "lost_requests": sum(row[3] for row in samples),
        "wallclock_ms": wallclock_ms,
    }


def _population_metrics(samples: list[tuple[float, float, float, float]],
                        wallclock_ms: float) -> dict[str, float]:
    return {
        "p99_plt_ms": sum(row[0] for row in samples) / len(samples),
        "p50_plt_ms": sum(row[1] for row in samples) / len(samples),
        "daemon_hit_rate": sum(row[2] for row in samples) / len(samples),
        "pool_wait_ms": sum(row[3] for row in samples),
        "wallclock_ms": wallclock_ms,
    }


def _overload_metrics(samples: list[tuple[float, float, float, float]],
                      wallclock_ms: float) -> dict[str, float]:
    return {
        "goodput_ratio": sum(row[0] for row in samples) / len(samples),
        "retry_amplification": sum(row[1] for row in samples) / len(samples),
        "shed_fraction": sum(row[2] for row in samples) / len(samples),
        "drain_ms": sum(row[3] for row in samples) / len(samples),
        "wallclock_ms": wallclock_ms,
    }


def battery_label(battery: str, context: tuple[tuple[str, bool], ...] = ()
                  ) -> str:
    """Display/baseline key for a battery under extra context pins."""
    if not context:
        return battery
    pins = ",".join(f"{name}={'1' if on else '0'}"
                    for name, on in context)
    return f"{battery}({pins})"


def run_battery(battery: str, overrides: dict[str, bool],
                config: AblationConfig, obs: bool = False) -> BatteryRun:
    """Run one battery sweep under ``overrides``; deterministic samples."""
    pinned = tuple(sorted(overrides.items()))
    started = time.perf_counter()
    if battery == FIGURE3:
        samples: list[tuple[float, ...]] = []
        for condition in config.conditions:
            trial = functools.partial(figure3_ablation_trial, pinned,
                                      condition, config.n_resources, obs,
                                      True)
            samples.extend(run_samples(trial, config.seeds,
                                       workers=config.workers))
        wallclock_ms = (time.perf_counter() - started) * 1000.0
        return BatteryRun(battery=battery, samples=tuple(samples),
                          wallclock_ms=wallclock_ms,
                          metrics=_figure3_metrics(samples, wallclock_ms))
    if battery == RESILIENCE:
        trial = functools.partial(resilience_ablation_trial, pinned,
                                  config.resilience_loads)
        samples = list(run_samples(trial, config.resilience_seeds,
                                   workers=config.workers))
        wallclock_ms = (time.perf_counter() - started) * 1000.0
        return BatteryRun(battery=battery, samples=tuple(samples),
                          wallclock_ms=wallclock_ms,
                          metrics=_resilience_metrics(samples, wallclock_ms))
    if battery == POPULATION:
        trial = functools.partial(population_ablation_trial, pinned,
                                  config.population_users,
                                  config.population_sites)
        samples = list(run_samples(trial, config.population_seeds,
                                   workers=config.workers))
        wallclock_ms = (time.perf_counter() - started) * 1000.0
        return BatteryRun(battery=battery, samples=tuple(samples),
                          wallclock_ms=wallclock_ms,
                          metrics=_population_metrics(samples, wallclock_ms))
    if battery == OVERLOAD:
        trial = functools.partial(overload_ablation_trial, pinned)
        samples = list(run_samples(trial, config.overload_seeds,
                                   workers=config.workers))
        wallclock_ms = (time.perf_counter() - started) * 1000.0
        return BatteryRun(battery=battery, samples=tuple(samples),
                          wallclock_ms=wallclock_ms,
                          metrics=_overload_metrics(samples, wallclock_ms))
    raise ValueError(f"unknown battery {battery!r}")


# -- importance ------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def metric_deltas(base: dict[str, float], off: dict[str, float]
                  ) -> dict[str, dict[str, float | None]]:
    """Per-metric ``{base, off, delta_abs, delta_pct}`` rows.

    ``delta_pct`` is ``None`` when the baseline is zero (count metrics
    like ``failed_requests`` under a clean baseline) — consumers fall
    back to the absolute delta.
    """
    rows: dict[str, dict[str, float | None]] = {}
    for name, base_value in base.items():
        off_value = off.get(name)
        if off_value is None:
            continue
        delta_abs = off_value - base_value
        delta_pct = (delta_abs / base_value * 100.0) if base_value else None
        rows[name] = {"base": base_value, "off": off_value,
                      "delta_abs": delta_abs, "delta_pct": delta_pct}
    return rows


def sample_delta_spread(base: BatteryRun, off: BatteryRun
                        ) -> dict[str, float]:
    """p50/p95 of the per-seed paired deltas on the primary sample
    metric (PLT for Figure 3 runs, TTR for resilience runs)."""
    deltas = []
    for base_row, off_row in zip(base.samples, off.samples):
        if base_row[0]:
            deltas.append((off_row[0] - base_row[0]) / base_row[0] * 100.0)
    return {"p50": percentile(deltas, 50.0),
            "p95": percentile(deltas, 95.0)}


def rank_score(comp: Component,
               deltas: dict[str, dict[str, float | None]]) -> float:
    """The largest movement among the component's declared metrics —
    percentage where defined, absolute for zero-baseline counts."""
    score = 0.0
    for name in comp.metrics:
        row = deltas.get(name)
        if row is None:
            continue
        value = row["delta_pct"]
        if value is None:
            value = row["delta_abs"]
        score = max(score, abs(float(value)))
    return score


# -- contracts -------------------------------------------------------------


def _contract_probe(overrides: dict[str, bool], config: AblationConfig,
                    obs: bool, jitter: bool) -> tuple:
    """The small fault-free Figure 3 slice contracts are stated on."""
    pinned = tuple(sorted(overrides.items()))
    seeds = range(config.base_seed,
                  config.base_seed + config.contract_trials)
    samples: list[tuple[float, ...]] = []
    for condition in config.conditions:
        trial = functools.partial(figure3_ablation_trial, pinned, condition,
                                  config.n_resources, obs, jitter)
        samples.extend(run_samples(trial, seeds, workers=1))
    return tuple(samples)


def verify_contract(comp: Component, config: AblationConfig,
                    baseline_probe: tuple, baseline_probe_nojitter: tuple
                    ) -> tuple[bool, str]:
    """Exact-check the component's documented contract.

    ``bit_identical``: the toggled probe must equal the baseline probe
    sample-for-sample (PLT *and* event count). ``statistically_
    equivalent`` (the fast path): the jitter-free per-seed PLT relative
    error must stay within :data:`PLT_ERROR_BOUND`.
    """
    overrides = default_knob_states()
    if comp.knob is not None:
        overrides[comp.knob] = comp.ablated_state
    obs = comp.knob is None and comp.ablated_state
    if comp.contract == BIT_IDENTICAL:
        probe = _contract_probe(overrides, config, obs, jitter=True)
        if probe == baseline_probe:
            return True, (f"bit-identical over "
                          f"{len(probe)} fault-free figure-3 samples")
        mismatches = sum(1 for a, b in zip(baseline_probe, probe) if a != b)
        return False, (f"{mismatches}/{len(probe)} samples differ "
                       f"from baseline")
    if comp.contract == STATISTICALLY_EQUIVALENT:
        probe = _contract_probe(overrides, config, obs, jitter=False)
        worst = 0.0
        for base_row, off_row in zip(baseline_probe_nojitter, probe):
            if base_row[0]:
                worst = max(worst,
                            abs(off_row[0] - base_row[0]) / base_row[0])
        ok = worst <= PLT_ERROR_BOUND
        return ok, (f"max jitter-free PLT error {worst * 100:.4f}% "
                    f"(bound {PLT_ERROR_BOUND:.0%})")
    raise ValueError(f"unknown contract {comp.contract!r}")


# -- evidence probes -------------------------------------------------------


def _tiny_local_world(obs: bool = False):
    from repro.experiments import local_setup

    page = local_setup.make_page("SCION-only", 2, 0)
    return local_setup.build_local_world(page, 0, obs=obs)


def _evidence_fastpath() -> str:
    with forced_many({FASTPATH_ENV: False}):
        off = _tiny_local_world()
    with forced_many({FASTPATH_ENV: True}):
        on = _tiny_local_world()
    assert off.internet.fastpath is None, "fastpath built despite knob off"
    assert on.internet.fastpath is not None, "fastpath missing with knob on"
    return "internet.fastpath is None with the knob off"


def _evidence_snapshot_cache() -> str:
    from repro.internet import snapshot

    before = snapshot.stats.bypasses
    with forced_many({SNAPSHOT_CACHE_ENV: False}):
        _tiny_local_world()
    bypassed = snapshot.stats.bypasses - before
    assert bypassed > 0, "no snapshot bypass recorded with the cache off"
    return f"snapshot.stats.bypasses advanced by {bypassed}"


def _evidence_event_pooling() -> str:
    from repro.simnet.network import Network

    with forced_many({EVENT_POOL_ENV: False}):
        off = Network()
    with forced_many({EVENT_POOL_ENV: True}):
        on = Network()
    assert not off.loop.pooling, "loop pooling on despite knob off"
    assert on.loop.pooling, "loop pooling off despite knob on"
    return "EventLoop.pooling tracks the knob"


def _evidence_combine_memo() -> str:
    from repro.internet.build import Internet
    from repro.topology.defaults import remote_testbed

    topology, ases = remote_testbed()
    with forced_many({COMBINE_MEMO_ENV: False}):
        internet = Internet(topology, seed=0)
        store = internet.segment_store
        hits_before = store.combine_memo_hits
        size_before = len(store._combine_memo)
        for _ in range(2):
            combine_segments(ases.client, ases.remote_server, store,
                             core_ases=internet.core_ases)
        assert store.combine_memo_hits == hits_before, \
            "memo hit despite knob off"
        assert len(store._combine_memo) == size_before, \
            "memo written despite knob off"
    with forced_many({COMBINE_MEMO_ENV: True}):
        hits_before = store.combine_memo_hits
        for _ in range(2):
            combine_segments(ases.client, ases.remote_server, store,
                             core_ases=internet.core_ases)
        assert store.combine_memo_hits > hits_before, \
            "no memo hit with knob on"
    return "memo stays cold (no reads, no writes) with the knob off"


def _evidence_tracing() -> str:
    off = _tiny_local_world(obs=False)
    on = _tiny_local_world(obs=True)
    assert off.tracer is None, "tracer attached despite obs=False"
    assert on.tracer is not None, "no tracer despite obs=True"
    return "world.tracer tracks the obs= toggle"


def _evidence_revocation() -> str:
    from repro.internet.build import Internet
    from repro.topology.defaults import remote_testbed

    topology, _ases = remote_testbed()
    with forced_many({REVOCATION_ENV: False}):
        off = Internet(topology, seed=0)
    with forced_many({REVOCATION_ENV: True}):
        on = Internet(topology, seed=0)
    assert not off.revocations.enabled, "revocation on despite knob off"
    assert on.revocations.enabled, "revocation off despite knob on"
    return "RevocationService.enabled tracks the knob"


def _evidence_circuit_breaker() -> str:
    with forced_many({BREAKER_ENV: False}):
        world = _tiny_local_world()
    breakers = world.browser.proxy.breakers
    assert not breakers.enabled, "breaker board on despite knob off"
    assert breakers.record_failure("fp", 0.0, 10.0) is None
    assert not breakers.blocked(1.0), "disabled board blocked a path"
    return "proxy.breakers inert (stores/blocks nothing) with knob off"


def _evidence_population_locality() -> str:
    from repro.workload.catalog import default_catalog
    from repro.workload.session import SessionConfig, plan_session

    catalog = default_catalog(12, origins=("far.example",), seed=0)
    eager = SessionConfig(mean_visits=6.0, revisit_probability=1.0)
    with forced_many({LOCALITY_ENV: True}):
        on = plan_session(catalog, 0, 0, eager)
    with forced_many({LOCALITY_ENV: False}):
        off = plan_session(catalog, 0, 0, eager)
    assert any(visit.revisit for visit in on[1:]), \
        "no revisit despite locality on and revisit_probability=1"
    assert not any(visit.revisit for visit in off), \
        "revisit planned despite locality knobbed off"
    return ("plans revisit with the knob on and never with it off "
            "(revisit_probability=1 probe)")


def _evidence_admission_control() -> str:
    from repro.scion.admission import AdmissionController

    class _Clock:
        now = 0.0

    with forced_many({ADMISSION_ENV: False}):
        off = AdmissionController(service="probe", clock=_Clock(),
                                  capacity_qps=1.0, max_queue_depth=0)
    with forced_many({ADMISSION_ENV: True}):
        on = AdmissionController(service="probe", clock=_Clock(),
                                 capacity_qps=1.0, max_queue_depth=0)
    for _ in range(5):
        assert off.admit(), "disabled controller shed a request"
    assert off.backlog() == 0 and off.stats.peak_backlog == 0, \
        "disabled controller kept backlog state"
    decisions = [on.admit() for _ in range(5)]
    assert decisions[0] and not all(decisions), \
        "enabled controller never shed a 5x-over-capacity burst"
    on.shed("rejected")
    assert on.stats.shed_total() == 1 and on.stats.peak_backlog > 0
    return "sheds a 5x-over-capacity burst with the knob on, never off"


def _evidence_retry_budget() -> str:
    from repro.core.skip.retry_budget import RetryBudget

    with forced_many({RETRY_BUDGET_ENV: False}):
        off = RetryBudget(name="probe")
    with forced_many({RETRY_BUDGET_ENV: True}):
        on = RetryBudget(name="probe", capacity=1.0, refill_per_sec=0.0)
    for _ in range(5):
        assert off.try_spend(0.0), "disabled budget refused a retry"
    assert off.spent_total == 0 and off.exhausted_total == 0, \
        "disabled budget kept token state"
    assert off.jittered_backoff(100.0) == 100.0, \
        "disabled budget jittered a backoff"
    assert on.try_spend(0.0) and not on.try_spend(0.0), \
        "capacity-1 bucket did not exhaust on the second retry"
    assert on.exhausted_total == 1
    assert 50.0 <= on.jittered_backoff(100.0) < 150.0, \
        "enabled backoff jitter outside [0.5, 1.5)x"
    return "capacity-1 bucket exhausts with the knob on, inert off"


def _evidence_health_ranking() -> str:
    with forced_many({HEALTH_RANKING_ENV: False}):
        world = _tiny_local_world()
    health = world.internet.hosts["client"].daemon.health
    assert not health.enabled, "health tracker on despite knob off"
    health.record_failure("fp")
    health.record_failure("fp")
    assert health.get("fp") is None, "disabled tracker recorded state"
    return "daemon.health records nothing with the knob off"


#: component name → callable returning an evidence line (or raising).
EVIDENCE_PROBES = {
    "fastpath": _evidence_fastpath,
    "snapshot_cache": _evidence_snapshot_cache,
    "event_pooling": _evidence_event_pooling,
    "combine_memo": _evidence_combine_memo,
    "tracing": _evidence_tracing,
    "revocation": _evidence_revocation,
    "circuit_breaker": _evidence_circuit_breaker,
    "health_ranking": _evidence_health_ranking,
    "population_locality": _evidence_population_locality,
    "admission_control": _evidence_admission_control,
    "retry_budget": _evidence_retry_budget,
}


# -- the sweep -------------------------------------------------------------


@dataclass
class ComponentResult:
    """One component's ablation outcome."""

    component: Component
    status: str = "ok"
    error: str | None = None
    deltas: dict[str, dict[str, float | None]] = field(default_factory=dict)
    spread: dict[str, float] = field(default_factory=dict)
    score: float = 0.0
    contract_ok: bool | None = None
    contract_detail: str = ""
    evidence: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.component.name,
            "knob": self.component.knob,
            "contract": self.component.contract,
            "battery": battery_label(self.component.battery,
                                     self.component.context),
            "status": self.status,
            "error": self.error,
            "deltas": self.deltas,
            "spread": self.spread,
            "rank_score": self.score,
            "contract_ok": self.contract_ok,
            "contract_detail": self.contract_detail,
            "evidence": self.evidence,
        }


@dataclass
class AblationReport:
    """The whole sweep: baselines, per-component results, ranking."""

    config: AblationConfig
    baselines: dict[str, BatteryRun] = field(default_factory=dict)
    results: list[ComponentResult] = field(default_factory=list)

    @property
    def ranked(self) -> list[ComponentResult]:
        """Error rows first (they demand attention), then by score."""
        return sorted(self.results,
                      key=lambda r: (0 if r.status == "error" else 1,
                                     -r.score))

    @property
    def contracts_ok(self) -> bool:
        return all(r.contract_ok for r in self.results
                   if r.status == "ok")

    @property
    def all_ok(self) -> bool:
        return self.contracts_ok and all(r.status == "ok"
                                         for r in self.results)

    def result(self, name: str) -> ComponentResult:
        for row in self.results:
            if row.component.name == name:
                return row
        raise KeyError(f"no result for component {name!r}")

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "baselines": {
                battery: {"metrics": run.metrics,
                          "wallclock_ms": run.wallclock_ms}
                for battery, run in self.baselines.items()},
            "components": [r.to_json() for r in self.ranked],
            "ranking": [r.component.name for r in self.ranked],
            "contracts_ok": self.contracts_ok,
            "all_ok": self.all_ok,
        }

    def render(self) -> str:
        lines = ["== component ablations — leave-one-out importance =="]
        lines.append(
            f"figure3[{', '.join(self.config.conditions)}] "
            f"trials={self.config.trials} "
            f"resources={self.config.n_resources}; resilience "
            f"trials={self.config.resilience_trials} "
            f"loads={self.config.resilience_loads}; "
            f"workers={self.config.workers}")
        for battery, run in self.baselines.items():
            summary = "  ".join(f"{name}={value:.2f}"
                                for name, value in run.metrics.items())
            lines.append(f"baseline {battery:<10} {summary}")
        lines.append("")
        for rank, row in enumerate(self.ranked, start=1):
            comp = row.component
            label = battery_label(comp.battery, comp.context)
            if row.status == "error":
                lines.append(f"{rank:>2}. {comp.name:<16} "
                             f"[{label}] ERROR: {row.error}")
                continue
            contract = "PASS" if row.contract_ok else "FAIL"
            moved = []
            for name in comp.metrics:
                delta = row.deltas.get(name)
                if delta is None:
                    continue
                if delta["delta_pct"] is not None:
                    moved.append(f"{name} {delta['delta_pct']:+.1f}%")
                else:
                    moved.append(f"{name} {delta['delta_abs']:+.1f}")
            lines.append(
                f"{rank:>2}. {comp.name:<16} [{label}] "
                f"score={row.score:8.1f}  contract={comp.contract}:"
                f"{contract}  {'  '.join(moved)}")
            lines.append(f"    spread p50={row.spread.get('p50', 0.0):+.2f}% "
                         f"p95={row.spread.get('p95', 0.0):+.2f}%  "
                         f"{row.evidence}")
        lines.append("")
        lines.append(
            "note: score is the largest movement among each component's "
            "declared metrics (percent where the baseline is nonzero, "
            "absolute otherwise); wall-clock deltas are honest only at "
            "workers=1; bit_identical contracts are exact sample "
            "comparisons on the fault-free figure-3 slice")
        return "\n".join(lines)


def run_ablations(config: AblationConfig | None = None,
                  components: tuple[Component, ...] = COMPONENTS
                  ) -> AblationReport:
    """The sweep: baseline + one leave-one-out run per component.

    A component whose run raises becomes an ``error`` row — never
    silently dropped from the ranking (the failure mode this harness
    exists to surface).
    """
    config = config or full_config()
    report = AblationReport(config=config)
    defaults = default_knob_states(components)

    needed = {(comp.battery, comp.context) for comp in components}
    for battery, context in sorted(needed):
        # Untimed warm-up first: the very first run pays one-off costs
        # (imports, the initial snapshot build) that would otherwise be
        # charged to the baseline and poison every wall-clock delta.
        overrides = dict(defaults)
        overrides.update(dict(context))
        run_battery(battery, overrides, config)
        report.baselines[battery_label(battery, context)] = run_battery(
            battery, overrides, config)

    # Contract probes share one baseline per jitter mode.
    baseline_probe = _contract_probe(defaults, config, obs=False,
                                     jitter=True)
    needs_nojitter = any(comp.contract == STATISTICALLY_EQUIVALENT
                         for comp in components)
    baseline_probe_nojitter = (
        _contract_probe(defaults, config, obs=False, jitter=False)
        if needs_nojitter else ())

    for comp in components:
        row = ComponentResult(component=comp)
        report.results.append(row)
        try:
            probe = EVIDENCE_PROBES.get(comp.name)
            if probe is not None:
                row.evidence = probe()
            overrides = dict(defaults)
            overrides.update(dict(comp.context))
            if comp.knob is not None:
                overrides[comp.knob] = comp.ablated_state
            obs = comp.knob is None and comp.ablated_state
            off_run = run_battery(comp.battery, overrides, config, obs=obs)
            base_run = report.baselines[battery_label(comp.battery,
                                                      comp.context)]
            row.deltas = metric_deltas(base_run.metrics, off_run.metrics)
            row.spread = sample_delta_spread(base_run, off_run)
            row.score = rank_score(comp, row.deltas)
            row.contract_ok, row.contract_detail = verify_contract(
                comp, config, baseline_probe, baseline_probe_nojitter)
        except Exception as exc:  # noqa: BLE001 — error rows by design
            row.status = "error"
            row.error = f"{type(exc).__name__}: {exc}"
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.ablations2",
        description="leave-one-out component ablations with exact "
                    "correctness contracts")
    parser.add_argument("--selftest", action="store_true",
                        help="small sweep asserting every contract and "
                             "evidence probe (CI gate)")
    parser.add_argument("--trials", type=int, default=None,
                        help="figure-3 seeds per condition")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial-level parallelism (default 1 for "
                             "honest wall-clock deltas)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write the report as JSON to this path")
    args = parser.parse_args(argv)

    config = (selftest_config(args.workers) if args.selftest
              else full_config(args.workers))
    if args.trials:
        config = dataclasses.replace(config, trials=args.trials)
    started = time.perf_counter()
    report = run_ablations(config)
    elapsed = time.perf_counter() - started
    print(report.render())
    print(f"(sweep took {elapsed:.2f} s)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not report.all_ok:
        print("ERROR: ablation contracts failed or component runs "
              "errored", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
