"""The chaos battery: PLT and recovery under injected failures.

The paper argues the browser-integrated design must "deal gracefully
with temporary unavailability" (§4.2): opportunistic mode falls back to
the legacy Internet when SCION breaks, strict mode refuses to — it
blocks. This experiment quantifies that trade under a battery of fault
scenarios, each run in opportunistic *and* strict mode:

* ``baseline``       — no faults (the control row).
* ``link-flap``      — the latency-best SCION core link (the detour via
  ISD 3) dies just after the load starts. An alternate policy-compliant
  path exists, so both modes should recover via *path failover*, without
  any IP fallback.
* ``loss-burst``     — a 35 % loss burst on every link; the transports
  hide it, both modes pay time, nobody fails.
* ``latency-spike``  — +120 ms on every link for a few seconds.
* ``quic-outage``    — the origin stops answering QUIC (its SCION side
  is dead, TCP stays up). Paths exist, fetches fail: opportunistic
  recovers over IP, strict blocks every resource.
* ``infra-outage``   — the path-server infrastructure is unreachable
  from t=0 with a cold daemon cache: no path lookup succeeds.
  Opportunistic falls back to IP, strict blocks.
* ``segment-expiry`` — the daemon holds *expired* cached segments that
  cannot be refreshed (infrastructure down for six-plus hours).
  Opportunistic falls back, strict blocks.

Every trial builds a fresh world from its seed and arms a deterministic
:class:`~repro.simnet.faults.FaultSchedule`, so the battery is a pure
function of ``(scenario, mode, seed)`` — serial and worker-pool runs are
bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import WebPage, content_for_origin, synthetic_page
from repro.core.ppl.policies import latency_optimized
from repro.dns.resolver import Resolver
from repro.errors import ReproError
from repro.experiments.harness import BoxStats, PendingSamples, submit_samples
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.obs.metrics import (export_link_contention,
                               export_link_utilization)
from repro.obs.spans import Tracer
from repro.simnet.faults import FaultSchedule, inject
from repro.topology.defaults import remote_testbed

#: The one origin the chaos page loads from.
ORIGIN = "site.example"

#: Scenario names, in presentation order.
SCENARIOS = ("baseline", "link-flap", "loss-burst", "latency-spike",
             "quic-outage", "infra-outage", "segment-expiry")

#: Proxy modes, in presentation order.
MODES = ("opportunistic", "strict")

#: The scenarios where opportunistic mode keeps the page alive over IP
#: while strict mode blocks (SCION is unusable but the legacy Internet
#: is not) — the availability/assurance trade the battery demonstrates.
FALLBACK_SCENARIOS = ("quic-outage", "infra-outage", "segment-expiry")

#: Per-attempt deadline for chaos worlds. Healthy exchanges here finish
#: in hundreds of milliseconds, so an impatient browser-like deadline is
#: safe and keeps fault detection snappy.
CHAOS_REQUEST_TIMEOUT_MS = 15_000.0


@dataclass
class FaultWorld:
    """One freshly-built world for a chaos trial."""

    internet: Internet
    browser: BraveBrowser
    page: WebPage
    server: HttpServer
    ases: object  # the testbed's TestbedAses record
    #: Observability tracer, present when built with ``obs=True``.
    tracer: Tracer | None = None


def build_fault_world(seed: int, n_resources: int = 6,
                      strict: bool = False, obs: bool = False) -> FaultWorld:
    """A distributed-testbed world with one dual-stack origin.

    The origin serves both QUIC/SCION and TCP/IP, so SCION-specific
    faults leave an IP escape hatch — which opportunistic mode may take
    and strict mode must not. A latency policy makes both core routes
    policy-compliant (failover has somewhere to go).
    """
    topology, ases = remote_testbed()
    # Packet tracing rides along with observability so traced loads can
    # sample per-AS link-utilization gauges from the ring buffer.
    # Chaos worlds run pure packet-level: most scenarios arm the fault
    # injector (which disables the fast path anyway), and the ones that
    # don't — baseline, quic-outage, segment-expiry — must produce rows
    # bit-identical to them and to pre-fast-path behavior.
    internet = Internet(topology, seed=seed, trace=obs, fastpath=False)
    client = internet.add_host("client", ases.client)
    origin = internet.add_host("origin", ases.remote_server)
    page = synthetic_page(ORIGIN, n_resources=n_resources, seed=seed)
    server = HttpServer(origin, content_for_origin(page, ORIGIN),
                        serve_tcp=True, serve_quic=True)
    resolver = Resolver(internet.loop, lookup_latency_ms=2.0)
    resolver.register_host(ORIGIN, ip_address=origin.addr,
                           scion_address=origin.addr)
    browser = BraveBrowser(client, resolver, rng=internet.network.rng)
    browser.settings.extra_policies.append(latency_optimized())
    browser.extension.apply_settings()
    browser.proxy.request_timeout_ms = CHAOS_REQUEST_TIMEOUT_MS
    if strict:
        browser.extension.enable_strict_mode()
    tracer = None
    if obs:
        tracer = Tracer(internet.loop)
        browser.attach_tracer(tracer)
        internet.revocations.tracer = tracer
        if internet.fastpath is not None:
            internet.fastpath.attach_tracer(tracer)
    return FaultWorld(internet=internet, browser=browser, page=page,
                      server=server, ases=ases, tracer=tracer)


def scenario_schedule(scenario: str, ases) -> FaultSchedule:
    """The fault schedule a named scenario arms (may be empty)."""
    schedule = FaultSchedule()
    if scenario == "link-flap":
        schedule.link_down(f"{ases.local_core}~{ases.third_core}",
                           at_ms=5.0, duration_ms=60_000.0)
    elif scenario == "loss-burst":
        schedule.loss_burst("*", at_ms=20.0, duration_ms=2_000.0,
                            loss_rate=0.35)
    elif scenario == "latency-spike":
        schedule.latency_spike("*", at_ms=10.0, duration_ms=4_000.0,
                               extra_ms=120.0)
    elif scenario == "infra-outage":
        schedule.scion_outage(at_ms=0.0)
    elif scenario not in ("baseline", "quic-outage", "segment-expiry"):
        raise ReproError(f"unknown fault scenario {scenario!r}")
    return schedule


def _prepare_scenario(world: FaultWorld, scenario: str) -> None:
    """Arm the scenario against a built world (before the load starts)."""
    if scenario == "quic-outage":
        # The origin's SCION side dies; its TCP listener stays up.
        assert world.server.quic_listener is not None
        world.server.quic_listener.close()
    elif scenario == "segment-expiry":
        # Warm the daemon cache, kill the infrastructure, then let every
        # cached segment age out: refreshes are impossible.
        daemon = world.browser.host.daemon
        origin_as = world.internet.host("origin").addr.isd_as
        paths = daemon.paths(origin_as)
        world.internet.path_server.available = False
        last_expiry = max(path.expiry_ms() for path in paths)
        world.internet.loop.run(until=last_expiry + 1_000.0)
    schedule = scenario_schedule(scenario, world.ases)
    if len(schedule):
        inject(world.internet, schedule)


def traced_fault_load(scenario: str, seed: int, n_resources: int = 6,
                      mode: str = "opportunistic"):
    """One traced chaos load; returns ``(world, result)``.

    ``world.tracer`` carries the retry / path-failure / fallback span
    events of the load — what the fault post-mortems read.
    """
    world = build_fault_world(seed, n_resources=n_resources,
                              strict=(mode == "strict"), obs=True)
    _prepare_scenario(world, scenario)
    result = world.internet.loop.run_process(
        world.browser.load(world.page))
    assert world.tracer is not None
    export_link_utilization(world.tracer.metrics,
                            world.internet.network.trace)
    export_link_contention(world.tracer.metrics, world.internet.network)
    return world, result


def fault_trial(scenario: str, mode: str, seed: int,
                n_resources: int = 6) -> tuple[float, float, float, float,
                                               float]:
    """One chaos trial; returns ``(plt_ms, ok, failover, fallback,
    failed)``.

    The counts are over the page's ``1 + n_resources`` fetches: resources
    that arrived, resources saved by SCION path failover, resources
    saved by IP fallback, and resources that never arrived (blocked or
    dead). Pure function of its arguments — the parallel trial pool
    relies on that.
    """
    world = build_fault_world(seed, n_resources=n_resources,
                              strict=(mode == "strict"))
    _prepare_scenario(world, scenario)
    result = world.internet.loop.run_process(
        world.browser.load(world.page))
    total = 1 + len(world.page.resources)
    ok = result.ok_count
    return (result.plt_ms, float(ok), float(result.failover_count),
            float(result.fallback_count), float(total - ok))


@dataclass(frozen=True)
class FaultCell:
    """One (scenario, mode) cell of the battery."""

    plt: BoxStats
    ok: int
    failover: int
    fallback: int
    failed: int
    total: int

    @property
    def recovered_fraction(self) -> float:
        """Fraction of fetches saved by failover or fallback."""
        return (self.failover + self.fallback) / self.total if self.total \
            else 0.0


@dataclass
class FaultBatteryResult:
    """The whole battery: one :class:`FaultCell` per scenario × mode."""

    trials: int
    cells: dict[tuple[str, str], FaultCell] = field(default_factory=dict)

    def cell(self, scenario: str, mode: str) -> FaultCell:
        """Look up one cell."""
        return self.cells[(scenario, mode)]

    def render(self) -> str:
        """The battery as a text table."""
        lines = [
            "== Chaos battery — PLT and recovery under injected faults ==",
            (f"{self.trials} trials/cell; counts summed over trials "
             "(ok / failover / fallback / failed of total fetches)"),
            "",
        ]
        for (scenario, mode), cell in self.cells.items():
            label = f"{scenario} / {mode}"
            lines.append(cell.plt.row(label))
            lines.append(
                f"{'':<24} ok={cell.ok}/{cell.total} "
                f"failover={cell.failover} fallback={cell.fallback} "
                f"failed={cell.failed} "
                f"recovered={cell.recovered_fraction:.0%}")
        lines.append(
            "note: expected shape — link-flap recovers via path failover "
            "in BOTH modes with zero IP fallback; the SCION-specific "
            "outages (quic-outage, infra-outage, segment-expiry) are "
            "recovered over IP by opportunistic mode and blocked by "
            "strict mode")
        return "\n".join(lines)


class PendingFaultBattery:
    """The chaos battery with every cell's trials in flight."""

    def __init__(self, trials: int, n_resources: int,
                 cells: list[tuple[tuple[str, str], PendingSamples]]) -> None:
        self._trials = trials
        self._n_resources = n_resources
        self._cells = cells

    def collect(self) -> FaultBatteryResult:
        """Wait for every cell; assemble rows in submission order."""
        battery = FaultBatteryResult(trials=self._trials)
        for key, pending in self._cells:
            rows = pending.collect()
            plts = [row[0] for row in rows]
            battery.cells[key] = FaultCell(
                plt=BoxStats.from_samples(plts),
                ok=int(sum(row[1] for row in rows)),
                failover=int(sum(row[2] for row in rows)),
                fallback=int(sum(row[3] for row in rows)),
                failed=int(sum(row[4] for row in rows)),
                total=self._trials * (1 + self._n_resources),
            )
        return battery


def submit_fault_battery(trials: int = 10, n_resources: int = 6,
                         base_seed: int = 500,
                         scenarios: tuple[str, ...] = SCENARIOS,
                         modes: tuple[str, ...] = MODES,
                         workers: int | None = None) -> PendingFaultBattery:
    """Submit every (scenario, mode) cell's trials to the shared pool."""
    cells: list[tuple[tuple[str, str], PendingSamples]] = []
    seeds = range(base_seed, base_seed + trials)
    for scenario in scenarios:
        for mode in modes:
            trial = functools.partial(fault_trial, scenario, mode,
                                      n_resources=n_resources)
            cells.append(((scenario, mode),
                          submit_samples(trial, seeds, workers=workers)))
    return PendingFaultBattery(trials, n_resources, cells)


def run_fault_battery(trials: int = 10, n_resources: int = 6,
                      base_seed: int = 500,
                      scenarios: tuple[str, ...] = SCENARIOS,
                      modes: tuple[str, ...] = MODES,
                      workers: int | None = None) -> FaultBatteryResult:
    """Run the chaos battery; deterministic per ``base_seed``.

    Trials fan out over the shared worker pool exactly like the figure
    batteries; results are bit-identical to a serial run.
    """
    return submit_fault_battery(trials=trials, n_resources=n_resources,
                                base_seed=base_seed, scenarios=scenarios,
                                modes=modes, workers=workers).collect()
