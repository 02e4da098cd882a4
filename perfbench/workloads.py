"""The benchmark's three workloads, built from seed-generated inputs.

Every workload is a stream of *units*: one fresh simulated world, run
to completion, whose page loads are the measured operations.

* ``city`` — one opportunistic-SCION population world per unit on the
  remote seven-AS testbed. Users arrive open-loop over the arrival
  window, each browsing a session plan with think time, tabs and
  revisit locality. The packet dataplane dominates here.
* ``figure3-sweep`` — the paper's Figure 3: one fresh local-testbed
  world and one page load per unit, the four ``FIGURE3_CONDITIONS`` in
  turn over consecutive trial seeds (closed loop).
* ``flash-crowd`` — the overload battery's default 10× correlated spike,
  one arm per unit, ``protections-on`` then ``protections-off`` over
  consecutive seeds.

Every stream opens with the workload's reference rounds (the same for
every ``--seed``), whose simulated outputs are pinned in
``reference.json`` and checked, not scored; every round after them is
derived from ``--seed``. The benchmark generates the inputs (catalogs,
session plans, arrival times, pages) and hands them to the program; the
program's own session drivers run them.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

#: City shape: 40 users arriving over 5 s — the arrival density of an
#: 80-user, 10 s city at half the wall-clock per unit, so finite core
#: links stay contended (about half of all fast-path attempts fall back
#: on contention).
CITY_USERS = 40
CITY_SITES = 40
CITY_WINDOW_MS = 5_000.0
#: The city's web is one for all units; ``--seed`` decides who browses
#: it (every user's session plan), when they arrive and every random
#: draw inside the world.
#:
#: Page load times cluster by origin distance (near origins near
#: 100 ms, the far origin in RTT-quantized modes up to ~700 ms), so a
#: percentile that lands between clusters jumps from seed to seed.
#: Catalog 99 puts about 70 % of loads on near origins, which keeps the
#: median inside the near cluster and p95 inside the far one; catalog
#: 910 split loads about 45/55 and its median moved by 30 % between
#: seeds.
CITY_CATALOG_SEED = 99
#: World and plan seed of the city reference unit (the population
#: selftest's).
CITY_REFERENCE_SEEDS = (910,)

#: Trial seed of the Figure 3 reference round (the paper battery's base
#: seed) and the page size of every trial.
FIGURE3_REFERENCE_SEEDS = (100,)
FIGURE3_RESOURCES = 12

#: Trial seed of the flash-crowd reference round (the overload
#: selftest's).
FLASH_REFERENCE_SEEDS = (1210,)


@dataclass(frozen=True)
class Load:
    """One page load as the benchmark checks and scores it."""

    start_ms: float
    plt_ms: float
    #: The main document did not arrive (``PageLoadResult.failed``).
    failed: bool
    #: Resources that arrived any other way than over a policy-compliant
    #: SCION path (strict mode must keep this at 0).
    noncompliant_resources: int = 0


@dataclass
class Unit:
    """One fresh world: its inputs, and after :meth:`Workload.run` its
    simulated outputs."""

    label: str
    strict: bool = False
    world: object = None
    processes: list = field(default_factory=list)
    #: Undo for knob overrides entered while building (flash-crowd arms).
    knobs: contextlib.ExitStack = field(default_factory=contextlib.ExitStack)
    loads: tuple = ()
    events: int = 0
    leaks: tuple = ()

    @property
    def kind(self) -> str:
        """The unit's condition or arm (its label's first field)."""
        return self.label.split(":")[0]

    def outputs(self) -> tuple:
        """Everything simulated about this unit, for exact comparison."""
        return (self.label, self.loads, self.events, self.leaks)


class Workload:
    """A stream of rounds of units; subclasses build and collect units.

    A round is one unit per kind (condition or arm), all with the same
    trial seed. The stream opens with the reference rounds, the same
    for every ``--seed``, and continues with rounds derived from it.
    """

    name = ""
    #: Unit kinds of one round, in order.
    kinds: tuple = ()
    #: Trial seeds of the reference rounds.
    reference_seeds: tuple = ()
    #: Whether a page load may end failed (the main document not
    #: loaded) without failing the correctness gate.
    loads_may_fail = False

    @property
    def round_size(self) -> int:
        return len(self.kinds)

    def units(self, seed: int):
        """Unit labels (``kind:trial_seed``), reference rounds first."""
        seeds = itertools.chain(
            self.reference_seeds,
            (derived_seed(seed, index) for index in itertools.count()))
        for trial_seed in seeds:
            for kind in self.kinds:
                yield f"{kind}:{trial_seed}"

    def build(self, label: str) -> Unit:
        """Generate the unit's inputs and build its world, ready to run."""
        raise NotImplementedError

    def run(self, unit: Unit) -> Unit:
        """Simulate the unit to completion and record its outputs.

        A session that raised or never finished aborts the run: every
        load must end completed or failed with a result.
        """
        try:
            unit.world.internet.run()
            for process in unit.processes:
                if not process.triggered:
                    raise RuntimeError(f"{unit.label}: {process.name} "
                                       f"did not finish")
            self._collect(unit)
            unit.events = unit.world.internet.loop.events_processed
        finally:
            unit.knobs.close()
        unit.world = None
        unit.processes = []
        return unit

    def _collect(self, unit: Unit) -> None:
        raise NotImplementedError


def derived_seed(seed: int, index: int) -> int:
    """World seed of the ``index``-th seeded unit of ``--seed``.

    Offset far from every reference seed, with room for ten thousand
    units per benchmark seed.
    """
    return 1_000_000 + seed * 10_000 + index


class City(Workload):
    name = "city"
    kinds = ("city",)
    reference_seeds = CITY_REFERENCE_SEEDS

    def build(self, label: str) -> Unit:
        from repro.experiments.population import start_sessions
        from repro.workload.arrivals import ArrivalCurve, arrival_times
        from repro.workload.catalog import default_catalog
        from repro.workload.session import plan_session

        seed = int(label.split(":")[1])
        catalog = default_catalog(CITY_SITES, origins=city_origins(),
                                  seed=CITY_CATALOG_SEED)
        plans = [plan_session(catalog, user_id, seed)
                 for user_id in range(CITY_USERS)]
        arrivals = arrival_times(
            CITY_USERS, ArrivalCurve(window_ms=CITY_WINDOW_MS), seed)
        world = build_city(seed, catalog, plans, arrivals)
        return Unit(label=label, world=world,
                    processes=start_sessions(world))

    def _collect(self, unit: Unit) -> None:
        from repro.experiments.population import (harvest_rows,
                                                  population_leak_report)

        unit.loads = tuple(Load(start_ms=started, plt_ms=plt, failed=failed)
                           for started, _ended, plt, failed, _scion
                           in harvest_rows(unit.processes))
        unit.leaks = tuple(population_leak_report(unit.world))


def city_origins() -> tuple:
    from repro.experiments.remote_setup import (CDN_ORIGIN, FAR_ORIGIN,
                                                NEAR2_ORIGIN, NEAR_ORIGIN)

    return (FAR_ORIGIN, NEAR_ORIGIN, NEAR2_ORIGIN, CDN_ORIGIN)


def build_city(world_seed: int, catalog, plans, arrivals):
    """The remote testbed serving ``catalog`` to one browser per plan.

    Origins sit where the population battery puts them (legacy TCP
    servers fronted by SCION reverse proxies); every user gets their
    own host, daemon and browser, with a latency-optimizing policy.
    """
    from repro.core.browser.brave import BraveBrowser
    from repro.core.ppl.policies import latency_optimized
    from repro.dns.resolver import Resolver
    from repro.experiments.population import PopulationWorld
    from repro.http.reverse_proxy import ScionReverseProxy
    from repro.http.server import HttpServer
    from repro.internet.build import Internet
    from repro.topology.defaults import remote_testbed

    topology, ases = remote_testbed()
    internet = Internet(topology, seed=world_seed)
    resolver = Resolver(internet.loop, lookup_latency_ms=4.0)
    far, near, near2, cdn = city_origins()
    placements = {far: ases.remote_server, near: ases.nearby_server,
                  near2: ases.nearby_server, cdn: ases.third_server}
    for origin, isd_as in placements.items():
        label = origin.split(".")[0]
        server_host = internet.add_host(f"origin-{label}", isd_as)
        rp_host = internet.add_host(f"rp-{label}", isd_as)
        HttpServer(server_host, catalog.origin_content(origin),
                   serve_tcp=True, serve_quic=False)
        ScionReverseProxy(rp_host, server_host.addr,
                          advertise_strict_scion_max_age=3600)
        resolver.register_host(origin, ip_address=server_host.addr,
                               scion_address=rp_host.addr)
    hosts = internet.add_population("user", ases.client, len(plans))
    users = []
    for user_id, host in enumerate(hosts):
        browser = BraveBrowser(host, resolver, extension_enabled=True,
                               rng=internet.network.rng)
        browser.settings.extra_policies.append(latency_optimized())
        browser.extension.apply_settings()
        users.append((user_id, browser, plans[user_id], arrivals[user_id]))
    return PopulationWorld(internet=internet, catalog=catalog, users=users)


class Figure3Sweep(Workload):
    name = "figure3-sweep"

    reference_seeds = FIGURE3_REFERENCE_SEEDS

    def __init__(self) -> None:
        from repro.experiments.local_setup import FIGURE3_CONDITIONS

        self.kinds = FIGURE3_CONDITIONS

    def build(self, label: str) -> Unit:
        from repro.experiments.local_setup import build_local_world, make_page

        condition, trial_seed = label.split(":")
        page = make_page(condition, FIGURE3_RESOURCES, int(trial_seed))
        strict = condition == "strict-SCION"
        world = build_local_world(
            page, int(trial_seed),
            extension_enabled=condition != "BGP/IP-only", strict=strict)
        process = world.internet.loop.process(world.browser.load(page),
                                              name="load")
        return Unit(label=label, strict=strict, world=world,
                    processes=[process])

    def _collect(self, unit: Unit) -> None:
        (process,) = unit.processes
        if process.exception is not None:
            raise process.exception
        result = process.value
        unit.loads = (Load(
            start_ms=0.0, plt_ms=result.plt_ms, failed=result.failed,
            noncompliant_resources=sum(
                1 for outcome in result.outcomes
                if not outcome.blocked
                and not (outcome.used_scion and outcome.policy_compliant))),)


class FlashCrowd(Workload):
    name = "flash-crowd"
    loads_may_fail = True

    reference_seeds = FLASH_REFERENCE_SEEDS

    def __init__(self) -> None:
        from repro.experiments.overload import ARMS

        self.kinds = ARMS

    def build(self, label: str) -> Unit:
        from repro.core.skip.breaker import BREAKER_ENV
        from repro.core.skip.retry_budget import RETRY_BUDGET_ENV
        from repro.experiments.overload import (DEFAULT_CONFIG,
                                                build_overload_world,
                                                start_crowd)
        from repro.internet.knobs import forced_many
        from repro.scion.admission import ADMISSION_ENV

        arm, trial_seed = label.split(":")
        unit = Unit(label=label)
        if arm == "protections-off":
            # The same overrides overload_trial applies to this arm.
            unit.knobs.enter_context(forced_many(
                {ADMISSION_ENV: "0", RETRY_BUDGET_ENV: "0",
                 BREAKER_ENV: "0"}))
        try:
            unit.world = build_overload_world(int(trial_seed),
                                              DEFAULT_CONFIG)
        except BaseException:
            unit.knobs.close()
            raise
        unit.processes = start_crowd(unit.world)
        return unit

    def _collect(self, unit: Unit) -> None:
        from repro.experiments.overload import harvest_rows

        unit.loads = tuple(Load(start_ms=row[0], plt_ms=row[2],
                                failed=row[3])
                           for row in harvest_rows(unit.processes))


WORKLOADS = {workload.name: workload
             for workload in (City, Figure3Sweep, FlashCrowd)}
