"""Cross-trial control-plane snapshot cache.

Building an :class:`~repro.internet.build.Internet` is dominated by
control-plane work — PKI generation (RSA signing), beaconing, and BGP
convergence — yet for a fixed ``(topology, seed, beacons_per_target,
verify_beacons)`` tuple that state is *identical* on every build: the
PKI draws from its own seeded RNG, beaconing and BGP are deterministic
graph algorithms, and none of them touch the data-plane RNG stream. A
trial battery that rebuilds the same world per seed therefore repeats
the exact same computation over and over (across the four Figure 3
conditions, every seed's control plane is built four times).

This module interns that state: :func:`control_plane_snapshot` returns a
frozen :class:`ControlPlaneSnapshot` (PKI material, the verified
:class:`~repro.scion.beaconing.SegmentStore`, the converged
:class:`~repro.ip.bgp.BgpRib`) from a process-local LRU cache keyed by
``(topology fingerprint, seed, beacons_per_target, verify_beacons)``.
The :class:`~repro.internet.build.Internet` then instantiates only the
cheap mutable layer — simnet routers, links, hosts, per-host daemons —
on top.

Correctness properties (test-enforced):

* **Bit-identical results.** The snapshot is a pure function of its key,
  so serial, cached, and worker-pool runs of any battery produce the
  same samples to the last bit. Per-seed RNG streams are untouched: the
  PKI RNG is local to :class:`~repro.scion.pki.ControlPlanePki` and the
  data-plane RNG is seeded independently by the ``Network``.
* **Spawn-safe.** The cache is a module-level dict, so every spawned
  worker process starts empty and builds each snapshot it needs exactly
  once, then reuses it across all trials the pool hands it.
* **Immutability.** Nothing in the runtime stack mutates the shared
  state: the :class:`~repro.scion.path_server.PathServer` (which carries
  the mutable ``available`` flag) is per-Internet, daemons keep their
  own path caches, and ``BgpRib.forwarding_table`` returns fresh dicts.
  Store mutations (only done by tests building custom worlds) bump the
  store's ``generation`` and invalidate the combine memo.

Debugging escape hatch: set ``REPRO_SNAPSHOT_CACHE=0`` (or ``off`` /
``false`` / ``no``) to bypass the cache entirely — every build then
recomputes its control plane from scratch, exactly as before this cache
existed. :data:`stats` counts hits/misses/bypasses so tests can assert
cache behavior.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.internet.knobs import resolve_knob
from repro.ip.bgp import BgpRib, compute_routes
from repro.scion.beaconing import BeaconingService, SegmentStore
from repro.scion.pki import ControlPlanePki
from repro.topology.graph import AsTopology
from repro.topology.isd_as import IsdAs

#: Environment variable disabling the cache (``0``/``off``/``false``/``no``).
SNAPSHOT_CACHE_ENV = "REPRO_SNAPSHOT_CACHE"

#: LRU bound: random-topology sweeps (Ablation B) would otherwise grow
#: the cache without limit; real batteries use a handful of keys.
MAX_CACHED_SNAPSHOTS = 64


@dataclass
class SnapshotStats:
    """Counters describing snapshot-cache usage (process-local)."""

    hits: int = 0
    misses: int = 0
    #: Builds performed with the cache disabled via the env var.
    bypasses: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        self.hits = self.misses = self.bypasses = self.evictions = 0


#: Process-local usage counters.
stats = SnapshotStats()

_cache: "OrderedDict[tuple, ControlPlaneSnapshot]" = OrderedDict()


@dataclass(frozen=True)
class ControlPlaneSnapshot:
    """Frozen, shareable control-plane state of one world configuration.

    Attributes:
        key: the cache key this snapshot was built under.
        pki: TRCs, AS certificates, signing keys, forwarding keys.
        store: the segment store produced by beaconing (verified when
            ``verify_beacons`` was set).
        bgp: the converged BGP RIB.
        core_ases: the topology's core ASes (what end hosts learn from
            their TRCs).
    """

    key: tuple
    pki: ControlPlanePki
    store: SegmentStore
    bgp: BgpRib
    core_ases: frozenset[IsdAs]


def cache_enabled(override: bool | None = None) -> bool:
    """Whether the snapshot cache is active.

    An explicit ``override`` (the ``Internet(snapshot_cache=...)``
    kwarg) wins; otherwise the ``REPRO_SNAPSHOT_CACHE`` environment
    knob, parsed by the shared :mod:`repro.internet.knobs` rules.
    """
    return resolve_knob(SNAPSHOT_CACHE_ENV, override)


def snapshot_key(topology: AsTopology, seed: int, beacons_per_target: int,
                 verify_beacons: bool) -> tuple:
    """The cache key: every input the control-plane state depends on."""
    return (topology.fingerprint(), seed, beacons_per_target,
            bool(verify_beacons))


def _build(topology: AsTopology, seed: int, beacons_per_target: int,
           verify_beacons: bool, key: tuple) -> ControlPlaneSnapshot:
    pki = ControlPlanePki(topology, seed=seed)
    beaconing = BeaconingService(
        topology, pki, beacons_per_target=beacons_per_target,
        verify_on_extend=verify_beacons)
    store = beaconing.build_store()
    bgp = compute_routes(topology)
    core_ases = frozenset(info.isd_as for info in topology.core_ases())
    return ControlPlaneSnapshot(key=key, pki=pki, store=store, bgp=bgp,
                                core_ases=core_ases)


def control_plane_snapshot(topology: AsTopology, seed: int = 0,
                           beacons_per_target: int = 8,
                           verify_beacons: bool = False,
                           cache: bool | None = None
                           ) -> ControlPlaneSnapshot:
    """The (cached) control plane for one world configuration.

    On a hit, the returned snapshot is the very object a previous build
    produced — PKI generation, beaconing, and BGP convergence are all
    skipped. On a miss the state is built once and interned. ``cache``
    overrides the ``REPRO_SNAPSHOT_CACHE`` knob per call, so single
    worlds can opt out without touching the process environment.
    """
    key = snapshot_key(topology, seed, beacons_per_target, verify_beacons)
    if not cache_enabled(cache):
        stats.bypasses += 1
        return _build(topology, seed, beacons_per_target, verify_beacons, key)
    snapshot = _cache.get(key)
    if snapshot is not None:
        stats.hits += 1
        _cache.move_to_end(key)
        return snapshot
    stats.misses += 1
    snapshot = _build(topology, seed, beacons_per_target, verify_beacons, key)
    _cache[key] = snapshot
    while len(_cache) > MAX_CACHED_SNAPSHOTS:
        _cache.popitem(last=False)
        stats.evictions += 1
    return snapshot


def cache_size() -> int:
    """Number of snapshots currently interned."""
    return len(_cache)


def clear_cache() -> None:
    """Drop every interned snapshot (test isolation / memory reclaim)."""
    _cache.clear()
