"""The traced run: spans and counts at every layer's public entry points.

:func:`install` wraps each measured function where its callers look it
up — a class attribute for methods, and every module binding for
functions (``from … import`` copies included, e.g. the router's own
``verify_hop_mac``). A :class:`Recorder` keeps spans in memory as
columns (name, parent span, load id, start, end) and folds each closed
span into per-name self time: the span's duration minus the part its
child spans cover. Generator entry points (page loads, extension
interception, proxy fetches, HTTP requests) get one span per
resumption, so wall-clock busy time never includes simulated waiting;
their simulated durations are summed separately. Event scheduling is
counted, not spanned, by the calling package.

Counts taken here are checked against the program's own counters
(:meth:`Recorder.cross_check`), which proves the wrappers saw every
call.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

perf_ns = time.perf_counter_ns

#: Top-level packages event scheduling is attributed to. ``bench`` is
#: this benchmark's own session drivers; anything else is ``other``.
SCHEDULING_PACKAGES = ("simnet", "internet", "transport", "quic", "ip",
                       "http", "dns", "core", "scion", "bench", "other")

#: Every reason a message leaves the fast path for: ``try_send``
#: refusing it, or an in-flight transfer being demoted to packets
#: (``contention``, ``stream-order``, ``link-down``, ``fault``).
FALLBACK_REASONS = ("disabled", "unpaired", "channel-state", "channel-busy",
                    "no-route", "link-state", "mtu", "contention",
                    "path-expiry", "stream-order", "link-down", "fault")

#: Span names, by the key their wrapper uses.
SPANS = {
    "run": "simnet.events.run",
    "transmit": "simnet.link.transmit",
    "send": "simnet.node.send",
    "datagram": "internet.host.send_datagram",
    "try_send": "simnet.fastpath.try_send",
    "jitter": "simnet.fastpath.expected_round_jitter",
    "router": "internet.router.receive",
    "mac": "crypto.mac.verify_hop_mac",
    "on_frame": "transport.on_frame",
    "request": "http.client.request",
    "fetch": "core.skip.fetch",
    "extension": "core.extension.handle_request",
    "load": "core.browser.load",
    "ppl": "core.ppl.select",
    "paths": "scion.daemon.paths",
    "combine": "scion.combinator.combine_segments",
    "snapshot": "internet.snapshot.control_plane_snapshot",
    "sign": "crypto.rsa.sign",
    "world": "internet.build.world",
    "plan": "workload.plan",
}


class Recorder:
    """In-memory spans, per-name self time, and wrapper counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.load_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: list[int] = []
        self._child: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.calls: list[int] = []
        #: Load id of the page load whose resumption is running (-1:
        #: none, e.g. packet events).
        self.load = -1
        self._loads = 0
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.scheduled = dict.fromkeys(SCHEDULING_PACKAGES, 0)
        self.processed = 0
        self.mac_args: set = set()
        self.peak_backlog = 0
        #: Program objects built since the last harvest, by kind.
        self.instances: dict[str, list] = {}
        #: The program's own counters, summed over harvested units.
        self.program: Counter = Counter()
        for name in SPANS.values():
            self.name_id(name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def new_load(self) -> int:
        self._loads += 1
        return self._loads

    def open(self, nid: int) -> int:
        index = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.load_col.append(self.load)
        self.end_col.append(0)
        self._stack.append(index)
        self._child.append(0)
        self.start_col.append(perf_ns())
        return index

    def close(self, index: int) -> None:
        end = perf_ns()
        self.end_col[index] = end
        self._stack.pop()
        duration = end - self.start_col[index]
        nid = self.name_col[index]
        self.self_ns[nid] += duration - self._child.pop()
        self.total_ns[nid] += duration
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += duration

    def top_is(self, nid: int) -> bool:
        """Whether the innermost open span is ``nid``."""
        return bool(self._stack) and self.name_col[self._stack[-1]] == nid

    def register(self, kind: str, obj) -> None:
        self.instances.setdefault(kind, []).append(obj)

    def ms(self, name: str, total: bool = False) -> float:
        nid = self._ids[name]
        return (self.total_ns if total else self.self_ns)[nid] / 1e6

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]]

    # -- program counters --------------------------------------------------

    def harvest(self) -> None:
        """Add the finished unit's program counters; forget its objects."""
        instances, self.instances = self.instances, {}
        program = self.program
        for loop in instances.get("loop", ()):
            program["events_processed"] += loop.events_processed
        for router in instances.get("router", ()):
            program["router_packets"] += router.packets_received
        for daemon in instances.get("daemon", ()):
            program["daemon_queries"] += daemon.stats.queries
            program["daemon_cache_hits"] += daemon.stats.cache_hits
        for server in instances.get("path_server", ()):
            program["path_server_lookups"] += server.stats.total()
        for fastpath in instances.get("fastpath", ()):
            program["fastpath_transfers"] += fastpath.stats.transfers
            program["fastpath_demotions"] += fastpath.stats.demotions
            for reason, count in fastpath.stats.fallbacks.items():
                program[f"fallback:{reason}"] += count
        for channel in instances.get("channel", ()):
            program["retransmissions"] += channel.stats.retransmissions
            program["timeouts"] += channel.stats.timeouts
        for client in instances.get("client", ()):
            program["pool_waits"] += client.stats.pool_waits
            program["pool_wait_ms"] += client.stats.pool_wait_ms
            program["connections_opened"] += client.stats.connections_opened
        for proxy in instances.get("proxy", ()):
            program["skip_fetches"] += proxy.fetches
            program["skip_attempts"] += proxy.attempts
            program["budget_exhausted"] += proxy.retry_budget.exhausted_total
        for controller in instances.get("admission", ()):
            program["admitted"] += controller.stats.admitted
            program["shed"] += controller.stats.shed_total()
            self.peak_backlog = max(self.peak_backlog,
                                    controller.stats.peak_backlog)

    def cross_check(self) -> list[str]:
        """Wrapper-derived counts that disagree with the program's own."""
        counts, sums, program = self.counts, self.sums, self.program
        pairs = [
            ("simnet.events.processed", self.processed,
             program["events_processed"]),
            ("internet.router.packets", self.calls_of(SPANS["router"]),
             program["router_packets"]),
            ("scion.daemon.queries", self.calls_of(SPANS["paths"]),
             program["daemon_queries"]),
            ("scion.daemon.cache_hits", counts["daemon_hits"],
             program["daemon_cache_hits"]),
            ("scion.path_server.lookups", counts["path_server_lookups"],
             program["path_server_lookups"]),
            ("simnet.fastpath.transfers", counts["fastpath_transfers"],
             program["fastpath_transfers"]),
            ("simnet.fastpath.demotions", counts["fastpath_demotions"],
             program["fastpath_demotions"]),
            # The program counts demotions among its fallbacks.
            ("simnet.fastpath.attempts", self.calls_of(SPANS["try_send"]),
             program["fastpath_transfers"] - program["fastpath_demotions"]
             + sum(count for key, count in program.items()
                   if key.startswith("fallback:"))),
            ("transport.retransmissions", counts["retransmissions"],
             program["retransmissions"]),
            ("http.client.pool_waits", counts["pool_waits"],
             program["pool_waits"]),
            ("http.client.connections_opened",
             counts["connections_opened"], program["connections_opened"]),
            ("core.skip.fetches", counts["skip_fetches"],
             program["skip_fetches"]),
            ("core.skip.attempts", counts["skip_attempts"],
             program["skip_attempts"]),
            ("core.skip.budget_exhausted", counts["budget_exhausted"],
             program["budget_exhausted"]),
            ("scion.admission.admitted", counts["admitted"],
             program["admitted"]),
            ("scion.admission.shed", counts["shed"], program["shed"]),
        ]
        reasons = {key for key in (*counts, *program)
                   if key.startswith("fallback:")}
        pairs += [(f"simnet.fastpath.fallbacks.{key[len('fallback:'):]}",
                   counts[key], program[key]) for key in sorted(reasons)]
        mismatches = [f"{name}: traced {traced} != program {own}"
                      for name, traced, own in pairs if traced != own]
        if abs(sums["pool_wait_ms"] - program["pool_wait_ms"]) > 1e-6 * max(
                1.0, program["pool_wait_ms"]):
            mismatches.append(
                f"http.client.pool_wait_ms: traced {sums['pool_wait_ms']} "
                f"!= program {program['pool_wait_ms']}")
        return mismatches

    # -- output ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of everything recorded so far."""
        counts, sums, ms = self.counts, self.sums, self.ms
        attempts = self.calls_of(SPANS["try_send"])
        verifies = self.calls_of(SPANS["mac"])
        queries = self.calls_of(SPANS["paths"])
        fetches = counts["skip_fetches"]
        return {
            "simnet.events.processed": (self.processed, "count"),
            **{f"simnet.events.scheduled.{package}": (count, "count")
               for package, count in self.scheduled.items()},
            "simnet.events.run_self_ms": (ms(SPANS["run"]), "ms"),
            "simnet.link.transmits": (self.calls_of(SPANS["transmit"]),
                                      "count"),
            "simnet.link.transmit_ms": (ms(SPANS["transmit"]), "ms"),
            "simnet.link.bytes": (counts["link_bytes"], "bytes"),
            "simnet.link.drops": (counts["link_drops"], "count"),
            "simnet.link.queue_wait_ms": (sums["queue_wait_ms"], "ms"),
            "simnet.node.sends": (self.calls_of(SPANS["send"]), "count"),
            "simnet.node.send_ms": (ms(SPANS["send"]), "ms"),
            "internet.host.datagrams": (self.calls_of(SPANS["datagram"]),
                                        "count"),
            "internet.host.send_ms": (ms(SPANS["datagram"]), "ms"),
            "simnet.fastpath.attempts": (attempts, "count"),
            "simnet.fastpath.transfers": (counts["fastpath_transfers"],
                                          "count"),
            "simnet.fastpath.demotions": (counts["fastpath_demotions"],
                                          "count"),
            **{f"simnet.fastpath.fallbacks.{reason}":
               (counts[f"fallback:{reason}"], "count")
               for reason in FALLBACK_REASONS},
            "simnet.fastpath.analytic_share": (
                counts["fastpath_transfers"] / attempts if attempts else 0.0,
                "ratio"),
            "simnet.fastpath.try_send_ms": (ms(SPANS["try_send"]), "ms"),
            "simnet.fastpath.jitter_model_ms": (ms(SPANS["jitter"]), "ms"),
            "internet.router.packets": (self.calls_of(SPANS["router"]),
                                        "count"),
            "internet.router.receive_ms": (ms(SPANS["router"]), "ms"),
            "crypto.mac.verifies": (verifies, "count"),
            "crypto.mac.verify_ms": (ms(SPANS["mac"]), "ms"),
            "crypto.mac.distinct_share": (
                len(self.mac_args) / verifies if verifies else 0.0, "ratio"),
            "transport.segments_sent": (counts["segments_sent"], "count"),
            "transport.retransmissions": (counts["retransmissions"],
                                          "count"),
            "transport.timeouts": (self.program["timeouts"], "count"),
            "transport.on_frame_ms": (ms(SPANS["on_frame"]), "ms"),
            "quic.connects": (counts["quic_connects"], "count"),
            "ip.tcp.connects": (counts["tcp_connects"], "count"),
            "http.client.requests": (counts["requests"], "count"),
            "http.client.connections_opened": (
                counts["connections_opened"], "count"),
            "http.client.pool_waits": (counts["pool_waits"], "count"),
            "http.client.pool_wait_ms": (sums["pool_wait_ms"], "ms"),
            "http.client.request_ms": (ms(SPANS["request"]), "ms"),
            "core.skip.fetches": (fetches, "count"),
            "core.skip.attempts": (counts["skip_attempts"], "count"),
            "core.skip.retry_amplification": (
                counts["skip_attempts"] / fetches if fetches else 0.0,
                "ratio"),
            "core.skip.budget_exhausted": (counts["budget_exhausted"],
                                           "count"),
            "core.skip.breaker_opens": (counts["breaker_opens"], "count"),
            "core.skip.fetch_ms": (ms(SPANS["fetch"]), "ms"),
            "core.skip.fetch_sim_ms": (sums["fetch_sim_ms"], "ms"),
            "core.extension.requests": (counts["extension_requests"],
                                        "count"),
            "core.extension.handle_ms": (ms(SPANS["extension"]), "ms"),
            "core.browser.loads": (counts["loads"], "count"),
            "core.browser.load_ms": (ms(SPANS["load"]), "ms"),
            "core.ppl.selects": (counts["ppl_selects"], "count"),
            "core.ppl.select_ms": (ms(SPANS["ppl"]), "ms"),
            "scion.daemon.queries": (queries, "count"),
            "scion.daemon.cache_hit_rate": (
                counts["daemon_hits"] / queries if queries else 0.0,
                "ratio"),
            "scion.daemon.paths_ms": (ms(SPANS["paths"]), "ms"),
            "scion.path_server.lookups": (counts["path_server_lookups"],
                                          "count"),
            "scion.combinator.calls": (self.calls_of(SPANS["combine"]),
                                       "count"),
            "scion.combinator.ms": (ms(SPANS["combine"]), "ms"),
            "scion.admission.admitted": (counts["admitted"], "count"),
            "scion.admission.shed": (counts["shed"], "count"),
            "scion.admission.peak_backlog": (self.peak_backlog, "count"),
            "internet.build.world_ms": (
                ms(SPANS["world"], total=True)
                - ms(SPANS["plan"], total=True), "ms"),
            "internet.snapshot.misses": (counts["snapshot_misses"], "count"),
            "internet.snapshot.build_ms": (sums["snapshot_build_ms"], "ms"),
            "crypto.rsa.signs": (self.calls_of(SPANS["sign"]), "count"),
            "crypto.rsa.sign_ms": (ms(SPANS["sign"]), "ms"),
            "workload.plan_ms": (ms(SPANS["plan"], total=True), "ms"),
        }

    def write(self, path: str) -> None:
        """Write the spans (columns plus the name table) as ``.npz``."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_col, dtype=np.uint16),
                 parent=np.frombuffer(self.parent_col, dtype=np.int32),
                 load=np.frombuffer(self.load_col, dtype=np.int32),
                 start_ns=np.frombuffer(self.start_col, dtype=np.int64),
                 end_ns=np.frombuffer(self.end_col, dtype=np.int64))


def drive(recorder: Recorder, inner, nid: int | None, load: int,
          on_yield=None, on_done=None):
    """Run generator ``inner`` exactly as ``yield from`` would, timing
    each resumption as one ``nid`` span attributed to ``load``.

    ``on_yield(target)`` sees every event the generator waits on;
    ``on_done(ok)`` runs when it returns, raises or is closed.
    """
    send = None
    error = None
    while True:
        outer_load, recorder.load = recorder.load, load
        index = recorder.open(nid) if nid is not None else -1
        try:
            if error is None:
                target = inner.send(send)
            else:
                target = inner.throw(error)
        except StopIteration as stop:
            if index >= 0:
                recorder.close(index)
            recorder.load = outer_load
            if on_done is not None:
                on_done(True)
            return stop.value
        except BaseException:
            if index >= 0:
                recorder.close(index)
            recorder.load = outer_load
            if on_done is not None:
                on_done(False)
            raise
        if index >= 0:
            recorder.close(index)
        recorder.load = outer_load
        if on_yield is not None:
            on_yield(target)
        try:
            send = yield target
            error = None
        except GeneratorExit:
            inner.close()
            if on_done is not None:
                on_done(False)
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded inward
            send = None
            error = thrown


#: Names this benchmark's own modules run under (their event scheduling
#: is attributed to ``bench``).
BENCH_MODULES = frozenset({"workloads", "run", "__main__"})


class Patches:
    """Wrappers installed over program attributes, undone by
    :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, tuple[object, object]] = {}

    def method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, original, make(original))

    def function(self, module, name: str, make) -> None:
        """Wrap ``module.name`` and every repro module binding it."""
        original = vars(module)[name]
        wrapper = make(original)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and vars(other).get(name) is original):
                self._set(other, name, original, wrapper)

    def _set(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))
        self._originals[id(wrapper)] = (wrapper, original)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        # A module first imported while tracing bound a wrapper itself.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])


def install(rec: Recorder) -> Patches:
    """Wrap every measured entry point; returns the undo handle."""
    import importlib

    from repro.core.browser import brave
    from repro.core.extension import extension
    from repro.core.ppl import evaluator
    from repro.core.skip import breaker, proxy, retry_budget
    from repro.crypto import mac, rsa
    from repro.http import client
    from repro.experiments import local_setup
    from repro.internet import host, router, snapshot
    from repro.ip import tcp
    from repro.quic import connection
    from repro.scion import admission, combinator, daemon, path_server
    from repro.simnet import events, fastpath, link, node
    from repro.transport import reliable
    from repro.workload import arrivals, catalog, session

    # Modules that bind measured functions by ``from … import``; import
    # them now so their bindings exist when the wrappers go in.
    for name in ("repro.internet.build", "repro.experiments.population",
                 "repro.experiments.overload", "repro.quic.multipath",
                 "repro.core.onion", "repro.core.skip.session"):
        importlib.import_module(name)

    patches = Patches()
    counts, sums, scheduled = rec.counts, rec.sums, rec.scheduled
    open_, close = rec.open, rec.close
    nid = {key: rec.name_id(name) for key, name in SPANS.items()}

    def spanned(key: str):
        span = nid[key]

        def make(original):
            def wrapper(*args, **kwargs):
                index = open_(span)
                try:
                    return original(*args, **kwargs)
                finally:
                    close(index)
            return wrapper
        return make

    def registering(kind: str):
        def make(original):
            def wrapper(self, *args, **kwargs):
                original(self, *args, **kwargs)
                rec.register(kind, self)
            return wrapper
        return make

    def counting(key: str, when=lambda result: True):
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if when(result):
                    counts[key] += 1
                return result
            return wrapper
        return make

    # -- simnet.events: count scheduling by calling package ---------------
    loop_cls = events.EventLoop
    events_globals = vars(events)
    run_codes = {loop_cls.run.__code__, loop_cls.run_before.__code__,
                 loop_cls.run_process.__code__}
    package_of: dict[str, str] = {}

    def package(frame) -> str:
        while frame.f_globals is events_globals:
            if frame.f_code in run_codes:
                return "simnet"  # the loop itself (e.g. process exits)
            frame = frame.f_back
        if frame.f_code is counted.__code__:
            return "simnet"  # an event's own callback (timer, resume)
        module = frame.f_globals.get("__name__", "")
        found = package_of.get(module)
        if found is None:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and parts[1] in SCHEDULING_PACKAGES:
                found = parts[1]
            elif module in BENCH_MODULES:
                found = "bench"
            else:
                found = "other"
            package_of[module] = found
        return found

    def counted(callback, args):
        rec.processed += 1
        callback(*args)

    def make_call_at(original):
        def call_at(self, when, callback, *args):
            scheduled[package(sys._getframe(1))] += 1
            return original(self, when, counted, callback, args)
        return call_at

    def make_call_soon(original):
        def call_soon(self, callback, *args):
            scheduled[package(sys._getframe(1))] += 1
            return original(self, counted, callback, args)
        return call_soon

    patches.method(loop_cls, "__init__", registering("loop"))
    patches.method(loop_cls, "call_at", make_call_at)
    patches.method(loop_cls, "call_later", make_call_at)
    patches.method(loop_cls, "call_soon", make_call_soon)
    patches.method(loop_cls, "run", spanned("run"))

    # -- simnet.link / simnet.node / internet.host --------------------------
    transmit_span = nid["transmit"]

    def make_transmit(original):
        def transmit(self, packet, sender_name):
            wait = self.busy_until(sender_name) - self.loop.now
            sent = self.packets_sent
            index = open_(transmit_span)
            try:
                original(self, packet, sender_name)
            finally:
                close(index)
            if self.packets_sent == sent:
                counts["link_drops"] += 1
            else:
                counts["link_bytes"] += packet.size
                if wait > 0.0:
                    sums["queue_wait_ms"] += wait
        return transmit

    patches.method(link.Link, "transmit", make_transmit)
    patches.method(node.Node, "send", spanned("send"))
    patches.method(host.Host, "send_datagram", spanned("datagram"))

    # -- simnet.fastpath ------------------------------------------------------
    try_send_span = nid["try_send"]

    def make_try_send(original):
        def try_send(*args, **kwargs):
            index = open_(try_send_span)
            try:
                sent = original(*args, **kwargs)
            finally:
                close(index)
            if sent:
                counts["fastpath_transfers"] += 1
            return sent
        return try_send

    def make_fallback(original):
        def _fallback(self, reason, channel=None):
            counts[f"fallback:{reason}"] += 1
            return original(self, reason, channel)
        return _fallback

    def make_demote(original):
        def _demote(self, transfer, reason):
            done = transfer.done
            original(self, transfer, reason)
            if not done and transfer.done:
                counts["fastpath_demotions"] += 1
                counts[f"fallback:{reason}"] += 1
        return _demote

    patches.method(fastpath.FastPath, "__init__", registering("fastpath"))
    patches.method(fastpath.FastPath, "_demote", make_demote)
    patches.method(fastpath.FastPath, "try_send", make_try_send)
    patches.method(fastpath.FastPath, "_fallback", make_fallback)
    patches.function(fastpath, "expected_round_jitter", spanned("jitter"))

    # -- internet.router / crypto.mac ------------------------------------------
    mac_span = nid["mac"]

    def make_verify(original):
        def verify_hop_mac(*args):
            rec.mac_args.add(args)
            index = open_(mac_span)
            try:
                return original(*args)
            finally:
                close(index)
        return verify_hop_mac

    patches.method(router.AsRouter, "__init__", registering("router"))
    patches.method(router.AsRouter, "receive", spanned("router"))
    patches.function(mac, "verify_hop_mac", make_verify)

    # -- transport / quic / ip.tcp ------------------------------------------------
    def make_segment(original):
        def _transmit_segment(self, segment, retransmission):
            counts["segments_sent"] += 1
            if retransmission:
                counts["retransmissions"] += 1
            return original(self, segment, retransmission)
        return _transmit_segment

    channel_cls = reliable.ReliableChannel
    patches.method(channel_cls, "__init__", registering("channel"))
    patches.method(channel_cls, "_transmit_segment", make_segment)
    patches.method(channel_cls, "on_frame", spanned("on_frame"))
    patches.function(connection, "quic_connect", counting("quic_connects"))
    patches.function(tcp, "tcp_connect", counting("tcp_connects"))

    # -- http.client ------------------------------------------------------------
    request_span, fetch_span = nid["request"], nid["fetch"]

    def make_request(original):
        def request(self, *args, **kwargs):
            counts["requests"] += 1
            if rec.top_is(fetch_span):
                counts["skip_attempts"] += 1
            return drive(rec, original(self, *args, **kwargs),
                         request_span, rec.load)
        return request

    def make_acquire(original):
        def _acquire(self, key, *args, **kwargs):
            loop = self.host.loop
            queued_at = []

            def settle(_ok=True):
                if queued_at:
                    sums["pool_wait_ms"] += loop.now - queued_at.pop()

            def on_yield(target):
                settle()
                pool = self._pools.get(key)
                if pool is not None and pool.waiters \
                        and pool.waiters[-1] is target:
                    counts["pool_waits"] += 1
                    queued_at.append(loop.now)

            return drive(rec, original(self, key, *args, **kwargs), None,
                         rec.load, on_yield, settle)
        return _acquire

    def make_open(original):
        def _open(self, *args, **kwargs):
            def on_done(ok):
                if ok:
                    counts["connections_opened"] += 1
            return drive(rec, original(self, *args, **kwargs), None,
                         rec.load, None, on_done)
        return _open

    client_cls = client.HttpClient
    patches.method(client_cls, "__init__", registering("client"))
    patches.method(client_cls, "request", make_request)
    patches.method(client_cls, "_acquire", make_acquire)
    patches.method(client_cls, "_open", make_open)

    # -- core.skip / core.extension / core.browser / core.ppl ------------------
    def make_fetch(original):
        def fetch(self, *args, **kwargs):
            counts["skip_fetches"] += 1
            loop = self.host.loop
            started = loop.now

            def on_done(_ok):
                sums["fetch_sim_ms"] += loop.now - started
            return drive(rec, original(self, *args, **kwargs), fetch_span,
                         rec.load, None, on_done)
        return fetch

    def make_generator_span(key: str, counter: str, new_load: bool = False):
        span = nid[key]

        def make(original):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                load = rec.new_load() if new_load else rec.load
                return drive(rec, original(*args, **kwargs), span, load)
            return wrapper
        return make

    ppl_span = nid["ppl"]

    def make_ppl(original):
        def wrapper(*args, **kwargs):
            if not rec.top_is(ppl_span):
                counts["ppl_selects"] += 1
            index = open_(ppl_span)
            try:
                return original(*args, **kwargs)
            finally:
                close(index)
        return wrapper

    patches.method(proxy.SkipProxy, "__init__", registering("proxy"))
    patches.method(proxy.SkipProxy, "fetch", make_fetch)
    patches.method(retry_budget.RetryBudget, "try_spend",
                   counting("budget_exhausted", lambda spent: not spent))
    patches.method(breaker.BreakerBoard, "record_failure",
                   counting("breaker_opens", lambda opened: opened is not None))
    patches.method(extension.BrowserExtension, "handle_request",
                   make_generator_span("extension", "extension_requests"))
    patches.method(brave.BraveBrowser, "load",
                   make_generator_span("load", "loads", new_load=True))
    for name in ("filter_paths", "order_paths", "select_path"):
        patches.function(evaluator, name, make_ppl)

    # -- scion ------------------------------------------------------------------
    paths_span = nid["paths"]

    def make_paths(original):
        def paths(self, dst):
            if dst != self.isd_as and dst in self._cache:
                counts["daemon_hits"] += 1
            index = open_(paths_span)
            try:
                return original(self, dst)
            finally:
                close(index)
        return paths

    patches.method(daemon.PathDaemon, "__init__", registering("daemon"))
    patches.method(daemon.PathDaemon, "paths", make_paths)
    patches.method(path_server.PathServer, "__init__",
                   registering("path_server"))
    for name in ("up_segments", "down_segments", "core_segments"):
        patches.method(path_server.PathServer, name,
                       counting("path_server_lookups"))
    patches.function(combinator, "combine_segments", spanned("combine"))
    admission_cls = admission.AdmissionController
    patches.method(admission_cls, "__post_init__", registering("admission"))
    patches.method(admission_cls, "admit", counting("admitted", bool))
    patches.method(admission_cls, "shed", counting("shed"))

    # -- world build ------------------------------------------------------------
    snapshot_span = nid["snapshot"]

    def make_snapshot(original):
        def control_plane_snapshot(*args, **kwargs):
            misses = snapshot.stats.misses
            index = open_(snapshot_span)
            started = perf_ns()
            try:
                return original(*args, **kwargs)
            finally:
                close(index)
                if snapshot.stats.misses != misses:
                    counts["snapshot_misses"] += 1
                    sums["snapshot_build_ms"] += (perf_ns() - started) / 1e6
        return control_plane_snapshot

    patches.function(snapshot, "control_plane_snapshot", make_snapshot)
    patches.method(rsa.RsaKeyPair, "sign", spanned("sign"))
    for module, name in ((catalog, "default_catalog"),
                         (session, "plan_session"),
                         (arrivals, "arrival_times"),
                         (arrivals, "spike_site_flags"),
                         (local_setup, "make_page")):
        patches.function(module, name, spanned("plan"))
    return patches
