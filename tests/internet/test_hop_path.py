"""Golden pins for the packet hop path.

Every hop is one link-arrival event plus one router-departure event, and
each link direction serializes FIFO. These tests pin what that path
produces, bit for bit, so a refactor of ``Link.transmit``,
``Node.send``, ``AsRouter`` forwarding or the per-packet value types
cannot reorder or retime a single packet unnoticed. (Comparing two runs
of the *same* code, as the cache-determinism tests do, would miss a
reordering that changes both runs alike.)
"""

import pytest

from repro.experiments import population as pop
from repro.internet.build import Internet
from repro.topology.defaults import remote_testbed
from repro.workload import ArrivalCurve

#: A 6-user remote-testbed population world (opportunistic SCION, world
#: seed 970, 6 sites, arrivals over 1 s), packet level and with the fast
#: path on: per-load PLTs in session order, events processed, packets
#: and bytes over all links, and packets received by all routers.
GOLDEN_CITY = {
    False: {
        "plts": [
            130.51064827300002, 120.59871389259433, 100.18556707608104,
            94.08656623133538, 130.28248810676337, 403.11478432868944,
            128.11103965867073, 99.84211150617375, 154.46132267806797,
            99.96215300104132, 103.2571348806623, 95.29945496723303,
            124.01930495385068, 86.2214764597311, 92.96974723652693,
            125.55211569713686, 685.0633696004076, 119.75141175331714,
        ],
        "events": 43401,
        "link_packets": 18384,
        "link_bytes": 11267287,
        "router_packets": 12474,
    },
    True: {
        "plts": [
            130.50456827300042, 120.59362589259308, 104.37511272414145,
            98.32614276192453, 131.62880255736184, 403.1147843286892,
            132.4819288038808, 99.84211150617375, 154.46132267806797,
            99.95706500103961, 103.2520468806606, 95.29436696723133,
            124.01421695384897, 86.21539645972871, 92.96465923652977,
            114.8774074984616, 683.2142867746394, 119.74632375331635,
        ],
        "events": 26494,
        "link_packets": 18376,
        "link_bytes": 11265591,
        "router_packets": 8084,
    },
}


class TestPopulationGolden:
    @pytest.mark.parametrize("fastpath", [False, True],
                             ids=["packet-level", "fastpath"])
    def test_city_replays_golden(self, monkeypatch, fastpath):
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        world = pop.build_population_world(
            "opportunistic-SCION", 970, users=6, sites=6,
            arrival=ArrivalCurve(window_ms=1_000.0))
        internet = world.internet
        assert (internet.fastpath is not None) is fastpath
        processes = pop.start_sessions(world)
        internet.run()
        links = internet.network.links
        observed = {
            "plts": [row[2] for row in pop.harvest_rows(processes)],
            "events": internet.loop.events_processed,
            "link_packets": sum(link.packets_sent for link in links),
            "link_bytes": sum(link.bytes_sent for link in links),
            "router_packets": sum(router.packets_received
                                  for router in internet.routers.values()),
        }
        assert observed == GOLDEN_CITY[fastpath]


class TestMixedDelayEgress:
    """One egress fed by a local host and by a transit interface.

    The core AS ``1-ff00:0:110`` forwards the client's packets in transit
    (charged its 0.2 ms internal latency) and its own host's packets
    (charged the 0.01 ms processing delay) out of interface 4. The
    host's first packet reaches the router *after* the client's first,
    yet departs before it; its second departs while nothing else is on
    the wire, so the client's transit packets queue behind it.
    """

    def test_departure_order_and_arrival_times(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=80, trace=True, fastpath=False)
        client = internet.add_host("client", ases.client)
        local = internet.add_host("local", ases.local_core)
        server = internet.add_host("server", ases.remote_server)
        inbox = server.udp_socket(9)
        core = internet.routers[ases.local_core]
        client_path = next(path for path in client.daemon.paths(
            ases.remote_server) if path.hops[2].egress == 4)
        local_path = next(path for path in local.daemon.paths(
            ases.remote_server) if path.hops[0].egress == 4)

        client_socket = client.udp_socket()
        local_socket = local.udp_socket()
        for tag in ("c0", "c1"):
            client_socket.send(server.addr, 9, tag, 1200, via="scion",
                               path=client_path)
        for when, tag in ((2.6, "l0"), (2.71, "l1")):
            internet.loop.call_at(when, local_socket.send, server.addr, 9,
                                  tag, 1200, "scion", local_path)
        internet.run()

        egress = core.ports[4].link.name
        events = [(entry.event, entry.src.host, entry.time)
                  for entry in internet.network.trace.entries
                  if entry.link == egress]
        assert events == [
            ("send", "local", 2.81),
            ("send", "local", 2.92),
            ("send", "client", 2.920624),
            ("send", "client", 2.931248),
            ("recv", "local", 24.820432),
            ("recv", "local", 24.930432),
            ("recv", "client", 24.941056),
            ("recv", "client", 24.95168),
        ]
        assert [datagram.payload for datagram in inbox._queue] == [
            "l0", "l1", "c0", "c1"]
