"""AsRouter edge cases not reachable through the happy paths, and the
safety of its verified-hop-field cache."""

import dataclasses

import pytest

from repro.crypto.mac import verify_hop_mac
from repro.experiments import population as pop
from repro.internet import router as router_module
from repro.internet.build import Internet
from repro.internet.host import Datagram
from repro.scion.addr import HostAddr
from repro.scion.beaconing import BeaconingService
from repro.scion.daemon import PathDaemon
from repro.scion.path import EXP_TIME_UNIT_S
from repro.scion.path_server import PathServer
from repro.simnet.packet import Packet
from repro.topology.defaults import remote_testbed
from repro.topology.isd_as import IsdAs
from repro.units import seconds
from repro.workload import ArrivalCurve


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=80)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


def raw_packet(client, server, protocol, meta=None, size=64):
    datagram = Datagram(src=client.addr, src_port=1, dst=server.addr,
                        dst_port=2, payload=b"x", size=size, via="ip")
    return Packet(src=client.addr, dst=server.addr, payload=datagram,
                  size=size, protocol=protocol, meta=meta or {})


class TestScionEdgeCases:
    def test_unknown_protocol_dropped_silently(self, world):
        internet, ases, client, server = world
        client.send(raw_packet(client, server, "carrier-pigeon"),
                    client.ROUTER_IFID)
        internet.run()
        assert server.datagrams_received == 0

    def test_scion_packet_without_path_to_remote_counted(self, world):
        """A pathless SCION packet can only be delivered intra-AS; for a
        remote destination the local router drops it (no such host)."""
        internet, ases, client, server = world
        packet = raw_packet(client, server, "scion",
                            meta={"path": None, "hop_index": 0})
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert server.datagrams_received == 0
        assert internet.routers[ases.client].no_host == 1

    def test_hop_index_beyond_path_counted(self, world):
        internet, ases, client, server = world
        path = client.daemon.paths(ases.remote_server)[0]
        packet = raw_packet(client, server, "scion",
                            meta={"path": path, "hop_index": 99})
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert internet.routers[ases.client].path_errors == 1

    def test_wrong_as_in_hop_counted(self, world):
        internet, ases, client, server = world
        # A path that starts at a different AS: the client's router is
        # not the AS named in hop 0.
        foreign = internet.add_host("foreign", ases.nearby_server)
        path = foreign.daemon.paths(ases.remote_server)[0]
        packet = raw_packet(client, server, "scion",
                            meta={"path": path, "hop_index": 0})
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert internet.routers[ases.client].path_errors == 1


class TestIpEdgeCases:
    def test_no_route_counted(self, world):
        internet, ases, client, _server = world
        # Empty the client router's table to simulate a withdrawn route.
        internet.routers[ases.client].ip_table = {}
        ghost = HostAddr(IsdAs.parse("2-ff00:0:220"), "server")
        socket = client.udp_socket()
        socket.send(ghost, 1, b"x", 16, via="ip")
        internet.run()
        assert internet.routers[ases.client].no_route == 1

    def test_transit_charges_internal_latency(self, world):
        """Delivery through a transit AS must include that AS's internal
        latency (control-plane metadata counts it too)."""
        internet, ases, client, server = world
        socket_server = server.udp_socket(9)
        received_at = []

        def listen():
            yield socket_server.recv()
            received_at.append(internet.loop.now)

        internet.loop.process(listen())
        socket = client.udp_socket()
        socket.send(server.addr, 9, b"x", 16, via="ip")
        internet.run()
        one_way = internet.bgp.path_latency_ms(ases.client,
                                               ases.remote_server)
        assert received_at[0] == pytest.approx(one_way, rel=0.05)


class TestLinkDownTrace:
    def test_drop_down_event_recorded(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=81, trace=True)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        internet.set_link_state(ases.local_core, ases.remote_core, up=False)
        socket = client.udp_socket()
        socket.send(server.addr, 9, b"x", 16, via="ip")
        internet.run()
        drops = internet.network.trace.drops()
        assert any(entry.event == "drop-down" for entry in drops)


# -- the verified-hop-field cache ---------------------------------------------


@pytest.fixture
def mac_calls(monkeypatch):
    """Count calls of the router's ``verify_hop_mac`` binding."""
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_hop_mac(*args)

    monkeypatch.setattr(router_module, "verify_hop_mac", counting)
    return calls


def send_scion(internet, client, server, path, port=9):
    client.udp_socket().send(server.addr, port, b"x", 32, via="scion",
                             path=path)
    internet.run()


def tamper_first_hop(path, **changes):
    """``path`` with hop 0's hop field changed but not re-MACed."""
    first = path.hops[0]
    forged = dataclasses.replace(
        first, hop_field=dataclasses.replace(first.hop_field, **changes))
    return dataclasses.replace(path, hops=(forged, *path.hops[1:]))


def short_lived_world(verify_macs=True):
    """A world whose hop fields expire after one unit (337.5 s)."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=1, verify_macs=verify_macs)
    service = BeaconingService(topology, internet.pki, exp_time=0)
    internet.segment_store = service.build_store()
    internet.path_server = PathServer(internet.segment_store)
    client = internet.add_host("client", ases.client)
    client.daemon = PathDaemon(
        isd_as=ases.client, path_server=internet.path_server,
        core_ases=set(internet.core_ases), clock=internet.loop)
    server = internet.add_host("server", ases.remote_server)
    server.udp_socket(9)
    return internet, ases, client, server


class TestVerifiedHopCache:
    def test_forgeries_are_recomputed_and_never_cached(self, world,
                                                       mac_calls):
        internet, ases, client, server = world
        server.udp_socket(9)
        router = internet.routers[ases.client]
        genuine = client.daemon.paths(ases.remote_server)[0]
        send_scion(internet, client, server, genuine)
        assert server.datagrams_received == 1
        cached = len(router._verified)
        first_hop = genuine.hops[0].hop_field
        bad_mac = bytes(b ^ 0xFF for b in first_hop.mac)
        forgeries = [tamper_first_hop(genuine, mac=bad_mac),
                     tamper_first_hop(genuine, egress=first_hop.egress + 1)]
        calls_before = len(mac_calls)
        for _ in range(3):
            for forged in forgeries:
                send_scion(internet, client, server, forged)
        assert server.datagrams_received == 1
        assert router.mac_failures == 6
        assert len(mac_calls) - calls_before == 6
        assert len(router._verified) == cached

    def test_same_hop_field_under_new_timestamp_is_reverified(self, world,
                                                              mac_calls):
        internet, ases, client, server = world
        server.udp_socket(9)
        router = internet.routers[ases.client]
        genuine = client.daemon.paths(ases.remote_server)[0]
        send_scion(internet, client, server, genuine)
        calls_before = len(mac_calls)
        restamped = dataclasses.replace(genuine,
                                        timestamp=genuine.timestamp + 1)
        assert restamped.hops[0].hop_field == genuine.hops[0].hop_field
        send_scion(internet, client, server, restamped)
        assert server.datagrams_received == 1
        assert router.mac_failures == 1
        assert len(mac_calls) - calls_before == 1

    def test_expiry_is_checked_on_every_packet(self, mac_calls):
        internet, ases, client, server = short_lived_world()
        router = internet.routers[ases.client]
        path = client.daemon.paths(ases.remote_server)[0]
        send_scion(internet, client, server, path)
        assert server.datagrams_received == 1
        assert router.expired_drops == 0
        calls_before = len(mac_calls)
        internet.loop.run(until=seconds(EXP_TIME_UNIT_S + 1))
        send_scion(internet, client, server, path)
        assert server.datagrams_received == 1
        assert router.expired_drops == 1
        # The cached hop field was not re-verified: its stored expiry
        # alone was compared against the clock.
        assert len(mac_calls) == calls_before

    def test_expired_packets_dropped_with_macs_off(self, mac_calls):
        internet, ases, client, server = short_lived_world(
            verify_macs=False)
        router = internet.routers[ases.client]
        path = client.daemon.paths(ases.remote_server)[0]
        send_scion(internet, client, server, path)
        assert server.datagrams_received == 1
        internet.loop.run(until=seconds(EXP_TIME_UNIT_S + 1))
        send_scion(internet, client, server, path)
        assert server.datagrams_received == 1
        assert router.expired_drops == 1
        assert mac_calls == []


class NoMemo(dict):
    """A verified-hop cache that stores nothing: every packet re-verifies,
    as real routers do."""

    def __setitem__(self, key, value):
        pass


class TestCacheDeterminism:
    """The cache touches neither the RNG nor the clock: a population
    world replays bit-for-bit with the cache defeated. (The pinned
    packet-level PLTs in ``tests/simnet/test_fastpath.py`` cover the
    single-page runs.)"""

    @staticmethod
    def city(memo=True):
        world = pop.build_population_world(
            "opportunistic-SCION", 970, users=6, sites=6,
            arrival=ArrivalCurve(window_ms=1_000.0))
        routers = world.internet.routers.values()
        if not memo:
            for router in routers:
                router._verified = NoMemo()
        processes = pop.start_sessions(world)
        world.internet.run()
        plts = [row[2] for row in pop.harvest_rows(processes)]
        return (plts, world.internet.loop.events_processed,
                sum(router.packets_received for router in routers))

    def test_population_world_replays_without_the_cache(self, mac_calls):
        cached = self.city()
        cached_verifies = len(mac_calls)
        uncached = self.city(memo=False)
        plts, _events, packets = cached
        assert plts and packets > 0
        assert uncached == cached
        assert cached_verifies < packets
        assert len(mac_calls) - cached_verifies >= packets
