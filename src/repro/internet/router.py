"""Dual-stack AS border routers.

One :class:`AsRouter` per AS forwards both kinds of traffic:

* **SCION** packets carry their path in the header; the router checks
  that the current hop names this AS, verifies the hop field's MAC with
  the AS's forwarding key (dropping forgeries), drops packets whose hop
  field has expired, and forwards out the hop's egress interface — the
  router holds *no* per-destination state, which is SCION's defining
  data-plane property,
* **IP** packets are forwarded by exact-match lookup of the destination
  AS in the BGP-derived forwarding table.

Transit crossings (external interface in, external interface out) are
charged the AS's internal latency so the data plane matches the latency
metadata the control plane advertises.

Modelling choice: real border routers recompute the hop-field MAC on
every packet. Here each router memoizes the hop fields it has verified,
keyed by ``(path timestamp, hop field)``, and stores the hop's expiry
time. The MAC is a pure function of the AS's forwarding key, the
timestamp and the hop field, and no simulated delay depends on computing
it, so the memo changes wall-clock cost only, never simulated output.
Forgeries are never memoized: each one is recomputed, counted and
dropped. Expiry is compared against the clock on every packet.
"""

from __future__ import annotations

from repro.crypto.mac import verify_hop_mac
from repro.errors import SimulationError, VerificationError
from repro.scion.beacon import HopField
from repro.scion.path import EXP_TIME_UNIT_S, ScionPath
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.isd_as import IsdAs

#: Router processing overhead for non-transit crossings (ms).
PROCESSING_DELAY_MS = 0.01


class AsRouter(Node):
    """The border router (and intra-AS fabric) of one AS."""

    def __init__(self, name: str, isd_as: IsdAs, forwarding_key: bytes,
                 internal_latency_ms: float = 0.2,
                 verify_macs: bool = True) -> None:
        super().__init__(name)
        self.isd_as = isd_as
        self.forwarding_key = forwarding_key
        self.internal_latency_ms = internal_latency_ms
        self.verify_macs = verify_macs
        # (path timestamp, hop field) -> hop expiry (ms) for hop fields
        # whose MAC verified (every field seen, with verify_macs off).
        self._verified: dict[tuple[int, HopField], float] = {}
        #: interface ids that lead to other ASes (from the topology).
        self.external_ifids: set[int] = set()
        #: local host name -> host-facing interface id.
        self.host_ports: dict[str, int] = {}
        #: BGP forwarding table: destination AS -> egress interface id.
        self.ip_table: dict[IsdAs, int] = {}
        # drop counters
        self.mac_failures = 0
        self.path_errors = 0
        self.expired_drops = 0
        self.no_route = 0
        self.no_host = 0

    # -- wiring helpers (used by the Internet builder) -------------------------

    def register_host(self, host_name: str, ifid: int) -> None:
        """Record that ``host_name`` hangs off interface ``ifid``."""
        self.host_ports[host_name] = ifid

    # -- forwarding ---------------------------------------------------------------

    def receive(self, packet: Packet, ifid: int) -> None:
        self.packets_received += 1
        if packet.protocol == "scion":
            self._forward_scion(packet, ifid)
        elif packet.protocol == "ip":
            self._forward_ip(packet, ifid)
        # unknown protocols are dropped silently (counted in
        # packets_received above, like every arrival)

    # -- SCION ------------------------------------------------------------------

    def _forward_scion(self, packet: Packet, in_ifid: int) -> None:
        meta = packet.meta
        path: ScionPath | None = meta.get("path")
        if path is None:
            # Intra-AS SCION traffic: deliver directly to the local host.
            self._deliver_local(packet, transit=False)
            return
        hop_index = meta.get("hop_index", 0)
        hops = path.hops
        isd_as = self.isd_as  # the hops' own object: `is` settles most checks
        while True:
            if hop_index >= len(hops):
                self.path_errors += 1
                return
            hop = hops[hop_index]
            if hop.isd_as is not isd_as and hop.isd_as != isd_as:
                self.path_errors += 1
                return
            expiry_ms = self._verified.get((path.timestamp, hop.hop_field))
            if expiry_ms is None:
                expiry_ms = self._verify_hop(path, hop.hop_field)
                if expiry_ms is None:
                    self.mac_failures += 1
                    return
            if self.loop.now >= expiry_ms:
                self.expired_drops += 1
                return
            if hop.egress != 0:
                meta["hop_index"] = hop_index + 1
                self._send_delayed(packet, hop.egress,
                                   in_ifid in self.external_ifids)
                return
            next_index = hop_index + 1
            if next_index < len(hops) and (
                    hops[next_index].isd_as is isd_as
                    or hops[next_index].isd_as == isd_as):
                hop_index = next_index  # segment crossover, keep processing
                continue
            self._deliver_local(packet, transit=False)
            return

    def _verify_hop(self, path: ScionPath,
                    hop_field: HopField) -> float | None:
        """Verify one hop field's MAC and memoize its expiry (ms).

        Returns ``None`` for a forgery, which is not memoized. The expiry
        is SCION's relative encoding:
        ``timestamp + (exp_time + 1) × 337.5 s``.
        """
        if self.verify_macs:
            try:
                verify_hop_mac(self.forwarding_key, path.timestamp,
                               hop_field.exp_time, hop_field.ingress,
                               hop_field.egress, hop_field.mac,
                               hop_field.chain)
            except VerificationError:
                return None
        expiry_ms = (path.timestamp
                     + (hop_field.exp_time + 1) * EXP_TIME_UNIT_S) * 1000.0
        self._verified[(path.timestamp, hop_field)] = expiry_ms
        return expiry_ms

    # -- legacy IP -----------------------------------------------------------------

    def _forward_ip(self, packet: Packet, in_ifid: int) -> None:
        dst = packet.dst
        if dst.isd_as == self.isd_as:
            self._deliver_local(packet, transit=False)
            return
        egress = self.ip_table.get(dst.isd_as)
        if egress is None:
            self.no_route += 1
            return
        transit = in_ifid in self.external_ifids
        self._send_delayed(packet, egress, transit=transit)

    # -- helpers ------------------------------------------------------------------

    def _deliver_local(self, packet: Packet, transit: bool) -> None:
        ifid = self.host_ports.get(packet.dst.host)
        if ifid is None:
            self.no_host += 1
            return
        self._send_delayed(packet, ifid, transit=transit)

    def _send_delayed(self, packet: Packet, ifid: int, transit: bool) -> None:
        # The departure event is the egress link's transmit itself.
        port = self.ports.get(ifid)
        if port is None:
            raise SimulationError(f"{self.name}: no port {ifid}")
        self.loop.call_later(
            self.internal_latency_ms if transit else PROCESSING_DELAY_MS,
            port.link.transmit, packet, self.name)
