"""Open-loop synthetic traffic sources.

Each node covered by a source injects packets as a Bernoulli process whose
per-cycle probability is derived from the configured load in
**flits/node/cycle** divided by the mean packet length — the standard
open-loop injection model. Packet lengths follow the paper's bimodal mix
(half 1-flit short packets, half 5-flit data packets) unless overridden.

Sources also keep per-window injection counters so experiment code can
verify drain completeness and offered-vs-accepted load.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.noc.flit import LONG_PACKET_FLITS, SHORT_PACKET_FLITS, Packet
from repro.util.errors import TrafficError
from repro.util.rng import make_rng

__all__ = ["BimodalLengths", "FixedLength", "SyntheticTrafficSource"]


class BimodalLengths:
    """The paper's packet-length mix: 1 or 5 flits with equal probability."""

    def __init__(self, short: int = SHORT_PACKET_FLITS, long: int = LONG_PACKET_FLITS, p_short: float = 0.5):
        if short < 1 or long < 1:
            raise TrafficError("packet lengths must be >= 1 flit")
        if not 0.0 <= p_short <= 1.0:
            raise TrafficError(f"p_short must be in [0,1], got {p_short}")
        self.short = short
        self.long = long
        self.p_short = p_short

    @property
    def mean(self) -> float:
        """Expected flits per packet."""
        return self.p_short * self.short + (1 - self.p_short) * self.long

    def __call__(self, rng: np.random.Generator) -> int:
        return self.short if rng.random() < self.p_short else self.long


class FixedLength:
    """Every packet has the same length (useful in unit tests)."""

    def __init__(self, length: int):
        if length < 1:
            raise TrafficError("packet length must be >= 1 flit")
        self.length = length

    @property
    def mean(self) -> float:
        return float(self.length)

    def __call__(self, rng: np.random.Generator) -> int:
        return self.length


class SyntheticTrafficSource:
    """Bernoulli open-loop source over a set of nodes.

    Parameters
    ----------
    nodes:
        Source nodes this generator covers.
    rate:
        Offered load in flits/node/cycle (converted internally to a
        per-cycle packet probability using the length sampler's mean).
    pattern:
        Destination sampler ``pattern(rng, src) -> dst``.
    app_id:
        Application the packets belong to.
    seed:
        RNG seed (or a Generator).
    lengths:
        Length sampler; defaults to the paper's bimodal mix.
    vnet:
        Virtual network for the packets.
    region_map:
        When given, packets whose src/dst regions differ are flagged
        ``is_global`` for the statistics breakdowns.
    start, stop:
        Active cycle range (half-open); ``stop=None`` means forever.
    adversarial:
        Mark packets as adversarial (Fig. 17 flood).
    """

    def __init__(
        self,
        nodes: Sequence[int],
        rate: float,
        pattern,
        app_id: int,
        seed,
        lengths=None,
        vnet: int = 0,
        region_map=None,
        start: int = 0,
        stop: int | None = None,
        adversarial: bool = False,
    ):
        self.nodes = np.asarray(sorted(nodes), dtype=np.int64)
        if len(self.nodes) == 0:
            raise TrafficError("traffic source over an empty node set")
        if rate < 0:
            raise TrafficError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.pattern = pattern
        self.app_id = app_id
        self.rng = make_rng(seed)
        self.lengths = lengths or BimodalLengths()
        self.p_packet = rate / self.lengths.mean
        if self.p_packet > 1.0:
            raise TrafficError(
                f"rate {rate} flits/node/cycle exceeds 1 packet/node/cycle "
                f"(mean length {self.lengths.mean})"
            )
        self.vnet = vnet
        self.region_map = region_map
        self.start = start
        self.stop = stop
        self.adversarial = adversarial
        self.packets_injected = 0
        self.flits_injected = 0
        # Plain-int node list: the hot loop indexes it per firing node, and
        # a list of ints avoids a numpy-scalar box + int() per packet.
        self._node_list = [int(x) for x in self.nodes]
        # Packets built for the cycle next_injection_cycle last returned,
        # waiting for tick to inject them.
        self._due: list[Packet] = []

    def tick(self, cycle: int, network) -> None:
        """Generate this cycle's packets into the network's source queues."""
        if self.next_injection_cycle(cycle, cycle + 1, network) is None:
            return
        for pkt in self._due:
            network.inject(pkt)
            self.packets_injected += 1
            self.flits_injected += pkt.length

    def next_injection_cycle(self, cycle: int, limit: int, network) -> int | None:
        """Earliest cycle in ``[cycle, limit)`` at which this source injects.

        Draws one length-``len(nodes)`` Bernoulli vector per active cycle,
        then one :meth:`make_packet` per firing node in ascending node
        order, and stops at the first cycle that yields a packet; those
        packets are left in ``_due``. Returns ``None`` when no cycle in
        the range does. Inactive cycles (before ``start``, at or past
        ``stop``, or with zero probability) draw nothing.
        """
        p = self.p_packet
        if p <= 0.0:
            return None
        if self.stop is not None and limit > self.stop:
            limit = self.stop
        rng = self.rng
        nodes = self._node_list
        n = len(nodes)
        for c in range(max(cycle, self.start), limit):
            pkts = []
            for idx in (rng.random(n) < p).nonzero()[0].tolist():
                pkt = self.make_packet(nodes[idx], c)
                if pkt is not None:
                    pkts.append(pkt)
            if pkts:
                self._due = pkts
                return c
        return None

    def make_packet(self, src: int, cycle: int) -> Packet | None:
        """Build one packet from ``src`` at ``cycle`` (hook for subclasses)."""
        dst = self.pattern(self.rng, src)
        if dst == src:
            return None
        is_global = bool(self.region_map and self.region_map.is_global_pair(src, dst))
        return Packet(
            src=src,
            dst=dst,
            length=self.lengths(self.rng),
            inject_cycle=cycle,
            app_id=self.app_id,
            vnet=self.vnet,
            is_global=is_global,
            is_adversarial=self.adversarial,
        )
