"""Packets and message classes.

The simulator is wormhole-switched with *atomic* VCs: all flits of a packet
occupy one VC at a time and flits of different packets never interleave in
a buffer. That invariant lets us represent a packet's flits implicitly —
an input VC tracks how many flits of its resident packet have arrived and
departed instead of allocating a Python object per flit, which keeps the
hot loop allocation-free (see the HPC guide note on doing less work rather
than micro-tuning).

Packet lengths follow the paper: short packets are a single 16-byte flit,
long packets are 5 flits (64-byte payload + head flit) on 128-bit links.
"""

from __future__ import annotations

import enum
import itertools

__all__ = [
    "MessageClass",
    "Packet",
    "SHORT_PACKET_FLITS",
    "LONG_PACKET_FLITS",
]

SHORT_PACKET_FLITS = 1
LONG_PACKET_FLITS = 5


class MessageClass(enum.IntEnum):
    """Protocol class of a packet; maps onto a virtual network.

    ``DATA`` is used by synthetic traffic (single vnet). The PARSEC-like
    traffic model uses ``REQUEST``/``REPLY`` on two vnets so that reply
    generation at the destination cannot deadlock against requests.
    """

    DATA = 0
    REQUEST = 0
    REPLY = 1


_packet_ids = itertools.count()


class Packet:
    """One network packet.

    Attributes are plain slots (no dataclass machinery) because packets are
    the highest-volume allocation in a simulation.

    Attributes
    ----------
    pid: unique id (monotonically increasing, process-wide).
    src, dst: source and destination node ids.
    app_id: id of the application the packet belongs to (-1 = unattributed,
        e.g. pure background traffic in unit tests).
    vnet: virtual network (protocol class) index.
    length: number of flits.
    inject_cycle: cycle the packet entered the source queue.
    is_global: whether source and destination lie in different regions
        (set by the traffic layer; informational/statistics only — routers
        classify traffic as native/foreign locally, per the paper).
    is_adversarial: marks Fig.-17 flood traffic for statistics.
    reply_length: if > 0, the destination's service model emits a reply of
        this many flits after its service latency (PARSEC-like traffic).
    reply_latency: service latency before the reply is injected.
    hops: router-to-router hops actually traversed (maintained by the
        network as the head flit moves; equals the Manhattan distance for
        the minimal routings in this package).
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "app_id",
        "vnet",
        "length",
        "inject_cycle",
        "is_global",
        "is_adversarial",
        "reply_length",
        "reply_latency",
        "hops",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        length: int,
        inject_cycle: int,
        app_id: int = -1,
        vnet: int = 0,
        is_global: bool = False,
        is_adversarial: bool = False,
        reply_length: int = 0,
        reply_latency: int = 0,
    ):
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.app_id = app_id
        self.vnet = vnet
        self.length = length
        self.inject_cycle = inject_cycle
        self.is_global = is_global
        self.is_adversarial = is_adversarial
        self.reply_length = reply_length
        self.reply_latency = reply_latency
        self.hops = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "G" if self.is_global else "R"
        adv = "!" if self.is_adversarial else ""
        return (
            f"Packet(#{self.pid} app{self.app_id}{adv} {self.src}->{self.dst} "
            f"len={self.length} vnet={self.vnet} t={self.inject_cycle} {kind})"
        )
