"""Per-application regionalized traffic — the scenario workloads.

:class:`RegionalAppTraffic` generates one application's traffic with the
three-way mix the paper's scenarios use (e.g. Fig. 13: "75% intra-region
uniform random traffic, 20% inter-region global traffic with various
traffic patterns, and 5% traffic to and from the 4 corner nodes to mimic
memory controller traffic"):

* **intra** — uniform random inside the application's own region,
* **inter** — a global traffic pattern forced out of the region,
* **mc** — memory-controller traffic: half of it node->corner, half
  corner->node (the "to and from" of the paper), attributed to the
  application either way.

Setting ``inter_fraction`` to the swept value ``p`` with ``mc_fraction=0``
reproduces the two-application MSP scenario of Figs. 8-10.
"""

from __future__ import annotations

import numpy as np

from repro.core.regions import RegionMap
from repro.noc.flit import Packet
from repro.traffic.patterns import OutOfRegionPattern, UniformPattern
from repro.traffic.synthetic import SyntheticTrafficSource
from repro.util.errors import TrafficError

__all__ = ["RegionalAppTraffic"]


class RegionalAppTraffic(SyntheticTrafficSource):
    """Traffic of one application mapped to one region.

    Parameters beyond :class:`SyntheticTrafficSource`:

    intra_fraction / inter_fraction / mc_fraction:
        Probabilities of the three components; must sum to 1 (within
        float tolerance). ``mc_fraction`` may be 0 for scenarios without
        memory-controller traffic.
    inter_pattern:
        Destination pattern for the inter-region component *before*
        out-of-region enforcement; defaults to chip-wide uniform random.
    mc_nodes:
        Memory-controller sites; defaults to the four mesh corners.
    """

    def __init__(
        self,
        region_map: RegionMap,
        app_id: int,
        rate: float,
        seed,
        intra_fraction: float = 0.75,
        inter_fraction: float = 0.20,
        mc_fraction: float = 0.05,
        inter_pattern=None,
        mc_nodes=None,
        lengths=None,
        vnet: int = 0,
        start: int = 0,
        stop: int | None = None,
    ):
        total = intra_fraction + inter_fraction + mc_fraction
        if abs(total - 1.0) > 1e-9:
            raise TrafficError(
                f"traffic fractions must sum to 1, got {intra_fraction}+"
                f"{inter_fraction}+{mc_fraction}={total}"
            )
        nodes = region_map.nodes_of(app_id)
        if not nodes:
            raise TrafficError(f"app {app_id} has no nodes in the region map")
        topo = region_map.topology
        super().__init__(
            nodes=nodes,
            rate=rate,
            pattern=None,
            app_id=app_id,
            seed=seed,
            lengths=lengths,
            vnet=vnet,
            region_map=region_map,
            start=start,
            stop=stop,
        )
        self.intra_fraction = intra_fraction
        self.inter_fraction = inter_fraction
        self.mc_fraction = mc_fraction
        self._intra = (
            UniformPattern(topo, nodes) if len(nodes) > 1 else None
        )
        base = inter_pattern or UniformPattern(topo)
        self._inter = OutOfRegionPattern(base, region_map) if inter_fraction > 0 else None
        self.mc_nodes = np.asarray(
            topo.corner_nodes() if mc_nodes is None else sorted(mc_nodes), dtype=np.int64
        )

    def make_packet(self, src: int, cycle: int) -> Packet | None:
        rng = self.rng
        u = rng.random()
        if u < self.intra_fraction:
            if self._intra is None:
                return None
            dst = self._intra(rng, src)
            is_global = False
        elif u < self.intra_fraction + self.inter_fraction:
            dst = self._inter(rng, src)
            is_global = True
        else:
            # Memory-controller component: half node->MC, half MC->node,
            # both attributed to this application.
            mc = int(self.mc_nodes[rng.integers(len(self.mc_nodes))])
            if rng.random() < 0.5:
                dst = mc
            else:
                src, dst = mc, src
            if src == dst:
                return None
            is_global = self.region_map.is_global_pair(src, dst)
        if dst == src:
            return None
        return Packet(
            src=src,
            dst=dst,
            length=self.lengths(rng),
            inject_cycle=cycle,
            app_id=self.app_id,
            vnet=self.vnet,
            is_global=is_global,
            is_adversarial=self.adversarial,
        )
