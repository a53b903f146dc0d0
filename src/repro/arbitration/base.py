"""Arbitration-policy interface and the rotating-priority primitive.

Every arbitration step uses :func:`rotating_pick`: candidates are compared
by an optional priority key first, and ties are broken round-robin by
rotating a pointer over a stable candidate index. Pure round-robin is the
degenerate case with no priority key. Rotating tie-breaks inside each
priority class make all policies here starvation-free *within* a class;
cross-class starvation freedom is each policy's own responsibility (STC
uses batching, RAIR's DPA is self-throttling — paper Section IV.D).
"""

from __future__ import annotations

__all__ = ["ArbitrationPolicy", "rotating_pick"]


def rotating_pick(candidates, id_of, ptr: int, modulo: int, priority_of=None):
    """Pick a winner from ``candidates`` with rotating-priority tie-break.

    Parameters
    ----------
    candidates:
        Non-empty iterable of arbitrary objects.
    id_of:
        Maps a candidate to a stable integer slot in ``[0, modulo)``.
    ptr:
        Current rotation pointer; the candidate whose slot is closest at or
        after ``ptr`` (mod ``modulo``) wins among equal priorities.
    priority_of:
        Optional key function; *lower is higher priority*. Compared before
        the rotation distance.

    Returns
    -------
    (winner, new_ptr):
        The winning candidate and the advanced pointer (one past the
        winner's slot) to store back for next time.
    """
    best = None
    best_key = None
    best_id = 0
    for cand in candidates:
        cid = id_of(cand)
        rot = (cid - ptr) % modulo
        key = (priority_of(cand), rot) if priority_of is not None else rot
        if best_key is None or key < best_key:
            best, best_key, best_id = cand, key, cid
    return best, (best_id + 1) % modulo


class ArbitrationPolicy:
    """Base policy: pure round-robin everywhere.

    Subclasses override the ``*_priority`` key methods and set the matching
    ``uses_*_priority`` class flag; the mechanics of each arbitration step
    (candidate collection, pointer bookkeeping) stay here and in the
    router. The flags exist so the common round-robin path skips building
    per-candidate key closures in the hot loop.
    """

    name = "base"
    #: set True in subclasses that implement :meth:`va_out_priority`
    uses_va_priority = False
    #: set True in subclasses that implement :meth:`sa_priority`
    uses_sa_priority = False

    def __init__(self) -> None:
        self.network = None

    def attach(self, network) -> None:
        """Bind to a network before simulation starts."""
        self.network = network

    # -- VA_in: which (port, vc) does an input VC request? --------------------
    def choose_request(self, router, invc, options):
        """Pick one ``(out_port, out_vc)`` from ``options``.

        ``options`` is non-empty and ordered: ports appear in the routing
        algorithm's preference order and, within a port, adaptive VCs
        before the escape VC. The default takes the best-ranked port and
        rotates across its free VCs so consecutive packets spread over VCs.
        """
        first_port = options[0][0]
        port_options = [o for o in options if o[0] == first_port]
        if len(port_options) == 1:
            return port_options[0]
        ptr = router.va_req_ptr[first_port]
        winner, router.va_req_ptr[first_port] = rotating_pick(
            port_options, lambda o: o[1], ptr, router.total_vcs
        )
        return winner

    # -- priority keys (lower = higher priority) -------------------------------
    def va_out_priority(self, router, out_vc_class, invc):
        """Priority key for VA output arbitration of one output VC.

        ``out_vc_class`` is the :class:`~repro.noc.config.VcClass` tag of
        the output VC being allocated — RAIR's VC regionalization applies
        different rules per class. Only consulted when
        ``uses_va_priority`` is True.
        """
        return 0

    def sa_priority(self, router, invc):
        """Priority key for both switch-allocation steps.

        Only consulted when ``uses_sa_priority`` is True.
        """
        return 0

    # -- arbitration steps ----------------------------------------------------
    def va_out_pick(self, router, out_port: int, out_vc: int, requesters):
        """Grant one of ``requesters`` (input VCs) the output VC."""
        ptr = router.va_ptr[out_port][out_vc]
        total = router.num_ports * router.total_vcs
        if self.uses_va_priority:
            cls = router.vc_class_of[out_vc]
            prio = lambda v: self.va_out_priority(router, cls, v)  # noqa: E731
        else:
            prio = None
        winner, router.va_ptr[out_port][out_vc] = rotating_pick(
            requesters, lambda v: v.port * router.total_vcs + v.vc, ptr, total, prio
        )
        return winner

    def sa_in_pick(self, router, in_port: int, candidates):
        """Pick the input VC that represents ``in_port`` at the switch."""
        ptr = router.sa_in_ptr[in_port]
        prio = (lambda v: self.sa_priority(router, v)) if self.uses_sa_priority else None
        winner, router.sa_in_ptr[in_port] = rotating_pick(
            candidates, lambda v: v.vc, ptr, router.total_vcs, prio
        )
        return winner

    def sa_out_pick(self, router, out_port: int, candidates):
        """Pick the input VC (at most one per input port) that gets the crossbar."""
        ptr = router.sa_out_ptr[out_port]
        prio = (lambda v: self.sa_priority(router, v)) if self.uses_sa_priority else None
        winner, router.sa_out_ptr[out_port] = rotating_pick(
            candidates, lambda v: v.port, ptr, router.num_ports, prio
        )
        return winner

    # -- per-cycle hooks -------------------------------------------------------
    def end_router_cycle(self, router, cycle: int) -> None:
        """Called once per active router per cycle after SA (DPA lives here)."""

    def end_network_cycle(self, network, cycle: int) -> None:
        """Called once per cycle after all routers (STC ranking lives here)."""
