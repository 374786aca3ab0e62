"""Medium-access decision logic and the per-node runtime container.

The pure functions here are the node-local choices of the handshake
MAC: the best sector, the best weighted differential backlog among
candidate sessions (how an acceptor picks each direction of an
exchange, the full-duplex reverse session included), the initiator an
acceptor answers, the utility-tilted backoff draw, and GR-CSMA's
greedy next hop.  `backoff_slots` is the draw; `backoff_weights` is
what the draw fixes for one utility, which the engine builds once per
access plan and replays for every request made under it
(`MacNode.attempt` holds the plan and its weights).

The utilities those choices rank are computed in engine.py from tables
built once per run.  An initiator scores a sector by summing, over its
backlogged sessions and the forward-progress neighbors in that sector,
backlog x normalized progress x normalized RRS (`Simulation._sector_terms`
and `_vl_choose_eval`); an acceptor scores a heard initiator by the
best weighted differential backlog in each direction times that
direction's link capacity (`_eval_pair`).  The geographic baseline uses
the same shapes with the RRS factor pinned to 1.  Sequencing (who
transmits when) lives in engine.py too: the requests are built in
`Simulation._resolve_slot_vl` and `_resolve_slot_gr` and answered in
`_vl_accept` and `_gr_grant`.  Everything here is a local decision a
node could make from its own tables.
"""
from __future__ import annotations

from collections import deque

from .core import Position, distance


def select_sector(utilities) -> int | None:
    """Index of the best strictly positive sector utility; ties go low."""
    best_idx = None
    best = 0.0
    for idx, u in enumerate(utilities):
        if u > best:
            best = u
            best_idx = idx
    return best_idx


def select_session_eta(options):
    """Best weighted differential backlog among candidate sessions.

    `options` is an iterable of (session_id, weight, b_own, b_peer) with
    weight = normalized RRS x normalized progress for the direction under
    evaluation.  Returns (session_id, eta); all-nonpositive differentials
    yield (None, 0.0) meaning no useful transfer in this direction.
    Ties resolve to the lowest session id.
    """
    best_sid = None
    best_eta = 0.0
    for sid, weight, b_own, b_peer in sorted(options):
        eta = weight * (b_own - b_peer)
        if eta > best_eta:
            best_eta = eta
            best_sid = sid
    if best_sid is None:
        return None, 0.0
    return best_sid, best_eta


def select_initiator(candidates):
    """Initiator with the largest positive utility; ties to lowest id.

    `candidates` is an iterable of (node_id, utility).  Returns None when
    no candidate offers positive utility (the degenerate case where the
    acceptor stays silent).
    """
    best_id = None
    best = 0.0
    for nid, u in sorted(candidates):
        if u > best:
            best = u
            best_id = nid
    return best_id


def backoff_slots(utility: float, cw: int, rng,
                  utility_scale: float = 25.0) -> int:
    """Priority backoff draw over [0, cw-1].

    Zero utility draws uniformly.  Positive utility tilts a truncated
    geometric distribution toward slot 0 (decay ratio 1 - p/2 with
    p = u / (u + scale)), so higher utility is stochastically earlier
    while every slot keeps positive probability; two equal-utility nodes
    on different streams still draw independently.
    """
    if cw < 1:
        raise ValueError("cw must be >= 1")
    if cw == 1:
        return 0
    if utility < 0.0:
        raise ValueError("utility must be nonnegative")
    if utility == 0.0:
        return rng.randrange(cw)
    p = utility / (utility + utility_scale)
    rho = 1.0 - 0.5 * p
    if rho == 1.0:          # utility small enough to underflow: uniform limit
        return rng.randrange(cw)
    x = rng.random() * (1.0 - rho ** cw) / (1.0 - rho)
    term = 1.0
    slot = 0
    while slot < cw - 1 and x >= term:
        x -= term
        term *= rho
        slot += 1
    return slot


def backoff_weights(utility: float, cw: int, utility_scale: float = 25.0):
    """What `backoff_slots` fixes before its draw, for replaying it.

    Returns () for a one-slot window (slot 0, no draw), None for a
    uniform draw (`rng.randrange(cw)`), and otherwise (a, b, terms):
    the draw is x = rng.random() * a / b, and the slot is the number of
    leading `terms` that x can give up in turn, subtracting each.  a,
    b and the terms 1, rho, rho^2, ... are the floats `backoff_slots`
    forms, so the replay draws the same slot from the same state.
    """
    if cw < 1:
        raise ValueError("cw must be >= 1")
    if cw == 1:
        return ()
    if utility < 0.0:
        raise ValueError("utility must be nonnegative")
    if utility == 0.0:
        return None
    p = utility / (utility + utility_scale)
    rho = 1.0 - 0.5 * p
    if rho == 1.0:
        return None
    term = 1.0
    terms = [term]
    for _ in range(cw - 2):
        term *= rho
        terms.append(term)
    return 1.0 - rho ** cw, 1.0 - rho, tuple(terms)


def greedy_next_hop(self_pos: Position, sink_pos: Position, neighbors):
    """Neighbor geographically closest to the sink, if closer than self.

    `neighbors` is an iterable of (node_id, Position).  Returns None when
    no neighbor improves on the current distance (the packet is stuck).
    Ties resolve to the lowest node id.
    """
    d_self = distance(self_pos, sink_pos)
    best_id = None
    best_d = d_self
    for nid, pos in sorted(neighbors):
        d = distance(pos, sink_pos)
        if d < best_d:
            best_d = d
            best_id = nid
    return best_id


class MacNode:
    """Mutable per-node runtime shared by all three protocol stacks."""

    __slots__ = ("nid", "b_max", "engaged", "queues", "gr_order", "total_q",
                 "routing", "rng", "defer_until", "pending", "csma_cw",
                 "csma_residual", "beacon_sectors", "sess_sink", "q_version",
                 "attempt", "_sids_cache", "_bls_cache")

    def __init__(self, nid: int, b_max: int, rng, sess_sink: dict):
        self.nid = nid
        self.b_max = b_max
        self.engaged = False
        self.queues: dict[int, deque] = {}
        self.gr_order: deque[int] = deque()
        self.total_q = 0
        self.routing = None
        self.rng = rng
        self.defer_until = 0
        self.pending = None           # None | "slot" | "wake"
        self.csma_cw = 0
        self.csma_residual = None
        self.beacon_sectors: deque[int] = deque()
        self.sess_sink = sess_sink    # shared session -> sink map
        self.q_version = 0            # bumps on enqueue/dequeue
        # the engine's access plan: (q_version, routing version, plan,
        # backoff_weights of the plan's utility)
        self.attempt = (-1, -1, None, None)
        self._sids_cache = (-1, [])
        self._bls_cache = (-1, {})

    def backlog(self, sid: int) -> int:
        q = self.queues.get(sid)
        return len(q) if q else 0

    def backlog_by_sink(self) -> dict[int, int]:
        ver, out = self._bls_cache
        if ver != self.q_version:
            out = {}
            for sid, q in self.queues.items():
                if q:
                    k = self.sess_sink[sid]
                    out[k] = out.get(k, 0) + len(q)
            self._bls_cache = (self.q_version, out)
        return out

    def free_space(self) -> int:
        return self.b_max - self.total_q

    def queued_sids(self) -> list[int]:
        ver, sids = self._sids_cache
        if ver != self.q_version:
            sids = sorted(sid for sid, q in self.queues.items() if q)
            self._sids_cache = (self.q_version, sids)
        return sids

    def enqueue(self, sid: int, pkt) -> None:
        if self.total_q >= self.b_max:
            raise OverflowError(f"buffer full at node {self.nid}")
        q = self.queues.get(sid)
        if q is None:
            q = deque()
            self.queues[sid] = q
        q.append(pkt)
        self.gr_order.append(sid)
        self.total_q += 1
        self.q_version += 1

    def dequeue(self, sid: int):
        pkt = self.queues[sid].popleft()
        self.total_q -= 1
        self.q_version += 1
        self.gr_order.remove(sid)
        return pkt

    def gr_head_sid(self) -> int | None:
        """The session of the oldest queued packet (GR-CSMA service order).

        `gr_order` holds one entry per queued packet, in arrival order.
        """
        return self.gr_order[0] if self.gr_order else None
