"""Per-node distributed routing state: RRS / MHC tables.

Each node keeps, per sink, its route reliability score (RRS, the
estimated probability that a packet handed to this node reaches the
sink) and minimum hop count (MHC), both learned purely from overheard
neighbor advertisements.  Sinks advertise themselves with RRS 1 and MHC
0, so first-hop seeding falls out of the general update rule.  A node
reads its neighborhood from the deployment map it is built on: each
neighbor's sector and reverse sector from the graph's links, and the
sinks the neighbor makes forward progress toward from the graph's own
per-link mapping (`ConnectivityGraph.progress`), held, not copied.  The
hop count is a min over the neighbors marked forward, so it needs no
ordered per-sink list.  Adverts carry only the table and sector counts.

The recomputation deliberately mirrors the fixed-point oracle in
reliability.py down to iteration order (neighbors in ascending id within
each sector) so that, on a static graph with zero estimation error, the
flooded state matches the oracle bit-for-bit.

Folding an advertisement (observe) is separated from re-deriving the
table (recompute) so a batch of overheard advertisements costs one
recomputation; `version` increments on every visible change, letting
callers cache anything derived from the table.

An advert carries the sender's full table.  A node rebuilds it only
when its own table or sector counts moved, and an unchanged table is
the previous advert's object.  A receiver folds an advert by identity
(the table it already holds) or by diffing the tables, and marks stale
only the sinks whose record differs.

The warm-up before traffic does not run advert rounds: the engine
derives the converged tables per sink, hands each node its neighbors'
final adverts to fold, and has each node `serve` the advert its
neighbors folded (see `engine.flood_routing_tables`).
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from operator import itemgetter

from .reliability import access_prob
from .rng import child_seed, substream
from .topology import ConnectivityGraph

INF = math.inf
_ID = itemgetter(0)


def compute_beta(backlog: int, b_max: int) -> float:
    """Buffer-occupancy discount (b_max - b) / b_max."""
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    if not 0 <= backlog <= b_max:
        raise ValueError("backlog outside [0, b_max]")
    return (b_max - backlog) / b_max


class EstimationModel:
    """Frozen per-link relative noise on channel probability estimates.

    One draw per (link direction, quantity, run): p_hat = clamp(p * (1 +
    delta), 0, 1) with delta uniform on [-eps, +eps].  eps = 0 returns
    the true value untouched so exactness checks stay exact.
    """

    def __init__(self, relative_error: float, master_seed: int):
        if not 0.0 <= relative_error < 1.0:
            raise ValueError("relative_error must lie in [0, 1)")
        self.eps = relative_error
        self.master = master_seed
        # reseeded per estimate: seed() resets a generator exactly as
        # constructing one does, so each estimate is the first draw of
        # substream(master_seed, "est", tag, tx, rx)
        self._rng = substream(master_seed, "est")

    def perturb(self, true_p: float, tx: int, rx: int, tag: str) -> float:
        if self.eps == 0.0:
            return true_p
        rng = self._rng
        rng.seed(child_seed(self.master, "est", tag, tx, rx))
        delta = rng.uniform(-self.eps, self.eps)
        return min(1.0, max(0.0, true_p * (1.0 + delta)))


@dataclass(slots=True)
class SinkEntry:
    gamma: float = 0.0
    mhc: float = INF
    last_beta: float | None = None
    best: float = 0.0    # undiscounted best-sector value behind gamma


@dataclass(slots=True)
class NeighborObservation:
    """What a node has heard from one neighbor."""
    neighbor: int
    reverse_sector: int  # sector of the owner as seen from the neighbor
    forward: dict        # the graph's own progress mapping for the link
    table: dict = field(default_factory=dict)   # sink -> (gamma, mhc)
    sector_counts: tuple = ()
    p_link: float = 0.0  # owner's estimated hop success prob to this neighbor


class RoutingState:
    """RRS/MHC bookkeeping for one node of a deployment graph.

    `link_static` maps out-neighbor -> (1 - p_e_hat) * (1 - p_b_hat), the
    link estimates drawn from `estimation`; the access factor is folded
    in per advertisement because it depends on the neighbor's advertised
    contender count.
    """

    def __init__(self, node_id: int, graph: ConnectivityGraph, cw: int,
                 b_max: int, estimation: EstimationModel):
        self.node_id = node_id
        self.sinks = graph.sinks
        self.cw = cw
        if b_max < 1:
            raise ValueError("b_max must be >= 1")
        self.b_max = b_max
        self._links = graph.links
        self._progress = graph.progress
        perturb = estimation.perturb
        self.link_static: dict[int, float] = {}
        for j in graph.out_neighbors(node_id):
            lk = graph.links[(node_id, j)]
            self.link_static[j] = (
                (1.0 - perturb(lk.p_e, node_id, j, "pe"))
                * (1.0 - perturb(lk.p_b, node_id, j, "pb")))
        self.version = 0
        # bumps only when an observation moves, not on a recompute
        self.obs_version = 0
        self.obs: dict[int, NeighborObservation] = {}
        # ascending-id views kept in lockstep with obs for cheap iteration
        self.obs_by_sector: list[list] = [[] for _ in range(graph.n_sectors)]
        self.entries: dict[int, SinkEntry] = {
            k: SinkEntry(1.0, 0) if k == node_id else SinkEntry()
            for k in self.sinks}
        # the advert to serve (None once stale; `advertisement` rebuilds
        # it) and the last one built
        self.served = None
        self._adv_last = None
        self._gmax_cache: dict[int, float] = {}
        # sinks whose stored observations moved since the last recompute
        self._dirty: set[int] = set()
        # sinks whose last recompute applied a discount other than 1.0
        self._discounted: set[int] = set()

    # -- advertisement consumption -----------------------------------

    def observe(self, advert: dict) -> bool:
        """Fold one overheard advertisement in without recomputing.

        Returns True when anything the table derivation depends on
        actually moved, so callers can batch several observations and
        recompute once.  The sender must be a graph neighbor.  A table
        this node already holds moves nothing; any other is diffed
        against the stored one, sink by sink.
        """
        j = advert["node"]
        if j == self.node_id:
            raise ValueError("node cannot observe itself")
        tbl = advert["table"]
        counts = advert["sector_counts"]
        ob = self.obs.get(j)
        if ob is None:
            link = (self.node_id, j)
            lk = self._links[link]
            ob = NeighborObservation(j, lk.sector_at_rx, self._progress[link])
            self.obs[j] = ob
            insort(self.obs_by_sector[lk.sector_at_tx], (j, ob), key=_ID)
            moved = tbl
            recount = True
            self.served = None   # our own sector counts grew
        else:
            old = ob.table
            if old is tbl:
                if ob.sector_counts is counts:
                    # an unchanged sender re-serves the cached advert
                    return False
                moved = ()
            elif old == tbl:
                moved = ()
            else:
                moved = [k for k in old.keys() | tbl.keys()
                         if old.get(k) != tbl.get(k)]
            recount = ob.sector_counts != counts
            if not moved and not recount:
                ob.table = tbl
                ob.sector_counts = counts
                return False
            if recount:
                self._dirty.update(self.sinks)
        self._dirty.update(moved)
        gmax = self._gmax_cache
        if gmax:
            for k in moved:
                gmax.pop(k, None)
        ob.table = tbl
        ob.sector_counts = counts
        if recount:
            m = max(1, counts[ob.reverse_sector])
            ob.p_link = self.link_static[j] * access_prob(self.cw, m)
        self.version += 1
        self.obs_version += 1
        return True

    # -- recomputation -----------------------------------------------

    def recompute(self, backlogs):
        """Re-derive (RRS, MHC) for every sink from stored observations.

        Sinks with no dirty observations keep their hop count and
        best-sector value, so they are skipped unless the backlog
        penalty moved, and then only the discount is re-applied.  The
        penalty can only have moved for a sink with a backlog now or a
        discount other than 1 at the last recompute.
        """
        changed = False
        worthy = False
        dirty = self._dirty
        discounted = self._discounted
        b_max = self.b_max
        entries = self.entries
        if dirty or discounted or backlogs:
            todo = dirty.union(discounted, backlogs)
        else:
            todo = ()
        for k in todo:
            if k == self.node_id:
                continue
            entry = entries.get(k)
            if entry is None:
                continue  # not a sink
            stale = k in dirty
            if not stale and entry.mhc == INF:
                continue
            b = backlogs.get(k, 0)
            # an empty buffer's discount, compute_beta(0, b_max), is 1.0
            beta = compute_beta(b, b_max) if b else 1.0
            if not stale:
                if beta == entry.last_beta:
                    continue
                # the same product a full re-derivation would form
                h_new = entry.mhc
                g_new = beta * entry.best
                entry.last_beta = beta
            else:
                h_new = INF
                for ob in self.obs.values():
                    if k in ob.forward:
                        rec = ob.table.get(k)
                        if rec is not None and rec[1] < h_new:
                            h_new = rec[1]
                if h_new != INF:
                    h_new += 1
                if h_new == INF:
                    g_new = 0.0
                    entry.last_beta = None
                else:
                    best = 0.0
                    for sec in self.obs_by_sector:
                        miss = 1.0
                        for j, ob in sec:
                            rec = ob.table.get(k)
                            if rec is not None and rec[1] < h_new:
                                miss *= 1.0 - ob.p_link * rec[0]
                        val = 1.0 - miss
                        if val > best:
                            best = val
                    g_new = beta * best
                    entry.last_beta = beta
                    entry.best = best
            if g_new != entry.gamma or h_new != entry.mhc:
                changed = True
                if h_new != entry.mhc or (g_new == 0.0) != (entry.gamma == 0.0):
                    worthy = True
                entry.gamma = g_new
                entry.mhc = h_new
            if entry.last_beta is None or entry.last_beta == 1.0:
                discounted.discard(k)
            else:
                discounted.add(k)
        dirty.clear()
        if changed:
            self.version += 1
            self.served = None
        return changed, worthy

    # -- outbound ----------------------------------------------------

    def advertisement(self) -> dict:
        """Snapshot other nodes may fold in via observe.

        Built once per change of the table or the sector counts.  A
        table equal to the last advert's is that advert's table object,
        and with equal sector counts too the advert is the last one.
        """
        adv = self.served
        if adv is not None:
            return adv
        table = self.snapshot()
        counts = tuple(len(s) for s in self.obs_by_sector)
        last = self._adv_last
        if last is not None and table == last["table"]:
            if counts == last["sector_counts"]:
                self.served = last
                return last
            table = last["table"]
        adv = {"node": self.node_id, "table": table, "sector_counts": counts}
        self.served = self._adv_last = adv
        return adv

    def serve(self, advert: dict) -> None:
        """Serve `advert` from now on, as if this node had built it.

        For a warm-up that derives every table before installing any:
        the neighbors have folded `advert`, and serving that very object
        keeps one copy of the table and lets their next `observe` of it
        stop at the identity check.  It must equal the advert this node
        would build now.
        """
        own = {"node": self.node_id, "table": self.snapshot(),
               "sector_counts": tuple(len(s) for s in self.obs_by_sector)}
        if advert != own:
            raise ValueError(f"advert differs from node {self.node_id}'s "
                             "table or sector counts")
        self.served = self._adv_last = advert

    def gamma_max(self, k: int) -> float:
        """Best RRS toward k among observed neighbors (0 if none)."""
        best = self._gmax_cache.get(k)
        if best is None:
            best = 0.0
            for ob in self.obs.values():
                rec = ob.table.get(k)
                if rec is not None and rec[0] > best:
                    best = rec[0]
            self._gmax_cache[k] = best
        return best

    def snapshot(self) -> dict:
        """(RRS, MHC) per sink, for export and oracle comparison."""
        return {k: (e.gamma, e.mhc) for k, e in self.entries.items()}
