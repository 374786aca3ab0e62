"""Discrete-event engine: clock, channels, handshakes, exchanges, metrics.

Time is integer microseconds.  The control channel is organized into
sector slots of `cms_per_slot` control mini-slots (CMS); all idle nodes
listen toward sector floor(t / slot) mod n_sectors, so a transmitter
beaming into sector s contends in slots where the schedule faces
opposite(s).  Within a slot the handshake runs CMS by CMS: requests in
the backoff window, accept notifications and the reservation
announcement in the tail.  Data rides a separate channel under
reservations.

Each protocol resolves a slot in phases.  Its resolver
(`Simulation._resolve_slot_vl`, `_resolve_slot_gr`) gates the slot's
intents and builds their requests with every lookup inlined: that loop
runs once per intent, the hottest of a run.  A VL request replays its
node's plan record (`MacNode.attempt`), which holds the plan and its
backoff weights (`mac.backoff_weights`), so a retry under an unchanged
plan recomputes nothing and draws what `backoff_slots` would.  Shared
phases follow: `_broadcast` delivers the requests to idle listeners
over each sender's audience in the beam (`_audience_of`, built once per
run), one draw per link from the stream `_chan_ok` uses; `_enter_slot`
registers every intent, a retry one super-slot later among them;
`_open_reservation` opens every exchange.  VL-ROUTE and VL-MAC-GEO
decode per CMS and answer (`_vl_accept`), then run the ACN / RES tail
(`_vl_tail`, `_vl_hear`); GR-CSMA grants what each target decoded alone
(`_gr_grant`) and backs off the rest (`_gr_fail`).  A request travels
as (cms, nid) and carries no copy of its sender's state: an acceptor
reads the sender's queues and routing tables, and a VL-ROUTE listener
its served advertisement, from the sender itself.

A reservation opens only after the commit gate has refused anything
conflicting with an active one (carrier sensing of sustained emissions
is modeled as reliable).  That makes the no-conflicting-data invariant
structural: the gate's guard map is the safety mechanism, and a run
does not re-check its reservations.
`count_occupancy_conflicts` is the independent post-hoc sweep over a
run's `res_records`, kept for tests and other verifiers to call.

A run allocates only what it reads.  A node's backoff stream and a
link's channel stream are seeded at their first draw (`_backoff_rng`,
`_chan_entry`), which draws what a stream seeded with the run would,
since nothing drew from it before; a run that never draws on a node or
link seeds no stream for it.  The VL handshake's tail map
(`_coverers`) is built only for the VL protocols, and the end-of-run
RRS snapshot takes each node's served table, which is current whenever
it is set, rather than a copy.

Event ordering is deterministic: (time, kind priority, sequence).  All
randomness flows through named substreams of the master seed.
"""
from __future__ import annotations

import heapq
import time as _time
import weakref
from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from itertools import groupby
from operator import itemgetter

from .config import ScenarioConfig
from .core import DataPacket, opposite_sector
from .mac import (MacNode, backoff_slots, backoff_weights, greedy_next_hop,
                  select_initiator, select_sector, select_session_eta)
from .reliability import access_prob, mhc_map
from .routing import INF, EstimationModel, RoutingState
from .rng import child_seed, substream
from .topology import (ConnectivityGraph, assign_blockage, assign_error_probs,
                       build_grid, build_random)

# event kind priorities: lower runs first at equal timestamps
_EV_DATA_END = 0
_EV_SLOT = 1
_EV_WAKE = 2

_POLL_SUPERSLOTS = 16    # re-plan interval for backlogged-but-stalled nodes
_BEACON_ROUNDS = 2       # sector sweeps per advertisement-worthy change


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class SlotClock:
    """Sector-slot arithmetic shared by the engine and the tests."""

    def __init__(self, cms_us: int, cms_per_slot: int, n_sectors: int):
        self.cms_us = cms_us
        self.cms_per_slot = cms_per_slot
        self.n_sectors = n_sectors
        self.slot_us = cms_us * cms_per_slot
        self.super_us = self.slot_us * n_sectors

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "SlotClock":
        cms_us = ceil_div(cfg.control_bytes * 8 * 1_000_000, cfg.link_rate_bps)
        return cls(cms_us, cfg.cms_per_slot, cfg.n_sectors)

    def listening_sector(self, t: int) -> int:
        """Sector every idle node faces at time t."""
        return (t // self.slot_us) % self.n_sectors

    def next_aligned(self, after: int, listen_sector: int) -> int:
        """Start of the first slot at or after `after` facing the sector."""
        m = ceil_div(after, self.slot_us)
        m += (listen_sector - m) % self.n_sectors
        return m * self.slot_us


def sample_link_outcome(link, rng) -> str:
    """One transmission over a link: blockage draw, then error draw.

    Control and data frames face the same link probabilities.  Returns
    "delivered", "lost_blockage", or "lost_error".
    """
    if link.p_b and rng.random() < link.p_b:
        return "lost_blockage"
    if link.p_e and rng.random() < link.p_e:
        return "lost_error"
    return "delivered"


def generate_sessions(cfg: ScenarioConfig, graph: ConnectivityGraph,
                      rng) -> list[dict]:
    """Sources uniform over non-sink nodes, sinks uniform over the sink set."""
    non_sinks = [i for i in range(graph.n_nodes) if not graph.is_sink(i)]
    if not non_sinks:
        raise ValueError("no non-sink nodes to act as sources")
    out = []
    for sid in range(cfg.sessions):
        out.append({
            "sid": sid,
            "source": rng.choice(non_sinks),
            "sink": rng.choice(graph.sinks),
            "packets": cfg.packets_per_session,
        })
    return out


def build_topology(cfg: ScenarioConfig) -> ConnectivityGraph:
    """Construct and channel-stamp the deployment named by the config."""
    if cfg.topology == "file":
        return ConnectivityGraph.load(cfg.graph_file)  # replayed as stored
    if cfg.topology == "grid":
        graph = build_grid(cfg.rows, cfg.cols, cfg.area_side_m, cfg.range_m,
                           sinks=cfg.grid_sink_ids(), n_sectors=cfg.n_sectors,
                           capacity_bps=cfg.link_rate_bps)
    else:
        graph = build_random(cfg.n_nodes, cfg.area_side_m, cfg.range_m,
                             cfg.n_sinks, child_seed(cfg.seed, "topo"),
                             n_sectors=cfg.n_sectors,
                             capacity_bps=cfg.link_rate_bps)
    assign_error_probs(graph, cfg.mean_p_e, child_seed(cfg.seed, "pe"))
    assign_blockage(graph, cfg.severe_fraction, cfg.p_b_severe, cfg.p_b_mild,
                    child_seed(cfg.seed, "blockage"))
    return graph


def flood_routing_tables(graph: ConnectivityGraph, states: dict) -> int:
    """Install the tables synchronous advert rounds converge to; returns
    the number of rounds.

    The rounds are derived sink by sink, not run.  In the flood they
    stand for, round r has every node fold its neighbors' adverts from
    the end of round r - 1 and recompute, until a round moves no record.
    Each round is a pure function of the one before (DSDV's synchronous
    updates), and toward a sink k it has a closed form:

    - node i's hop count is its forward-progress depth d_i (`mhc_map`)
      from round d_i on, and INF before;
    - so from round d_i on, the neighbors i admits are fixed: those
      with d_j < d_i, per sector in ascending id;
    - its RRS in round r is the best sector's 1 - prod(1 - p_ij *
      gamma_j) over the gammas of round r - 1 (buffers are empty, so
      undiscounted), in the float expression and order of
      `RoutingState.recompute`;
    - p_ij = link_static[j] * access_prob(cw, m), with m the contenders
      j's advert counts in the sector i lies in.  Round 1 folds the
      initial adverts, which count no neighbor yet, so m = 1 there, and
      depth-1 nodes move again in round 2 with the true count.

    So a node can move only in round d_i, in round 2 at depth 1, or in
    a round after one that moved a neighbor it admits, and only those
    evaluations are made.  The flood runs one round past the last that
    moves a record; it stops after round 1 if that moves none.

    The end state goes in through the states' own methods: each node
    folds every neighbor's final advert once, in ascending id, and
    recomputes once, and then serves the advert its neighbors hold.
    When the flood stops after round 1 (no sink has a neighbor), the
    adverts the nodes hold are the initial ones.
    """
    n = graph.n_nodes
    sector_lists = graph.neighbor_index
    # a node's sector counts once it has heard every neighbor
    counts = [tuple(map(len, sector_lists[j])) for j in range(n)]
    p_link = {}
    for (i, j), lk in graph.links.items():
        st = states[i]
        p_link[(i, j)] = st.link_static[j] * access_prob(
            st.cw, max(1, counts[j][lk.sector_at_rx]))
    tables = [{} for _ in range(n)]
    last = 0      # the last round that moved a record
    for k in graph.sinks:
        depth = mhc_map(graph, k)
        levels: dict[int, list[int]] = {}
        terms = {}      # node -> per sector [(j, p_ij)] over admitted j
        for i in range(n):
            d = depth[i]
            if d == INF or d == 0:
                continue
            levels.setdefault(d, []).append(i)
            secs = []
            for sec in sector_lists[i]:
                adm = [(j, p_link[(i, j)]) for j in sec if depth[j] < d]
                if adm:
                    secs.append(adm)
            terms[i] = secs
        gamma = [0.0] * n
        gamma[k] = 1.0
        moved = []
        r = 0
        while True:
            r += 1
            todo = set(levels.get(r, ()))
            if r == 2:
                todo.update(levels.get(1, ()))
            for j in moved:
                dj = depth[j]
                for i in graph.out_neighbors(j):
                    if dj < depth[i] < r:
                        todo.add(i)
            if not todo:
                break
            new = []
            for i in todo:
                if r == 1:   # only the sink is admitted, at m = 1
                    st = states[i]
                    secs = [[(k, st.link_static[k] * access_prob(st.cw, 1))]]
                else:
                    secs = terms[i]
                best = 0.0
                for sec in secs:
                    miss = 1.0
                    for j, p in sec:
                        miss *= 1.0 - p * gamma[j]
                    val = 1.0 - miss
                    if val > best:
                        best = val
                if best != gamma[i] or depth[i] == r:
                    new.append((i, best))
            for i, val in new:
                gamma[i] = val
            moved = [i for i, _ in new]
            if moved and r > last:
                last = r
        for i in range(n):
            tables[i][k] = (gamma[i], depth[i])

    if last:
        adverts = [{"node": j, "table": tables[j], "sector_counts": counts[j]}
                   for j in range(n)]
    else:   # the flood's only round folded the initial adverts
        adverts = [states[j].advertisement() for j in range(n)]
    for i in range(n):
        st = states[i]
        for j in graph.out_neighbors(i):
            st.observe(adverts[j])
        st.recompute({})
    if last:
        for j in range(n):
            states[j].serve(adverts[j])
    return last + 1


class TraceRecorder:
    """Hashes (and optionally writes) the run's protocol event stream."""

    def __init__(self, path=None):
        self._hash = sha256()
        self._fh = open(path, "w") if path else None

    def emit(self, t: int, node: int, kind: str, detail: str = ""):
        line = f"{t} {node} {kind} {detail}\n"
        self._hash.update(line.encode())
        if self._fh:
            self._fh.write(line)

    def close(self) -> str:
        if self._fh:
            self._fh.close()
            self._fh = None
        return self._hash.hexdigest()


@dataclass(slots=True)
class Reservation:
    rid: int
    initiator: int
    acceptor: int
    i_beam: int          # initiator's engaged sector (toward acceptor)
    a_beam: int          # acceptor's engaged sector (toward initiator)
    start: int
    end: int
    fwd_sid: int
    rev_sid: int | None
    res_delivered: bool = False


@dataclass
class RunMetrics:
    protocol: str
    seed: int
    n_nodes: int
    sessions: int
    generated: int
    delivered_total: int
    delivered_per_session: dict
    delivered_bits: int
    warmup_us: int
    traffic_duration_us: int
    normalized_throughput: float
    exchanges_total: int
    duplex_exchanges: int
    duplex_ratio: float
    drops: dict
    in_flight: int
    cc_collisions: int
    handshake_failures: int
    commit_aborts: int
    stalled: bool
    conservation_ok: bool
    rrs_snapshot: dict
    trace_hash: str
    events: int
    wall_s: float

    def to_json_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["delivered_per_session"] = {str(k): v for k, v in
                                        self.delivered_per_session.items()}
        doc["rrs_snapshot"] = {
            str(n): {str(k): [g, (None if h == INF else h)]
                     for k, (g, h) in table.items()}
            for n, table in self.rrs_snapshot.items()}
        return doc


def _pair_conflict(links, x: int, x_beam: int, y: int, y_facing: int) -> bool:
    """Does x's emission toward x_beam land in y's receiver facing y_facing?"""
    lk = links.get((x, y))
    return (lk is not None and lk.sector_at_tx == x_beam
            and lk.sector_at_rx == y_facing)


def reservations_conflict(links, a: Reservation, b: Reservation) -> bool:
    """Spatial conflict between two time-overlapping reservations."""
    if a.end <= b.start or b.end <= a.start:
        return False
    ends_a = ((a.initiator, a.i_beam), (a.acceptor, a.a_beam))
    ends_b = ((b.initiator, b.i_beam), (b.acceptor, b.a_beam))
    for x, xb in ends_a:
        for y, yb in ends_b:
            if _pair_conflict(links, x, xb, y, yb) or \
               _pair_conflict(links, y, yb, x, xb):
                return True
    return False


def count_occupancy_conflicts(records: list[Reservation],
                              graph: ConnectivityGraph) -> int:
    """Post-hoc sweep over all committed reservations of a run.

    A verification utility: the engine never calls it, because its
    commit gate already refuses every conflicting reservation.  Tests
    pass a finished run's `Simulation.res_records` and expect 0.

    Counts the time-overlapping pairs that `reservations_conflict`
    flags.  Each reservation is summarized by the receivers its two
    beams reach and the receivers its two ends face, as
    node * n_sectors + sector keys: x beaming xb lands in y facing yb
    exactly when y's key is among the keys x's beam reaches, so a pair
    conflicts when either one's reach meets the other's facing.
    """
    ns = graph.n_sectors
    links = graph.links
    reach_of: dict[int, frozenset] = {}

    def reach(x: int, xb: int) -> frozenset:
        keys = reach_of.get(x * ns + xb)
        if keys is None:
            keys = frozenset(y * ns + links[(x, y)].sector_at_rx
                             for y in graph.neighbors_in_sector(x, xb))
            reach_of[x * ns + xb] = keys
        return keys

    conflicts = 0
    active: list[tuple] = []   # (start, end, reach, facing)
    for res in sorted(records, key=lambda r: (r.start, r.rid)):
        active = [a for a in active if a[1] > res.start]
        hits = reach(res.initiator, res.i_beam) | \
            reach(res.acceptor, res.a_beam)
        facing = {res.initiator * ns + res.i_beam,
                  res.acceptor * ns + res.a_beam}
        for start, _, o_hits, o_facing in active:
            if res.end > start and (not hits.isdisjoint(o_facing)
                                    or not o_hits.isdisjoint(facing)):
                conflicts += 1
        active.append((res.start, res.end, hits, facing))
    return conflicts


class Simulation:
    """One seeded run of one protocol over one deployment."""

    def __init__(self, cfg: ScenarioConfig, graph: ConnectivityGraph | None = None,
                 trace_path=None):
        cfg.validate()
        self.cfg = cfg
        self.graph = graph if graph is not None else build_topology(cfg)
        if self.graph.n_sectors != cfg.n_sectors:
            # a stored or given deployment brings its own sector count
            raise ValueError(f"the deployment has {self.graph.n_sectors} "
                             f"sectors, the config n_sectors="
                             f"{cfg.n_sectors}")
        self.clock = SlotClock.from_config(cfg)
        self.data_us = ceil_div(cfg.data_bytes * 8 * 1_000_000,
                                cfg.link_rate_bps)
        self.ack_us = self.clock.cms_us
        self.exchange_us = self.data_us + self.ack_us
        self.trace = TraceRecorder(trace_path)
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self.slot_intents: dict[int, list] = {}
        self._open_res = 0      # reservations whose exchange has not ended
        self.res_records: list[Reservation] = []
        self._res_seq = 0
        self.last_progress = 0
        self.stalled = False
        self._stall_us = int(cfg.stall_window_s * 1e6)
        # listener*n_sectors+facing -> latest reservation end audible
        # there; stale entries are harmless because queries ignore ends
        # in the past
        self._busy: dict[int, int] = {}
        # same shape, but folded from both ends of every reservation: a
        # node beaming into a reserved domain is a conflict even before
        # the acceptor has transmitted anything
        self._guard: dict[int, int] = {}
        self._chan_cache: dict[int, tuple] = {}
        # initiator*n_nodes+receiver -> (initiator's q_version and routing
        # version, receiver's q_version and routing version, value)
        self._pair_cache: dict[int, tuple] = {}
        # emitter*n_sectors+beam -> its audience (`_audience_of`)
        self._audience: dict[int, list[tuple]] = {}
        self._ns = cfg.n_sectors
        self._nn = self.graph.n_nodes

        g = self.graph
        self.sessions = generate_sessions(cfg, g, substream(cfg.seed, "sessions"))
        self.sess_sink = {s["sid"]: s["sink"] for s in self.sessions}
        self.source_sessions: dict[int, list[int]] = {}
        for s in self.sessions:
            self.source_sessions.setdefault(s["source"], []).append(s["sid"])
        self._next_seq = {s["sid"]: 0 for s in self.sessions}
        self.unsent = {s["sid"]: s["packets"] for s in self.sessions}

        self.nodes = [MacNode(i, cfg.b_max, self.sess_sink)
                      for i in range(g.n_nodes)]
        gr_csma = cfg.protocol == "GR-CSMA"
        for n in self.nodes:
            n.csma_cw = cfg.csma_cw_min
            if gr_csma:
                n.gr_order = deque()

        self._greedy_memo: dict[tuple[int, int], int | None] = {}
        # (nid, sink) -> (routing obs_version, _sector_terms value)
        self._terms_cache: dict[tuple[int, int], tuple] = {}
        if cfg.protocol != "GR-CSMA":   # GR-CSMA reads neither
            self.prog = g.progress
            # receiver*n_sectors+sector -> emitters whose beam in that
            # sector reaches the receiver (the VL handshake's tail)
            cover: dict[int, set] = {}
            for (x, y), lk in g.links.items():
                cover.setdefault(y * self._ns + lk.sector_at_tx, set()).add(x)
            self._coverers = {key: frozenset(xs)
                              for key, xs in cover.items()}

        self.warmup_us = 0
        if cfg.protocol == "VL-ROUTE":
            self._init_routing()

        # counters
        self.delivered_per_session = {s["sid"]: 0 for s in self.sessions}
        self.delivered_bits = 0
        self.exchanges_total = 0
        self.duplex_exchanges = 0
        self.drops = {"collision": 0, "retry-limit": 0, "no-route": 0,
                      "buffer-overflow": 0}
        self.cc_collisions = 0
        self.handshake_failures = 0
        self.commit_aborts = 0
        self.events = 0

    # -- setup -------------------------------------------------------

    def _init_routing(self):
        cfg = self.cfg
        g = self.graph
        est = EstimationModel(cfg.estimation_error, cfg.seed)
        states = {}
        for i in range(g.n_nodes):
            states[i] = self.nodes[i].routing = RoutingState(
                i, g, cfg.cw, cfg.b_max, est)
        rounds = flood_routing_tables(g, states)
        self.warmup_us = rounds * self.clock.super_us
        self.trace.emit(0, -1, "warmup", f"rounds={rounds}")

    # -- plumbing ----------------------------------------------------

    def _push(self, t: int, prio: int, payload):
        self._seq += 1
        heapq.heappush(self._heap, (t, prio, self._seq, payload))

    def _backoff_rng(self, node: MacNode):
        """The node's backoff stream, seeded at its first draw site.

        Nothing draws from the stream before, so it draws what a stream
        seeded with the run would.  A one-slot window (`cw` or
        `acn_window` 1) reaches a draw site without drawing.
        """
        node.rng = substream(self.cfg.seed, "backoff", node.nid)
        return node.rng

    def _chan_entry(self, i: int, j: int) -> tuple:
        """(draw, p_b, p_e) for link i -> j, cached under i*n_nodes+j.

        draw starts as a stub that, at the link's first draw, seeds the
        link's "chan" substream and puts the stream's `random` in its
        place, here and in the link's audience entry: a link that never
        draws seeds no stream, and one that has drawn calls its stream
        directly.  The stub keeps drawing from that stream for callers
        that still hold it.  It holds the simulation weakly: a cycle
        through the caches would keep a finished run's state alive
        until the cyclic collector ran.
        """
        lk = self.graph.links[(i, j)]
        key = i * self._nn + j
        sim = weakref.ref(self)
        draw = None

        def first_draw():
            nonlocal draw
            if draw is None:
                owner = sim()
                draw = substream(owner.cfg.seed, "chan", i, j).random
                owner._chan_cache[key] = (draw, lk.p_b, lk.p_e)
                aud = owner._audience.get(
                    i * owner._ns + lk.sector_at_tx, ())
                for n, entry in enumerate(aud):
                    if entry[0] == j:
                        aud[n] = (j, entry[1], draw, *entry[3:])
                        break
            return draw()

        c = (first_draw, lk.p_b, lk.p_e)
        self._chan_cache[key] = c
        return c

    def _chan_ok(self, i: int, j: int) -> bool:
        # sample_link_outcome(link, rng) inlined, rng being the link's
        # "chan" substream: same draws in the same order
        c = self._chan_cache.get(i * self._nn + j)
        if c is None:
            c = self._chan_entry(i, j)
        rnd, p_b, p_e = c
        if p_b and rnd() < p_b:
            return False
        if p_e and rnd() < p_e:
            return False
        return True

    def _enter_slot(self, t_slot: int, kind: str, nids) -> None:
        """Register the nodes' intents for a slot, scheduling it on first use.

        A retry enters the same sector's slot one super-slot later without
        re-planning; a plan that changed meanwhile fails on arrival.
        """
        lst = self.slot_intents.get(t_slot)
        if lst is None:
            lst = []
            self.slot_intents[t_slot] = lst
            self._push(t_slot, _EV_SLOT, t_slot)
        nodes = self.nodes
        for nid in nids:
            nodes[nid].pending = "slot"
            lst.append((kind, nid))

    def _greedy(self, i: int, k: int):
        key = (i, k)
        t = self._greedy_memo.get(key, "?")
        if t == "?":
            g = self.graph
            t = greedy_next_hop(g.positions[i], g.positions[k],
                                ((j, g.positions[j])
                                 for j in g.out_neighbors(i)))
            self._greedy_memo[key] = t
        return t

    def _audience_of(self, x: int, xb: int) -> list[tuple]:
        """[(y, node y, draw, p_b, p_e, busy key)] for each receiver y that
        emitter x's beam xb reaches, in `neighbor_index` order.

        Built on first use and kept for the run.  (draw, p_b, p_e) is
        the link's `_chan_cache` entry, so a link keeps one stream; the
        busy key is y * n_sectors + the sector y hears x in.
        """
        key = x * self._ns + xb
        aud = self._audience.get(key)
        if aud is None:
            links = self.graph.links
            chan_cache = self._chan_cache
            nn = self._nn
            ns = self._ns
            aud = []
            for y in self.graph.neighbor_index[x][xb]:
                c = chan_cache.get(x * nn + y)
                if c is None:
                    c = self._chan_entry(x, y)
                aud.append((y, self.nodes[y], *c,
                            y * ns + links[(x, y)].sector_at_rx))
            self._audience[key] = aud
        return aud

    def _fold_busy(self, into: dict, x: int, xb: int, end: int):
        """Mark every receiver that can hear emitter (x, beam xb) busy."""
        for entry in self._audience_of(x, xb):
            key = entry[5]
            if end > into.get(key, 0):
                into[key] = end

    def _dc_busy_until(self, nid: int, facing: int) -> int:
        """Latest end among active reservations audible to nid's receiver."""
        worst = self._busy.get(nid * self._ns + facing, 0)
        return worst if worst > self.now else 0

    def _commit_conflict(self, i: int, a: int, i_beam: int,
                         a_beam: int) -> bool:
        # x beaming at y while y faces x reads the same from either end,
        # so checking the new pair against the guard map covers both
        # disturbance directions
        now = self.now
        guard = self._guard
        ns = self._ns
        return guard.get(i * ns + i_beam, 0) > now or \
            guard.get(a * ns + a_beam, 0) > now

    def _refill(self, node: MacNode):
        """Top a source's queues up from its sessions' unsent packets."""
        sids = self.source_sessions.get(node.nid)
        if not sids:
            return
        for sid in sids:
            while self.unsent[sid] > 0 and node.free_space() > 0:
                seq = self._next_seq[sid]
                self._next_seq[sid] = seq + 1
                self.unsent[sid] -= 1
                node.enqueue(sid, DataPacket(sid, seq))

    def _drop(self, node: MacNode, sid: int, cause: str):
        node.dequeue(sid)
        self.drops[cause] += 1
        self.last_progress = self.now
        self.trace.emit(self.now, node.nid, "drop", f"s={sid} cause={cause}")
        self._refill(node)

    def _drop_sink_packets(self, node: MacNode, k: int):
        """No-route: shed every queued packet bound for sink k."""
        for sid in node.queued_sids():
            if self.sess_sink[sid] == k:
                while node.backlog(sid):
                    self._drop(node, sid, "no-route")

    def _queue_beacons(self, node: MacNode):
        g = self.graph
        secs = [s for s in range(g.n_sectors)
                if g.neighbors_in_sector(node.nid, s)]
        node.beacon_sectors = deque(secs * _BEACON_ROUNDS)

    # -- attempt planning -------------------------------------------

    def _attempt(self, node: MacNode) -> tuple:
        """(q_version, routing version, plan, backoff weights).

        The plan is pure in the node's queues and routing tables, so it
        is kept on the node (`MacNode.attempt`) against their version
        counters, with the `backoff_weights` of its utility that every
        request made under it replays.
        """
        state = node.routing
        qv = node.q_version
        rv = state.version if state else 0
        rec = node.attempt
        if rec[0] != qv or rec[1] != rv:
            plan = self._vl_choose_eval(node)
            cfg = self.cfg
            weights = None if plan is None else backoff_weights(
                plan[1], cfg.cw, cfg.backoff_utility_scale)
            rec = node.attempt = (qv, rv, plan, weights)
        return rec

    def _vl_choose_eval(self, node: MacNode):
        """Best sector and its utility for the next access attempt."""
        util = [0.0] * self.graph.n_sectors
        sess_sink = self.sess_sink
        queues = node.queues
        terms_of: dict[int, list] = {}
        for sid in node.queued_sids():
            k = sess_sink[sid]
            terms = terms_of.get(k)
            if terms is None:
                terms = self._sector_terms(node, k)
                terms_of[k] = terms
            b = len(queues[sid])
            for s, acc in terms:
                util[s] += b * acc
        idx = select_sector(util)
        if idx is None:
            return None
        return idx, util[idx]

    def _sector_terms(self, node: MacNode, k: int) -> list:
        """[(sector, sum of progress x normalized RRS)] toward sink k.

        Every session bound for k scales the same sums by its backlog.
        They read only the node's observations (VL-ROUTE) or nothing
        that changes (the geographic baseline, RRS factor 1), so they
        are kept until an observation moves.
        """
        state = node.routing
        ver = state.obs_version if state else 0
        cached = self._terms_cache.get((node.nid, k))
        if cached is not None and cached[0] == ver:
            return cached[1]
        terms = []
        gmax = state.gamma_max(k) if state else 1.0
        if gmax > 0.0:
            i = node.nid
            prog = self.prog
            obs = state.obs if state else None
            for s, sec in enumerate(self.graph.neighbor_index[i]):
                acc = 0.0
                for j in sec:   # ascending id: the sum's float order
                    p = prog[(i, j)].get(k)
                    if p is None:
                        continue
                    if obs is None:
                        acc += p
                        continue
                    ob = obs.get(j)
                    if ob is None:
                        continue
                    rec = ob.table.get(k)
                    if rec is None or rec[0] <= 0.0:
                        continue
                    acc += p * (rec[0] / gmax)
                # a zero term adds nothing to any sector's utility
                if acc:
                    terms.append((s, acc))
        self._terms_cache[(node.nid, k)] = (ver, terms)
        return terms

    def _schedule_attempt(self, node: MacNode):
        """Plan the node's next control-channel action, if any."""
        if node.engaged or node.pending is not None:
            return
        facing = None
        if self.cfg.protocol == "GR-CSMA":
            kind = "gr"
            sid = node.gr_head_sid()
            while sid is not None and facing is None:
                k = self.sess_sink[sid]
                target = self._greedy(node.nid, k)
                if target is None:
                    self._drop_sink_packets(node, k)
                    sid = node.gr_head_sid()
                else:
                    facing = self.graph.links[(node.nid, target)].sector_at_rx
        else:
            plan = self._attempt(node)[2]
            if plan is not None:
                kind, facing = "art", opposite_sector(plan[0], self._ns)
            elif node.beacon_sectors:
                kind = "beacon"
                facing = opposite_sector(node.beacon_sectors[0], self._ns)
        clock = self.clock
        if facing is not None:
            t = clock.next_aligned(max(self.now + 1, node.defer_until), facing)
            self._enter_slot(t, kind, (node.nid,))
        elif node.total_q > 0:
            # backlogged but nothing useful to do; poll for table changes
            self._push(self.now + _POLL_SUPERSLOTS * clock.super_us,
                       _EV_WAKE, node.nid)
            node.pending = "wake"

    # -- acceptor evaluation ----------------------------------------

    def _eval_pair(self, rxn: MacNode, ini: MacNode, rq: int, rr: int):
        """Acceptance value of one decodable request at one receiver.

        Reads the initiator's queues and tables directly rather than a
        copy sent with the request.  That is exact: a sender cannot
        receive in its own slot (`_broadcast` skips senders), and nothing
        in the acceptor phase touches a sender's queues or tables, so
        they are what they were when the request went out.  The value
        depends only on both sides' queues and tables, so it is memoized
        per directed pair against both sides' version counters (rq and
        rr are the receiver's); `_evaluate_arts` checks the memo.
        """
        i = ini.nid
        result = None
        q_i, eta_fwd = self._direction(ini, rxn)
        if q_i is not None:
            q_j, eta_rev = None, 0.0
            if ini.free_space() >= 1:
                q_j, eta_rev = self._direction(rxn, ini)
            links = self.graph.links
            u = eta_fwd * links[(i, rxn.nid)].capacity_bps \
                + eta_rev * links[(rxn.nid, i)].capacity_bps
            result = (q_i, q_j, u)
        self._pair_cache[i * self._nn + rxn.nid] = (
            ini.q_version, ini.routing.version if ini.routing else 0, rq, rr,
            result)
        return result

    def _direction(self, src: MacNode, dst: MacNode):
        """(session, eta) for the best transfer from src to dst.

        Each of src's queued sessions toward a sink the link progresses
        to is weighted by that progress, times dst's RRS toward the sink
        normalized by src's best neighbor RRS under VL-ROUTE.  A link
        with no progress yields (None, 0.0).
        """
        prog = self.prog[(src.nid, dst.nid)]
        if not prog:
            return None, 0.0
        vl_route = self.cfg.protocol == "VL-ROUTE"
        sess_sink = self.sess_sink
        options = []
        for sid in src.queued_sids():
            k = sess_sink[sid]
            p = prog.get(k)
            if p is None:
                continue
            if vl_route:
                theirs = dst.routing.entries[k].gamma
                gmax = src.routing.gamma_max(k)
                if theirs <= 0.0 or gmax <= 0.0:
                    continue
                p = (theirs / gmax) * p
            options.append((sid, p, src.backlog(sid), dst.backlog(sid)))
        return select_session_eta(options)

    def _evaluate_arts(self, rxn: MacNode, initiators: list[int]):
        """Acceptor selection among decodable requests; None to stay silent."""
        candidates = []
        details = {}
        pair_cache = self._pair_cache
        nodes = self.nodes
        rx = rxn.nid
        nn = self._nn
        rq = rxn.q_version
        rr = rxn.routing.version if rxn.routing else 0
        for i in initiators:
            ini = nodes[i]
            iv = ini.routing.version if ini.routing else 0
            memo = pair_cache.get(i * nn + rx)
            if memo is not None and memo[0] == ini.q_version \
                    and memo[1] == iv and memo[2] == rq and memo[3] == rr:
                r = memo[4]
            else:
                r = self._eval_pair(rxn, ini, rq, rr)
            if r is None:
                continue
            candidates.append((i, r[2]))
            details[i] = r
        if not candidates:
            return None
        chosen = select_initiator(candidates)
        if chosen is None:
            return None
        q_i, q_j, u = details[chosen]
        return chosen, q_i, q_j, u

    # -- slot phases shared by the protocols -------------------------

    def _broadcast(self, txs: list, beam: int):
        """Deliver the slot's requests to the idle listeners in the beam.

        Sorts `txs` into send order, (cms, nid); a sender cannot
        receive.  Returns ({receiver: [request, ...]}, senders), each
        receiver's requests in CMS order.
        """
        txs.sort()
        senders = set(map(itemgetter(1), txs))
        audience = self._audience
        ns = self._ns
        arrivals: dict[int, list] = {}
        for tx in txs:
            nid = tx[1]
            aud = audience.get(nid * ns + beam)
            if aud is None:
                aud = self._audience_of(nid, beam)
            for rx, rxn, rnd, p_b, p_e, _ in aud:
                if rxn.engaged or rx in senders:
                    continue
                # _chan_ok inlined: same draws in the same order
                if (p_b and rnd() < p_b) or (p_e and rnd() < p_e):
                    continue
                lst = arrivals.get(rx)
                if lst is None:
                    arrivals[rx] = [tx]
                else:
                    lst.append(tx)
        return arrivals, senders

    # -- VL-ROUTE / VL-MAC-GEO slot ----------------------------------

    def _resolve_slot_vl(self, t_slot: int, intents):
        cfg = self.cfg
        clock = self.clock
        g = clock.listening_sector(t_slot)
        beam = opposite_sector(g, clock.n_sectors)
        nodes = self.nodes
        ns = self._ns
        cw = cfg.cw
        scale = cfg.backoff_utility_scale
        busy_map = self._busy

        # the requests: this loop runs once per intent, the hottest of a
        # run, so it keeps its lookups inline rather than calling them
        txs = []       # (cms, nid)
        beacon_txs = []
        for kind, nid in intents:
            node = nodes[nid]
            node.pending = None
            if node.engaged:
                continue  # will re-plan when the exchange ends
            if node.defer_until > t_slot:
                self._schedule_attempt(node)
                continue
            if kind == "art":
                # the version check of _attempt, inlined
                rec = node.attempt
                state = node.routing
                if rec[0] != node.q_version or \
                        rec[1] != (state.version if state else 0):
                    rec = self._attempt(node)
                plan = rec[2]
                if plan is None or plan[0] != beam:
                    self._schedule_attempt(node)
                    continue
                # _dc_busy_until at now == t_slot
                busy = busy_map.get(nid * ns + beam, 0)
                if busy > t_slot:
                    node.defer_until = busy
                    self._schedule_attempt(node)
                    continue
                # backoff_slots(plan[1], cw, node.rng, scale), replayed
                # from the plan's weights: the same draws, the same slot
                weights = rec[3]
                if weights:
                    a, b, terms = weights
                    x = (node.rng or self._backoff_rng(node)).random() \
                        * a / b
                    cms = 0
                    for term in terms:
                        if x < term:
                            break
                        x -= term
                        cms += 1
                elif weights is None:
                    cms = (node.rng or self._backoff_rng(node)).randrange(cw)
                else:   # a one-slot window: slot 0, no draw
                    cms = 0
                txs.append((cms, nid))
            else:  # beacon
                if not node.beacon_sectors or node.beacon_sectors[0] != beam:
                    self._schedule_attempt(node)
                    continue
                node.beacon_sectors.popleft()
                cms = backoff_slots(0.0, cw,
                                    node.rng or self._backoff_rng(node), scale)
                txs.append((cms, nid))
                beacon_txs.append(nid)
        if not txs:
            return

        arrivals, senders = self._broadcast(txs, beam)
        awaiting = senders.difference(beacon_txs)
        pending_acn = self._vl_accept(g, arrivals, beacon_txs)
        if pending_acn:
            self._vl_tail(t_slot, g, beam, pending_acn, awaiting, senders)
        # initiators that heard no ACN retry one super-slot later
        if awaiting:
            self.handshake_failures += len(awaiting)
            self._enter_slot(t_slot + clock.super_us, "art", sorted(awaiting))
        for nid in beacon_txs:
            self._schedule_attempt(nodes[nid])

    def _vl_accept(self, g: int, arrivals: dict, beacons: list) -> list:
        """Acceptor phase: [acn_cms, rx, initiator, q_i, q_j, cancelled].

        A listener decodes each CMS that carried one request; more than
        one is a collision there, counted once per request in it.  A
        VL-ROUTE listener folds the advert of every sender it decoded
        into its tables, skipping one it already holds.  A listener with
        room for a packet, whose own reception would not be corrupted,
        then answers its best decodable ART.
        """
        cfg = self.cfg
        nodes = self.nodes
        vl_route = cfg.protocol == "VL-ROUTE"
        busy_map = self._busy
        ns = self._ns
        now = self.now
        heard = {}
        for rx, lst in arrivals.items():
            if len(lst) == 1:
                heard[rx] = [lst[0][1]]
                continue
            got = []
            for _, same in groupby(lst, key=itemgetter(0)):
                same = list(same)
                if len(same) > 1:
                    self.cc_collisions += len(same)
                else:
                    got.append(same[0][1])
            if got:
                heard[rx] = got
        beacons = set(beacons)
        pending_acn = []
        for rx in sorted(heard):
            rxn = nodes[rx]
            senders = heard[rx]
            if vl_route:
                state = rxn.routing
                obs = state.obs
                moved = False
                for i in senders:
                    sender = nodes[i].routing
                    # observe's early return, inlined: the listener
                    # already holds the advert the sender serves
                    adv = sender.served
                    if adv is not None:
                        ob = obs.get(i)
                        if ob is not None and ob.table is adv["table"] and \
                                ob.sector_counts is adv["sector_counts"]:
                            continue
                    if state.observe(sender.advertisement()):
                        moved = True
                if moved:
                    _, worthy = state.recompute(rxn.backlog_by_sink())
                    if worthy:
                        self._queue_beacons(rxn)
                        self._schedule_attempt(rxn)
            if beacons:
                senders = [i for i in senders if i not in beacons]
                if not senders:
                    continue
            if rxn.total_q >= rxn.b_max:
                continue  # no room for a packet
            # _dc_busy_until, inlined
            if busy_map.get(rx * ns + g, 0) > now:
                continue  # our data reception would be corrupted; stay out
            sel = self._evaluate_arts(rxn, senders)
            if sel is None:
                continue
            i_star, q_i, q_j, u = sel
            acn_cms = cfg.cw + backoff_slots(
                u / cfg.link_rate_bps, cfg.acn_window,
                rxn.rng or self._backoff_rng(rxn), cfg.backoff_utility_scale)
            pending_acn.append([acn_cms, rx, i_star, q_i, q_j, False])
        return pending_acn

    def _vl_tail(self, t_slot: int, g: int, beam: int, pending_acn: list,
                 awaiting: set, senders: set):
        """The ACN / RES tail, one CMS at a time after the request window."""
        cfg = self.cfg
        ns = self._ns
        coverers = self._coverers
        res_due: dict[int, list] = {}
        for cms in range(cfg.cw, cfg.cms_per_slot):
            wire = []  # (tx, kind, record)
            for rec in pending_acn:
                if rec[0] == cms and not rec[5]:
                    wire.append((rec[1], "acn", rec))
            for rec in res_due.pop(cms, ()):
                wire.append((rec[0], "res", rec))
            if not wire:
                continue
            # (tx, kind) is unique within a CMS, so records never compare
            wire.sort()
            hear: dict[int, list] = {}
            for tx, kind, rec in wire:
                if kind == "acn":
                    rx = rec[1]
                    # reaches initiators whose receive sector covers rx,
                    # the ART's sender among them; other acceptors beam
                    # the same way and cannot hear it.  Each link has its
                    # own stream, so the order of the draws below does
                    # not matter.
                    for y in awaiting & coverers[rx * ns + beam]:
                        if self._chan_ok(rx, y):
                            hear.setdefault(y, []).append((rx, kind, rec))
                    continue
                i_star, rx, q_i, q_j = rec
                committed = self._try_commit(t_slot, cms, i_star, rx,
                                             beam, g, q_i, q_j)
                if committed is None:
                    continue
                listeners = {rx}
                cover = coverers.get(i_star * ns + g, ())
                for other in pending_acn:
                    rx2 = other[1]
                    # an acceptor transmitting its own ACN this CMS
                    # cannot simultaneously receive
                    if rx2 != rx and not other[5] and other[0] != cms \
                            and rx2 in cover:
                        listeners.add(rx2)
                for y in listeners:
                    if self._chan_ok(i_star, y):
                        hear.setdefault(y, []).append((i_star, "res",
                                                       (rec, committed)))
                # idle bystanders in the beam defer until the exchange ends
                for y in self.graph.neighbor_index[i_star][beam]:
                    yn = self.nodes[y]
                    if not yn.engaged and y not in senders and \
                            committed.end > yn.defer_until:
                        yn.defer_until = committed.end
            self._vl_hear(t_slot, cms, hear, pending_acn, awaiting, res_due)

    def _vl_hear(self, t_slot: int, cms: int, hear: dict, pending_acn: list,
                 awaiting: set, res_due: dict):
        """What each tail listener makes of one CMS; two frames collide."""
        for y in sorted(hear):
            msgs = hear[y]
            if len(msgs) > 1:
                self.cc_collisions += len(msgs)
                continue
            _, kind, rec = msgs[0]
            if kind == "acn":
                _, rx, i_star, q_i, q_j, _ = rec
                if y == i_star and y in awaiting:
                    awaiting.discard(y)
                    # validation keeps the last ACN CMS short of the
                    # slot's end, so the RES always fits
                    res_due.setdefault(cms + 1, []).append(
                        (i_star, rx, q_i, q_j))
                elif y in awaiting:
                    # overheard a foreign ACN: lost the contention
                    awaiting.discard(y)
                    self.handshake_failures += 1
                    self._enter_slot(t_slot + self.clock.super_us, "art",
                                     (y,))
                # else: a late ACN to an already-committed initiator,
                # which is busy transmitting its RES and ignores it
                continue
            inner, committed = rec
            if y == inner[1]:
                committed.res_delivered = True
                self._fold_busy(self._busy, committed.acceptor,
                                committed.a_beam, committed.end)
                continue
            # foreign acceptor: domain is reserved, stand down
            for other in pending_acn:
                if other[1] == y:
                    other[5] = True
            yn = self.nodes[y]
            if committed.end > yn.defer_until:
                yn.defer_until = committed.end

    def _try_commit(self, t_slot: int, cms: int, i_star: int, rx: int,
                    beam: int, g: int, q_i: int, q_j):
        """Reservation gate: refuse anything conflicting with active ones."""
        node_i = self.nodes[i_star]
        if self._commit_conflict(i_star, rx, beam, g):
            self.commit_aborts += 1
            busy = self._dc_busy_until(i_star, beam)
            if busy > node_i.defer_until:
                node_i.defer_until = busy
            self._schedule_attempt(node_i)
            return None
        start = t_slot + (cms + 1) * self.clock.cms_us
        return self._open_reservation(t_slot, i_star, rx, beam, g, start,
                                      q_i, q_j, False)

    def _open_reservation(self, t_slot: int, i: int, a: int, i_beam: int,
                          a_beam: int, start: int, fwd: int, rev,
                          delivered: bool) -> Reservation:
        """Open an exchange that has passed the commit gate.

        The acceptor's end joins the busy map only once its side of the
        reservation is announced: at commit for GR-CSMA's grant
        (`delivered`), on RES receipt for the VL handshake.
        """
        self._res_seq += 1
        res = Reservation(self._res_seq, i, a, i_beam, a_beam, start,
                          start + self.exchange_us, fwd, rev, delivered)
        self.res_records.append(res)
        self._open_res += 1
        self._fold_busy(self._busy, i, i_beam, res.end)
        if delivered:
            self._fold_busy(self._busy, a, a_beam, res.end)
        self._fold_busy(self._guard, i, i_beam, res.end)
        self._fold_busy(self._guard, a, a_beam, res.end)
        self.nodes[i].engaged = True
        self.nodes[a].engaged = True
        self._push(res.end, _EV_DATA_END, res)
        self.exchanges_total += 1
        if rev is not None:
            self.duplex_exchanges += 1
        self.last_progress = t_slot
        self.trace.emit(t_slot, i, "commit",
                        f"with={a} fwd={fwd} rev={rev} end={res.end}")
        return res

    # -- GR-CSMA slot ------------------------------------------------

    def _resolve_slot_gr(self, t_slot: int, intents):
        cfg = self.cfg
        clock = self.clock
        g = clock.listening_sector(t_slot)
        beam = opposite_sector(g, clock.n_sectors)
        nodes = self.nodes
        links = self.graph.links
        req_window = cfg.cms_per_slot - 2
        ns = self._ns
        busy_map = self._busy
        sess_sink = self.sess_sink
        greedy_memo = self._greedy_memo

        # the requests, with their lookups inline as in _resolve_slot_vl
        txs = []  # (cms, nid, target, sid)
        for kind, nid in intents:
            node = nodes[nid]
            node.pending = None
            if node.engaged:
                continue
            if node.defer_until > t_slot:
                self._schedule_attempt(node)
                continue
            sid = node.gr_head_sid()
            if sid is None:
                continue
            k = sess_sink[sid]
            target = greedy_memo.get((nid, k), "?")
            if target == "?":
                target = self._greedy(nid, k)
            if target is None:
                self._drop_sink_packets(node, k)
                self._schedule_attempt(node)
                continue
            if links[(nid, target)].sector_at_rx != g:
                self._schedule_attempt(node)  # head changed; realign
                continue
            # _dc_busy_until at now == t_slot
            busy = busy_map.get(nid * ns + beam, 0)
            if busy > t_slot:
                node.defer_until = busy
                self._schedule_attempt(node)
                continue
            if node.csma_residual is None:
                node.csma_residual = (
                    node.rng or self._backoff_rng(node)).randrange(node.csma_cw)
            if node.csma_residual >= req_window:
                node.csma_residual -= req_window
                self._enter_slot(t_slot + clock.super_us, "gr", (nid,))
                continue
            cms = node.csma_residual
            node.csma_residual = None
            txs.append((cms, nid, target, sid))
        if txs:
            arrivals, _ = self._broadcast(txs, beam)
            granted = self._gr_grant(t_slot, g, beam, txs, arrivals)
            self._gr_fail(t_slot, txs, granted)

    def _gr_grant(self, t_slot: int, g: int, beam: int, txs: list,
                  arrivals: dict) -> set:
        """Grant what each target decoded alone; count collisions there."""
        nodes = self.nodes
        granted = set()
        for tx in txs:
            cms, nid, target, sid = tx
            got = [a for a in arrivals.get(target, ()) if a[0] == cms]
            if got != [tx]:
                if len(got) > 1:
                    self.cc_collisions += len(got)
                continue
            rxn = nodes[target]
            if rxn.free_space() < 1 or self._dc_busy_until(target, g):
                continue
            node = nodes[nid]
            # full duplex when the receiver holds traffic routed back at us
            rev_sid = None
            if node.free_space() >= 1:
                for sid2 in rxn.queued_sids():
                    if self._greedy(target, self.sess_sink[sid2]) == nid:
                        rev_sid = sid2
                        break
            if self._commit_conflict(nid, target, beam, g):
                self.commit_aborts += 1
                continue
            # the grant is drawn only once the gate has passed, so a
            # refused commit leaves the link's stream untouched
            if not self._chan_ok(target, nid):
                continue  # grant lost; the sender will back off
            self._open_reservation(t_slot, nid, target, beam, g,
                                   t_slot + (cms + 2) * self.clock.cms_us,
                                   sid, rev_sid, True)
            node.csma_cw = self.cfg.csma_cw_min
            granted.add(nid)
        return granted

    def _gr_fail(self, t_slot: int, txs: list, granted: set):
        """Back off every ungranted sender; past the retry limit, drop."""
        cfg = self.cfg
        later = t_slot + self.clock.super_us
        for _, nid, _, sid in txs:
            if nid in granted:
                continue
            node = self.nodes[nid]
            self.handshake_failures += 1
            pkt = node.queues[sid][0]
            pkt.h_attempts += 1
            if pkt.h_attempts > cfg.retry_limit:
                self._drop(node, sid, "collision")
                node.csma_cw = cfg.csma_cw_min
                self._schedule_attempt(node)  # head changed; replan
            else:
                node.csma_cw = min(node.csma_cw * 2, cfg.csma_cw_max)
                self._enter_slot(later, "gr", (nid,))


    # -- data phase --------------------------------------------------

    def _transfer(self, res: Reservation, src: MacNode, dst: MacNode,
                  sid: int) -> None:
        """One data frame src -> dst and its acknowledgement back."""
        pkt = src.queues[sid][0]
        ok = (res.res_delivered
              and self._chan_ok(src.nid, dst.nid)
              and self._chan_ok(dst.nid, src.nid))
        if ok:
            src.dequeue(sid)
            self.last_progress = self.now
            if dst.nid == self.sess_sink[sid]:
                self.delivered_per_session[sid] += 1
                self.delivered_bits += self.cfg.data_bytes * 8
                self.trace.emit(self.now, dst.nid, "deliver",
                                f"s={sid} seq={pkt.seq}")
            elif dst.free_space() >= 1:
                pkt.attempts = 0
                pkt.h_attempts = 0
                dst.enqueue(sid, pkt)
                self.trace.emit(self.now, dst.nid, "move",
                                f"s={sid} seq={pkt.seq} from={src.nid}")
            else:
                self.drops["buffer-overflow"] += 1
                self.trace.emit(self.now, dst.nid, "drop",
                                f"s={sid} cause=buffer-overflow")
            self._refill(src)
        else:
            pkt.attempts += 1
            self.trace.emit(self.now, src.nid, "data_fail",
                            f"s={sid} seq={pkt.seq} n={pkt.attempts}")
            if pkt.attempts > self.cfg.retry_limit:
                self._drop(src, sid, "retry-limit")

    def _data_end(self, res: Reservation):
        self._open_res -= 1
        node_i = self.nodes[res.initiator]
        node_a = self.nodes[res.acceptor]
        self._transfer(res, node_i, node_a, res.fwd_sid)
        if res.rev_sid is not None and res.res_delivered:
            self._transfer(res, node_a, node_i, res.rev_sid)
        if self.cfg.protocol == "VL-ROUTE":
            for n in (node_i, node_a):
                _, worthy = n.routing.recompute(n.backlog_by_sink())
                if worthy:
                    self._queue_beacons(n)
        node_i.engaged = False
        node_a.engaged = False
        self._schedule_attempt(node_i)
        self._schedule_attempt(node_a)

    # -- run loop ----------------------------------------------------

    def _check_stall(self):
        if not self._open_res and \
                self.now - self.last_progress > self._stall_us:
            self.stalled = True

    def run(self) -> RunMetrics:
        wall0 = _time.perf_counter()
        cfg = self.cfg
        traffic_start = self.warmup_us
        self.now = traffic_start
        self.last_progress = traffic_start
        for s in self.sessions:
            self._refill(self.nodes[s["source"]])
        for node in self.nodes:
            if node.total_q:
                self._schedule_attempt(node)
        cap = traffic_start + int(cfg.duration_cap_s * 1e6)
        heap = self._heap
        pop = heapq.heappop
        slot_intents = self.slot_intents
        resolve = (self._resolve_slot_gr if cfg.protocol == "GR-CSMA"
                   else self._resolve_slot_vl)
        events = self.events
        while heap and not self.stalled:
            t, prio, _, payload = pop(heap)
            if t > cap:
                break
            self.now = t
            events += 1
            if prio == _EV_DATA_END:
                self._data_end(payload)
            elif prio == _EV_SLOT:
                intents = slot_intents.pop(payload, None)
                if intents:
                    resolve(payload, intents)
                    self._check_stall()
            else:  # wake
                node = self.nodes[payload]
                if node.pending == "wake":
                    node.pending = None
                    self._schedule_attempt(node)
                self._check_stall()
        self.events = events
        end = max(self.now, traffic_start)
        return self._finalize(traffic_start, end, wall0)

    def _finalize(self, traffic_start: int, end: int, wall0) -> RunMetrics:
        cfg = self.cfg
        graph = self.graph
        # classify leftovers by true reachability from the current holder:
        # (holder, session, packets) for every queue and unsent remainder
        left = [(node.nid, sid, node.backlog(sid)) for node in self.nodes
                for sid in node.queued_sids()]
        left += [(s["source"], s["sid"], self.unsent[s["sid"]])
                 for s in self.sessions if self.unsent[s["sid"]]]
        sess_sink = self.sess_sink
        reach = {k: mhc_map(graph, k)
                 for k in sorted({sess_sink[sid] for _, sid, _ in left})}
        in_flight = 0
        for nid, sid, n in left:
            if reach[sess_sink[sid]][nid] == INF:
                self.drops["no-route"] += n
            else:
                in_flight += n
        generated = sum(s["packets"] for s in self.sessions)
        delivered = sum(self.delivered_per_session.values())
        conservation_ok = (generated ==
                          delivered + sum(self.drops.values()) + in_flight)
        duration = max(end - traffic_start, self.clock.super_us)
        thr = self.delivered_bits / (cfg.link_rate_bps * duration / 1e6)
        duplex_ratio = (self.duplex_exchanges / self.exchanges_total
                        if self.exchanges_total else 0.0)
        snapshot = {}
        if cfg.protocol == "VL-ROUTE":
            # a served advert is current, so its table is the snapshot:
            # recompute drops it whenever a record moves
            for n in self.nodes:
                adv = n.routing.served
                snapshot[n.nid] = (adv["table"] if adv is not None
                                   else n.routing.snapshot())
        self.trace.emit(end, -1, "end",
                        f"delivered={delivered} drops={sum(self.drops.values())}")
        return RunMetrics(
            protocol=cfg.protocol,
            seed=cfg.seed,
            n_nodes=graph.n_nodes,
            sessions=cfg.sessions,
            generated=generated,
            delivered_total=delivered,
            delivered_per_session=dict(self.delivered_per_session),
            delivered_bits=self.delivered_bits,
            warmup_us=self.warmup_us,
            traffic_duration_us=end - traffic_start,
            normalized_throughput=thr,
            exchanges_total=self.exchanges_total,
            duplex_exchanges=self.duplex_exchanges,
            duplex_ratio=duplex_ratio,
            drops=dict(self.drops),
            in_flight=in_flight,
            cc_collisions=self.cc_collisions,
            handshake_failures=self.handshake_failures,
            commit_aborts=self.commit_aborts,
            stalled=self.stalled,
            conservation_ok=conservation_ok,
            rrs_snapshot=snapshot,
            trace_hash=self.trace.close(),
            events=self.events,
            wall_s=_time.perf_counter() - wall0,
        )


def run(cfg: ScenarioConfig, graph: ConnectivityGraph | None = None,
        trace_path=None) -> RunMetrics:
    """Build and execute one run; the module-level entry point."""
    return Simulation(cfg, graph=graph, trace_path=trace_path).run()
