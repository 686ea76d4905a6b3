"""Front-end request routers for a cluster of serving replicas.

A router is the piece of a data-parallel serving fleet that the paper's
single-node evaluation never exercises: every arriving request must be
pinned to one replica *before* that replica's scheduler sees it, and the
choice shapes queueing on every node downstream.  Four policies:

* :class:`RoundRobinRouter` — rotate through replicas; perfectly fair in
  request count, blind to request size and replica backlog.
* :class:`LeastOutstandingRouter` — send each request to the replica with
  the fewest requests still predicted to be in flight.  Predictions come
  from each replica's own prices (``service``) applied to a virtual
  single-server queue per replica.
* :class:`AffinityRouter` — consistent hashing of the *session id when
  the request has one* (falling back to the request id for sessionless
  traffic), so a session's turns all land on the replica that holds its
  prefix/KV state.
* :class:`CacheAwareRouter` — least-outstanding backlog in *seconds*,
  minus a cache-warmth credit (the prefill time of the estimated
  prefix-hit tokens, ``prefix_savings``) on the replica that last served
  the session — so load balancing and prefix locality are traded off in
  one unit instead of fighting each other.

The load-aware routers (and :class:`DisaggregatedRouter`) take one
price object per replica: the cluster passes a
:class:`~repro.serving.costs.ReplicaPrices` built from each replica's
own cost and memory models, so the router never re-derives a cost.
Routers only call its methods (``service``, ``first_token``,
``decode``, ``prefix_savings``, ``handoff_seconds``), each on a
request's lengths, so any object that has them will do.

A router routes a trace row by row: :meth:`Router.assign` reads the
trace's columns and hands each row's fields to :meth:`Router.choose_row`,
so a routing pass builds no request object; :meth:`Router.choose` is
the same decision for one :class:`~repro.workloads.requests.TimedRequest`.

Routers are deliberately *stateful but seed-free*: given the same trace,
any router produces the same assignment on every run and in every worker
process (hashes go through SHA-256, never Python's randomized ``hash``).
"""

from __future__ import annotations

import abc
import collections
import hashlib
from collections.abc import Sequence

from repro.workloads.requests import TimedRequest, Trace


class Router(abc.ABC):
    """Assigns each arriving request of a trace to one replica.

    The contract: :meth:`choose_row` is called once per request in
    arrival order, with the request's fields, and may update internal
    state (backlog predictions, rotation position); :meth:`reset` must
    return that state to its freshly-constructed value, because the
    cluster engine reuses one router across runs and a reused engine
    must route identically to a fresh one; :meth:`assign` (final) maps
    a whole trace's rows and validates every choice, and :meth:`choose`
    routes one request.  Routers never see engine internals — they decide
    *before* any scheduler runs, which is exactly the information
    asymmetry a real fleet front end has.

    :attr:`phases` is the phase each replica serves; the cluster engine
    reads it to decide how to run the fleet.  Every classic router
    serves ``both`` phases everywhere; only :class:`DisaggregatedRouter`
    restricts replicas.
    """

    #: registry name (``--set router=...`` on the CLI)
    name: str = "?"

    def __init__(self, n_replicas: int):
        if n_replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        self.n_replicas = n_replicas
        self.phases: tuple[str, ...] = ("both",) * n_replicas

    @abc.abstractmethod
    def choose_row(
        self,
        request_id: int,
        arrival_s: float,
        input_len: int,
        output_len: int,
        session_id: int | None,
    ) -> int:
        """The replica index for the request with these fields (may
        update router state)."""

    def choose(self, request: TimedRequest) -> int:
        """The replica index for ``request`` (may update router state)."""
        return self.choose_row(
            request.request_id,
            request.arrival_s,
            request.input_len,
            request.output_len,
            request.session_id,
        )

    def reset(self) -> None:
        """Forget all routing state (start of a fresh trace).

        Stateful policies override this; the cluster engine calls it
        before every run so a reused engine routes a trace identically
        to a fresh one.
        """

    def assign(self, trace: Trace) -> tuple[int, ...]:
        """Route a whole trace in arrival order, one row at a time."""
        choose = self.choose_row
        choices = []
        for row in zip(
            trace.request_id,
            trace.arrival_s,
            trace.input_len,
            trace.output_len,
            trace.session_id,
        ):
            replica = choose(*row)
            if not 0 <= replica < self.n_replicas:
                raise ValueError(
                    f"router {self.name!r} chose replica {replica} "
                    f"of {self.n_replicas}"
                )
            choices.append(replica)
        return tuple(choices)


class RoundRobinRouter(Router):
    """Rotate through replicas in arrival order."""

    name = "round-robin"

    def __init__(self, n_replicas: int):
        super().__init__(n_replicas)
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        del request_id, arrival_s, input_len, output_len, session_id
        replica = self._next
        self._next = (self._next + 1) % self.n_replicas
        return replica


class _VirtualQueueRouter(Router):
    """A virtual single-server queue per replica, fed by its prices.

    A routed request starts when the replica's predicted backlog drains
    (or immediately if idle) and occupies it for
    ``prices[replica].service(input_len, output_len)`` seconds; ``_busy_until`` is when
    each replica's backlog drains.  Prices are per replica: a
    heterogeneous fleet prices the same request differently on different
    node kinds, so the queue asks the *chosen* replica.
    """

    def __init__(self, prices: Sequence):
        super().__init__(len(prices))
        self.prices = tuple(prices)
        self._busy_until = [0.0] * self.n_replicas

    def reset(self) -> None:
        self._busy_until = [0.0] * self.n_replicas

    def _enqueue(
        self,
        replica: int,
        request_id: int,
        arrival_s: float,
        input_len: int,
        output_len: int,
    ) -> float:
        """Queue a request on ``replica``; return its predicted finish."""
        service = self.prices[replica].service(input_len, output_len)
        if not service >= 0.0:
            raise ValueError(
                f"service estimate for request {request_id} "
                f"on replica {replica} is {service!r}; it must be a "
                "non-negative number of seconds"
            )
        finish = max(arrival_s, self._busy_until[replica]) + service
        self._busy_until[replica] = finish
        return finish


class LeastOutstandingRouter(_VirtualQueueRouter):
    """Pick the replica with the fewest predicted-in-flight requests.

    Each replica is modeled as a virtual single-server queue: a routed
    request starts when the replica's backlog drains (or immediately if
    idle) and occupies it for ``service`` seconds.  At each
    arrival the router first expires predictions that finished at or
    before the arrival instant, then counts what is left.  Ties break
    toward the lowest replica index, so the assignment is fully
    deterministic.

    Predicted finishes are monotone per replica: a new finish is
    ``max(now, busy_until) + service >= busy_until``, the latest finish
    already queued (service estimates are non-negative).  Each replica's
    predictions therefore sit in a nondecreasing deque, the expired ones
    always form its head, and expiring them pops from the front — O(1)
    amortized per request, so routing stays linear in the trace.
    """

    name = "least-loaded"

    def __init__(self, prices: Sequence):
        super().__init__(prices)
        self._in_flight: list[collections.deque[float]] = [
            collections.deque() for _ in range(self.n_replicas)
        ]

    def reset(self) -> None:
        super().reset()
        self._in_flight = [collections.deque() for _ in range(self.n_replicas)]

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        replica = fewest = -1
        for i, flight in enumerate(self._in_flight):
            # Expire every replica's predictions first: those ending at
            # or before the arrival are no longer in flight.
            while flight and flight[0] <= arrival_s:
                flight.popleft()
            n = len(flight)
            if replica < 0 or n < fewest:
                replica, fewest = i, n
        self._in_flight[replica].append(
            self._enqueue(replica, request_id, arrival_s, input_len, output_len)
        )
        return replica


class AffinityRouter(Router):
    """Consistent hashing of a request's session onto the replica ring.

    The key is the session id, or the request id for sessionless
    traffic, so a session's turns always land on the same replica — the
    property a prefix/session cache needs.  The hash is SHA-256 over the
    key's type name and ``repr``, so assignments are stable across
    processes and Python versions (unlike the builtin, seed-randomized
    ``hash``).
    """

    name = "affinity"

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        key = request_id if session_id is None else session_id
        digest = hashlib.sha256(f"{type(key).__name__}:{key!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.n_replicas


class CacheAwareRouter(_VirtualQueueRouter):
    """Least-outstanding backlog in seconds, minus a cache-warmth credit.

    Each replica keeps the same virtual single-server queue as
    :class:`LeastOutstandingRouter`, but the score compared across
    replicas is the predicted backlog *in seconds* (``busy_until - now``)
    rather than a request count — so the score never reads an in-flight
    list, and warmth can be subtracted in the same unit: for the replica
    that last served the request's session, the score drops by that
    replica's ``prefix_savings`` of the estimated prefix-hit tokens (a
    warm prefix is worth whatever *that* node kind would spend
    recomputing it).  A session therefore sticks to its warm replica
    until the backlog gap exceeds what the cached prefix is worth, at
    which point the router deliberately moves it — and with a shared
    prefix tier downstream, the move lands warm via a priced KV transfer
    instead of cold.

    Session history is tracked from the router's own decisions (replica
    and cumulative conversation tokens after each routed turn): a front
    end knows what it routed, not what the engines cached — the same
    information asymmetry the other routers live with.  Sessionless
    requests score with zero warmth everywhere, i.e. plain seconds-based
    least-outstanding routing.
    """

    name = "cache-aware"

    def __init__(self, prices: Sequence):
        super().__init__(prices)
        #: session_id -> (replica of the last turn, conversation tokens)
        self._sessions: dict[object, tuple[int, int]] = {}

    def reset(self) -> None:
        super().reset()
        self._sessions = {}

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        # Only the session's home replica can be warm: it earns the
        # prefix credit, every other replica scores its backlog alone.
        warm, credit = -1, 0.0
        home = None if session_id is None else self._sessions.get(session_id)
        if home is not None:
            # A prefix hit can never cover the whole prompt (the final
            # token is always computed) — mirror the cache's own cap.
            hit_tokens = min(home[1], input_len - 1)
            if hit_tokens >= 1:
                warm = home[0]
                credit = self.prices[warm].prefix_savings(hit_tokens)
        replica, best = -1, 0.0
        for i, busy in enumerate(self._busy_until):
            score = max(busy - arrival_s, 0.0)
            if i == warm:
                score -= credit
            if replica < 0 or score < best:
                replica, best = i, score
        self._enqueue(replica, request_id, arrival_s, input_len, output_len)
        if session_id is not None:
            # After this turn the conversation history the next turn
            # could reuse is everything sent plus everything generated.
            self._sessions[session_id] = (replica, input_len + output_len)
        return replica


#: phases a replica may own in a disaggregated fleet
PHASE_NAMES: tuple[str, ...] = ("prefill", "decode", "both")


def validate_phases(phases: Sequence[str], n_replicas: int) -> tuple[str, ...]:
    """``phases`` as a tuple, one known phase name per replica.

    Names are checked first, so a misspelled phase is reported as such
    whatever else is wrong with the fleet.
    """
    phases = tuple(phases)
    unknown = sorted(set(phases) - set(PHASE_NAMES))
    if unknown:
        raise ValueError(
            f"unknown phase(s) {unknown}; available: {', '.join(PHASE_NAMES)}"
        )
    if len(phases) != n_replicas:
        raise ValueError(f"got {len(phases)} phases for {n_replicas} replicas")
    return phases


class DisaggregatedRouter(_VirtualQueueRouter):
    """Phase-pair routing for a prefill/decode-disaggregated fleet.

    Instead of one replica per request, this router picks a *pair*: the
    prefill-capable replica that produces the first token and the
    decode-capable replica that generates the tail.  A ``both`` replica
    may serve a request *colocated* (it is its own pair); a ``decode``
    replica only ever receives continuations, whose KV arrives over the
    priced ``link_gbps`` wire — the destination's ``handoff_seconds``,
    the same price the cluster charges, is part of the score, so a slow
    link correctly pushes the router back toward colocated serving.

    Scoring keeps the virtual single-server queues of
    :class:`LeastOutstandingRouter`, but in phase-split form.  For
    prefill replica ``p``: ``t_first = max(now, busy[p]) +
    prices[p].first_token(input_len)`` — the estimated TTFT.  A colocated
    candidate scores ``t_first`` and would occupy ``p`` through its
    ``decode`` tail too; a split candidate with decode replica ``d``
    scores ``max(t_first + prices[d].handoff_seconds(input_len), busy[d])`` —
    when the tail could *start* — and occupies ``p`` only through
    prefill, which is exactly the interference-removal disaggregation
    buys.  Ties break toward the lowest ``(p, d)``, so assignment is
    fully deterministic.  On an all-``both`` fleet every pair is
    colocated and the router degrades to TTFT-greedy least-backlog
    routing (usable single-stage).

    Not in :data:`ROUTER_NAMES`: the classic routers assign one replica
    per request and work under any cluster, while this one needs the
    cluster engine's two-stage orchestration to honor its pairs —
    :func:`~repro.serving.cluster.build_cluster` constructs it when
    ``router="disaggregated"``.
    """

    name = "disaggregated"

    def __init__(self, prices: Sequence, phases: Sequence[str]):
        super().__init__(prices)
        self.phases = phases = validate_phases(phases, self.n_replicas)
        self._prefill_side = [
            i for i, ph in enumerate(phases) if ph != "decode"
        ]
        self._decode_only = [
            i for i, ph in enumerate(phases) if ph == "decode"
        ]
        if not self._prefill_side:
            raise ValueError("a fleet needs a prefill-capable replica")
        if not any(ph != "prefill" for ph in phases):
            raise ValueError("a fleet needs a decode-capable replica")

    def choose_pair(self, request: TimedRequest) -> tuple[int, int]:
        """The ``(prefill_replica, decode_replica)`` pair for ``request``.

        Updates the virtual queues, so call exactly once per request in
        arrival order (:meth:`assign_pairs` does, row by row).
        """
        return self._pair(request.arrival_s, request.input_len, request.output_len)

    def _pair(self, now: float, input_len: int, output_len: int) -> tuple[int, int]:
        """:meth:`choose_pair` on a request's arrival and lengths."""
        busy = self._busy_until
        prices = self.prices
        # Ranked by (score, t_first, p, d): when a saturated decode side
        # makes every pair's score the shared decode backlog, the
        # t_first key still spreads prefills over the prefill side
        # instead of letting the index tie-break pile them on one node.
        best: tuple[float, float, int, int] | None = None
        for p in self._prefill_side:
            t_first = max(now, busy[p]) + prices[p].first_token(input_len)
            if self.phases[p] == "both":
                candidate = (t_first, t_first, p, p)
                if best is None or candidate < best:
                    best = candidate
            for d in self._decode_only:
                score = max(t_first + prices[d].handoff_seconds(input_len), busy[d])
                candidate = (score, t_first, p, d)
                if best is None or candidate < best:
                    best = candidate
        assert best is not None  # __init__ guarantees a prefill side
        score, best_first, p, d = best
        if p == d:
            # Colocated: one node owns prefill and the decode tail.
            busy[p] = best_first + prices[p].decode(input_len, output_len)
        else:
            busy[p] = best_first
            busy[d] = score + prices[d].decode(input_len, output_len)
        return p, d

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        """Single-replica view: the pair's prefill home.

        Lets an all-``both`` fleet use this router through the ordinary
        single-stage :meth:`Router.assign` path (every pair is colocated
        there, so the prefill home *is* the whole assignment).
        """
        return self._pair(arrival_s, input_len, output_len)[0]

    def assign_pairs(self, trace: Trace) -> tuple[tuple[int, int], ...]:
        """Route a whole trace in arrival order, keeping both halves."""
        pair = self._pair
        pairs = []
        for row in zip(trace.arrival_s, trace.input_len, trace.output_len):
            p, d = pair(*row)
            if not (0 <= p < self.n_replicas and 0 <= d < self.n_replicas):
                raise ValueError(
                    f"router {self.name!r} chose pair ({p}, {d}) "
                    f"of {self.n_replicas}"
                )
            pairs.append((p, d))
        return tuple(pairs)


#: router names accepted by :func:`build_router`, in presentation order
ROUTER_NAMES: tuple[str, ...] = (
    RoundRobinRouter.name,
    LeastOutstandingRouter.name,
    AffinityRouter.name,
    CacheAwareRouter.name,
)


def build_router(name: str, prices: Sequence) -> Router:
    """Construct a router by registry name over one price per replica.

    ``least-loaded`` and ``cache-aware`` score replicas with ``prices``
    (the cluster passes one :class:`~repro.serving.costs.ReplicaPrices`
    per replica); ``round-robin`` and ``affinity`` read only their count.

    The ``disaggregated`` phase-pair router is *not* built here: it
    needs the fleet's phases, which only
    :func:`~repro.serving.cluster.build_cluster` has.
    """
    if name == RoundRobinRouter.name:
        return RoundRobinRouter(len(prices))
    if name == LeastOutstandingRouter.name:
        return LeastOutstandingRouter(prices)
    if name == AffinityRouter.name:
        return AffinityRouter(len(prices))
    if name == CacheAwareRouter.name:
        return CacheAwareRouter(prices)
    raise KeyError(
        f"unknown router {name!r}; available: {', '.join(ROUTER_NAMES)}"
    )


def load_imbalance(assigned_work: Sequence[float]) -> float:
    """Max-over-mean load ratio across replicas (1.0 = perfectly even).

    The standard imbalance metric of data-parallel serving: how much more
    work the hottest replica carries than the average one.  Zero-work
    fleets report 1.0 (nothing to imbalance).
    """
    if not assigned_work:
        raise ValueError("need at least one replica")
    total = sum(assigned_work)
    if total == 0:
        return 1.0
    return max(assigned_work) / (total / len(assigned_work))
