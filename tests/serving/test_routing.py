"""Routers: policy behavior, determinism, and the imbalance metric."""

import random
import types

import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    ROUTER_NAMES,
    AffinityRouter,
    CacheAwareRouter,
    LeastOutstandingRouter,
    ReplicaPrices,
    RoundRobinRouter,
    build_router,
    load_imbalance,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.workloads.requests import Request, TimedRequest, Trace


def timed(request_id: int, arrival_s: float, input_len=64, output_len=8):
    return TimedRequest(Request(request_id, input_len, output_len), arrival_s)


def turn(request_id: int, session_id: int, arrival_s: float, input_len=64):
    return TimedRequest(
        Request(request_id, input_len, 8, session_id=session_id), arrival_s
    )


def flat(seconds):
    """A service estimate of ``seconds`` for every request."""
    return lambda input_len, output_len: seconds


def fake_prices(services, prefix_savings=lambda hit_tokens: 0.0):
    """One duck-typed price object per service estimate (one per replica).

    Routers call only the price methods they score with, so a namespace
    holding the two callables stands in for ``ReplicaPrices``: each
    service estimate takes a request's ``(input_len, output_len)``.
    """
    return [
        types.SimpleNamespace(service=service, prefix_savings=prefix_savings)
        for service in services
    ]


@pytest.fixture(scope="module")
def replica_prices():
    """Four Pimba replicas' real prices, as the cluster builds them."""
    system = build_system(SystemKind.PIMBA, "small")
    spec = spec_for("Zamba2")
    return [ReplicaPrices(system, spec, link_gbps=100.0) for _ in range(4)]


class TestRoundRobin:
    def test_rotates_evenly(self):
        router = RoundRobinRouter(3)
        trace = poisson_trace(10.0, 9, seed=0)
        assignments = router.assign(trace)
        assert assignments == (0, 1, 2, 0, 1, 2, 0, 1, 2)

    def test_single_replica_is_identity(self):
        router = RoundRobinRouter(1)
        assert router.assign(poisson_trace(5.0, 7, seed=1)) == (0,) * 7


class TestLeastOutstanding:
    def test_spreads_simultaneous_burst(self):
        """A burst at t=0 must fan out: each arrival sees the previous
        ones still outstanding and picks the emptiest replica."""
        router = LeastOutstandingRouter(fake_prices([flat(100.0)] * 4))
        burst = Trace(tuple(timed(i, 0.0) for i in range(8)))
        assert router.assign(burst) == (0, 1, 2, 3, 0, 1, 2, 3)

    def test_drained_backlog_expires(self):
        """Once predictions complete, the first replica is preferred again
        (lowest-index tie-break) instead of blindly rotating."""
        router = LeastOutstandingRouter(fake_prices([flat(1.0)] * 2))
        assert router.choose(timed(0, 0.0)) == 0
        assert router.choose(timed(1, 0.5)) == 1  # replica 0 still busy
        assert router.choose(timed(2, 10.0)) == 0  # everything drained

    def test_sized_requests_balance_work_not_count(self):
        """With per-request service estimates, a giant request keeps its
        replica 'outstanding' while short ones drain elsewhere."""
        router = LeastOutstandingRouter(
            fake_prices([lambda input_len, output_len: output_len * 1.0] * 2)
        )
        assert router.choose(timed(0, 0.0, output_len=100)) == 0
        # Short requests arriving while the giant one is resident all
        # land on replica 1 once its own short work has drained.
        assert router.choose(timed(1, 1.0, output_len=2)) == 1
        assert router.choose(timed(2, 5.0, output_len=2)) == 1
        assert router.choose(timed(3, 9.0, output_len=2)) == 1

    def test_prediction_ending_at_the_arrival_has_expired(self):
        """``finish == now`` is no longer in flight: the replica whose
        only prediction ends exactly at the arrival counts as empty."""
        router = LeastOutstandingRouter(
            fake_prices([lambda input_len, output_len: float(output_len)] * 2)
        )
        assert router.choose(timed(0, 0.0, output_len=4)) == 0  # until 4.0
        assert router.choose(timed(1, 0.0, output_len=2)) == 1  # until 2.0
        assert router.choose(timed(2, 2.0)) == 1

    def test_negative_service_estimate_rejected(self):
        """Pruning relies on monotone finishes, which a negative service
        time would break — it fails at the boundary instead."""
        router = LeastOutstandingRouter(fake_prices([flat(-1.0)] * 2))
        with pytest.raises(ValueError, match="non-negative"):
            router.choose(timed(0, 0.0))


class _ListPruningRouter:
    """Brute-force oracle: least-loaded routing as a plain list rebuild.

    Every call rebuilds each replica's in-flight list from scratch, with
    no assumption about the order of predicted finishes — the algorithm
    the deque-pruning router must reproduce assignment for assignment.
    """

    def __init__(self, service_times):
        self.service_times = list(service_times)
        self.flight = [[] for _ in self.service_times]
        self.busy = [0.0] * len(self.service_times)

    def choose(self, request):
        now = request.arrival_s

        def outstanding(i):
            self.flight[i] = [f for f in self.flight[i] if f > now]
            return len(self.flight[i])

        replica = min(
            range(len(self.flight)), key=lambda i: (outstanding(i), i)
        )
        begin = max(now, self.busy[replica])
        finish = begin + self.service_times[replica](
            request.input_len, request.output_len
        )
        self.busy[replica] = finish
        self.flight[replica].append(finish)
        return replica


def _grid_trace(seed: int, n: int = 300) -> Trace:
    """Bursty arrivals on a 0.25 s grid: many requests share an instant,
    and with grid-multiple service times many predicted finishes land
    exactly on a later arrival (both sides are exact binary floats)."""
    rng = random.Random(seed)
    t = 0.0
    requests = []
    for i in range(n):
        t += rng.choice((0.0, 0.0, 0.0, 0.25, 0.5))
        requests.append(
            timed(
                i,
                t,
                input_len=rng.randint(1, 512),
                output_len=rng.randint(1, 64),
            )
        )
    return Trace(tuple(requests))


def _grid_service(scale: float):
    # 0 s for every eighth output length: zero-length service must
    # expire at the very instant it was predicted.
    return lambda input_len, output_len: 0.25 * scale * (output_len % 8)


class TestLeastOutstandingPruningEquivalence:
    """Deque pruning assigns exactly what the list rebuild assigns."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_replicas", [1, 3, 8])
    def test_shared_service_time(self, seed, n_replicas):
        trace = _grid_trace(seed)
        service = _grid_service(1.0)
        oracle = _ListPruningRouter([service] * n_replicas)
        router = LeastOutstandingRouter(fake_prices([service] * n_replicas))
        assert router.assign(trace) == tuple(
            oracle.choose(r) for r in trace.requests
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_per_replica_service_times(self, seed):
        services = [_grid_service(scale) for scale in (1.0, 2.0, 0.5, 3.0)]
        trace = _grid_trace(seed)
        oracle = _ListPruningRouter(services)
        router = LeastOutstandingRouter(fake_prices(services))
        assert router.assign(trace) == tuple(
            oracle.choose(r) for r in trace.requests
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_poisson_trace_with_sized_requests(self, seed):
        trace = poisson_trace(
            400.0, 500, lognormal_lengths(256, 64, 0.8), seed=seed
        )

        def service(input_len, output_len):
            return 1e-4 * input_len + 5e-3 * output_len

        oracle = _ListPruningRouter([service] * 4)
        router = LeastOutstandingRouter(fake_prices([service] * 4))
        assert router.assign(trace) == tuple(
            oracle.choose(r) for r in trace.requests
        )

    def test_simultaneous_burst_matches_oracle(self):
        burst = Trace(
            tuple(timed(i, 1.0, output_len=1 + i % 5) for i in range(40))
        )
        service = _grid_service(1.0)
        oracle = _ListPruningRouter([service] * 3)
        router = LeastOutstandingRouter(fake_prices([service] * 3))
        assert router.assign(burst) == tuple(
            oracle.choose(r) for r in burst.requests
        )

    def test_reuse_after_reset_matches_the_oracle(self):
        """A reused router forgets the previous trace's predictions."""
        service = _grid_service(1.0)
        router = LeastOutstandingRouter(fake_prices([service] * 3))
        router.assign(_grid_trace(0))
        router.reset()
        second = _grid_trace(1)
        oracle = _ListPruningRouter([service] * 3)
        assert router.assign(second) == tuple(
            oracle.choose(r) for r in second.requests
        )


class TestAffinity:
    def test_same_key_same_replica(self):
        router = AffinityRouter(5)
        a = router.choose(timed(7, 0.0))
        b = router.choose(timed(7, 99.0, input_len=512))
        # Sessionless requests fall back to the request id as the key,
        # never the shape or time.
        assert a == b

    def test_default_key_is_the_session(self):
        """Turns of one conversation co-locate even though every turn is
        a distinct request — the whole point of affinity routing (keying
        on request_id instead was the bug this regresses)."""
        router = AffinityRouter(5)
        turns = [router.choose(turn(i, session_id=3, arrival_s=float(i)))
                 for i in range(6)]
        assert len(set(turns)) == 1
        # A session id equal to some request id hashes identically, so
        # the fallback cannot collide sessions apart across processes.
        assert router.choose(turn(99, session_id=7, arrival_s=0.0)) == \
            router.choose(timed(7, 0.0))

    def test_stable_across_instances(self):
        """SHA-based hashing: a fresh router (fresh process) agrees."""
        trace = poisson_trace(10.0, 32, seed=3)
        assert AffinityRouter(4).assign(trace) == AffinityRouter(4).assign(trace)

    def test_spreads_distinct_keys(self):
        router = AffinityRouter(4)
        trace = poisson_trace(10.0, 64, seed=0)
        assert len(set(router.assign(trace))) > 1


class TestCacheAware:
    def test_sessionless_traffic_is_seconds_backlog_fanout(self):
        """Sessionless requests earn no warmth anywhere, however much a
        prefix is worth: the router degrades to least-outstanding over
        predicted seconds."""
        router = CacheAwareRouter(
            fake_prices([flat(100.0)] * 4, prefix_savings=lambda hit_tokens: 1e9)
        )
        burst = Trace(tuple(timed(i, 0.0) for i in range(8)))
        assert router.assign(burst) == (0, 1, 2, 3, 0, 1, 2, 3)

    def test_warmth_pins_a_session_to_its_replica(self):
        """A large prefix credit keeps every turn home while sessionless
        traffic still spills to the emptier replica."""
        router = CacheAwareRouter(
            fake_prices([flat(1.0)] * 2, prefix_savings=lambda hit_tokens: 1000.0)
        )
        assert router.choose(turn(0, session_id=1, arrival_s=0.0)) == 0
        assert router.choose(turn(1, session_id=1, arrival_s=0.0)) == 0
        # The home replica now predicts 2 s of backlog; a sessionless
        # request has no warmth there and takes the idle one.
        assert router.choose(timed(2, 0.0)) == 1

    def test_session_migrates_when_backlog_outweighs_the_prefix(self):
        """The credit is priced, not absolute: once the home replica's
        backlog exceeds what the cached prefix is worth, the session
        moves — with the shared tier downstream, it moves *warm*."""
        router = CacheAwareRouter(
            fake_prices([flat(1.0)] * 2, prefix_savings=lambda hit_tokens: 1.5)
        )
        assert router.choose(turn(0, session_id=1, arrival_s=0.0)) == 0
        # Backlog 1.0 s vs 1.5 s of prefix: staying is cheaper.
        assert router.choose(turn(1, session_id=1, arrival_s=0.0)) == 0
        # Backlog 2.0 s vs 1.5 s of prefix: migrating is cheaper.
        assert router.choose(turn(2, session_id=1, arrival_s=0.0)) == 1

    def test_reset_forgets_session_history(self):
        router = CacheAwareRouter(
            fake_prices([flat(1.0)] * 2, prefix_savings=lambda hit_tokens: 1000.0)
        )
        router.choose(turn(0, session_id=1, arrival_s=0.0))
        router.reset()
        assert not router._sessions
        assert router.choose(turn(1, session_id=1, arrival_s=0.0)) == 0


class _KeyedMinCacheAwareRouter(CacheAwareRouter):
    """Oracle: cache-aware scoring as a keyed ``min``.

    Every candidate's key is built as a ``(score, index)`` tuple, and
    each asks for its own warmth: the scoring the one-loop router must
    reproduce assignment for assignment, lowest-index ties included.
    """

    def _warmth_s(self, session_id, input_len, replica):
        if session_id is None:
            return 0.0
        home = self._sessions.get(session_id)
        if home is None or home[0] != replica:
            return 0.0
        hit_tokens = min(home[1], input_len - 1)
        if hit_tokens < 1:
            return 0.0
        return self.prices[replica].prefix_savings(hit_tokens)

    def choose_row(self, request_id, arrival_s, input_len, output_len, session_id):
        replica = min(
            range(self.n_replicas),
            key=lambda i: (
                max(self._busy_until[i] - arrival_s, 0.0)
                - self._warmth_s(session_id, input_len, i),
                i,
            ),
        )
        self._enqueue(replica, request_id, arrival_s, input_len, output_len)
        if session_id is not None:
            self._sessions[session_id] = (replica, input_len + output_len)
        return replica


def _chat_grid_trace(seed: int, n: int = 300, sessions: int = 6) -> Trace:
    """Multi-turn traffic on a 0.25 s grid: simultaneous arrivals,
    sessionless requests mixed with sessions, and one-token prompts,
    whose warm home earns no credit (``hit_tokens`` is 0)."""
    rng = random.Random(seed)
    t = 0.0
    requests = []
    for i in range(n):
        t += rng.choice((0.0, 0.0, 0.25, 0.5))
        requests.append(
            TimedRequest(
                Request(
                    i,
                    rng.choice((1, 2, rng.randint(1, 512))),
                    rng.randint(1, 64),
                    session_id=rng.choice((None, *range(sessions))),
                ),
                t,
            )
        )
    return Trace(tuple(requests))


def _replica_prices(scales, savings_scales):
    """Per-replica grid prices: services and prefix credits that are
    exact multiples of 0.25 s, so scores tie often and exactly."""
    return [
        types.SimpleNamespace(
            service=_grid_service(scale),
            prefix_savings=lambda hit_tokens, k=k: 0.25 * k * (hit_tokens % 7),
        )
        for scale, k in zip(scales, savings_scales)
    ]


class TestCacheAwareScoringEquivalence:
    """The one-loop score assigns exactly what the keyed ``min`` does."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_replicas", [1, 3, 8])
    def test_shared_prices(self, seed, n_replicas):
        trace = _chat_grid_trace(seed)
        prices = _replica_prices([1.0] * n_replicas, [1.0] * n_replicas)
        oracle = _KeyedMinCacheAwareRouter(prices)
        router = CacheAwareRouter(prices)
        assert router.assign(trace) == oracle.assign(trace)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_replica_prices(self, seed):
        trace = _chat_grid_trace(seed, sessions=3)
        prices = _replica_prices([1.0, 2.0, 0.5, 3.0], [4.0, 1.0, 0.0, 2.0])
        oracle = _KeyedMinCacheAwareRouter(prices)
        router = CacheAwareRouter(prices)
        assert router.assign(trace) == oracle.assign(trace)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiturn_chat_trace_on_real_prices(self, seed, replica_prices):
        trace = multiturn_chat_trace(
            6.0,
            24,
            turns=4,
            first_input=256,
            user_tokens=48,
            output_len=64,
            think_s=2.0,
            seed=seed,
        )
        oracle = _KeyedMinCacheAwareRouter(replica_prices)
        router = CacheAwareRouter(replica_prices)
        assert router.assign(trace) == oracle.assign(trace)

    def test_reuse_after_reset_matches_the_oracle(self):
        """A reused router forgets the previous trace's backlog and homes."""
        prices = _replica_prices([1.0] * 3, [2.0] * 3)
        router = CacheAwareRouter(prices)
        router.assign(_chat_grid_trace(0))
        router.reset()
        second = _chat_grid_trace(1)
        oracle = _KeyedMinCacheAwareRouter(prices)
        assert router.assign(second) == oracle.assign(second)

    def test_an_idle_fleet_ties_to_replica_zero(self):
        """Every replica idle and no credit anywhere: all scores are 0,
        and both routers send the request to replica 0, even when its
        session's home is another replica whose credit is worth 0 s."""
        prices = fake_prices([flat(1.0)] * 3)
        trace = Trace(
            (
                turn(0, session_id=5, arrival_s=0.0),
                # Replica 0 is busy and its credit is worth nothing, so
                # the session's home moves to replica 1.
                turn(1, session_id=5, arrival_s=0.0),
                turn(2, session_id=5, arrival_s=100.0),
                timed(3, 200.0),
            )
        )
        for router in (
            CacheAwareRouter(prices),
            _KeyedMinCacheAwareRouter(prices),
        ):
            assert router.assign(trace) == (0, 1, 0, 0)


class TestBuildRouter:
    def test_names_cover_registry(self):
        for name in ROUTER_NAMES:
            router = build_router(name, fake_prices([flat(1.0)] * 2))
            assert router.name == name
            assert router.n_replicas == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown router"):
            build_router("random", fake_prices([flat(1.0)] * 2))

    def test_replica_count_validated(self):
        with pytest.raises(ValueError, match="at least one replica"):
            build_router("round-robin", [])


class TestLoadImbalance:
    def test_even_is_one(self):
        assert load_imbalance([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_hot_replica_measured(self):
        assert load_imbalance([9.0, 3.0, 0.0]) == pytest.approx(9.0 / 4.0)

    def test_idle_fleet_reports_one(self):
        assert load_imbalance([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_imbalance([])
