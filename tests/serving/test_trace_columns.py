"""Columnar traces against the per-request loops they replaced.

A :class:`Trace` holds its rows as columns, and the generators, the
routers, :meth:`Trace.partition`, :meth:`Trace.merge` and the split
fleet's stage traces all read and write those columns.  The references
below are the per-request code each replaced, kept verbatim as
specifications: every generated trace, every partition and every stage
trace must equal, row for row, the :class:`TimedRequest`\\ s the loop
built.  A last check serves traces whose views cannot be built at all,
so the serving path provably builds none.
"""

import math

import numpy as np
import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import (
    ROUTER_NAMES,
    ReplicaPrices,
    ServingEngine,
    build_cluster,
    build_router,
    build_scheduler,
    empirical_lengths,
    fixed_lengths,
    gamma_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
)
from repro.serving.routing import DisaggregatedRouter
from repro.workloads.requests import Request, TimedRequest, Trace

SEEDS = range(20)


# ---------------------------------------------------------------------------
# the per-request loops (references)
# ---------------------------------------------------------------------------


def _reference_from_gaps(gaps, lengths, rng) -> list[TimedRequest]:
    arrivals = np.cumsum(gaps)
    requests = []
    for i, arrival in enumerate(arrivals):
        inp, out = lengths(rng)
        requests.append(TimedRequest(Request(i, inp, out), float(arrival)))
    return requests


def _reference_poisson(qps, n_requests, lengths, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / qps, size=n_requests)
    return _reference_from_gaps(gaps, lengths, rng)


def _reference_gamma(qps, n_requests, cv, lengths, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.gamma(1.0 / cv**2, scale=cv**2 / qps, size=n_requests)
    return _reference_from_gaps(gaps, lengths, rng)


def _reference_multiturn(
    session_qps,
    n_sessions,
    turns,
    first_input,
    user_tokens,
    output_len,
    think_s,
    seed,
):
    rng = np.random.default_rng(seed)
    openings = np.cumsum(rng.exponential(1.0 / session_qps, size=n_sessions))
    rows = []
    for session, opening in enumerate(openings):
        arrival = float(opening)
        history = 0
        for turn in range(turns):
            fresh = first_input if turn == 0 else int(rng.integers(1, 2 * user_tokens))
            inp = history + fresh
            out = int(rng.integers((output_len + 1) // 2, 2 * output_len))
            rows.append((arrival, session, inp, out))
            history = inp + out
            arrival += float(rng.exponential(think_s))
    rows.sort(key=lambda row: row[0])
    return [
        TimedRequest(Request(i, inp, out, session_id=session), arrival)
        for i, (arrival, session, inp, out) in enumerate(rows)
    ]


def _reference_partition(requests, labels) -> dict[int, list[TimedRequest]]:
    parts: dict[int, list[TimedRequest]] = {}
    for request, label in zip(requests, labels):
        parts.setdefault(int(label), []).append(request)
    return parts


def _reference_merge(parts) -> list[TimedRequest]:
    requests = [r for part in parts for r in part]
    requests.sort(key=lambda r: r.arrival_s)
    return requests


def _reference_stages(trace, pairs, prices, stage1_timings):
    """The split path's stage traces, built one request at a time."""
    stage1: dict[int, list[TimedRequest]] = {}
    split_pair = {}
    for timed, (prefill, decode) in zip(trace.requests, pairs):
        if prefill == decode or timed.output_len <= 1:
            stage1.setdefault(prefill, []).append(timed)
            continue
        split_pair[timed.request_id] = (prefill, decode)
        stage1.setdefault(prefill, []).append(
            TimedRequest(
                Request(
                    timed.request_id,
                    timed.input_len,
                    1,
                    session_id=timed.request.session_id,
                ),
                timed.arrival_s,
            )
        )
    originals = {t.request_id: t for t in trace.requests}
    stage2: dict[int, list[TimedRequest]] = {}
    for request_id, (prefill, decode) in split_pair.items():
        first = stage1_timings[prefill][request_id]
        original = originals[request_id]
        stage2.setdefault(decode, []).append(
            TimedRequest(
                Request(
                    request_id,
                    original.input_len + 1,
                    original.output_len - 1,
                    session_id=None,
                ),
                arrival_s=first.first_token_s,
                prefilled_tokens=original.input_len + 1,
                handoff_s=prices[decode].handoff_seconds(original.input_len),
                handoff_bytes=prices[decode].handoff_bytes(original.input_len),
            )
        )
    for requests in stage2.values():
        requests.sort(key=lambda t: (t.arrival_s, t.request_id))
    return stage1, stage2


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

LENGTHS = {
    "fixed": lambda: fixed_lengths(96, 24),
    "lognormal": lambda: lognormal_lengths(256, 48, sigma=0.7),
    "empirical": lambda: empirical_lengths([(40, 3), (512, 90), (7, 1), (128, 32)]),
}


def _generated(kind: str, lengths: str, seed: int, n: int = 120):
    """(columnar trace, per-request reference rows) of one generator."""
    if kind == "poisson":
        return (
            poisson_trace(40.0, n, LENGTHS[lengths](), seed=seed),
            _reference_poisson(40.0, n, LENGTHS[lengths](), seed),
        )
    return (
        gamma_trace(40.0, n, cv=2.5, lengths=LENGTHS[lengths](), seed=seed),
        _reference_gamma(40.0, n, 2.5, LENGTHS[lengths](), seed),
    )


def _chat(seed: int):
    knobs = dict(first_input=200, user_tokens=40, output_len=24, think_s=1.5)
    return (
        multiturn_chat_trace(4.0, 30, 4, seed=seed, **knobs),
        _reference_multiturn(4.0, 30, 4, seed=seed, **knobs),
    )


def _all_traces(seed: int):
    for kind in ("poisson", "gamma"):
        for lengths in LENGTHS:
            yield _generated(kind, lengths, seed)
    yield _chat(seed)


@pytest.fixture(scope="module")
def prices():
    system = build_system(SystemKind.PIMBA, "small")
    spec = spec_for("Zamba2")
    return [ReplicaPrices(system, spec, link_gbps=100.0) for _ in range(4)]


class TestGeneratorsMatchTheLoops:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lengths", sorted(LENGTHS))
    @pytest.mark.parametrize("kind", ["poisson", "gamma"])
    def test_arrival_processes(self, kind, lengths, seed):
        trace, reference = _generated(kind, lengths, seed)
        assert trace.requests == tuple(reference)
        assert trace == Trace(tuple(reference))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multiturn_chat(self, seed):
        trace, reference = _chat(seed)
        assert trace.requests == tuple(reference)
        assert trace == Trace(tuple(reference))

    def test_columns_hold_plain_python_numbers(self):
        trace = gamma_trace(40.0, 50, lengths=lognormal_lengths(), seed=3)
        for name in ("request_id", "input_len", "output_len"):
            assert {type(v) for v in getattr(trace, name)} == {int}
        assert {type(v) for v in trace.arrival_s} == {float}


class TestPartitionAndMergeMatchTheLoops:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_every_router(self, router, seed, prices):
        for trace, reference in _all_traces(seed):
            routing = build_router(router, prices)
            labels = routing.assign(trace)
            routing.reset()
            # The columns route exactly as the one-request entry point.
            assert labels == tuple(routing.choose(r) for r in reference)
            parts = trace.partition(labels)
            expected = _reference_partition(reference, labels)
            assert list(parts) == list(expected)
            for label, part in parts.items():
                assert part.requests == tuple(expected[label])
            assert Trace.merge(list(parts.values())).requests == tuple(
                _reference_merge(expected.values())
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_disaggregated_pairs(self, seed, prices):
        for trace, reference in _all_traces(seed):
            phases = ("prefill", "both", "decode", "decode")
            router = DisaggregatedRouter(prices, phases)
            pairs = router.assign_pairs(trace)
            router.reset()
            assert pairs == tuple(router.choose_pair(r) for r in reference)

    def test_merge_of_empty_and_one_row_parts(self):
        one = Trace((TimedRequest(Request(3, 8, 2), 0.5),))
        assert Trace.merge([Trace(())]) == Trace(())
        assert Trace.merge([Trace(()), one]) == one
        assert one.partition([7]) == {7: one}

    def test_merge_refuses_a_repeated_id(self):
        one = Trace((TimedRequest(Request(3, 8, 2), 0.0),))
        with pytest.raises(ValueError, match="repeats request id 3"):
            Trace.merge([one, one])


class TestSplitFleetStagesMatchTheLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_stage_traces(self, seed):
        spec = spec_for("Zamba2")
        gpu = build_system(SystemKind.GPU, "small")
        pimba = build_system(SystemKind.PIMBA, "small")
        cluster = build_cluster(
            gpu,
            spec,
            4,
            router="disaggregated",
            scheduler="fcfs",
            max_batch=8,
            link_gbps=400.0,
            node_kinds=(gpu, gpu, pimba, pimba),
            phases=("prefill", "both", "decode", "decode"),
        )
        served: dict[int, list] = {}
        for i, engine in enumerate(cluster.replicas):

            def serve(trace, collector=None, serve=engine.serve, i=i):
                record = serve(trace, collector)
                served.setdefault(i, []).append((trace, record))
                return record

            engine.serve = serve
        trace = poisson_trace(8.0, 80, lognormal_lengths(1024, 8, sigma=0.8), seed=seed)
        record = cluster.serve(trace)
        assert record.split_ids
        cluster.router.reset()
        pairs = cluster.router.assign_pairs(trace)
        stage1_timings = {
            i: {t.request_id: t for t in runs[0][1].timings}
            for i, runs in served.items()
            if cluster.phases[i] != "decode"
        }
        stage1, stage2 = _reference_stages(trace, pairs, cluster.prices, stage1_timings)
        assert sorted(served) == sorted({*stage1, *stage2})
        for i, runs in served.items():
            ((got, _),) = runs
            expected = stage1[i] if i in stage1 else stage2[i]
            assert got.requests == tuple(expected)


class TestServingBuildsNoView:
    """With every view refused, engines and fleets still serve."""

    @pytest.fixture
    def no_views(self, monkeypatch):
        def refuse(trace):
            raise AssertionError("the serving path built a TimedRequest view")

        monkeypatch.setattr(Trace, "requests", property(refuse))

    @pytest.mark.parametrize("arrival", ["poisson", "multiturn"])
    def test_engine_and_fleets(self, arrival, no_views):
        spec = spec_for("Zamba2")
        system = build_system(SystemKind.PIMBA, "small")
        if arrival == "poisson":
            trace = poisson_trace(400.0, 400, fixed_lengths(128, 32), seed=1)
            scheduler = "fcfs"
        else:
            trace = multiturn_chat_trace(3.0, 40, 4, seed=1)
            scheduler = "prefix"
        engine = ServingEngine(
            system, spec, build_scheduler(scheduler, system, spec, max_batch=16)
        )
        assert engine.serve_stats(trace).requests.n == trace.n_requests
        for router in ("least-loaded", "cache-aware"):
            fleet = build_cluster(
                system, spec, 4, router=router, scheduler=scheduler, max_batch=16
            )
            assert fleet.run(trace).n_requests == trace.n_requests


class TestColumnChecks:
    """Rows built from columns are checked as hand-made rows are."""

    def columns(self, **overrides):
        columns = dict(
            request_id=[0, 1, 2],
            arrival_s=[0.0, 1.0, 2.0],
            input_len=[8, 8, 8],
            output_len=[4, 4, 4],
        )
        columns.update(overrides)
        return columns

    def test_plain_columns(self):
        trace = Trace.from_columns(**self.columns())
        assert trace.requests[2] == TimedRequest(Request(2, 8, 4), 2.0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(arrival_s=[0.0, 1.0, math.nan]), "request 2: arrival_s"),
            (dict(arrival_s=[0.0, -1.0, math.inf]), "request 1: arrival_s"),
            (dict(input_len=[8, 0, 8]), "lengths must be positive"),
            (dict(arrival_s=[0.0, 2.0, 1.0]), "request 2 at position 2"),
            (dict(request_id=[4, 5, 4]), "repeats request id 4"),
            (dict(prefilled_tokens=[0, 3, 0]), "all-or-nothing"),
            (dict(handoff_s=[0.0, 0.5, 0.0]), "require prefilled_tokens"),
            (dict(output_len=[4, 4]), "one entry per request"),
        ],
    )
    def test_first_offending_row_is_named(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            Trace.from_columns(**self.columns(**overrides))

    def test_continuation_rows(self):
        trace = Trace.from_columns(
            **self.columns(
                prefilled_tokens=[0, 8, 8],
                handoff_s=[0.0, 0.25, 0.5],
                handoff_bytes=[0.0, 1e6, 2e6],
            )
        )
        assert trace.requests[1] == TimedRequest(
            Request(1, 8, 4),
            1.0,
            prefilled_tokens=8,
            handoff_s=0.25,
            handoff_bytes=1e6,
        )


def _cases(*cases):
    """``(call, name, value)`` per bad value of each ``(call, name, values)``."""
    return [
        pytest.param(call, name, value, id=f"{name}={value}")
        for call, name, values in cases
        for value in values
    ]


#: rates and scales must be finite and positive
NOT_POSITIVE = [0.0, -2.0, math.nan, math.inf]


class TestGeneratorsRefuseBadParameters:
    """Each generator and sampler refuses a non-finite or non-positive
    rate or scale, and a length or count below one, before drawing
    anything, naming the parameter."""

    @pytest.mark.parametrize(
        "call, name, value",
        _cases(
            (lambda v: poisson_trace(v, 5), "qps", NOT_POSITIVE),
            (lambda v: poisson_trace(10.0, v), "n_requests", [0, -1]),
        ),
    )
    def test_poisson_trace(self, call, name, value):
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "call, name, value",
        _cases(
            (lambda v: gamma_trace(v, 5), "qps", NOT_POSITIVE),
            (lambda v: gamma_trace(1.0, 5, cv=v), "cv", NOT_POSITIVE),
            (lambda v: gamma_trace(1.0, v), "n_requests", [0]),
        ),
    )
    def test_gamma_trace(self, call, name, value):
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "call, name, value",
        _cases(
            (lambda v: multiturn_chat_trace(v, 2), "session_qps", NOT_POSITIVE),
            (
                lambda v: multiturn_chat_trace(1.0, 2, think_s=v),
                "think_s",
                NOT_POSITIVE,
            ),
            (lambda v: multiturn_chat_trace(1.0, v), "n_sessions", [0]),
            (lambda v: multiturn_chat_trace(1.0, 2, turns=v), "turns", [0]),
            (
                lambda v: multiturn_chat_trace(1.0, 2, first_input=v),
                "first_input",
                [0],
            ),
            (
                lambda v: multiturn_chat_trace(1.0, 2, user_tokens=v),
                "user_tokens",
                [0],
            ),
            (
                lambda v: multiturn_chat_trace(1.0, 2, output_len=v),
                "output_len",
                [0],
            ),
        ),
    )
    def test_multiturn_chat_trace(self, call, name, value):
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "call, name, value",
        _cases(
            (lambda v: lognormal_lengths(sigma=v), "sigma", NOT_POSITIVE),
            (lambda v: lognormal_lengths(median_input=v), "median_input", [0]),
            (lambda v: lognormal_lengths(median_output=v), "median_output", [0]),
            (lambda v: lognormal_lengths(max_input=v), "max_input", [0]),
            (lambda v: lognormal_lengths(max_output=v), "max_output", [0]),
        ),
    )
    def test_lognormal_lengths(self, call, name, value):
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0)])
    def test_empirical_lengths(self, pair):
        with pytest.raises(ValueError, match=r"pairs\[1\]"):
            empirical_lengths([(8, 2), pair])

    @pytest.mark.parametrize(
        "call, name, value",
        _cases(
            (lambda v: fixed_lengths(v, 4), "input_len", [0]),
            (lambda v: fixed_lengths(4, v), "output_len", [0]),
        ),
    )
    def test_fixed_lengths(self, call, name, value):
        with pytest.raises(ValueError, match=name):
            call(value)
