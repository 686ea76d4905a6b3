"""Arrival processes, length distributions, and trace replay files."""

import json

import numpy as np
import pytest

from repro.models import spec_for
from repro.perf.system import SystemKind, build_system
from repro.serving import ServingEngine, build_cluster, build_scheduler
from repro.serving.arrivals import (
    empirical_lengths,
    fixed_lengths,
    gamma_trace,
    load_trace,
    lognormal_lengths,
    multiturn_chat_trace,
    poisson_trace,
    save_trace,
    static_trace,
)
from repro.workloads.requests import Request, TimedRequest, Trace, uniform_batch


class TestLengthSamplers:
    def test_fixed(self):
        rng = np.random.default_rng(0)
        assert fixed_lengths(100, 7)(rng) == (100, 7)

    def test_lognormal_bounds_and_median(self):
        rng = np.random.default_rng(0)
        sample = lognormal_lengths(1024, 256, sigma=0.5)
        pairs = [sample(rng) for _ in range(500)]
        inputs = [i for i, _ in pairs]
        assert all(1 <= i <= 8192 for i in inputs)
        assert 700 < float(np.median(inputs)) < 1500
        # Long tail: spread well beyond the median.
        assert max(inputs) > 2 * min(inputs)

    def test_empirical_resamples_only_given_pairs(self):
        rng = np.random.default_rng(3)
        sample = empirical_lengths([(10, 1), (20, 2)])
        seen = {sample(rng) for _ in range(50)}
        assert seen == {(10, 1), (20, 2)}

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_lengths(0, 1)
        with pytest.raises(ValueError):
            empirical_lengths([])


class TestArrivalProcesses:
    def test_poisson_reproducible_and_rate(self):
        a = poisson_trace(10.0, 400, seed=7)
        b = poisson_trace(10.0, 400, seed=7)
        assert a == b
        assert a.n_requests == 400
        assert a.offered_qps == pytest.approx(10.0, rel=0.2)

    def test_seeds_differ(self):
        assert poisson_trace(5.0, 50, seed=0) != poisson_trace(5.0, 50, seed=1)

    def test_gamma_cv_one_matches_poisson_moments(self):
        g = gamma_trace(8.0, 500, cv=1.0, seed=2)
        assert g.offered_qps == pytest.approx(8.0, rel=0.2)

    def test_gamma_burstier_with_higher_cv(self):
        def gap_std(trace):
            arrivals = [r.arrival_s for r in trace.requests]
            return float(np.std(np.diff(arrivals)))

        calm = gamma_trace(8.0, 800, cv=0.5, seed=4)
        bursty = gamma_trace(8.0, 800, cv=3.0, seed=4)
        assert gap_std(bursty) > 2 * gap_std(calm)

    def test_static_trace_is_a_burst(self):
        trace = static_trace(uniform_batch(8, 64, 16))
        assert trace.n_requests == 8
        assert trace.duration_s == 0.0
        assert trace.offered_qps == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 10)
        with pytest.raises(ValueError):
            gamma_trace(1.0, 10, cv=0.0)


class TestIntegerCounts:
    """A fractional length used to build a trace whose serve died far
    from its cause, with a ``TypeError`` inside ``Scheduler.decode_run``.
    Every generator and sampler, and ``Request``, refuse a count or a
    length that is not an integer, naming it; numpy integers are
    integers."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: fixed_lengths(100.5, 8),
                "input_len must be an integer, got 100.5",
            ),
            (
                lambda: fixed_lengths(100, 8.5),
                "output_len must be an integer, got 8.5",
            ),
            (lambda: fixed_lengths(100, 8.0), "output_len must be an integer, got 8.0"),
            (lambda: fixed_lengths(True, 8), "input_len must be an integer, got True"),
            (
                lambda: lognormal_lengths(1024, 256, max_output=4096.5),
                "max_output must be an integer, got 4096.5",
            ),
            (
                lambda: empirical_lengths([(10, 1), (20, 2.5)]),
                r"pairs\[1\] output_len must be an integer, got 2.5",
            ),
            (lambda: poisson_trace(5.0, 3.5), "n_requests must be an integer, got 3.5"),
            (lambda: gamma_trace(5.0, 2.0), "n_requests must be an integer, got 2.0"),
            (
                lambda: multiturn_chat_trace(1.0, 2, first_input=128.5),
                "first_input must be an integer, got 128.5",
            ),
            (
                lambda: Request(0, 10.5, 3),
                "request 0: input_len must be an integer, got 10.5",
            ),
            (
                lambda: Request(4, 10, np.float64(3.0)),
                r"request 4: output_len must be an integer, got np.float64\(3.0\)",
            ),
        ],
    )
    def test_refuses_a_fraction_naming_it(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_integers_are_integers(self):
        trace = poisson_trace(
            5.0, np.int64(3), fixed_lengths(np.int32(100), np.int64(8))
        )
        assert trace.input_len == [100, 100, 100]
        sample = empirical_lengths([(np.int64(10), np.int16(2))])
        assert sample(np.random.default_rng(0)) == (10, 2)
        assert Request(0, np.int64(10), np.int64(3)).input_len == 10


class TestTraceReplay:
    def test_json_roundtrip(self, tmp_path):
        trace = poisson_trace(4.0, 25, lognormal_lengths(512, 128), seed=11)
        path = save_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace

    def test_hand_authored_payload(self):
        trace = Trace.from_payload([
            {"request_id": 0, "input_len": 5, "output_len": 2, "arrival_s": 0.0},
            {"request_id": 1, "input_len": 6, "output_len": 3, "arrival_s": 1.5},
        ])
        assert trace.requests[1] == TimedRequest(Request(1, 6, 3), 1.5)

    def test_unordered_arrivals_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace((
                TimedRequest(Request(0, 1, 1), 2.0),
                TimedRequest(Request(1, 1, 1), 1.0),
            ))

    def test_unordered_arrivals_name_the_first_late_request(self):
        arrivals = [0.0, 3.0, 2.0, 1.0]
        with pytest.raises(
            ValueError,
            match=r"request 12 at position 2 arrives at 2\.0, before 3\.0",
        ):
            Trace(
                tuple(
                    TimedRequest(Request(10 + i, 1, 1), t)
                    for i, t in enumerate(arrivals)
                )
            )


def _payload_file(tmp_path, requests):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"requests": requests}))
    return path


class TestDuplicateRequestIds:
    """A fleet keys routing, handoffs and timings by request id, so a
    trace that repeats one would lose requests silently (a split fleet
    served 3 of 6).  :class:`Trace` refuses it at construction, naming
    the id and both positions, so no engine or fleet can be handed one."""

    MATCH = "trace repeats request id 0 at positions 0 and 3"

    @staticmethod
    def repeated():
        return tuple(
            TimedRequest(Request(rid, 64, 8), 0.1 * i)
            for i, rid in enumerate((0, 1, 2, 0, 1, 2))
        )

    def test_split_fleet_refuses(self):
        spec = spec_for("Zamba2")
        gpu = build_system(SystemKind.GPU, "small")
        pimba = build_system(SystemKind.PIMBA, "small")
        fleet = build_cluster(
            gpu,
            spec,
            2,
            router="disaggregated",
            node_kinds=(gpu, pimba),
            phases=("prefill", "decode"),
        )
        with pytest.raises(ValueError, match=self.MATCH):
            fleet.run(Trace(self.repeated()))

    def test_bare_engine_refuses(self):
        spec = spec_for("Zamba2")
        pimba = build_system(SystemKind.PIMBA, "small")
        engine = ServingEngine(pimba, spec, build_scheduler("fcfs", pimba, spec))
        with pytest.raises(ValueError, match=self.MATCH):
            engine.run(Trace(self.repeated()))

    def test_load_trace_refuses(self, tmp_path):
        requests = [
            {
                "request_id": r.request_id,
                "input_len": r.input_len,
                "output_len": r.output_len,
                "arrival_s": r.arrival_s,
            }
            for r in self.repeated()
        ]
        with pytest.raises(ValueError, match=self.MATCH):
            load_trace(_payload_file(tmp_path, requests))


class TestWholeLengths:
    """``load_trace`` used to truncate with ``int()``: 100.9 prompt
    tokens loaded as 100.  A length must be a whole number; anything
    else fails naming the entry, its request id and the field."""

    @staticmethod
    def entries(**second):
        return [
            {"request_id": 0, "input_len": 5, "output_len": 2, "arrival_s": 0.0},
            {"request_id": 7, "input_len": 6, "output_len": 3, "arrival_s": 1.0}
            | second,
        ]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("input_len", 100.9),
            ("output_len", 3.7),
            ("input_len", True),
            ("output_len", "3"),
            ("output_len", None),
        ],
    )
    def test_refuses_non_whole_lengths(self, field, value, tmp_path):
        path = _payload_file(tmp_path, self.entries(**{field: value}))
        with pytest.raises(
            ValueError,
            match=rf"trace entry 1 \(request 7\): {field} must be a whole number",
        ):
            load_trace(path)

    def test_accepts_ints_and_whole_floats(self, tmp_path):
        path = _payload_file(
            tmp_path, self.entries(input_len=100, output_len=4.0)
        )
        request = load_trace(path).requests[1].request
        assert (request.input_len, request.output_len) == (100, 4)
        assert type(request.output_len) is int


class TestWholeIds:
    """Ids used to be truncated too: ``"session_id": 1.5`` loaded as
    session 1, merging two conversations into one prefix-cache history
    and one affinity key.  Ids follow the lengths' whole-number rule, and
    a malformed file fails naming the entry and the field."""

    entries = staticmethod(TestWholeLengths.entries)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("session_id", 1.5),
            ("session_id", "3"),
            ("request_id", 1.7),
            ("request_id", True),
        ],
    )
    def test_refuses_non_whole_ids(self, field, value, tmp_path):
        path = _payload_file(tmp_path, self.entries(**{field: value}))
        with pytest.raises(
            ValueError,
            match=rf"trace entry 1 \(request .*\): {field} must be a whole number",
        ):
            load_trace(path)

    def test_accepts_ints_and_whole_floats(self, tmp_path):
        path = _payload_file(tmp_path, self.entries(request_id=3.0, session_id=2.0))
        request = load_trace(path).requests[1].request
        assert (request.request_id, request.session_id) == (3, 2)
        assert type(request.request_id) is type(request.session_id) is int

    def test_missing_field_is_named(self, tmp_path):
        entries = self.entries()
        del entries[1]["arrival_s"]
        with pytest.raises(
            ValueError, match=r"trace entry 1 \(request 7\): missing arrival_s"
        ):
            load_trace(_payload_file(tmp_path, entries))

    def test_refuses_a_non_numeric_arrival(self, tmp_path):
        path = _payload_file(tmp_path, self.entries(arrival_s="1.0"))
        with pytest.raises(ValueError, match="arrival_s must be a number"):
            load_trace(path)

    def test_refuses_malformed_structure(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self.entries()))  # a bare list
        with pytest.raises(ValueError, match="'requests' list"):
            load_trace(path)
        path.write_text(json.dumps({"requests": {"0": self.entries()[0]}}))
        with pytest.raises(ValueError, match="list of request entries"):
            load_trace(path)
        with pytest.raises(ValueError, match="trace entry 1 must be an object"):
            load_trace(_payload_file(tmp_path, [self.entries()[0], [7]]))


class TestNonFiniteTimes:
    """NaN passes a bare ``< 0`` check and would never be served.  The one
    gate is :class:`TimedRequest` construction: every engine and cluster
    serves a :class:`Trace` of them, so none can be handed such a time,
    and ``load_trace`` builds them from the file's values."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("field", ["arrival_s", "handoff_s", "handoff_bytes"])
    def test_timed_request_refuses(self, field, value):
        fields = {"arrival_s": 0.0, "prefilled_tokens": 8, field: value}
        with pytest.raises(ValueError, match=f"request 7: {field} must be finite"):
            TimedRequest(Request(7, 8, 8), **fields)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_load_trace_refuses_json_non_finite_literals(self, value, tmp_path):
        # json.dumps writes NaN / Infinity / -Infinity, which json.loads reads.
        requests = [
            {"request_id": 0, "input_len": 5, "output_len": 2, "arrival_s": 0.0},
            {"request_id": 1, "input_len": 6, "output_len": 3, "arrival_s": value},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"requests": requests}))
        with pytest.raises(ValueError, match="request 1: arrival_s"):
            load_trace(path)
