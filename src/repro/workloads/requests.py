"""Serving request traces (the workload generator behind Figs. 12-16).

The paper evaluates fixed-shape batches — (input, output) = (2048, 2048)
for throughput, (1024, 1024) for the NeuPIMs study — but the generator
also produces randomized traces for stress tests.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class Request:
    """One user request in a serving batch.

    ``session_id`` groups the turns of one multi-turn conversation:
    every turn's prompt is the session's token history so far, so two
    requests of one session share a growing token prefix — what a
    prefix-caching scheduler reuses.  ``None`` (the default) means the
    request shares tokens with nobody.
    """

    request_id: int
    input_len: int
    output_len: int
    session_id: int | None = None

    def __post_init__(self) -> None:
        if self.input_len < 1 or self.output_len < 1:
            raise ValueError("request lengths must be positive")


@dataclasses.dataclass(frozen=True)
class Batch:
    """A batch of requests served together (static batching, as evaluated)."""

    requests: tuple[Request, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("batch must contain at least one request")

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def max_input_len(self) -> int:
        return max(r.input_len for r in self.requests)

    @property
    def max_output_len(self) -> int:
        return max(r.output_len for r in self.requests)

    @property
    def generated_tokens(self) -> int:
        return sum(r.output_len for r in self.requests)


@dataclasses.dataclass(frozen=True)
class TimedRequest:
    """A request stamped with its arrival time (request-level serving).

    The three handoff fields describe a *continuation*: a request whose
    prompt KV was already computed on another replica (a disaggregated
    prefill node) and arrives over the wire instead of being recomputed.
    ``prefilled_tokens`` is all-or-nothing — either 0 (an ordinary
    request) or the full ``input_len`` (the continuation of a finished
    prefill); ``handoff_s``/``handoff_bytes`` price the transfer that
    the destination engine serializes into its clock at admission.
    Continuations are in-memory only: trace JSON never carries them.
    """

    request: Request
    arrival_s: float
    #: prompt tokens whose KV arrives precomputed (0 or ``input_len``)
    prefilled_tokens: int = 0
    #: wire seconds the KV handoff costs the destination clock
    handoff_s: float = 0.0
    #: KV + state bytes moved by the handoff (counter, not a cost)
    handoff_bytes: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so `not 0 <= x < inf` catches it
        # (a NaN arrival would never be served).
        if not 0 <= self.arrival_s < math.inf:
            raise self._bad_time("arrival_s")
        if self.prefilled_tokens not in (0, self.request.input_len):
            raise ValueError(
                "prefilled_tokens is all-or-nothing: 0 or the full "
                f"input_len, got {self.prefilled_tokens} of "
                f"{self.request.input_len}"
            )
        # An ordinary request carries 0.0 in both (and NaN is truthy).
        if self.handoff_s or self.handoff_bytes:
            for name in ("handoff_s", "handoff_bytes"):
                if not 0 <= getattr(self, name) < math.inf:
                    raise self._bad_time(name)
            if self.prefilled_tokens == 0:
                raise ValueError(
                    "handoff costs require prefilled_tokens (nothing moved)"
                )

    def _bad_time(self, name: str) -> ValueError:
        return ValueError(
            f"request {self.request.request_id}: {name} must be finite and "
            f"non-negative, got {getattr(self, name)!r}"
        )

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def input_len(self) -> int:
        return self.request.input_len

    @property
    def output_len(self) -> int:
        return self.request.output_len

    @property
    def session_id(self) -> int | None:
        return self.request.session_id


@dataclasses.dataclass(frozen=True)
class Trace:
    """A stream of timed requests, ordered by arrival.

    The request-level analogue of :class:`Batch`: where a batch is the
    paper's fixed-shape evaluation unit, a trace is what a serving cluster
    actually sees — requests arriving over time, each with its own lengths.

    A trace may be *empty*: a cluster replica that the router never
    dispatches to effectively serves the empty trace, and the 1-replica
    equivalence only holds everywhere if the bare engine accepts it too
    (it serves to a zero-span record with NaN percentiles).
    """

    requests: tuple[TimedRequest, ...]

    def __post_init__(self) -> None:
        # Both checks scan once; positions are found only on the error
        # path.  Ids must be unique because a fleet keys its routing,
        # handoffs and timings by them.
        requests = self.requests
        arrivals = [r.arrival_s for r in requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            i = next(
                i for i in range(1, len(arrivals)) if arrivals[i] < arrivals[i - 1]
            )
            raise ValueError(
                "trace arrivals must be non-decreasing: request "
                f"{requests[i].request_id} at position {i} arrives at "
                f"{arrivals[i]!r}, before {arrivals[i - 1]!r}"
            )
        if len({r.request.request_id for r in requests}) < len(requests):
            first: dict[int, int] = {}
            for i, r in enumerate(requests):
                j = first.setdefault(r.request_id, i)
                if j != i:
                    raise ValueError(
                        f"trace repeats request id {r.request_id} at "
                        f"positions {j} and {i}"
                    )

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def duration_s(self) -> float:
        """Time span between the first and the last arrival (0 if empty)."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_s - self.requests[0].arrival_s

    @property
    def offered_qps(self) -> float:
        """Average arrival rate over the trace's span (0 for a burst)."""
        if self.duration_s == 0:
            return 0.0
        return (self.n_requests - 1) / self.duration_s

    @property
    def total_output_tokens(self) -> int:
        return sum(r.output_len for r in self.requests)

    @classmethod
    def from_batch(cls, batch: Batch, arrival_s: float = 0.0) -> "Trace":
        """A burst trace: every request of ``batch`` arrives at once."""
        return cls(tuple(TimedRequest(r, arrival_s) for r in batch.requests))

    def partition(self, labels: "Sequence[int]") -> dict[int, "Trace"]:
        """Split by a per-request label (e.g. a router's replica choice).

        Arrival order is preserved inside every part, so each part is a
        valid trace; labels that never occur simply have no entry.
        """
        if len(labels) != self.n_requests:
            raise ValueError(
                f"got {len(labels)} labels for {self.n_requests} requests"
            )
        parts: dict[int, list[TimedRequest]] = {}
        for request, label in zip(self.requests, labels):
            parts.setdefault(int(label), []).append(request)
        return {label: Trace(tuple(rs)) for label, rs in parts.items()}

    @classmethod
    def merge(cls, traces: "Sequence[Trace]") -> "Trace":
        """Interleave several traces back into one arrival-ordered stream.

        The stable sort keeps same-instant requests in the order of the
        ``traces`` argument, so ``merge(partition(...).values())`` restores
        a round-trip whenever arrivals are distinct.
        """
        if not traces:
            raise ValueError("cannot merge zero traces")
        requests = [r for trace in traces for r in trace.requests]
        requests.sort(key=lambda r: r.arrival_s)
        return cls(tuple(requests))

    def to_payload(self) -> list[dict]:
        """JSON-serializable form (see :func:`repro.serving.save_trace`).

        ``session_id`` is emitted only when present, so sessionless
        corpus files keep their historical byte-for-byte shape (the
        replay sweep pins them by content hash).
        """
        payload = []
        for r in self.requests:
            entry = {
                "request_id": r.request_id,
                "input_len": r.input_len,
                "output_len": r.output_len,
                "arrival_s": r.arrival_s,
            }
            if r.session_id is not None:
                entry["session_id"] = r.session_id
            payload.append(entry)
        return payload

    @classmethod
    def from_payload(cls, payload: list[dict]) -> "Trace":
        """Rebuild a trace from :meth:`to_payload` output.

        Ids and lengths must be whole numbers (an int, or a float
        without a fraction) and arrivals numbers; a fraction, a bool or
        a string raises instead of being truncated, as does a missing
        field or an entry that is not an object.  Each error names the
        entry's index and the field.
        """
        if not isinstance(payload, list):
            raise ValueError(
                "a trace payload is a list of request entries, got "
                f"{type(payload).__name__}"
            )
        return cls(tuple(_timed_request(i, d) for i, d in enumerate(payload)))


def _timed_request(index: int, entry: dict) -> TimedRequest:
    """Replay entry ``index`` as a request, refusing malformed fields."""
    if not isinstance(entry, dict):
        raise ValueError(f"trace entry {index} must be an object, got {entry!r}")

    def number(field: str, whole: bool = True) -> int | float:
        where = f"trace entry {index} (request {entry.get('request_id')!r})"
        if field not in entry:
            raise ValueError(f"{where}: missing {field}")
        value = entry[field]
        ok = isinstance(value, int) or (
            isinstance(value, float) and (not whole or value.is_integer())
        )
        if not ok or isinstance(value, bool):
            kind = "a whole number" if whole else "a number"
            raise ValueError(f"{where}: {field} must be {kind}, got {value!r}")
        return int(value) if whole else float(value)

    return TimedRequest(
        Request(
            number("request_id"),
            number("input_len"),
            number("output_len"),
            session_id=(
                None if entry.get("session_id") is None else number("session_id")
            ),
        ),
        number("arrival_s", whole=False),
    )


def uniform_batch(
    batch_size: int, input_len: int = 2048, output_len: int = 2048
) -> Batch:
    """The paper's fixed-shape batch."""
    return Batch(tuple(
        Request(i, input_len, output_len) for i in range(batch_size)
    ))


def sampled_batch(
    batch_size: int,
    rng: np.random.Generator,
    mean_input: int = 1024,
    mean_output: int = 512,
) -> Batch:
    """A lognormal-ish trace for robustness tests."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    inputs = np.maximum(1, rng.poisson(mean_input, size=batch_size))
    outputs = np.maximum(1, rng.poisson(mean_output, size=batch_size))
    return Batch(tuple(
        Request(i, int(inp), int(out))
        for i, (inp, out) in enumerate(zip(inputs, outputs))
    ))
