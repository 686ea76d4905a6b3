"""Serving request traces (the workload generator behind Figs. 12-16).

The paper evaluates fixed-shape batches — (input, output) = (2048, 2048)
for throughput, (1024, 1024) for the NeuPIMs study — but the generator
also produces randomized traces for stress tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import operator
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
        for name in ("input_len", "output_len"):
            value = getattr(self, name)
            if not is_count(value):
                raise ValueError(
                    f"request {self.request_id}: {name} must be an integer, "
                    f"got {value!r}"
                )
        if self.input_len < 1 or self.output_len < 1:
            raise ValueError("request lengths must be positive")


def is_count(value: object) -> bool:
    """Whether ``value`` can be a token count: an int or a numpy integer.

    A float cannot, even a whole one, and neither can a bool: a trace
    holding one would fail far from its cause, in the engine's integer
    arithmetic.
    """
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


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


#: the row fields a :class:`Trace` holds, one column each, in the order
#: :meth:`Trace.from_columns` takes them
TRACE_COLUMNS = (
    "request_id",
    "arrival_s",
    "input_len",
    "output_len",
    "session_id",
    "prefilled_tokens",
    "handoff_s",
    "handoff_bytes",
)


class Trace:
    """A stream of timed requests, ordered by arrival.

    The request-level analogue of :class:`Batch`: where a batch is the
    paper's fixed-shape evaluation unit, a trace is what a serving cluster
    actually sees — requests arriving over time, each with its own lengths.

    A trace holds its rows once, as columns: one Python list per
    :class:`TimedRequest` field (:data:`TRACE_COLUMNS`), so the engine,
    the routers and :meth:`partition` read plain ints and floats and
    build no object per request.  Every row passes the checks
    :class:`TimedRequest` makes, and the trace its own (non-decreasing
    arrivals, unique ids), once, at construction; an offending row
    raises the message its :class:`TimedRequest` would.  ``Trace(requests)``
    builds the columns from hand-made rows, and :attr:`requests` builds
    :class:`TimedRequest` views of the rows on demand.

    A trace may be *empty*: a cluster replica that the router never
    dispatches to effectively serves the empty trace, and the 1-replica
    equivalence only holds everywhere if the bare engine accepts it too
    (it serves to a zero-span record with NaN percentiles).
    """

    __slots__ = TRACE_COLUMNS
    __hash__ = None  # columns are lists

    def __init__(self, requests: Sequence[TimedRequest] = ()):
        # Each TimedRequest checked its own row when it was built, and
        # has every column as an attribute.
        requests = tuple(requests)
        self._fill(
            *(list(map(operator.attrgetter(name), requests)) for name in TRACE_COLUMNS)
        )
        self._check_order()

    @classmethod
    def from_columns(
        cls,
        request_id: Sequence[int],
        arrival_s: Sequence[float],
        input_len: Sequence[int],
        output_len: Sequence[int],
        session_id: Sequence[int | None] | None = None,
        prefilled_tokens: Sequence[int] | None = None,
        handoff_s: Sequence[float] | None = None,
        handoff_bytes: Sequence[float] | None = None,
    ) -> "Trace":
        """A trace of the rows these columns hold, checked like hand-made rows.

        Omitted columns hold the :class:`TimedRequest` defaults: no
        session and no continuation.  A list is kept as the column, not
        copied, so the caller must not change it afterwards.  The
        column scan checks lengths for sign, not type: the generators of
        :mod:`repro.serving.arrivals` and :class:`Request` are where a
        fractional length is refused, and a caller that builds columns
        itself must hold ints (or numpy integers) in them.
        """
        n = len(arrival_s)
        columns = [_as_list(c) for c in (request_id, arrival_s, input_len, output_len)]
        defaults = (None, 0, 0.0, 0.0)
        for column, default in zip(
            (session_id, prefilled_tokens, handoff_s, handoff_bytes), defaults
        ):
            columns.append([default] * n if column is None else _as_list(column))
        if any(len(column) != n for column in columns):
            raise ValueError(
                "trace columns must hold one entry per request, got lengths "
                f"{[len(column) for column in columns]}"
            )
        trace = cls._of(*columns)
        trace._check_rows()
        trace._check_order()
        return trace

    @classmethod
    def _of(cls, *columns: list) -> "Trace":
        """The trace of already-checked columns (no check runs)."""
        trace = cls.__new__(cls)
        trace._fill(*columns)
        return trace

    def _fill(self, *columns: list) -> None:
        for name, column in zip(TRACE_COLUMNS, columns):
            setattr(self, name, column)

    def _row(self, i: int) -> TimedRequest:
        """Row ``i`` as a :class:`TimedRequest` (which checks it)."""
        return TimedRequest(
            Request(
                self.request_id[i],
                self.input_len[i],
                self.output_len[i],
                session_id=self.session_id[i],
            ),
            self.arrival_s[i],
            prefilled_tokens=self.prefilled_tokens[i],
            handoff_s=self.handoff_s[i],
            handoff_bytes=self.handoff_bytes[i],
        )

    def _check_rows(self) -> None:
        """Raise the first offending row's :class:`TimedRequest` error.

        Whole-column scans at C speed clear an ordinary trace: positive
        lengths, finite non-negative arrivals (``sum`` is NaN or infinite
        when any arrival is) and no continuation.  A trace they do not
        clear builds its rows until one raises; continuations are always
        checked that way.
        """
        arrivals = self.arrival_s
        if not arrivals or (
            min(self.input_len) >= 1
            and min(self.output_len) >= 1
            and min(arrivals) >= 0
            and math.isfinite(sum(arrivals))
            and not any(self.prefilled_tokens)
            and not any(self.handoff_s)
            and not any(self.handoff_bytes)
        ):
            return
        for i in range(len(arrivals)):
            self._row(i)

    def _check_order(self) -> None:
        """Refuse out-of-order arrivals and repeated ids, naming the row.

        Both checks scan once; positions are found only on the error
        path.  Ids must be unique because a fleet keys its routing,
        handoffs and timings by them.
        """
        arrivals = self.arrival_s
        if arrivals != sorted(arrivals):
            i = next(
                i for i in range(1, len(arrivals)) if arrivals[i] < arrivals[i - 1]
            )
            raise ValueError(
                "trace arrivals must be non-decreasing: request "
                f"{self.request_id[i]} at position {i} arrives at "
                f"{arrivals[i]!r}, before {arrivals[i - 1]!r}"
            )
        ids = self.request_id
        # Ids in increasing order (every generated trace's) are unique
        # without a set.
        if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))) and (
            len(set(ids)) < len(ids)
        ):
            first: dict[int, int] = {}
            for i, request_id in enumerate(ids):
                j = first.setdefault(request_id, i)
                if j != i:
                    raise ValueError(
                        f"trace repeats request id {request_id} at "
                        f"positions {j} and {i}"
                    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in TRACE_COLUMNS
        )

    def __repr__(self) -> str:
        return f"Trace(<{self.n_requests} requests>)"

    @property
    def requests(self) -> tuple[TimedRequest, ...]:
        """Every row as a :class:`TimedRequest`, built on each call."""
        return tuple(self._row(i) for i in range(self.n_requests))

    @property
    def n_requests(self) -> int:
        return len(self.arrival_s)

    @property
    def duration_s(self) -> float:
        """Time span between the first and the last arrival (0 if empty)."""
        if not self.arrival_s:
            return 0.0
        return self.arrival_s[-1] - self.arrival_s[0]

    @property
    def offered_qps(self) -> float:
        """Average arrival rate over the trace's span (0 for a burst)."""
        if self.duration_s == 0:
            return 0.0
        return (self.n_requests - 1) / self.duration_s

    @property
    def total_output_tokens(self) -> int:
        return sum(self.output_len)

    @classmethod
    def from_batch(cls, batch: Batch, arrival_s: float = 0.0) -> "Trace":
        """A burst trace: every request of ``batch`` arrives at once."""
        return cls(tuple(TimedRequest(r, arrival_s) for r in batch.requests))

    def _take(self, rows: Sequence[int]) -> "Trace":
        """The rows at these positions, in this order, as a trace.

        No check runs: ascending positions of a checked trace make a
        checked trace, and a caller that reorders checks the order.
        """
        if len(rows) < 2:  # itemgetter of one index returns a bare value
            return self._of(
                *([getattr(self, name)[i] for i in rows] for name in TRACE_COLUMNS)
            )
        take = operator.itemgetter(*rows)
        return self._of(*(list(take(getattr(self, name))) for name in TRACE_COLUMNS))

    def partition(self, labels: "Sequence[int]") -> dict[int, "Trace"]:
        """Split by a per-request label (e.g. a router's replica choice).

        Arrival order is preserved inside every part, so each part is a
        valid trace; labels that never occur simply have no entry, and
        parts come in the order their labels first occur.
        """
        n = self.n_requests
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} requests")
        return {
            int(label): self._take(
                list(
                    itertools.compress(
                        range(n), map(operator.eq, labels, itertools.repeat(label))
                    )
                )
            )
            for label in dict.fromkeys(labels)
        }

    @classmethod
    def merge(cls, traces: "Sequence[Trace]") -> "Trace":
        """Interleave several traces back into one arrival-ordered stream.

        The stable sort keeps same-instant requests in the order of the
        ``traces`` argument, so ``merge(partition(...).values())`` restores
        a round-trip whenever arrivals are distinct.
        """
        if not traces:
            raise ValueError("cannot merge zero traces")
        joined = cls._of(
            *(
                list(itertools.chain.from_iterable(getattr(t, name) for t in traces))
                for name in TRACE_COLUMNS
            )
        )
        arrivals = joined.arrival_s
        merged = joined._take(sorted(range(len(arrivals)), key=arrivals.__getitem__))
        merged._check_order()
        return merged

    def to_payload(self) -> list[dict]:
        """JSON-serializable form (see :func:`repro.serving.save_trace`).

        ``session_id`` is emitted only when present, so sessionless
        corpus files keep their historical byte-for-byte shape (the
        replay sweep pins them by content hash).
        """
        payload = []
        for request_id, input_len, output_len, arrival_s, session_id in zip(
            self.request_id,
            self.input_len,
            self.output_len,
            self.arrival_s,
            self.session_id,
        ):
            entry = {
                "request_id": request_id,
                "input_len": input_len,
                "output_len": output_len,
                "arrival_s": arrival_s,
            }
            if session_id is not None:
                entry["session_id"] = session_id
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
        rows = [_payload_row(i, entry) for i, entry in enumerate(payload)]
        return cls.from_columns(*map(list, zip(*rows))) if rows else cls()


def _payload_row(index: int, entry: dict) -> tuple:
    """Entry ``index`` as its ``(request_id, arrival_s, input_len,
    output_len, session_id)`` row, refusing malformed fields."""
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

    request_id = number("request_id")
    input_len = number("input_len")
    output_len = number("output_len")
    session_id = (
        None if entry.get("session_id") is None else number("session_id")
    )
    arrival_s = number("arrival_s", whole=False)
    return request_id, arrival_s, input_len, output_len, session_id


def _as_list(column: Sequence) -> list:
    return column if isinstance(column, list) else list(column)


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
