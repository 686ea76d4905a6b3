"""Pricing bridge from the request-level engine to ``perf.system``.

The discrete-event engine advances one decode iteration at a time; this
module prices each iteration (and each prefill) on a
:class:`~repro.perf.system.ServingSystem` and memoizes the results.  Two
properties matter:

* **Fidelity** — an iteration is priced at its true batch size and context
  length through the same ``step_latency`` cost model the static
  simulators use, so request-level and batch-level results are directly
  comparable (and exactly equal under static batching).
* **Speed** — each distinct ``(batch, seq)`` point is priced once per
  fleet, and cheaply.  The price tables live on the ``ServingSystem``
  (one set per ``ModelSpec``) and every cost model binds them once, at
  construction, so all replicas of a fleet and every
  :class:`ReplicaPrices` share them; a hit is one dict lookup.  When
  PIM runs attention, a decode miss looks up its ``(batch,
  signature)`` next (``ServingSystem.step_signature``: the DRAM rows
  and geometry the attention sweeps read, Section 5.5), so a context
  whose rows were priced before costs a few integer operations and one
  more lookup.  Only a new signature, or any miss on a system whose
  attention runs on the GPU, calls ``ServingSystem.step_seconds``,
  which keeps the context-free operator terms per batch size, prices
  only attention per context, and sums the same terms in the same order
  as ``step_latency(...).total``, so the float is the same.  Nothing is
  cached at module level: a freshly built system starts cold.

:class:`ReplicaPrices` declares once every estimate a cluster makes of
one replica, including the KV handoff the routers score and the
cluster charges.
"""

from __future__ import annotations

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem
from repro.serving.memory import MemoryModel

#: default inter-replica link bandwidth in gigabits per second — a single
#: commodity 100 GbE NIC, deliberately far below NVLink-class fabrics so
#: the transfer-vs-recompute decision stays a real decision.
DEFAULT_LINK_GBPS = 100.0


class IterationCostModel:
    """Memoized prefill/decode pricing on one serving system.

    The memo is the system's (see
    :meth:`~repro.perf.system.ServingSystem.price_tables`): every model
    built on one system for an equal spec reads and fills the same
    tables, the step totals by row signature included.  ``link_gbps``
    prices cross-replica KV movement (the shared prefix tier); it never
    enters prefill/decode pricing, so two models differing only in link
    bandwidth price every iteration identically and share the tables
    too.
    """

    def __init__(
        self,
        system: ServingSystem,
        spec: ModelSpec,
        link_gbps: float = DEFAULT_LINK_GBPS,
    ):
        if link_gbps <= 0:
            raise ValueError("link_gbps must be positive")
        self.system = system
        self.spec = spec
        self.link_gbps = link_gbps
        # Bound once: a hit is one lookup in the system's shared table,
        # and a miss never hashes the spec.
        self._decode, self._prefill, self._steps = system.price_tables(spec)

    def decode_seconds(self, batch: int, seq_len: int) -> float:
        """One decode iteration for ``batch`` requests at context ``seq_len``."""
        key = (int(batch), int(seq_len))
        seconds = self._decode.get(key)
        if seconds is None:
            seconds = self._decode[key] = self._price_decode(*key)
        return seconds

    def _price_decode(self, batch: int, seq_len: int) -> float:
        """A decode point the table lacks: the step total of its
        ``(batch, signature)`` when PIM runs attention, priced only the
        first time that pair comes up."""
        steps = self._steps
        if steps is None:  # attention on the GPU: every context is new
            return self.system.step_seconds(self.spec, batch, seq_len)
        point = (batch, self.system.step_signature(self.spec, batch, seq_len))
        seconds = steps.get(point)
        if seconds is None:
            seconds = steps[point] = self.system.step_seconds(self.spec, batch, seq_len)
        return seconds

    def prefill_seconds(self, batch: int, input_len: int) -> float:
        """Prefill of ``batch`` admitted requests at ``input_len`` tokens."""
        key = (int(batch), int(input_len))
        seconds = self._prefill.get(key)
        if seconds is None:
            seconds = self._prefill[key] = self.system.prefill_latency(
                self.spec, *key
            )
        return seconds

    def chunk_prefill_seconds(self, batch: int, start: int, end: int) -> float:
        """Prefill of the prompt token range ``[start, end)`` for ``batch``.

        Priced as the *increment* of the cumulative prefill cost, so later
        chunks are more expensive (their attention spans the context built
        by earlier chunks) and a partition of ``[0, L)`` telescopes to the
        monolithic cost: one chunk covering the whole prompt is priced
        *identically* to :meth:`prefill_seconds` — the chunked scheduler's
        budget->infinity equivalence with blocked FCFS rests on this.
        """
        if not 0 <= start < end:
            raise ValueError("need a non-empty token range with start >= 0")
        if start == 0:
            return self.prefill_seconds(batch, end)
        return self.prefill_seconds(batch, end) - self.prefill_seconds(
            batch, start
        )

    def transfer_seconds(self, n_bytes: float) -> float:
        """Wire time to move ``n_bytes`` of KV state between replicas.

        A bandwidth-only model: latency and protocol overhead are folded
        into the configured ``link_gbps`` rather than modeled separately,
        which keeps the transfer-vs-recompute comparison monotone in
        prefix length.
        """
        if n_bytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return n_bytes * 8.0 / (self.link_gbps * 1e9)


class ReplicaPrices:
    """One replica's prices: the one source every cluster estimate reads.

    Built from the replica's system, its spec and the fleet's
    ``link_gbps``.  The load-aware routers score candidates with it, and
    :class:`~repro.serving.cluster.ClusterEngine` charges KV handoffs and
    prices the shared prefix tier with it, so a router's prediction of a
    replica always comes from that replica's own cost and memory models.
    Each estimate prices a request from its lengths, as if it ran alone
    (batch 1), so a routing pass reads a trace's length columns and
    builds no request object.
    """

    def __init__(self, system: ServingSystem, spec: ModelSpec, link_gbps: float):
        self.cost = IterationCostModel(system, spec, link_gbps)
        self.memory = MemoryModel.for_system(system, spec)

    # The methods below spell their formulas out instead of calling one
    # another, so a routing pass makes one Python call per estimate.

    def service(self, input_len: int, output_len: int) -> float:
        """Whole-lifetime seconds: solo prefill plus the decode tail."""
        mid_context = input_len + output_len // 2
        prefill = self.cost.prefill_seconds(1, input_len)
        return prefill + output_len * self.cost.decode_seconds(1, mid_context)

    def first_token(self, input_len: int) -> float:
        """Time to first token: solo prefill plus the first decode step."""
        return self.cost.prefill_seconds(1, input_len) + self.cost.decode_seconds(
            1, input_len
        )

    def decode(self, input_len: int, output_len: int) -> float:
        """Decode-tail seconds, priced at the mid-generation context."""
        mid_context = input_len + output_len // 2
        return output_len * self.cost.decode_seconds(1, mid_context)

    def prefix_savings(self, hit_tokens: int) -> float:
        """Prefill seconds a warm prefix of ``hit_tokens`` saves.

        Prefill chunk costs telescope, so skipping a cached prefix saves
        roughly its own solo-prefill time.
        """
        return self.cost.prefill_seconds(1, hit_tokens)

    def handoff_bytes(self, input_len: int) -> float:
        """KV and state bytes a split request of ``input_len`` prompt
        tokens moves to this replica."""
        return self.memory.reserved_bytes(input_len + 1)

    def handoff_seconds(self, input_len: int) -> float:
        """Wire seconds to land :meth:`handoff_bytes` over the link."""
        return self.cost.transfer_seconds(self.memory.reserved_bytes(input_len + 1))
