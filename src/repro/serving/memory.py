"""HBM residency accounting for the serving schedulers.

Two reservation models live here, in increasing fidelity:

* :class:`MemoryModel` — the footprint calculator: weights plus
  per-request state/KV bytes at the storage format's true ``repro.quant``
  byte widths.  The capacity schedulers price every reservation through
  it, so admission can never diverge from the Fig. 15 memory numbers.
* :class:`BlockPool` — a vLLM-style paged allocator on top of the same
  byte accounting: KV is claimed in fixed-size *token blocks* as decode
  progresses instead of being reserved at the request's full final
  context up front.  The pool knows each request's final length (the
  simulator does), so a request's tail block is trimmed to the exact
  tokens it will ever hold — block granularity shows up in *when* bytes
  are claimed, never in claiming bytes no token will use.

The conservative and paged models meet in a degenerate corner that the
tests pin down: a :class:`~repro.serving.schedulers.PagedScheduler`
whose block size covers every request's final context claims one block
at admission, trimmed to that context, so it reserves the full-context
footprint through the *same* :meth:`MemoryModel.request_bytes`
arithmetic as :class:`~repro.serving.schedulers.MemoryAwareScheduler`
and never claims again: the two engines are bit-exact, event for event.

Every ledger event is a few integer operations on flat state, whatever
the number of blocks it moves.  A footprint is two numbers fixed at
construction — the state bytes per request and the KV bytes per token —
so ``reserved_bytes(t)`` is ``state + t * per_token``.  The pool keeps
its held total as a running integer and each holding's coverage in a
request-id mapping (:attr:`BlockPool.coverage`) that the schedulers read
by subscript, packs an admission from the queue's length columns by row
index (:meth:`BlockPool.admissible`), and grows every crossing holding
of a decode iteration in one all-or-nothing pass
(:meth:`BlockPool.extend_all`).  A prefix pool's cache
(:class:`PrefixCache`) holds no block on its own: each holder pins a
prefix length, the unreferenced blocks sit in the LRU as runs of one
session's consecutive blocks, and the pinned and cached block counts are
counters, so a publish, a pin, a release or the cut that drops the
blocks a claim displaces costs O(runs of one session).
"""

from __future__ import annotations

import collections
import dataclasses
import math
import numbers
from collections.abc import Sequence

from repro.models.config import ModelSpec
from repro.perf.system import ServingSystem


@dataclasses.dataclass(frozen=True)
class MemoryModel:
    """HBM residency of weights and per-request state/KV.

    A thin view over the system's own footprint model
    (:meth:`~repro.perf.system.ServingSystem.state_bytes_per_request` /
    ``kv_bytes_per_request``), whose byte widths come from the
    ``repro.quant`` registry's true bits-per-value — so a Pimba MX8 state
    is half an fp16 one, an int8 state carries its 16-bit group scales,
    and the capacity schedulers can never diverge from the Fig. 15
    memory numbers.  The view reads the two numbers a footprint needs —
    state bytes per request, KV bytes per token — once, at construction.
    """

    spec: ModelSpec
    system: ServingSystem
    #: state bytes one request holds whatever its context (the system's
    #: own float, so byte counters keep their JSON type)
    state_bytes_per_request: float = dataclasses.field(
        init=False, repr=False, compare=False
    )
    #: KV bytes of one context token (the system's own float)
    kv_bytes_per_token: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Read once: the system walks the spec's layer properties on
        # every call, and the ledger asks for a footprint per event.
        system, spec = self.system, self.spec
        object.__setattr__(
            self, "state_bytes_per_request", system.state_bytes_per_request(spec)
        )
        object.__setattr__(
            self, "kv_bytes_per_token", system.kv_bytes_per_request(spec, 1)
        )

    @classmethod
    def for_system(cls, system: ServingSystem, spec: ModelSpec) -> "MemoryModel":
        return cls(spec=spec, system=system)

    @property
    def weights_bytes(self) -> float:
        """Cluster-wide weight bytes (always resident, never per-request)."""
        return self.system.weights_bytes(self.spec)

    def reserved_bytes(self, kv_tokens: int) -> float:
        """Bytes one resident request holds with ``kv_tokens`` of KV claimed.

        The recurrent state is context-invariant and charged in full from
        admission on; the KV cache is charged for exactly ``kv_tokens``
        tokens.  :meth:`request_bytes` is this at the full final context —
        the two share one arithmetic path on purpose, so the conservative
        and paged reservation models can be compared bit for bit.

        ``state + kv_tokens * per_token`` is the same float as the
        system's own ``state_bytes_per_request + kv_bytes_per_request``:
        every registry footprint is a whole number of bytes below 2^53,
        so each product is exact in either order (a registry-wide test
        pins this for every context up to 4,096 tokens).
        """
        if kv_tokens < 0:
            raise ValueError(f"kv_tokens must be non-negative, got {kv_tokens}")
        return self.state_bytes_per_request + kv_tokens * self.kv_bytes_per_token

    def kv_bytes(self, kv_tokens: int) -> float:
        """KV-only bytes of ``kv_tokens`` tokens (no per-request state).

        What a cached prefix block costs: the KV it holds and nothing
        else — the context-invariant request state belongs to whichever
        *request* computes on those tokens, never to the cache entry.
        """
        if kv_tokens < 0:
            raise ValueError(f"kv_tokens must be non-negative, got {kv_tokens}")
        return kv_tokens * self.kv_bytes_per_token

    def request_bytes(self, input_len: int, output_len: int) -> float:
        """Cluster-wide bytes one request holds resident at full context.

        The full-context (conservative) reservation: KV for every token
        the request will ever hold, claimed up front so an admitted
        request never has to be preempted mid-decode.  Rejects negative
        lengths — a negative ``output_len`` would silently *shrink* the
        reservation below the prompt's own KV and overcommit the pool.
        """
        if input_len < 0 or output_len < 0:
            raise ValueError(
                "request lengths must be non-negative, got "
                f"input_len={input_len}, output_len={output_len}"
            )
        return self.reserved_bytes(input_len + output_len)


def is_finite_number(value: object) -> bool:
    """Whether ``value`` is a finite real number (a bool is not one)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_capacity(memory: MemoryModel, capacity_bytes: float) -> None:
    """Reject an HBM budget that cannot even hold the model weights.

    The error spells out both sides of the comparison in bytes *and* GiB:
    capacity knobs are usually set in GiB (``capacity_gib`` on the CLI)
    while footprints are computed in bytes, and a unit slip between the
    two is exactly the mistake this guard exists to catch.

    A budget that is not a finite number is refused too: a NaN would
    pass every ``need > free`` test and serve as if HBM were unbounded.
    """
    if not is_finite_number(capacity_bytes):
        raise ValueError(
            f"capacity must be a finite number of bytes, got {capacity_bytes!r}"
        )
    floor = memory.weights_bytes
    if capacity_bytes <= floor:
        raise ValueError(
            f"capacity does not even hold the weights: budget "
            f"{capacity_bytes:.0f} bytes ({capacity_bytes / 2**30:.3f} GiB) "
            f"<= model-weights floor {floor:.0f} bytes "
            f"({floor / 2**30:.3f} GiB)"
        )


@dataclasses.dataclass(slots=True)
class _Holding:
    """One resident request's share of a :class:`BlockPool`.

    It holds ``state + kv_tokens * per_token`` whole bytes of the pool.
    """

    blocks: int  #: whole KV blocks held (the tail one may be trimmed)
    kv_tokens: int  #: KV tokens actually charged (<= blocks * block_size)
    #: leading prefix tokens served from shared cache blocks instead of
    #: private ones (0 for every non-sharing holding — the arithmetic
    #: below then reduces to the plain paged path, bit for bit)
    shared_tokens: int = 0


class BlockPool:
    """Block-granular KV reservations inside one HBM budget.

    The pool owns ``capacity_bytes`` minus the always-resident weights.
    Every resident request charges its context-invariant state plus
    ``kv_tokens`` of KV, where ``kv_tokens`` grows in steps of
    ``block_size`` as decode proceeds (:meth:`extend`) and is trimmed to
    the request's known final context, so the tail block never charges
    tokens that will not exist.  :attr:`coverage` maps each resident
    request to the context its holding covers (claimed KV plus shared
    prefix), kept in step with the holdings, so a scheduler finds the
    residents due to claim by subscript.  Every footprint is
    :meth:`MemoryModel.reserved_bytes` — ``state + kv_tokens *
    per_token`` on the model's two numbers, the arithmetic the
    conservative scheduler uses — which is what makes the degenerate
    (reserve-final-context) configuration bit-exact with
    :class:`~repro.serving.schedulers.MemoryAwareScheduler`.

    The ledger is kept in whole bytes.  The constructor refuses a model
    whose per-request state or per-token KV is a fractional byte count,
    and keeps the two as ints; every holding's footprint is then a whole
    number, so the running total of held bytes is exact in any addition
    order, :attr:`free_bytes` is O(1), and comparing or subtracting a
    footprint as an int gives the same answer as the float.  That makes
    the hot events a few integer operations: :meth:`admissible` packs an
    admission, and :meth:`extend_all` lands every claim of a decode
    iteration in one all-or-nothing pass.

    Lifetime block counters (:attr:`allocated_blocks` /
    :attr:`freed_blocks`) let the invariant tests assert that every block
    ever claimed is returned by the time a trace drains.
    """

    def __init__(
        self, memory: MemoryModel, capacity_bytes: float, block_size: int
    ):
        validate_capacity(memory, capacity_bytes)
        if block_size < 1:
            raise ValueError("block_size must be positive")
        state = memory.state_bytes_per_request
        per_token = memory.kv_bytes_per_token
        if not (float(state).is_integer() and float(per_token).is_integer()):
            raise ValueError(
                "the paged KV ledger needs whole-byte footprints, got "
                f"{state!r} bytes of state per request and {per_token!r} "
                "bytes of KV per token"
            )
        self.memory = memory
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        #: the model's footprint in whole bytes: a holding of ``kv_tokens``
        #: holds ``state + kv_tokens * per_token`` of them
        self._state = int(state)
        self._per_token = int(per_token)
        #: bytes the pool owns: the budget minus the resident weights
        self._pool_bytes = capacity_bytes - memory.weights_bytes
        #: whole bytes held by all holdings (a running, exact total)
        self._held = 0
        self._holdings: dict[int, _Holding] = {}
        #: request id -> context tokens its holding covers, claimed KV
        #: plus shared prefix (decode grows the request to this context
        #: without a claim), kept in step with the holdings
        self.coverage: dict[int, int] = {}
        self.allocated_blocks = 0  #: lifetime blocks claimed
        self.freed_blocks = 0  #: lifetime blocks returned

    # -- accounting ---------------------------------------------------------

    def blocks_for(self, context: int) -> int:
        """Whole blocks needed to cover ``context`` KV tokens."""
        return -(-context // self.block_size)

    def covered_tokens(self, context: int, final_context: int) -> int:
        """KV tokens charged at ``context``: whole blocks, tail trimmed.

        ``ceil(context / block_size)`` blocks are claimed, but the last
        one is trimmed to ``final_context`` (the request's known total
        length), so at the final context exactly ``final_context`` tokens
        are charged — the conservative footprint, to the byte.
        """
        return min(self.blocks_for(context) * self.block_size, final_context)

    @property
    def free_bytes(self) -> float:
        """Unclaimed pool bytes (budget minus weights minus holdings).

        O(1): the held total is a running integer.  Every holding's
        footprint is a whole number of bytes (the constructor checks), so
        the total is exact whatever order holdings come and go in, and
        it equals the fresh sum
        :meth:`~repro.serving.schedulers.MemoryAwareScheduler.admit` takes
        over the same footprints.  ``capacity - weights - held`` is then
        the same float as that fresh arithmetic, which the degenerate
        bit-exactness with the conservative scheduler depends on.
        """
        return self._pool_bytes - self._held

    @property
    def blocks_in_use(self) -> int:
        """Blocks held right now: every claim not yet returned."""
        return self.allocated_blocks - self.freed_blocks

    @property
    def n_resident(self) -> int:
        return len(self._holdings)

    def holds(self, request_id: int) -> bool:
        return request_id in self._holdings

    def fits(self, context: int, final_context: int) -> bool:
        """Would a new request at ``context`` fit the current free pool?"""
        return self.memory.reserved_bytes(
            self.covered_tokens(context, final_context)
        ) <= self.free_bytes

    def feasible(self, input_len: int, output_len: int) -> bool:
        """Could this request *ever* complete, even alone in the pool?"""
        return self.memory.request_bytes(input_len, output_len) <= self._pool_bytes

    def admissible(
        self, input_len: Sequence[int], output_len: Sequence[int], rows: range
    ) -> int:
        """How many of the requests in ``rows`` of these length columns,
        in order, the free pool admits now.

        The longest prefix whose prompt blocks (tail trimmed to the
        final context) fit the free bytes together, stopping at the
        first request that could not finish even alone in the pool: the
        :meth:`fits` and :meth:`feasible` tests, on whole-byte ints.
        """
        free = self.free_bytes
        size, state, per_token = self.block_size, self._state, self._per_token
        n = 0
        for row in rows:
            prompt = input_len[row]
            final = prompt + output_len[row]
            covered = -(-prompt // size) * size  # covered_tokens, inlined
            need = state + min(covered, final) * per_token
            if need > free or state + final * per_token > self._pool_bytes:
                break
            free -= need
            n += 1
        return n

    # -- mutation -----------------------------------------------------------

    def allocate(
        self,
        request_id: int,
        context: int,
        final_context: int,
        shared_tokens: int = 0,
    ) -> None:
        """Claim blocks covering ``context`` for a new resident request.

        The caller (scheduler admission/restore) has already checked
        :meth:`fits`; allocating an already-resident id is a logic error.
        ``shared_tokens`` (a whole-block multiple) marks a leading prefix
        already resident in shared cache blocks: those blocks are neither
        claimed nor charged here — the holding covers only the private
        remainder.
        """
        holdings = self._holdings
        if request_id in holdings:
            raise ValueError(f"request {request_id} already holds blocks")
        size = self.block_size
        blocks = -(-context // size)  # blocks_for and covered_tokens, inlined
        kv_tokens = min(blocks * size, final_context) - shared_tokens
        blocks -= shared_tokens // size
        holdings[request_id] = _Holding(blocks, kv_tokens, shared_tokens)
        self.coverage[request_id] = kv_tokens + shared_tokens
        self._held += self._state + kv_tokens * self._per_token
        self.allocated_blocks += blocks
        self._claimed()

    def extend(self, request_id: int, context: int, final_context: int) -> bool:
        """Grow a holding to cover ``context``; ``False`` on exhaustion.

        A no-op (``True``) while the context stays inside the already
        claimed blocks; otherwise claims the next block(s) if the pool
        has room, and reports failure — the preemption trigger — if not.
        """
        return self.extend_all(((request_id, context, final_context),))

    def extend_all(self, claims: Sequence[tuple[int, int, int]]) -> bool:
        """:meth:`extend` each ``(request_id, context, final_context)``
        claim, one per holding, in one pass: all or nothing.

        When the claims' summed byte deltas fit :attr:`free_bytes`, every
        one lands and the pool settles once (one trim for a prefix pool);
        otherwise nothing changes and ``False`` comes back.  That is the
        outcome of extending them one by one, in any order, whenever no
        extend would fail: each delta fits what the earlier ones left
        (the ledger is whole bytes, so the sums are exact), the held
        total is an integer sum, and a trim after each claim evicts the
        LRU prefix one trim after the last claim does, because claims
        only ever shrink the free pool.  A claim inside its holding's
        blocks changes nothing and cannot fail.
        """
        holdings = self._holdings
        size = self.block_size
        grown = []
        tokens = 0
        for request_id, context, final_context in claims:
            holding = holdings[request_id]
            blocks = -(-context // size)  # blocks_for and covered_tokens, inlined
            kv_tokens = min(blocks * size, final_context) - holding.shared_tokens
            if kv_tokens > holding.kv_tokens:
                grown.append((request_id, holding, blocks, kv_tokens))
                tokens += kv_tokens - holding.kv_tokens
        if not grown:
            return True
        delta = tokens * self._per_token
        if delta > self.free_bytes:
            return False
        claimed = 0
        coverage = self.coverage
        for request_id, holding, blocks, kv_tokens in grown:
            shared = holding.shared_tokens
            blocks -= shared // size
            claimed += blocks - holding.blocks
            holding.blocks = blocks
            holding.kv_tokens = kv_tokens
            coverage[request_id] = kv_tokens + shared
        self.allocated_blocks += claimed
        self._held += delta
        self._claimed()
        return True

    def release(self, request_id: int) -> None:
        """Return all of a request's blocks (completion or preemption)."""
        holding = self._holdings.pop(request_id)
        del self.coverage[request_id]
        self._held -= self._state + holding.kv_tokens * self._per_token
        self.freed_blocks += holding.blocks

    def _claimed(self) -> None:
        """A holding just claimed blocks (a no-op hook for subclasses)."""


class PrefixCache:
    """Refcounted radix-style cache of published session-prefix blocks.

    Block ``i`` of a session covers tokens ``[i * block_size, (i + 1) *
    block_size)`` of that session's history — the degenerate token-prefix
    hash of the simulator, where a session's token history *is* its
    identity, so two turns of one chat share block ``i`` exactly when both
    cover those tokens.  Only *full* blocks are ever published: the
    partial tail of a prompt or an in-flight decode is private by
    construction (copy-on-write — a request whose prompt ends mid-block
    writes its decode tokens into that block, so the block diverges from
    the session history and cannot be shared; :meth:`match` therefore
    stops at the last whole block *strictly before* the first token the
    new request must compute).

    Every block carries a reference count.  Referenced (pinned) blocks
    belong to live requests and are never evicted; unreferenced blocks
    sit in an LRU and are reclaimed oldest-first whenever live KV wants
    the bytes (:meth:`PrefixBlockPool._trim`) — cached blocks always
    lose to live KV, and they lose *before* any request is preempted.
    Matching requires the prefix to be contiguous from block 0, so
    evicting a block implicitly unreaches its descendants — the
    radix-tree parent/child rule without materializing a tree.

    No block is stored on its own; the cache is kept as ranges:

    * A holder pins a *prefix length* ``n``: blocks ``0..n-1`` of its
      session.  Block ``i``'s refcount is the number of the session's
      pins longer than ``i``, so a session's pinned blocks are
      ``[0, longest pin)``.
    * The LRU is a deque of ``[session, lo, hi]`` *runs*, oldest first,
      each the blocks ``lo..hi-1`` in eviction order.  A publish of ``n``
      blocks cuts the session's runs below ``n`` and appends ``[longest
      pin, n)``; a release appends ``[longest remaining pin, released
      pin)``; an acquire cuts the low end of the session's runs; an
      eviction cuts runs from the head.  Expanded block by block, that is
      the LRU order of a per-block cache, so the same blocks are evicted
      in the same order.
    * :attr:`pinned_blocks` and :attr:`cached_blocks` are counters.

    So every event costs O(runs and pins of one session), whatever the
    number of blocks it touches.  A run that a cut empties stays in the
    deque until it reaches the head (or the deque is compacted).
    """

    def __init__(self, memory: MemoryModel, block_size: int):
        self.memory = memory
        self.block_size = block_size
        #: KV bytes of one full cached block (no per-request state —
        #: that is charged by whichever request computes on the tokens)
        self.block_bytes = memory.kv_bytes(block_size)
        #: session -> prefix lengths its holders pin, one per holder
        self._pins: dict[int, list[int]] = {}
        #: request id -> (session, pinned prefix length)
        self._holders: dict[int, tuple[int, int]] = {}
        #: unreferenced ``[session, lo, hi]`` runs, oldest first; a run
        #: cut empty (``lo == hi``) is skipped when it reaches the head
        self._lru: collections.deque[list[int]] = collections.deque()
        #: session -> its nonempty runs (the lists in ``_lru``), highest
        #: blocks first: a new run always holds the session's lowest
        #: unpinned blocks, so it is appended
        self._runs: dict[int, list[list[int]]] = {}
        self._dead = 0  #: runs in ``_lru`` that a cut emptied
        self.pinned_blocks = 0  #: blocks referenced by live requests
        self.cached_blocks = 0  #: unreferenced blocks (evictable)
        self.hit_tokens = 0  #: lifetime prefill tokens served from cache
        self.miss_tokens = 0  #: lifetime prefill tokens actually computed
        self.evictions = 0  #: lifetime cached blocks reclaimed for live KV

    # -- accounting ---------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """All cached blocks, pinned and evictable."""
        return self.pinned_blocks + self.cached_blocks

    @property
    def pinned_bytes(self) -> float:
        return self.pinned_blocks * self.block_bytes

    @property
    def cached_bytes(self) -> float:
        return self.cached_blocks * self.block_bytes

    def _longest_pin(self, session_id: int) -> int:
        """The longest pin of the session's holders, 0 without one: its
        pinned blocks are those below it."""
        pins = self._pins.get(session_id)
        return max(pins) if pins else 0

    # -- lookup and lifecycle ----------------------------------------------

    def match(self, session_id: int, prefill_tokens: int) -> int:
        """Cached whole blocks a ``prefill_tokens``-token prefill can reuse.

        Contiguous from block 0, and capped at
        ``(prefill_tokens - 1) // block_size`` so at least one token is
        always left to compute (the engine must price a first-token
        prefill) and the block the request will *write* into (its
        mid-block divergence point) is copied, never shared.  The pinned
        prefix is cached, and the session's runs, lowest first, extend
        it while each starts where the last ended.
        """
        cap = (prefill_tokens - 1) // self.block_size
        if cap <= 0:
            return 0
        n = self._longest_pin(session_id)
        for _, lo, hi in reversed(self._runs.get(session_id, ())):
            if lo != n:
                break
            n = hi
        return min(n, cap)

    def acquire(self, request_id: int, session_id: int, n_blocks: int) -> None:
        """Pin blocks ``0..n_blocks-1`` of ``session_id`` for a request.

        The blocks must be cached (a :meth:`match` or a publish just
        found them); those no pin covered yet leave the LRU.
        """
        if n_blocks == 0:
            return
        pins = self._pins.setdefault(session_id, [])
        longest = max(pins, default=0)
        pins.append(n_blocks)
        self._holders[request_id] = (session_id, n_blocks)
        if n_blocks > longest:
            self.pinned_blocks += n_blocks - longest
            self.cached_blocks -= self._cut(session_id, n_blocks)

    def release(self, request_id: int) -> None:
        """Drop a request's pin; the blocks no other pin covers join the
        LRU, lowest first."""
        holder = self._holders.pop(request_id, None)
        if holder is None:
            return
        session_id, n_blocks = holder
        pins = self._pins[session_id]
        pins.remove(n_blocks)
        longest = max(pins, default=0)
        if not pins:
            del self._pins[session_id]
        if n_blocks > longest:
            self.pinned_blocks -= n_blocks - longest
            self.cached_blocks += n_blocks - longest
            self._append(session_id, longest, n_blocks)

    def publish(self, session_id: int, history_tokens: int) -> None:
        """Make every full block of a session history reusable.

        Called when a request completes: its prompt and generated tokens
        extend the session's shared history.  Unreferenced blocks below
        the history's end, cached already or not, go to the LRU tail as
        one run; pinned blocks stay pinned; the partial tail block is
        never published.
        """
        n = history_tokens // self.block_size
        longest = self._longest_pin(session_id)
        if n > longest:
            self.cached_blocks += n - longest - self._cut(session_id, n)
            self._append(session_id, longest, n)

    def evict(self, n_blocks: int) -> None:
        """Reclaim the ``n_blocks`` least-recently-used unreferenced
        blocks (at most :attr:`cached_blocks`), oldest first, in one cut
        of the runs at the LRU's head."""
        lru, runs = self._lru, self._runs
        left = n_blocks
        while left:
            run = lru[0]
            session_id, lo, hi = run
            if hi - lo > left:
                run[1] = lo + left
                break
            lru.popleft()
            if lo == hi:
                self._dead -= 1
                continue
            left -= hi - lo
            # A session's runs are disjoint and nonempty, so the one
            # equal to ``run`` is ``run``.
            session_runs = runs[session_id]
            session_runs.remove(run)
            if not session_runs:
                del runs[session_id]
        self.cached_blocks -= n_blocks
        self.evictions += n_blocks

    def _cut(self, session_id: int, n: int) -> int:
        """Take the session's unreferenced blocks below ``n`` out of the
        LRU; return how many there were."""
        runs = self._runs.get(session_id)
        if not runs:
            return 0
        cut = 0
        while runs:
            run = runs[-1]
            lo, hi = run[1], run[2]
            if lo >= n:
                break
            if hi > n:
                cut += n - lo
                run[1] = n
                break
            cut += hi - lo
            run[1] = hi
            runs.pop()
            self._dead += 1
        if not runs:
            del self._runs[session_id]
        return cut

    def _append(self, session_id: int, lo: int, hi: int) -> None:
        """Queue blocks ``lo..hi-1`` of a session at the LRU tail; they
        are the session's lowest unreferenced blocks."""
        lru = self._lru
        if self._dead > len(lru) // 2:
            # Mostly emptied runs: drop them, at O(1) per dropped run.
            self._lru = lru = collections.deque(r for r in lru if r[1] < r[2])
            self._dead = 0
        run = [session_id, lo, hi]
        lru.append(run)
        self._runs.setdefault(session_id, []).append(run)


class PrefixBlockPool(BlockPool):
    """A :class:`BlockPool` whose blocks can be shared across requests.

    Adds a :class:`PrefixCache` on the side of the base pool's private
    holdings.  The accounting split is deliberate:

    * **Pinned cache bytes** (blocks referenced by live requests) gate
      every decision — they are as unevictable as live KV, so
      :attr:`free_bytes` subtracts them.
    * **Unreferenced cached bytes** do *not* gate decisions: they are
      reclaimed automatically (:meth:`_trim`, LRU order) whenever live
      KV claims the space, so admission and growth behave exactly as if
      the cache were empty — cached blocks always yield to live KV, and
      they are gone long before the scheduler would have to preempt a
      running request.

    With nothing shared and nothing published, every code path reduces
    to the base pool's arithmetic on the same whole-byte footprints —
    which is why a trace without session ids runs the ``prefix``
    scheduler bit for bit like ``paged``.
    """

    def __init__(
        self, memory: MemoryModel, capacity_bytes: float, block_size: int
    ):
        super().__init__(memory, capacity_bytes, block_size)
        #: shared cross-replica tier, attached by the cluster builder
        self.tier: SharedPrefixTier | None = None
        #: this pool's replica index within the tier (meaningless otherwise)
        self.replica = 0
        self.reset()

    def reset(self) -> None:
        """Start a run: an empty cache and zeroed counters.

        Only cached blocks are dropped (a drained run leaves no holding,
        so the ledger is already empty); the tier stays attached, and
        its directory is the cluster's to reset.
        """
        self.cache = PrefixCache(self.memory, self.block_size)
        #: prefill tokens served by pulling remote KV, this run
        self.remote_hit_tokens = 0
        #: KV bytes pulled over the link into this pool, this run
        self.transferred_bytes = 0.0
        #: remote pulls this run (each covers one contiguous block range)
        self.kv_transfers = 0

    def attach_tier(self, tier: "SharedPrefixTier", replica: int) -> None:
        """Join a cluster-wide shared prefix tier as ``replica``."""
        self.tier = tier
        self.replica = replica

    @property
    def free_bytes(self) -> float:
        # cache.pinned_bytes, inlined: this runs on every ledger event
        cache = self.cache
        return self._pool_bytes - self._held - cache.pinned_blocks * cache.block_bytes

    def allocate_reusing(
        self,
        request_id: int,
        session_id: int,
        context: int,
        final_context: int,
        prefill_tokens: int,
        now: float | None = None,
    ) -> tuple[int, int, float]:
        """Allocate like :meth:`allocate`, reusing cached prefix blocks.

        ``prefill_tokens`` is the prefill the engine is about to price
        (the prompt at admission, prompt + generated at restore); the
        cached prefix shortens it.  When a shared tier is attached and
        ``now`` (the simulated clock) is given, a longer prefix published
        by another replica may be pulled over the link first — the pulled
        blocks land in the local cache and are pinned and charged exactly
        like locally produced ones.  Returns ``(hit_tokens,
        remote_tokens, transfer_s)`` so the scheduler can hand the
        engine both the shortened prefill and the wire time to serialize
        before it.
        """
        hit_blocks = self.cache.match(session_id, prefill_tokens)
        remote_tokens, transfer_s = 0, 0.0
        if self.tier is not None and now is not None:
            hit_blocks, remote_tokens, transfer_s = self.tier.resolve(
                self, session_id, prefill_tokens, hit_blocks, now
            )
        hit_tokens = hit_blocks * self.block_size
        # Pin before allocating: the allocation's trim may otherwise
        # reclaim the very blocks just matched under a tight pool.
        self.cache.acquire(request_id, session_id, hit_blocks)
        self.allocate(
            request_id, context, final_context, shared_tokens=hit_tokens
        )
        self.cache.hit_tokens += hit_tokens
        self.cache.miss_tokens += prefill_tokens - hit_tokens
        if remote_tokens:
            self.remote_hit_tokens += remote_tokens
            # Same payload arithmetic the tier priced the wire time on.
            self.transferred_bytes += self.memory.reserved_bytes(remote_tokens)
            self.kv_transfers += 1
        return hit_tokens, remote_tokens, transfer_s

    def release(self, request_id: int) -> None:
        super().release(request_id)
        self.cache.release(request_id)

    def publish(
        self, session_id: int, history_tokens: int, at: float | None = None
    ) -> None:
        """Publish a completed request's session history to the cache.

        With a shared tier attached and a completion clock ``at``, the
        history is also advertised fleet-wide so other replicas can pull
        it later.
        """
        self.cache.publish(session_id, history_tokens)
        if self.tier is not None and at is not None:
            self.tier.publish(self.replica, session_id, history_tokens, at)
        self._trim()

    def _trim(self) -> None:
        """Evict unreferenced cached blocks until they fit the free pool.

        The physical bound: private holdings + pinned cache + retained
        cache must fit the budget.  Decisions ignore retained blocks, so
        whenever live KV (or a pin) claims bytes the retained set is
        trimmed LRU-first to whatever headroom is left — cached blocks
        yield to live KV, never the other way around.

        Every trim leaves ``cached_bytes <= free_bytes`` (or an empty
        LRU), and only a claim or a publish can break that: a release
        frees at least the bytes it returns to the LRU, a pin moves a
        block's bytes from cached to pinned, and a no-op extend moves
        nothing.  So the pool trims only after those two (a tier pull
        publishes just before the claim that trims it), and a skipped
        trim could never have evicted anything.

        The blocks to drop are counted, not searched for: the retained
        set keeps the most blocks whose whole-byte total fits the free
        pool, ``floor(free) // block_bytes`` of them (none when nothing
        is free), exactly where evicting one LRU block at a time would
        stop.  :meth:`PrefixCache.evict` then cuts that many blocks off
        the runs at the LRU's head: whole runs go, and the last one cut
        keeps its newer blocks.
        """
        cache = self.cache
        cached = cache.cached_blocks
        if not cached:
            return
        free = self.free_bytes
        if cached * cache.block_bytes <= free:
            return
        keep = 0
        if free > 0 and cache.block_bytes:
            keep = math.floor(free) // int(cache.block_bytes)
        cache.evict(cached - keep)

    _claimed = _trim


class SharedPrefixTier:
    """A cluster-wide directory of published session prefixes.

    One tier is shared by every replica's :class:`PrefixBlockPool` in a
    cluster.  When a replica completes a session turn it advertises the
    session's block-aligned history here (:meth:`publish`, stamped with
    the completion clock); when another replica later admits a turn of
    the same session it may *pull* the remote prefix (:meth:`resolve`)
    instead of recomputing it — but only when the wire time of moving
    the KV bytes beats the prefill increment it replaces, both priced
    through the same :class:`~repro.serving.costs.IterationCostModel`
    the engine uses.  Pulled blocks are materialized into the
    destination pool's local cache and from then on are pinned, charged,
    trimmed, and evicted exactly like locally produced blocks.

    Two deliberate modeling choices keep the simulation deterministic:

    * **Causality by clock**: replicas simulate in index order, each on
      the shared trace-time axis, so a publish is visible to a lookup
      only when its completion clock is at or before the lookup's clock.
    * **Conservative visibility**: a replica only sees publishes from
      replicas that simulated *before* it (lower index).  Real fleets
      transfer in both directions; this one-directional view undercounts
      remote hits rather than inventing causality-violating ones, and it
      is what makes serial and process-pool runs bit-identical.
    """

    def __init__(self, memory: MemoryModel, block_size: int, cost):
        self.memory = memory
        self.block_size = block_size
        self.cost = cost
        self.reset()

    def reset(self) -> None:
        """Start a cluster run: no published prefixes, zeroed counters."""
        #: session_id -> (replica, block-aligned history tokens, publish clock)
        self._published: dict[int, tuple[int, int, float]] = {}
        #: pulls this run that went over the wire
        self.transfers = 0
        #: lookups this run where a longer remote prefix existed but
        #: recomputing the suffix was cheaper than moving it
        self.recomputes = 0

    @property
    def n_sessions(self) -> int:
        """Sessions with at least one published prefix."""
        return len(self._published)

    def publish(
        self, replica: int, session_id: int, history_tokens: int, at: float
    ) -> None:
        """Advertise a session's history; the longest prefix wins.

        Ties go to the most recent publisher, so a session that migrates
        replicas keeps its directory entry pointing at warm KV.
        """
        tokens = (history_tokens // self.block_size) * self.block_size
        if tokens < self.block_size:
            return
        entry = self._published.get(session_id)
        if entry is not None and entry[1] > tokens:
            return
        self._published[session_id] = (replica, tokens, at)

    def resolve(
        self,
        pool: PrefixBlockPool,
        session_id: int,
        prefill_tokens: int,
        local_blocks: int,
        now: float,
    ) -> tuple[int, int, float]:
        """Decide transfer vs recompute for one admission.

        Returns ``(hit_blocks, remote_tokens, transfer_s)``: the prefix
        blocks the caller may treat as cached, how many of those tokens
        were pulled over the wire, and the wire seconds to charge before
        the remaining prefill.  Identity (``local_blocks, 0, 0.0``) when
        no visible remote prefix extends the local one or recompute wins.
        """
        entry = self._published.get(session_id)
        if entry is None:
            return local_blocks, 0, 0.0
        replica, history_tokens, published_s = entry
        if replica == pool.replica or published_s > now:
            return local_blocks, 0, 0.0
        # Same cap as the local match: never share the final prompt token.
        cap = (prefill_tokens - 1) // self.block_size
        remote_blocks = min(history_tokens // self.block_size, cap)
        if remote_blocks <= local_blocks:
            return local_blocks, 0, 0.0
        extra_tokens = (remote_blocks - local_blocks) * self.block_size
        # The payload is a resident prefix, not bare KV: the pulled range
        # arrives with the context-invariant state snapshot that lets the
        # destination resume from it, so it is priced at reserved_bytes.
        transfer_s = self.cost.transfer_seconds(
            self.memory.reserved_bytes(extra_tokens)
        )
        recompute_s = self.cost.chunk_prefill_seconds(
            1, local_blocks * self.block_size, remote_blocks * self.block_size
        )
        if transfer_s >= recompute_s:
            self.recomputes += 1
            return local_blocks, 0, 0.0
        # Materialize the pulled range into the destination cache; the
        # caller pins it immediately, so the pool's own trim cannot
        # reclaim it before the allocation lands.
        pool.cache.publish(session_id, remote_blocks * self.block_size)
        self.transfers += 1
        return remote_blocks, extra_tokens, transfer_s
