"""The block-level prefix cache: the oracle of the run-length one.

:class:`BlockPrefixCache` keeps one dict entry per cached block, keyed
``(session_id, block_index)``, with its refcount, and an insertion-ordered
dict of the unreferenced ones as the LRU.  Every event walks the blocks it
touches.  :class:`~repro.serving.memory.PrefixCache` keeps the same cache
as pinned prefix lengths and LRU runs; :func:`expand` writes either out
block by block, so the tests can hold the two to the same LRU order and
refcounts after every event.
"""

import itertools


class BlockPrefixCache:
    """Refcounted cache of published session-prefix blocks, block by block.

    The same contract as :class:`~repro.serving.memory.PrefixCache`:
    only full blocks are published, :meth:`match` is contiguous from
    block 0 and leaves at least one token to compute, pinned blocks are
    never evicted, and unreferenced blocks are reclaimed oldest-first.
    """

    def __init__(self, memory, block_size: int):
        self.memory = memory
        self.block_size = block_size
        self.block_bytes = memory.kv_bytes(block_size)
        #: (session_id, block_index) -> live references
        self._refs: dict[tuple[int, int], int] = {}
        #: refcount-0 entries in eviction order, oldest first
        self._lru: dict[tuple[int, int], None] = {}
        #: block keys each resident request currently pins
        self._holders: dict[int, list[tuple[int, int]]] = {}
        self.hit_tokens = 0
        self.miss_tokens = 0
        self.evictions = 0

    @property
    def n_blocks(self) -> int:
        return len(self._refs)

    @property
    def pinned_blocks(self) -> int:
        return len(self._refs) - len(self._lru)

    @property
    def cached_blocks(self) -> int:
        return len(self._lru)

    @property
    def pinned_bytes(self) -> float:
        return self.pinned_blocks * self.block_bytes

    @property
    def cached_bytes(self) -> float:
        return self.cached_blocks * self.block_bytes

    def match(self, session_id: int, prefill_tokens: int) -> int:
        cap = (prefill_tokens - 1) // self.block_size
        n = 0
        while n < cap and (session_id, n) in self._refs:
            n += 1
        return n

    def acquire(self, request_id: int, session_id: int, n_blocks: int) -> None:
        if n_blocks == 0:
            return
        keys = [(session_id, i) for i in range(n_blocks)]
        for key in keys:
            if self._refs[key] == 0:
                del self._lru[key]
            self._refs[key] += 1
        self._holders[request_id] = keys

    def release(self, request_id: int) -> None:
        for key in self._holders.pop(request_id, ()):
            self._refs[key] -= 1
            if self._refs[key] == 0:
                self._lru[key] = None

    def publish(self, session_id: int, history_tokens: int) -> None:
        refs, lru = self._refs, self._lru
        for i in range(history_tokens // self.block_size):
            key = (session_id, i)
            count = refs.get(key)
            if count is None:
                refs[key] = 0
                lru[key] = None
            elif count == 0:
                del lru[key]
                lru[key] = None

    def evict_lru(self) -> bool:
        if not self._lru:
            return False
        key = next(iter(self._lru))
        del self._lru[key]
        del self._refs[key]
        self.evictions += 1
        return True

    def evict(self, n_blocks: int) -> None:
        lru, refs = self._lru, self._refs
        for key in list(itertools.islice(lru, n_blocks)):
            del lru[key]
            del refs[key]
        self.evictions += n_blocks


def expand(cache) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """A cache's LRU order and refcounts, block by block.

    ``(lru, refs)``: the unreferenced ``(session_id, block_index)`` keys,
    oldest first, and every cached key's live references.  A run-length
    cache's LRU runs expand in order, and block ``i`` of a session is
    referenced by each of the session's pins longer than ``i``.
    """
    if isinstance(cache, BlockPrefixCache):
        return list(cache._lru), dict(cache._refs)
    lru = [(s, i) for s, lo, hi in cache._lru for i in range(lo, hi)]
    refs = dict.fromkeys(lru, 0)
    for s, pins in cache._pins.items():
        for i in range(max(pins)):
            refs[s, i] = sum(pin > i for pin in pins)
    return lru, refs
