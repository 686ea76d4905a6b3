"""Exact, factored, fleet-shared pricing.

:meth:`~repro.serving.costs.IterationCostModel.decode_seconds` prices a
decode point through :meth:`~repro.perf.system.ServingSystem.step_seconds`
(context-free terms kept per batch, PIM attention timings kept per DRAM
row signature) and keeps the result in a table the whole fleet shares.
When PIM runs attention, a point whose ``(batch, signature)`` was priced
before costs one more lookup in a second shared table instead of a
``step_seconds`` call.  None of that may change a price: every point
must equal ``step_latency(spec, batch, seq_len).total`` from a freshly
built system, compared with ``==``, in any pricing order.  The
accelerator's signature must be what the layouts give.  And the sharing
must reach exactly as far as one system object: every replica, router
estimate and tier of a fleet, never a second system.
"""

import collections
import dataclasses
import math
import random

import pytest

from repro.core import accelerator
from repro.core.config import pimba_config
from repro.core.layout import BankAssignment, kv_layout_for
from repro.core.scheduler import attention_subchunks_per_row
from repro.models import spec_for
from repro.models.registry import MODEL_NAMES
from repro.perf.system import ServingSystem, SystemKind, build_system
from repro.serving import build_cluster
from repro.serving.costs import IterationCostModel

#: non-powers of two included; 129 is one past the largest power
BATCHES = (1, 3, 8, 31, 64, 100, 129)
#: DRAM row counts whose first context (and its neighbours) is priced
ROW_COUNTS = (2, 3, 5, 9, 33, 257, 1025)
#: the longest context priced
MAX_CONTEXT = 8_193
#: the systems that run attention on PIM
PIM_KINDS = (SystemKind.GPU_PIM, SystemKind.PIMBA, SystemKind.NEUPIMS)


def _first_context_with_rows(config, dim: int, rows: int) -> int | None:
    """The shortest context whose ``dim``-wide cache fills ``rows`` rows."""

    def rows_at(seq_len):
        return kv_layout_for(config, dim, seq_len).rows_per_cache

    if rows_at(MAX_CONTEXT) < rows:
        return None
    lo, hi = 1, MAX_CONTEXT
    while lo < hi:
        mid = (lo + hi) // 2
        if rows_at(mid) >= rows:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _contexts(system: ServingSystem, spec) -> list[int]:
    """0-69, row boundaries +-1 of the K and V caches, and MAX_CONTEXT."""
    config = system.pim.config if system.pim is not None else pimba_config()
    contexts = set(range(70)) | {MAX_CONTEXT}
    for dim in (spec.dim_head, spec.dim_state):
        for rows in ROW_COUNTS:
            first = _first_context_with_rows(config, dim, rows)
            if first is not None:
                contexts |= {first - 1, first, first + 1}
    return sorted(c for c in contexts if 0 <= c <= MAX_CONTEXT)


class TestExactPricing:
    @pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("scale", ["small", "large"])
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_decode_price_is_the_step_total_bit_for_bit(self, model, scale, kind):
        spec = spec_for(model, scale)
        system = build_system(kind, scale)
        cost = IterationCostModel(system, spec)
        # One warm cost model prices the grid in a shuffled order, so
        # signature hits come before and after misses, across batches.
        points = [(b, s) for b in BATCHES for s in _contexts(system, spec)]
        random.Random(0).shuffle(points)
        mismatches = []
        for batch, seq_len in points:
            got = cost.decode_seconds(batch, seq_len)
            fresh = build_system(kind, scale)  # no table or row memo is warm
            want = fresh.step_latency(spec, batch, seq_len).total
            if got != want:
                mismatches.append((batch, seq_len, got.hex(), want.hex()))
        assert mismatches == []

    @pytest.mark.parametrize("kind", PIM_KINDS, ids=lambda k: k.value)
    def test_attention_records_are_exact_across_head_counts(self, kind):
        # Around multiples of the bank count, head counts can share rows
        # and heads per bank but not caches per bank.
        spec = spec_for("Zamba2")
        warm = build_system(kind).pim
        hbm = warm.config.hbm
        banks = hbm.pseudo_channels * hbm.organization.banks
        heads = sorted({0, 1} | {m * banks + d for m in (1, 2, 3) for d in (-1, 0, 1)})
        mismatches = []
        for seq_len in (0, 1, 64, 65, 1024, MAX_CONTEXT):
            for h in heads:
                args = (h, spec.dim_head, seq_len, spec.dim_state)
                got = warm.attention_timing(*args)
                if got != build_system(kind).pim.attention_timing(*args):
                    mismatches.append(args)
        assert mismatches == []

    @pytest.mark.parametrize("kind", PIM_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("model", ["Zamba2", "OPT"])
    def test_the_signature_is_what_the_layouts_give(self, model, kind):
        # Zamba2's V vectors are wider than its K vectors; OPT's are not.
        spec = spec_for(model)
        system = build_system(kind)
        pim, config = system.pim, system.pim.config
        hbm = config.hbm
        assignment = BankAssignment(0, hbm.pseudo_channels, hbm.organization.banks)
        banks = assignment.total_banks
        heads = sorted({0, 1} | {m * banks + d for m in (1, 2, 3) for d in (-1, 0, 1)})
        mismatches = []
        for seq_len in _contexts(system, spec):
            layouts = [
                kv_layout_for(config, dim, seq_len)
                for dim in (spec.dim_head, spec.dim_state)
            ]
            for h in heads:
                want = [
                    max(1.0, h / banks) if h else 0.0,
                    dataclasses.replace(assignment, total_heads=h).heads_per_bank,
                ]
                for layout in layouts:
                    want += (
                        math.ceil(h * max(1, layout.rows_per_cache) / banks),
                        attention_subchunks_per_row(config, layout),
                        layout.subchunks_per_vector,
                        layout.dim_head,
                    )
                got = pim.attention_signature(h, spec.dim_head, seq_len, spec.dim_state)
                if got != tuple(want):
                    mismatches.append((h, seq_len, got, tuple(want)))
        assert mismatches == []
        assert pim.attention_signature(8, 64, 100) == pim.attention_signature(
            8, 64, 100, 64
        )

    def test_an_empty_context_is_its_own_point(self):
        # K and V vectors of one DRAM column each: the empty context
        # streams the sweeps of a one-token context, but its step has no
        # ATTENTION term, so the two must not share a step total.
        spec = dataclasses.replace(spec_for("Zamba2"), dim_head=16, dim_state=16)
        system = build_system(SystemKind.PIMBA)
        sweeps = system.pim.attention_signature
        assert sweeps(8, 16, 0) == sweeps(8, 16, 1)
        cost = IterationCostModel(system, spec)
        for seq_len in (1, 0, 2):
            fresh = build_system(SystemKind.PIMBA)
            want = fresh.step_latency(spec, 4, seq_len).total
            assert cost.decode_seconds(4, seq_len) == want

    def test_contexts_cross_row_boundaries(self):
        spec = spec_for("Zamba2")
        system = build_system(SystemKind.PIMBA)
        rows = {
            kv_layout_for(system.pim.config, spec.dim_head, s).rows_per_cache
            for s in _contexts(system, spec)
        }
        assert {1, 2, 3, 5, 9, 33, 257, 1025} <= rows

    def test_invalid_points_are_refused(self):
        system = build_system(SystemKind.PIMBA)
        spec = spec_for("Zamba2")
        with pytest.raises(ValueError):
            system.step_seconds(spec, 0, 16)
        with pytest.raises(ValueError):
            system.step_seconds(spec, 4, -1)
        # A negative context never reaches the step table, not even
        # after the empty context's signature is in it.
        for model in ("Zamba2", "Mamba-2"):
            cost = IterationCostModel(system, spec_for(model))
            cost.decode_seconds(4, 0)
            with pytest.raises(ValueError):
                cost.decode_seconds(4, -1)
        with pytest.raises(ValueError):
            system.pim.attention_signature(4, 64, -1)


@pytest.fixture
def counted(monkeypatch):
    """Cold pricing calls and PIM attention sweeps, counted by name."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("step_latency", "step_seconds", "prefill_latency"):
        monkeypatch.setattr(
            ServingSystem, name, counting(name, getattr(ServingSystem, name))
        )
    monkeypatch.setattr(
        accelerator,
        "schedule_attention_rows",
        counting("sweep", accelerator.schedule_attention_rows),
    )
    return counts


class TestSharedTables:
    def test_one_point_is_priced_once_per_fleet(self, counted):
        spec = spec_for("Zamba2")
        cluster = build_cluster(
            build_system(SystemKind.PIMBA),
            spec,
            n_replicas=4,
            router="cache-aware",
            scheduler="prefix",
            shared_tier=True,
        )
        mid_context = 1024 + 128 // 2
        first = cluster.replicas[0].cost
        decode = first.decode_seconds(1, mid_context)
        prefill = first.prefill_seconds(1, 1024)
        cold = {"step_seconds": 1, "prefill_latency": 1, "sweep": 2}
        assert counted == cold
        # Replica 3, the router's estimate for replica 3 and the tier's
        # cost model all hit the table replica 0 filled.
        assert cluster.replicas[3].cost.decode_seconds(1, mid_context) == decode
        estimate = cluster.router.prices[3].service(1024, 128)
        assert estimate == prefill + 128 * decode
        assert cluster.tier.cost.prefill_seconds(1, 1024) == prefill
        assert counted == cold

    def test_equal_specs_share_a_table_and_links_do_not_split_it(self, counted):
        system = build_system(SystemKind.PIMBA)
        a = IterationCostModel(system, spec_for("Zamba2"))
        b = IterationCostModel(system, spec_for("Zamba2"), link_gbps=400.0)
        assert a.decode_seconds(8, 512) == b.decode_seconds(8, 512)
        assert counted["step_seconds"] == 1
        IterationCostModel(system, spec_for("OPT")).decode_seconds(8, 512)
        assert counted["step_seconds"] == 2

    def test_a_fresh_system_starts_cold(self, counted):
        spec = spec_for("Zamba2")
        prices = []
        for _ in range(2):
            cost = IterationCostModel(build_system(SystemKind.PIMBA), spec)
            prices.append(cost.decode_seconds(8, 1024))
        assert prices[0] == prices[1]
        assert counted == {"step_seconds": 2, "sweep": 4}

    def test_contexts_in_one_row_share_one_sweep_pair(self, counted):
        spec = spec_for("Zamba2")
        system = build_system(SystemKind.PIMBA)
        cost = IterationCostModel(system, spec)
        config = system.pim.config

        def rows(seq_len):
            return kv_layout_for(config, spec.dim_head, seq_len).rows_per_cache

        same_row = [s for s in range(900, 1100) if rows(s) == rows(1024)]
        assert len(same_row) > 1
        for seq_len in same_row:
            cost.decode_seconds(8, seq_len)
        # One full pricing for the row; every other context is a lookup.
        assert counted == {"step_seconds": 1, "sweep": 2}

    def test_a_model_without_attention_prices_one_step_per_batch(self, counted):
        spec = spec_for("Mamba-2")
        assert spec.attention_layers == 0
        cost = IterationCostModel(build_system(SystemKind.PIMBA), spec)
        for batch in (1, 8):
            for seq_len in (0, 1, 100, 4096):
                cost.decode_seconds(batch, seq_len)
        assert counted == {"step_seconds": 2}

    def test_decode_pricing_never_builds_a_breakdown(self, counted):
        cost = IterationCostModel(build_system(SystemKind.GPU), spec_for("OPT"))
        for seq_len in (0, 1, 2048):
            cost.decode_seconds(4, seq_len)
        assert counted["step_latency"] == 0
        assert counted["step_seconds"] == 3
