"""Focused tests for the energy model internals and roofline helpers."""

import dataclasses

import numpy as np
import pytest

from repro.dram import DramEnergyParams
from repro.models import spec_for
from repro.perf.energy import CATEGORIES, EnergyBreakdown, EnergyModel
from repro.perf.gpu import GpuModel, a100
from repro.perf.operators import (
    OpCost,
    OpKind,
    arithmetic_intensity,
    generation_step_ops,
    ops_by_kind,
)
from repro.perf.roofline import roofline_points
from repro.perf.system import SystemKind, build_system


#: the Fig. 14 point the coefficient tests price: Zamba2-large on a DGX
BATCH, SEQ_LEN = 64, 2048


def _zamba2_op(kind, op_kind):
    """Zamba2-large's spec, ``kind``'s system, and the step's one op of
    ``op_kind``."""
    spec = spec_for("Zamba2", "large")
    system = build_system(kind, "large")
    (op,) = [
        op
        for op in generation_step_ops(
            spec, BATCH, SEQ_LEN, system.precision, tp_degree=system.n_devices
        )
        if op.kind is op_kind
    ]
    return spec, system, op


def _moved_by(system, spec, category, **raised):
    """Joules one category of a step moves by when DRAM coefficients are
    raised by the given amounts."""
    base = DramEnergyParams()
    higher = dataclasses.replace(
        base, **{name: getattr(base, name) + d for name, d in raised.items()}
    )

    def joules(dram):
        step = EnergyModel(system, dram=dram).step_energy(spec, BATCH, SEQ_LEN)
        return step.joules_by_category[category]

    return joules(higher) - joules(base)


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def breakdowns(self):
        spec = spec_for("Zamba2", "large")
        return {
            kind: EnergyModel(build_system(kind, "large")).step_energy(spec, 64, 2048)
            for kind in (SystemKind.GPU, SystemKind.PIMBA)
        }

    def test_all_categories_present(self, breakdowns):
        for bd in breakdowns.values():
            assert set(bd.joules_by_category) == set(CATEGORIES)

    def test_gemm_energy_identical_across_systems(self, breakdowns):
        gpu = breakdowns[SystemKind.GPU].joules_by_category["GEMM"]
        pimba = breakdowns[SystemKind.PIMBA].joules_by_category["GEMM"]
        assert pimba == pytest.approx(gpu, rel=0.01)

    def test_pimba_state_io_much_lower(self, breakdowns):
        gpu = breakdowns[SystemKind.GPU].joules_by_category["State Update (I/O)"]
        pimba = breakdowns[SystemKind.PIMBA].joules_by_category["State Update (I/O)"]
        # MX8 halves array bits and the channel crossing disappears.
        assert pimba < gpu / 4

    @pytest.mark.parametrize("kind", [SystemKind.GPU, SystemKind.PIMBA])
    def test_channel_io_is_charged_on_crossing_bytes_only(self, kind):
        """Fig. 14's mechanism: the channel-I/O coefficient is paid on the
        bytes that cross the channel.  On the GPU that is the whole
        STATE_UPDATE op; on Pimba the state stays in the banks, and only
        the d, q, k and v operands cross."""
        spec, system, op = _zamba2_op(kind, OpKind.STATE_UPDATE)
        operand_bytes = (
            spec.state_update_layers
            * BATCH
            * spec.n_heads
            / system.n_devices
            * (3 * spec.dim_head + spec.dim_state)
            * system.precision.act_bytes
        )
        crossing = operand_bytes if kind is SystemKind.PIMBA else op.bytes
        moved = _moved_by(system, spec, "State Update (I/O)", io_pj_per_bit=0.5)
        assert moved == pytest.approx(
            0.5 * 8e-12 * system.n_devices * crossing, rel=1e-9
        )

    @pytest.mark.parametrize("kind", [SystemKind.GPU, SystemKind.PIMBA])
    def test_attention_io_is_charged_on_crossing_bytes_only(self, kind):
        """The same for attention: on Pimba the KV cache stays in the banks
        and only one 2-byte score per cached position crosses."""
        spec, system, op = _zamba2_op(kind, OpKind.ATTENTION)
        score_bytes = (
            spec.attention_layers * BATCH * spec.n_heads / system.n_devices
            * SEQ_LEN * 2.0
        )
        crossing = score_bytes if kind is SystemKind.PIMBA else op.bytes
        moved = _moved_by(system, spec, "Attention (I/O)", io_pj_per_bit=0.5)
        assert moved == pytest.approx(
            0.5 * 8e-12 * system.n_devices * crossing, rel=1e-9
        )

    @pytest.mark.parametrize("kind", [SystemKind.GPU, SystemKind.PIMBA])
    def test_array_energy_is_paid_on_every_swept_byte(self, kind):
        """In the banks or across the channel, the whole state is read and
        written in the DRAM array: the array coefficient is paid on the
        whole STATE_UPDATE op on both systems (MX8 makes Pimba's smaller)."""
        spec, system, op = _zamba2_op(kind, OpKind.STATE_UPDATE)
        moved = _moved_by(system, spec, "State Update (I/O)", array_pj_per_bit=0.5)
        assert moved == pytest.approx(
            0.5 * 8e-12 * system.n_devices * op.bytes, rel=1e-9
        )
        # and nothing else: compute is priced by the GPU or the SPU
        assert _moved_by(
            system, spec, "State Update (Compute)", array_pj_per_bit=0.5
        ) == 0.0

    def test_breakdown_totals_its_categories(self):
        bd = EnergyBreakdown({"GEMM": 1.0, "Others": 3.0})
        assert bd.total == 4.0
        assert bd.fraction("GEMM") == 0.25
        assert bd.fraction("Attention (I/O)") == 0.0
        idle = EnergyBreakdown({c: 0.0 for c in CATEGORIES})
        assert idle.total == 0.0
        assert idle.fraction("GEMM") == 0.0

    def test_fractions_sum_to_one(self, breakdowns):
        bd = breakdowns[SystemKind.GPU]
        total = sum(bd.fraction(c) for c in CATEGORIES)
        assert total == pytest.approx(1.0)

    def test_custom_coefficients_scale(self):
        spec = spec_for("RetNet", "large")
        sys = build_system(SystemKind.GPU, "large")
        low = EnergyModel(sys, host_pj_per_bit=0.0).step_energy(spec, 64, 2048)
        high = EnergyModel(sys, host_pj_per_bit=10.0).step_energy(spec, 64, 2048)
        assert high.total > low.total


class TestRooflineHelpers:
    def test_intensity_of_zero_bytes_is_inf(self):
        op = OpCost(OpKind.GEMM, flops=10.0, bytes=0.0)
        assert arithmetic_intensity(op) == float("inf")

    def test_points_skip_communication(self):
        points = roofline_points(spec_for("RetNet", "large"), 32, 1024)
        assert OpKind.COMMUNICATION not in points

    def test_attained_never_exceeds_peak(self):
        gpu = GpuModel(a100())
        points = roofline_points(spec_for("OPT"), 128, 2048)
        for p in points.values():
            assert p.attained_flops <= gpu.spec.peak_fp16_flops

    def test_ops_by_kind_merges(self):
        ops = [OpCost(OpKind.GEMM, 1, 2), OpCost(OpKind.GEMM, 3, 4, 5)]
        merged = ops_by_kind(ops)
        assert merged[OpKind.GEMM].flops == 4
        assert merged[OpKind.GEMM].bytes == 6
        assert merged[OpKind.GEMM].comm_bytes == 5

    def test_op_scaled(self):
        op = OpCost(OpKind.OTHER, 2, 4, 6).scaled(0.5)
        assert (op.flops, op.bytes, op.comm_bytes) == (1, 2, 3)


class TestSystemEdgeCases:
    def test_zero_seq_len_transformer_has_no_attention(self):
        sys = build_system(SystemKind.GPU, "small")
        step = sys.step_latency(spec_for("OPT"), 8, 0)
        assert OpKind.ATTENTION not in step.seconds_by_kind

    def test_placements_recorded(self):
        sys = build_system(SystemKind.PIMBA, "large")
        step = sys.step_latency(spec_for("Zamba2", "large"), 16, 1024)
        assert step.placements[OpKind.STATE_UPDATE] == "PIM"
        assert step.placements[OpKind.ATTENTION] == "PIM"
        assert step.placements[OpKind.GEMM] == "A100"

    def test_neupims_offloads_only_attention(self):
        sys = build_system(SystemKind.NEUPIMS, "large")
        step = sys.step_latency(spec_for("Zamba2", "large"), 16, 1024)
        assert step.placements[OpKind.ATTENTION] == "PIM"
        assert step.placements[OpKind.STATE_UPDATE] == "A100"

    def test_prefill_scales_with_input_len(self):
        sys = build_system(SystemKind.GPU, "small")
        spec = spec_for("Mamba-2")
        short = sys.prefill_latency(spec, 8, 512)
        long = sys.prefill_latency(spec, 8, 2048)
        assert long == pytest.approx(4 * short, rel=0.01)

    def test_throughput_metric_consistency(self):
        sys = build_system(SystemKind.PIMBA, "small")
        m = sys.generation_metrics(spec_for("GLA"), 32, 1024, 256)
        assert m.tokens_per_second == pytest.approx(
            32 * 256 / m.decode_seconds
        )
