"""Built-in trial functions and sweeps for the paper's figures.

Every trial here is a pure function of JSON-scalar parameters returning a
JSON-serializable value, so the :class:`~repro.experiments.runner.Runner`
can cache it on disk and ship it to worker processes by name.  The sweep
builders declare the exact grids the figure scripts used to hand-roll;
``assemble`` helpers reshape a :class:`~repro.experiments.runner.RunReport`
into each figure's traditional data structure so the benchmark asserts stay
byte-for-byte compatible with the pre-engine path.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.perplexity import evaluate_perplexity
from repro.accuracy.synthetic_lm import SyntheticLm
from repro.core import (
    PimbaAccelerator,
    PimbaConfig,
    PimDesign,
    hbm_pim_config,
    per_bank_pipelined_config,
    pimba_config,
)
from repro.experiments.registry import sweep, trial
from repro.experiments.runner import RunReport
from repro.experiments.spec import ExperimentSpec
from repro.hw import (
    area_overhead_percent,
    format_overhead_percent,
    unit_area,
    unit_power,
)
from repro.models import MODEL_NAMES, Family, mamba2_2p7b, spec_for
from repro.perf import SystemKind, build_system
from repro.quant import FIG4_FORMATS
from repro.serving import experiments as _serving  # noqa: F401  (registers)

#: the four systems compared in Figs. 12/13 (NeuPIMs joins in Fig. 15)
FIG12_SYSTEMS = ("GPU", "GPU+Q", "GPU+PIM", "Pimba")

#: design-ablation variants: key -> (display label, config factory)
ABLATION_VARIANTS = {
    "pimba": (
        "pimba (mx8SR, shared, overlap)",
        lambda: pimba_config(),
    ),
    "fp16-state": (
        "- MX8 (fp16 state)",
        lambda: pimba_config(state_format="fp16"),
    ),
    "per-bank": (
        "- sharing (per-bank units)",
        lambda: per_bank_pipelined_config(state_format="mx8SR"),
    ),
    "hbm-pim": (
        "- overlap & pipeline (HBM-PIM)",
        lambda: hbm_pim_config(),
    ),
}

#: PIM design-space organizations: key -> PimbaConfig overrides
DESIGN_SPACE = {
    "time-mux/bank": dict(design=PimDesign.TIME_MULTIPLEXED, time_mux_sharing=1),
    "time-mux/2banks": dict(design=PimDesign.TIME_MULTIPLEXED, time_mux_sharing=2),
    "pipelined/bank": dict(design=PimDesign.PER_BANK_PIPELINED),
    "pimba shared SPU": dict(design=PimDesign.SHARED_PIPELINED),
}

#: unit designs priced in Table 3
TABLE3_DESIGNS = {
    "Pimba": pimba_config,
    "HBM-PIM": hbm_pim_config,
}


# ---------------------------------------------------------------------------
# trial functions
# ---------------------------------------------------------------------------


@trial("serving_throughput")
def serving_throughput(
    system: str,
    model: str,
    batch: int,
    scale: str = "small",
    input_len: int = 2048,
    output_len: int = 2048,
) -> dict:
    """One Fig. 12 point: serve ``model`` on ``system`` at one batch size.

    Prices the generation phase at the mid-generation context length (the
    Fig. 12 metric) and reports the full step breakdown alongside.
    """
    spec = spec_for(model, scale)
    serving = build_system(SystemKind(system), scale)
    metrics = serving.generation_metrics(spec, batch, input_len, output_len)
    return {
        "tokens_per_second": metrics.tokens_per_second,
        "decode_seconds": metrics.decode_seconds,
        "prefill_seconds": metrics.prefill_seconds,
        "step_total": metrics.step.total,
        "step_by_kind": {k.value: v for k, v in metrics.step.seconds_by_kind.items()},
        "placements": {k.value: v for k, v in metrics.step.placements.items()},
        "memory_bytes": metrics.memory_bytes_per_device,
    }


@trial("quant_ppl")
def quant_ppl(
    family: str,
    fmt: str,
    batch: int = 2,
    seq_len: int = 320,
    seed: int = 1,
    data_seed: int = 0,
) -> float:
    """Perplexity of one family under one state/KV storage format.

    ``fmt="fp64"`` evaluates the exact teacher.  Numbers are identical to
    :func:`repro.accuracy.quantization_sweep` for the same seeds — this is
    that sweep, split into cacheable per-format trials.
    """
    lm = SyntheticLm(Family(family), seed=seed)
    tokens = lm.sample_stream(batch, seq_len, np.random.default_rng(data_seed))
    model = lm.teacher if fmt == "fp64" else lm.build_student(fmt)
    return evaluate_perplexity(model, tokens, lm.temperature)


@trial("unit_area_power")
def unit_area_power(design: str) -> dict:
    """Table 3 row: area and power of one PIM processing-unit design."""
    cfg = TABLE3_DESIGNS[design]()
    ua = unit_area(cfg)
    return {
        "compute_mm2": ua.compute_mm2,
        "buffer_mm2": ua.buffer_mm2,
        "total_mm2": ua.total_mm2,
        "overhead_pct": area_overhead_percent(cfg),
        "power_mw": unit_power(cfg).milliwatts,
    }


@trial("design_ablation")
def design_ablation(variant: str, batch: int = 128) -> dict:
    """Ablation point: one design variant on the Mamba-2 2.7B state sweep."""
    spec = mamba2_2p7b()
    heads = batch * spec.n_heads
    cfg = ABLATION_VARIANTS[variant][1]()
    pim = PimbaAccelerator(cfg)
    timing = pim.state_update_timing(heads, spec.dim_head, spec.dim_state)
    io = timing.sweep.exposed_io_cycles / max(1, timing.sweep.bus_cycles) * 100
    return {
        "latency_us": timing.seconds * 1e6,
        "area_pct": area_overhead_percent(cfg),
        "exposed_io_pct": io,
    }


@trial("design_space_point")
def design_space_point(design: str, fmt: str, batch: int = 128) -> dict:
    """Design-space point: organization x storage format (Figs. 5/6 landscape)."""
    spec = mamba2_2p7b()
    heads = batch * spec.n_heads
    cfg = PimbaConfig(state_format=fmt, **DESIGN_SPACE[design])
    pim = PimbaAccelerator(cfg)
    timing = pim.state_update_timing(heads, spec.dim_head, spec.dim_state)
    rate = timing.sweep.rows * cfg.hbm.organization.columns_per_row / timing.seconds
    return {
        "subchunks_per_s": rate,
        "area_pct": area_overhead_percent(cfg),
        "unit_mw": unit_power(cfg).milliwatts,
    }


# ---------------------------------------------------------------------------
# sweeps + assemblers
# ---------------------------------------------------------------------------


@sweep("fig12")
def fig12_spec(smoke: bool = False) -> ExperimentSpec:
    """Fig. 12: normalized generation throughput across systems and scales."""
    return ExperimentSpec(
        name="fig12",
        trial_fn="serving_throughput",
        axes={
            "scale": ("small",) if smoke else ("small", "large"),
            "model": ("Mamba-2", "OPT") if smoke else MODEL_NAMES,
            "batch": (32,) if smoke else (32, 64, 128),
            "system": FIG12_SYSTEMS,
        },
    )


def fig12_assemble(report: RunReport) -> dict:
    """Reshape to ``{(scale, model, batch): {system: normalized tput}}``."""
    raw = report.mapping("scale", "model", "batch", "system")
    out: dict = {}
    for (scale, model, batch, system), value in raw.items():
        out.setdefault((scale, model, batch), {})[system] = value["tokens_per_second"]
    for point, by_system in out.items():
        base = by_system["GPU"]
        out[point] = {system: tput / base for system, tput in by_system.items()}
    return out


@sweep("fig06")
def fig06_spec(smoke: bool = False) -> ExperimentSpec:
    """Fig. 6: accuracy-area tradeoff of storage formats on Mamba-2."""
    formats = ("fp64", "fp16", "mx8", "mx8SR") if smoke else ("fp64",) + FIG4_FORMATS
    return ExperimentSpec(
        name="fig06",
        trial_fn="quant_ppl",
        axes={"fmt": formats},
        fixed={"family": Family.MAMBA2.value, "batch": 2, "seq_len": 320},
    )


def fig06_assemble(report: RunReport) -> tuple[dict, float]:
    """Reshape to ``({fmt: (area overhead %, ppl)}, fp64 reference ppl)``."""
    ppl = report.mapping("fmt")
    points = {
        fmt: (format_overhead_percent(fmt), value)
        for fmt, value in ppl.items()
        if fmt != "fp64"
    }
    return points, ppl["fp64"]


@sweep("table3")
def table3_spec(smoke: bool = False) -> ExperimentSpec:
    """Table 3: unit area and power of Pimba vs. HBM-PIM."""
    del smoke  # two cheap trials; nothing to trim
    return ExperimentSpec(
        name="table3",
        trial_fn="unit_area_power",
        axes={"design": tuple(TABLE3_DESIGNS)},
    )


def table3_assemble(report: RunReport) -> dict:
    """Reshape to ``{design: {metric: value}}`` in Table 3 row order."""
    return report.mapping("design")


@sweep("ablation")
def ablation_spec(smoke: bool = False) -> ExperimentSpec:
    """Design-choice ablation on the Mamba-2 2.7B state-update sweep."""
    variants = tuple(ABLATION_VARIANTS)
    return ExperimentSpec(
        name="ablation",
        trial_fn="design_ablation",
        axes={"variant": variants[:2] if smoke else variants},
        fixed={"batch": 128},
    )


def ablation_assemble(report: RunReport) -> list[list]:
    """Rows ``[label, latency us, area %, exposed I/O %]`` in variant order."""
    return [
        [
            ABLATION_VARIANTS[variant][0],
            value["latency_us"],
            value["area_pct"],
            value["exposed_io_pct"],
        ]
        for variant, value in report.mapping("variant").items()
    ]


@sweep("design-space")
def design_space_spec(smoke: bool = False) -> ExperimentSpec:
    """PIM organization x storage format landscape (examples/pim_design_space)."""
    designs = tuple(DESIGN_SPACE)
    return ExperimentSpec(
        name="design-space",
        trial_fn="design_space_point",
        axes={
            "design": designs[-1:] if smoke else designs,
            "fmt": ("fp16", "int8", "mx8SR"),
        },
        fixed={"batch": 128},
    )


@sweep("quant")
def quant_spec(smoke: bool = False, family: str = Family.GLA.value) -> ExperimentSpec:
    """Fig. 4-style format sweep for one model family."""
    formats = ("fp64", "mx8SR") if smoke else ("fp64",) + FIG4_FORMATS
    return ExperimentSpec(
        name=f"quant-{family}",
        trial_fn="quant_ppl",
        axes={"fmt": formats},
        fixed={"family": family, "batch": 2, "seq_len": 320},
    )
