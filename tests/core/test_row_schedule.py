"""The closed-form row schedule held to the Table 1 rules (Section 5.5).

Every PIM cycle comes from ``core/scheduler.py``'s closed form of the
per-row command schedule (Fig. 11).  These tests check each phase of a
row against the DRAM timing rule that sets it: the ACT4 trains against
tFAW and tRCD, the COMP cadence against tCCD_L, the PRECHARGES window
against tRP and tRAS, and the REG_WRITE/RESULT_READ bursts against tBL.
``TestKnownGaps`` pins, in cycles, the rules the closed form is known to
break; the change that closes them turns those pins into bounds.
"""

import dataclasses
import math

import pytest

from repro.core.config import (
    PimDesign,
    hbm_pim_config,
    per_bank_pipelined_config,
    pimba_config,
)
from repro.core.layout import kv_layout_for, state_layout_for
from repro.core.scheduler import (
    SweepTiming,
    attention_subchunks_per_row,
    comps_per_subchunk,
    schedule_attention_rows,
    schedule_attention_sweep,
    schedule_state_update_rows,
    schedule_state_update_sweep,
)
from repro.dram.timing import HbmOrganization
from repro.models import MODEL_NAMES, spec_for

DESIGNS = {
    "pimba": pimba_config,
    "hbm_pim": hbm_pim_config,
    "per_bank": per_bank_pipelined_config,
}


def _config(design="pimba", organization=None, **timing):
    """A design's config with Table 1 timing or organization overridden."""
    config = DESIGNS[design]()
    hbm = config.hbm
    if timing:
        hbm = dataclasses.replace(
            hbm, timing=dataclasses.replace(hbm.timing, **timing)
        )
    if organization is not None:
        hbm = dataclasses.replace(hbm, organization=organization)
    return dataclasses.replace(config, hbm=hbm)


def _state_update(config, dim_head=64, dim_state=64, heads=1):
    layout = state_layout_for(config, dim_head, dim_state)
    return schedule_state_update_sweep(config, layout, heads)


def _attention(config, phase="score", dim_head=128, seq_len=2048, caches=1):
    layout = kv_layout_for(config, dim_head, seq_len)
    return schedule_attention_sweep(config, layout, caches, phase)


SWEEPS = {
    "state_update": _state_update,
    "score": lambda config: _attention(config, "score"),
    "attend": lambda config: _attention(config, "attend"),
}


def _scaled(sweep: SweepTiming, factor: int) -> SweepTiming:
    fields = dataclasses.asdict(sweep)
    return SweepTiming(**{name: value * factor for name, value in fields.items()})


def _per_row(sweep: SweepTiming) -> SweepTiming:
    """One row of a sweep whose rows are all alike."""
    assert sweep.rows > 0
    fields = dataclasses.asdict(sweep)
    for name, value in fields.items():
        assert value % sweep.rows == 0, name
    return SweepTiming(**{name: value // sweep.rows for name, value in fields.items()})


def _act_phase(config) -> int:
    """ACT4 trains tFAW apart, then tRCD before the first COMP."""
    t, org = config.hbm.timing, config.hbm.organization
    return (math.ceil(org.banks / 4) - 1) * t.tFAW + t.tRCD


class TestActivation:
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_every_row_opens_with_one_activation_phase(self, kind):
        # A sweep starts with every bank closed, and each row closes
        # before the next opens: one full activation phase per row.
        for design in DESIGNS:
            config = _config(design)
            sweep = SWEEPS[kind](config)
            assert sweep.rows > 1
            assert sweep.act_cycles == sweep.rows * _act_phase(config)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_first_comp_waits_trcd_after_last_act4(self, design):
        base = _per_row(_state_update(_config(design)))
        later = _per_row(_state_update(_config(design, tRCD=14 + 5)))
        assert later.act_cycles == base.act_cycles + 5
        assert later.bus_cycles == base.bus_cycles + 5
        assert later.comp_cycles == base.comp_cycles

    def test_first_comp_issues_at_trcd_without_slack(self):
        # Table 1: three tFAW gaps between four ACT4s, then tRCD; 32
        # sub-chunks of two COMPs at tCCD_L; tRP.  Nothing else on a row
        # whose operand I/O hides in the shadows.
        row = _per_row(_state_update(pimba_config()))
        assert row.exposed_io_cycles == 0
        assert row.act_cycles == 3 * 30 + 14 == 104
        assert row.bus_cycles == 104 + 64 * 4 + 14 == 374

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_act4_trains_are_spaced_tfaw(self, design):
        base = _per_row(_state_update(_config(design)))
        wider = _per_row(_state_update(_config(design, tFAW=30 + 6)))
        # Sixteen banks take four ACT4s: three tFAW gaps per row.
        assert wider.act_cycles == base.act_cycles + 3 * 6
        assert wider.bus_cycles == base.bus_cycles + 3 * 6

    def test_sixteen_banks_take_four_act4_trains(self):
        assert HbmOrganization().banks == 16
        for design in DESIGNS:
            config = _config(design)
            t = config.hbm.timing
            row = _per_row(_state_update(config))
            assert row.act_cycles == 3 * t.tFAW + t.tRCD

    def test_four_banks_take_one_act4_and_no_tfaw(self):
        four = HbmOrganization(bank_groups=1)
        assert four.banks == 4
        short = _state_update(_config(organization=four, tFAW=30))
        long = _state_update(_config(organization=four, tFAW=300))
        assert short == long
        assert _per_row(short).act_cycles == 14

    def test_partial_act4_train_still_waits_tfaw(self):
        # Five banks need a second ACT4, which waits out the window just
        # as the eighth bank's does.
        for banks in (5, 8):
            org = HbmOrganization(banks_per_group=banks, bank_groups=1)
            row = _per_row(_state_update(_config(organization=org)))
            assert row.act_cycles == 30 + 14

    def test_trrd_never_delays_act4_trains(self):
        # ACT4 trains are tFAW apart, which any tRRD up to tFAW allows.
        for design in DESIGNS:
            for kind, sweep in SWEEPS.items():
                base = sweep(_config(design))
                assert sweep(_config(design, tRRD=30)) == base, (design, kind)

    def test_bank_grouping_does_not_change_the_row(self):
        # All-bank commands open every bank at once: only the bank count
        # sets the ACT4 trains, not how the banks form groups.
        for design in DESIGNS:
            rows = set()
            for per_group in (2, 4, 8):
                org = HbmOrganization(per_group, bank_groups=16 // per_group)
                rows.add(_state_update(_config(design, organization=org)))
            assert len(rows) == 1, design


class TestComp:
    @pytest.mark.parametrize("kind", ["state_update", "attention"])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_comps_issue_every_tccd_l(self, design, kind):
        config = _config(design)
        writes = kind == "state_update"
        if writes:
            layout = state_layout_for(config, 64, 64)
            sweep = schedule_state_update_sweep
        else:
            layout = kv_layout_for(config, 128, 2048)
            sweep = schedule_attention_sweep
        # either way a full row: all 32 of its columns
        comps = 32 * comps_per_subchunk(config, needs_write=writes)
        row = _per_row(sweep(config, layout, 1))
        assert row.comp_cycles == comps * 4
        slower = _config(design, tCCD_L=5)
        assert _per_row(sweep(slower, layout, 1)).comp_cycles == comps * 5

    def test_tccd_s_never_spaces_comps(self):
        # An all-bank COMP reaches every bank; the next one reaches the
        # same banks, so it is always same-bank-group and waits tCCD_L.
        for design in DESIGNS:
            for kind, sweep in SWEEPS.items():
                base = sweep(_config(design))
                for tccd_s in (1, 4):
                    same = sweep(_config(design, tCCD_S=tccd_s))
                    assert same == base, (design, kind, tccd_s)

    def test_state_update_rows_pay_a_write_slot_per_subchunk(self):
        # A full state-update row and a full attention row both cover the
        # row's 32 columns; the state update also writes each one back.
        ratios = {}
        for design in DESIGNS:
            config = _config(design)
            state = _per_row(_state_update(config))
            attention = _per_row(_attention(config))
            ratios[design] = state.comp_cycles / attention.comp_cycles
            writing = comps_per_subchunk(config, needs_write=True)
            reading = comps_per_subchunk(config, needs_write=False)
            assert ratios[design] == writing / reading
        # The per-bank unit reads, then writes: two slots for one.  Pimba
        # pays two slots either way; HBM-PIM six passes for one.
        assert ratios == {"per_bank": 2.0, "pimba": 1.0, "hbm_pim": 6.0}

    def test_attention_row_never_exceeds_row_width(self):
        for design in DESIGNS:
            config = _config(design)
            columns = config.hbm.organization.columns_per_row
            per_column = comps_per_subchunk(config, needs_write=False)
            for seq_len in (1, 3, 16, 17, 1000, 4096):
                layout = kv_layout_for(config, 128, seq_len)
                subchunks = attention_subchunks_per_row(config, layout)
                assert subchunks == min(columns, layout.subchunks_per_pass)
                row = _per_row(_attention(config, seq_len=seq_len))
                assert row.comp_cycles <= columns * per_column * 4


class TestPrecharge:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_next_row_waits_trp_after_precharges(self, design):
        base = _per_row(_state_update(_config(design)))
        slower = _per_row(_state_update(_config(design, tRP=14 + 3)))
        assert slower.precharge_cycles == base.precharge_cycles + 3
        assert slower.bus_cycles == base.bus_cycles + 3

    def test_every_row_pays_one_precharge_window(self):
        for design in DESIGNS:
            config = _config(design)
            for kind, sweep in SWEEPS.items():
                timing = sweep(config)
                assert timing.precharge_cycles == timing.rows * 14, (design, kind)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_tras_holds_on_every_modelled_row(self, design):
        # The last ACT4 train's banks open tRCD before the first COMP and
        # close with PRECHARGES after the last: tRCD + the COMP phase must
        # cover tRAS.  A one-position cache has the fewest COMPs per row.
        config = _config(design)
        t = config.hbm.timing
        checked = 0
        for name in MODEL_NAMES:
            for scale in ("small", "large"):
                spec = spec_for(name, scale)
                sweeps = []
                if spec.state_update_layers:
                    dims = (spec.dim_head, spec.dim_state)
                    sweeps.append(_state_update(config, *dims))
                if spec.attention_layers:
                    for dim in (spec.dim_head, spec.dim_state):
                        for phase in ("score", "attend"):
                            for seq_len in (1, 2048):
                                sweep = _attention(config, phase, dim, seq_len)
                                sweeps.append(sweep)
                for sweep in sweeps:
                    row = _per_row(sweep)
                    assert t.tRCD + row.comp_cycles >= t.tRAS, (name, scale)
                    checked += 1
        # five specs with state updates, two with attention, at two scales
        assert checked == 2 * (5 + 2 * 8)


class TestKnownGaps:
    @pytest.mark.parametrize(
        "design, row_cycles, share",
        [
            ("pimba", 374, 0.0374),
            ("per_bank", 374, 0.0374),
            ("hbm_pim", 1654, 0.0085),
        ],
    )
    def test_state_update_precharge_is_14_cycles_before_write_recovery(
        self, design, row_cycles, share
    ):
        config = _config(design)
        t = config.hbm.timing
        row = _per_row(_state_update(config))
        # PRECHARGES follow the last COMP, a write-back, by one tCCD_L.
        assert row.act_cycles + row.comp_cycles + row.precharge_cycles == row_cycles
        assert row.precharge_cycles == t.tRP
        # A precharge must wait tBL + tWR after a write; the closed form
        # does not read tWR at all.
        assert _state_update(_config(design, tWR=40)) == _state_update(config)
        shortfall = t.tBL + t.tWR - t.tCCD_L
        assert shortfall == 14
        assert shortfall / row_cycles == pytest.approx(share, abs=1e-4)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_attention_precharge_is_2_cycles_before_trtp_l(self, design):
        config = _config(design)
        t = config.hbm.timing
        # PRECHARGES follow the last COMP, a read, by one tCCD_L, where a
        # same-group read must wait tRTP_L; the closed form reads neither
        # tRTP_L nor tRTP_S.
        later = _config(design, tRTP_L=20, tRTP_S=20)
        for phase in ("score", "attend"):
            assert _attention(later, phase) == _attention(config, phase)
        assert t.tRTP_L - t.tCCD_L == 2

    def test_a_one_position_dim_64_cache_precharges_before_tras(self):
        # Below five COMPs a row closes early: one cached position at
        # dim_head 64 is two MX8 columns (two COMP slots each on Pimba),
        # or four fp16 columns (one slot each on the per-bank unit).
        short = {}
        for design in DESIGNS:
            config = _config(design)
            t = config.hbm.timing
            row = _per_row(_attention(config, "score", dim_head=64, seq_len=1))
            short[design] = t.tRAS - (t.tRCD + row.comp_cycles)
        assert short == {"pimba": 4, "per_bank": 4, "hbm_pim": -12}


class TestIo:
    def test_io_crosses_the_bus_at_one_column_per_tbl(self):
        # HBM-PIM exposes all of it.  Scoring one fp16 position at
        # dim_head 128: 128 query values per bank in (16 x 256 B = 128
        # columns), one score per bank out (16 x 2 B = 1 column).
        config = hbm_pim_config()
        row = _per_row(_attention(config, "score", dim_head=128, seq_len=1))
        assert row.hidden_io_cycles == 0
        assert row.exposed_io_cycles == (128 + 1) * config.hbm.timing.tBL
        slower = _config("hbm_pim", tBL=4)
        row = _per_row(_attention(slower, "score", dim_head=128, seq_len=1))
        assert row.exposed_io_cycles == (128 + 1) * 4

    def test_a_partial_column_takes_a_whole_burst(self):
        # One cache over three rows: each row carries a third of the
        # 4,096-byte query, 1,365.3 bytes, which takes 43 bursts, not 42.7;
        # each row's four positions drain 16 x 8 B = 4 columns.
        config = hbm_pim_config()
        layout = kv_layout_for(config, 128, 12)
        assert layout.rows_per_cache == 3
        sweep = schedule_attention_rows(config, layout, 3, 1.0, "score")
        assert _per_row(sweep).exposed_io_cycles == (43 + 4) * 2

    def test_reg_write_hides_in_the_act4_gaps(self):
        # Three gaps of tFAW - tBL = 84 cycles hold 42 bursts: 1,344 B,
        # 84 one-byte MX8 query values per bank.  One more spills a burst.
        config = pimba_config()
        assert config.state_bits_per_value == 8
        fits = _per_row(_attention(config, "score", dim_head=84, seq_len=1))
        spills = _per_row(_attention(config, "score", dim_head=85, seq_len=1))
        assert fits.exposed_io_cycles == 0
        assert fits.hidden_io_cycles == 84 + 2  # the query, then one score
        assert spills.exposed_io_cycles == 2
        assert spills.hidden_io_cycles == 84 + 2

    def test_result_read_hides_under_precharges_and_the_next_act4_trains(self):
        # tRP + the activation phase = 14 + 104 = 118 cycles hold 59
        # bursts: 1,888 B, 59 two-byte outputs per bank.  One more spills.
        config = pimba_config()
        fits = _per_row(_attention(config, "attend", dim_head=59, seq_len=1))
        spills = _per_row(_attention(config, "attend", dim_head=60, seq_len=1))
        assert fits.exposed_io_cycles == 0
        assert fits.hidden_io_cycles == 2 + 118  # one score in, the output
        assert spills.exposed_io_cycles == 2
        assert spills.hidden_io_cycles == 2 + 118

    def test_time_multiplexed_design_exposes_all_io(self):
        # Same format, same bytes: without Fig. 11's overlap every burst
        # Pimba hides is exposed.
        pimba = pimba_config()
        serial = pimba_config(design=PimDesign.TIME_MULTIPLEXED)
        for phase in ("score", "attend"):
            for dim_head, seq_len in ((64, 1), (128, 2), (128, 2048)):
                a = _per_row(_attention(pimba, phase, dim_head, seq_len))
                b = _per_row(_attention(serial, phase, dim_head, seq_len))
                assert b.hidden_io_cycles == 0
                io = a.exposed_io_cycles + a.hidden_io_cycles
                assert b.exposed_io_cycles == io


class TestRowTotals:
    def test_no_rows_issue_nothing(self):
        for design in DESIGNS:
            config = _config(design)
            for sweep in (
                _state_update(config, heads=0),
                _attention(config, "score", caches=0),
                _attention(config, "attend", caches=0),
            ):
                assert sweep == SweepTiming(0, 0, 0, 0, 0, 0, 0)
                assert sweep.efficiency == 1.0

    def test_rows_run_back_to_back_without_overlap(self):
        # A row's ACT4s wait for the previous row's PRECHARGES: rows add,
        # whether they hold one head's chunks or several.
        for design in DESIGNS:
            config = _config(design)
            layout = state_layout_for(config, 64, 64)
            one = schedule_state_update_rows(config, layout, 1, 1.0)
            many = schedule_state_update_rows(config, layout, 7, 7.0)
            assert many == _scaled(one, 7)

    def test_negative_row_count_rejected(self):
        config = pimba_config()
        state = state_layout_for(config, 64, 64)
        with pytest.raises(ValueError):
            schedule_state_update_rows(config, state, -1)
        cache = kv_layout_for(config, 64, 16)
        with pytest.raises(ValueError):
            schedule_attention_rows(config, cache, -1, 1.0)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_row_is_the_sum_of_its_phases(self, design):
        config = _config(design)
        sweeps = [sweep(config) for sweep in SWEEPS.values()]
        sweeps.append(_state_update(config, 64, 16))
        sweeps.append(_attention(config, "attend", 64, 1))
        for sweep in sweeps:
            phases = sweep.act_cycles + sweep.comp_cycles + sweep.precharge_cycles
            assert sweep.bus_cycles == phases + sweep.exposed_io_cycles
            assert 0.0 < sweep.efficiency < 1.0

    def test_sweeps_add_componentwise(self):
        config = pimba_config()
        a, b = _state_update(config), _attention(config)
        total = a + b
        for field in dataclasses.fields(SweepTiming):
            name = field.name
            assert getattr(total, name) == getattr(a, name) + getattr(b, name)
        # operands untouched
        assert a == _state_update(config)
