"""The translation-design registry: golden identity, rivals, churn.

The contract (DESIGN.md section 12):

* the legacy ``accel=stlt`` / ``accel=none`` spellings build the
  ``stlt`` / ``baseline`` designs, pinned *bit-identical* to
  ``tests/data/golden_smoke.json``;
* every rival design (victima / pcax / revelator) is deterministic
  per seed, and every design is **oracle-clean under OS churn**: a
  stale translation is charged as a misspeculation or invalidated,
  never served;
* the design axis is validated, labelled, content-hashed, and every
  design carries a hardware-cost report.
"""

import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.accel import DESIGNS
from repro.errors import ConfigError
from repro.params import DEFAULT_MACHINE, SCALED_MACHINE
from repro.sim.config import FRONTENDS, RunConfig, config_hash
from repro.sim.engine import Engine, run_experiment

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / \
    "golden_smoke.json"
SMOKE = dict(num_keys=200, measure_ops=60, warmup_ops=120)
RIVALS = ("victima", "pcax", "revelator")
#: footprint past L2-TLB reach so every backend sees measured-window
#: STLB misses (at SMOKE scale the rivals are warmup-only)
BIG = dict(num_keys=20_000, measure_ops=600, warmup_ops=1_200)


def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenBitIdentity:
    """The legacy spelling: accel=stlt / accel=none vs. the golden run."""

    @pytest.mark.parametrize("program", ["unordered_map", "btree"])
    def test_accel_stlt_matches_golden_stlt(self, program):
        config = RunConfig(program=program, frontend="baseline",
                           accel="stlt", **SMOKE)
        result = run_experiment(config)
        want = golden()[f"{program}/stlt"]
        assert result.cycles == want["cycles"]
        assert result.ops == want["ops"]
        assert result.gets == want["gets"]
        assert result.sets == want["sets"]
        assert result.attr == want["attr"]
        assert result.fast_miss_rate == want["fast_miss_rate"]
        mem = asdict(result.mem)
        for counter, value in want["mem"].items():
            assert mem[counter] == value, (
                f"{program}: accel=stlt drifted on {counter}")

    @pytest.mark.parametrize("program", ["unordered_map", "btree"])
    def test_accel_none_matches_golden_baseline(self, program):
        config = RunConfig(program=program, frontend="baseline",
                           accel="none", **SMOKE)
        result = run_experiment(config)
        want = golden()[f"{program}/baseline"]
        assert result.cycles == want["cycles"]
        assert result.fast_miss_rate == want["fast_miss_rate"]
        mem = asdict(result.mem)
        for counter, value in want["mem"].items():
            assert mem[counter] == value, (
                f"{program}: accel=none drifted on {counter}")

    def test_accel_stlt_carries_stlt_telemetry(self):
        config = RunConfig(frontend="stlt", **SMOKE)
        result = run_experiment(config)
        assert result.accel is not None
        assert result.accel["accel"] == "stlt"
        assert result.accel["stlt_rows"] > 0
        assert result.accel["stb_probes"] > 0


class TestRivalBackends:
    """victima / pcax / revelator under the same memory system."""

    @pytest.mark.parametrize("accel", RIVALS)
    def test_backend_is_exercised_past_tlb_reach(self, accel):
        config = RunConfig(program="redis", frontend=accel, **BIG)
        result = run_experiment(config)
        telemetry = result.accel
        assert telemetry is not None and telemetry["accel"] == accel
        if accel == "revelator":
            assert telemetry["spec_hits"] > 0
        else:
            assert telemetry["hits"] > 0
        # rivals never populate the key-level fast path
        assert result.fast_miss_rate is None
        # deterministic per seed, telemetry included
        again = run_experiment(config)
        assert again.to_dict() == result.to_dict()
        assert again.accel == telemetry

    def test_victima_and_pcax_reduce_walks(self):
        base = RunConfig(program="redis", frontend="baseline", **BIG)
        walks = run_experiment(base).page_walks
        assert walks > 0
        for accel in ("victima", "pcax"):
            accelerated = run_experiment(
                dataclasses.replace(base, frontend=accel))
            assert accelerated.page_walks < walks, accel

    def test_revelator_walks_functionally_but_hides_latency(self):
        base = RunConfig(program="redis", frontend="baseline", **BIG)
        none_result = run_experiment(base)
        rev = run_experiment(
            dataclasses.replace(base, frontend="revelator"))
        # every walk still happens (validation requires the real PTE)
        assert rev.page_walks == none_result.page_walks
        # but correct speculation hides the walk latency
        assert rev.cycles < none_result.cycles


class TestChurnOracle:
    """OS churn against every design: stale translations must be
    charged or invalidated, never served — zero oracle violations."""

    CHURN = dict(program="redis", churn_rate=0.05,
                 num_keys=2_000, measure_ops=600, warmup_ops=1_200)

    @pytest.mark.parametrize("design", FRONTENDS)
    def test_zero_violations_under_churn(self, design):
        config = RunConfig(frontend=design, **self.CHURN)
        result = run_experiment(config)
        chaos = result.chaos
        assert chaos is not None
        assert chaos["oracle"]["violations"] == 0, design
        assert chaos["oracle"]["checks"] > 0

    def test_revelator_misspeculates_under_churn_yet_stays_clean(self):
        config = RunConfig(frontend="revelator",
                           **{**self.CHURN, "num_keys": 20_000})
        result = run_experiment(config)
        telemetry = result.accel
        # churn moved pages under live guesses: the stale guesses were
        # *detected and charged*, not served
        assert telemetry["spec_misses"] > 0
        assert result.chaos["oracle"]["violations"] == 0


class TestConfigAxis:
    """Validation, labelling, hashing, registry, hardware cost."""

    def test_frontends_tuple_matches_registry(self):
        assert tuple(DESIGNS) == FRONTENDS
        for name, design in DESIGNS.items():
            assert design.name == name

    @pytest.mark.parametrize("design", ("stlt",) + RIVALS)
    def test_legacy_accel_spelling_is_the_design(self, design):
        legacy = RunConfig(frontend="baseline", accel=design, **SMOKE)
        assert legacy == RunConfig(frontend=design, **SMOKE)
        assert config_hash(legacy) == \
            config_hash(RunConfig(frontend=design, **SMOKE))
        assert "accel" not in legacy.to_dict()

    def test_stored_legacy_record_loads(self):
        stored = RunConfig(**SMOKE).to_dict()
        stored["accel"] = "victima"  # an old record: baseline + accel
        assert RunConfig.from_dict(stored) == \
            RunConfig(frontend="victima", **SMOKE)

    def test_non_baseline_frontend_rejected(self):
        for frontend in ("stlt", "slb"):
            with pytest.raises(ConfigError):
                RunConfig(frontend=frontend, accel="victima", **SMOKE)

    def test_legacy_conflict_exits_with_the_config_code(self):
        from repro.cli import exit_code_for
        with pytest.raises(ConfigError) as info:
            RunConfig(frontend="stlt", accel="pcax", **SMOKE)
        assert exit_code_for(info.value) == 2

    def test_unknown_accel_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(accel="tlbboost", **SMOKE)
        with pytest.raises(ConfigError):
            RunConfig(frontend="tlbboost", **SMOKE)

    def test_label_names_the_accel(self):
        config = RunConfig(frontend="pcax", **SMOKE)
        assert config.label.startswith("unordered_map/pcax/")
        assert "accel" not in config.label

    def test_accel_knobs_reach_the_hash(self):
        base = RunConfig(frontend="victima", **SMOKE)
        assert config_hash(dataclasses.replace(base, accel_ways=8)) != \
            config_hash(base)
        assert config_hash(dataclasses.replace(base, frontend="pcax")) != \
            config_hash(base)

    def test_knob_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(frontend="victima", accel_ways=0, **SMOKE)
        with pytest.raises(ConfigError):
            RunConfig(frontend="revelator", spec_mispredict_cycles=-1,
                      **SMOKE)

    @pytest.mark.parametrize("accel", ["stlt", "victima", "pcax",
                                       "revelator"])
    def test_every_backend_reports_hardware_cost(self, accel):
        report = DESIGNS[accel].hardware_cost(DEFAULT_MACHINE, rows=4096,
                                              ways=4)
        assert report.total_bytes > 0
        assert any(component == "Total" for component, _ in report.rows())

    @pytest.mark.parametrize("design", ["baseline", "slb", "stlt_sw"])
    def test_software_designs_cost_no_hardware(self, design):
        report = DESIGNS[design].hardware_cost(DEFAULT_MACHINE, rows=4096,
                                               ways=4)
        assert report.total_bytes == 0

    def test_backend_instances_report_cost_too(self):
        config = RunConfig(frontend="victima", **SMOKE)
        engine = Engine(config)
        assert engine.design.name == "victima"
        # the per-run budget uses the run's own machine
        report = engine.design.hardware_cost(
            config.machine, config.effective_accel_rows, config.accel_ways)
        assert config.machine == SCALED_MACHINE
        assert report.total_bytes == 1220
