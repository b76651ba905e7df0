import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkdsim.config import (
    _KEY_TYPES,
    ConfigError,
    SystemConfig,
    default_wdm_channels,
    dump_config,
    load_config,
    parse_config_text,
)
from cvqkdsim.physics import (
    QUANTUM_CHANNEL_INDEX,
    WdmChannelSpec,
    fiber_transmittance,
)
from cvqkdsim.pipeline import signal_variance

README = Path(__file__).resolve().parent.parent / "README.md"

# float keys that no model read, gone from the format: a config holding
# one fails to load as an unknown key
REMOVED_FLOAT_KEYS = [f"wdm.{i}.wavelength_nm" for i in range(1, 9)]


class TestDefaults:
    def test_empty_text_gives_full_defaults(self):
        assert parse_config_text("") == SystemConfig()

    def test_rep_rate_and_block(self):
        cfg = SystemConfig()
        assert cfg.rep_rate_hz == 1e7
        assert cfg.block_size_pulses == 1_000_000
        assert cfg.fiber.length_km == 10.0
        assert cfg.fiber.attenuation_db_per_km == 0.2

    def test_wdm_holds_the_classical_bands_only(self):
        assert [ch.index for ch in default_wdm_channels()] == [
            1, 2, 3, 4, 5, 7, 8]
        for index in (0, QUANTUM_CHANNEL_INDEX, 9):
            with pytest.raises(ValueError):
                WdmChannelSpec(index)

    def test_channel_keys_are_power_and_state_only(self):
        assert {k for k in _KEY_TYPES if k.startswith("wdm.")} == {
            f"wdm.{i}.{name}" for i in (1, 2, 3, 4, 5, 7, 8)
            for name in ("launch_power_dbm", "enabled")}

    def test_classical_channels_launch_power(self):
        cfg = SystemConfig()
        assert len(cfg.classical_channels) == 7
        for ch in cfg.classical_channels:
            assert ch.launch_power_dbm == -4.5
            assert ch.launch_power_mw == pytest.approx(
                10.0 ** (-4.5 / 10.0))


class TestParsing:
    def test_fiber_length_override(self):
        cfg = parse_config_text("fiber.length_km = 25")
        assert fiber_transmittance(cfg.fiber) == pytest.approx(0.316228,
                                                               abs=1e-6)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# leading comment\n"
            "\n"
            "alpha = 0.5   # trailing comment\n")
        assert cfg.alpha == 0.5

    def test_f_cal_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("f_cal = 1.5")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text("alpha = 0.5\nno_such_key = 1\n")
        assert exc_info.value.line == 2

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text("seed = banana")
        assert exc_info.value.key == "seed"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words")

    def test_wdm_channel_overrides(self):
        cfg = parse_config_text(
            "wdm.1.enabled = false\n"
            "wdm.2.launch_power_dbm = -7.5\n")
        by_index = {ch.index: ch for ch in cfg.wdm}
        assert by_index[1].enabled is False
        assert by_index[2].launch_power_dbm == -7.5

    def test_wdm_index_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config_text("wdm.9.enabled = true")

    @pytest.mark.parametrize("key", [
        "wdm.6.launch_power_dbm", "wdm.6.enabled", "wdm.6.modulated",
        "wdm.1.modulated"] + REMOVED_FLOAT_KEYS)
    def test_dropped_channel_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown key") as exc_info:
            parse_config_text(f"{key} = 1")
        assert exc_info.value.key == key

    def test_readme_example_loads(self):
        section = README.read_text(encoding="utf-8").split(
            "\n## Configuration\n", 1)[1]
        example = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        assert parse_config_text(example) != SystemConfig()

    def test_boolean_values(self):
        for raw, want in (("true", True), ("no", False), ("1", True)):
            cfg = parse_config_text(f"wdm.1.enabled = {raw}")
            assert cfg.wdm[0].enabled is want
        with pytest.raises(ConfigError):
            parse_config_text("wdm.1.enabled = maybe")

    def test_drift_overrides(self):
        cfg = parse_config_text("drift.efficiency_sigma = 0.001\n"
                                "drift.reversion_rate = 0.01\n")
        assert cfg.drift.efficiency_sigma == 0.001
        assert cfg.drift.reversion_rate == 0.01

    @pytest.mark.parametrize("line", [
        "drift.efficiency_mean = 0", "drift.efficiency_mean = 1.5",
        "drift.efficiency_sigma = -1", "drift.phase_sigma = -1",
        "drift.reversion_rate = -1"])
    def test_drift_out_of_range_rejected(self, line):
        field = line.split(" = ")[0].rsplit(".", 1)[-1]
        with pytest.raises(ConfigError, match=field):
            parse_config_text(line)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        k for k, conv in _KEY_TYPES.items() if conv is float
    ] + REMOVED_FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, raw):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(f"{key} = {raw}")
        # fiber.* is checked by FiberSpec, which names the field only; a
        # removed key is refused before its value is read
        assert key.rsplit(".", 1)[-1] in str(exc_info.value)
        if key in REMOVED_FLOAT_KEYS:
            assert exc_info.value.key == key
            assert "unknown key" in str(exc_info.value)


# every key away from its default
EVERY_KEY_CHANGED = "\n".join([
    "rep_rate_hz = 2e7", "alpha = 0.5", "epsilon_intrinsic_snu = 1e-3",
    "x_th_snu = 1.5", "f_cal = 0.2", "sample_fraction = 0.05",
    "qber_smoothing = 0.1", "cascade_passes = 5",
    "block_size_pulses = 200000", "seed = 7",
    "fiber.length_km = 20", "fiber.attenuation_db_per_km = 0.25",
    "fiber.raman_coefficient_per_mw_km = 1e-4",
    "drift.efficiency_mean = 0.9", "drift.efficiency_sigma = 1e-3",
    "drift.phase_mean_rad = 0.01", "drift.phase_sigma = 1e-3",
    "drift.reversion_rate = 0.01", "force_sigma_snu = 1.2",
] + [f"wdm.{i}.{setting}" for i in (1, 2, 3, 4, 5, 7, 8)
    for setting in ("launch_power_dbm = -3", "enabled = no")])


class TestDumpRoundTrip:
    def test_round_trips_defaults(self):
        cfg = SystemConfig()
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_round_trips_overrides(self):
        for text in ("alpha = 0.42\nfiber.length_km = 15\nwdm.3.enabled = false\n"
                     "seed = 99\n", EVERY_KEY_CHANGED):
            cfg = parse_config_text(text)
            assert parse_config_text(dump_config(cfg)) == cfg
        # the last input changes every key dump_config writes
        default, changed = (
            dict(line.split(" = ") for line in dump_config(c).splitlines())
            for c in (SystemConfig(), cfg))
        assert changed.keys() == default.keys() | {"force_sigma_snu"}
        assert all(changed[key] != value for key, value in default.items())

    def test_key_count(self):
        assert len(_KEY_TYPES) == 33
        assert len(EVERY_KEY_CHANGED.splitlines()) == 33

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "link.cfg"
        path.write_text("x_th_snu = 2.0\n", encoding="utf-8")
        assert load_config(path).x_th_snu == 2.0


class TestInvariants:
    def test_with_wdm_enabled_subsets(self):
        cfg = SystemConfig().with_wdm_enabled([1, 2])
        enabled = [ch.index for ch in cfg.wdm if ch.enabled]
        assert enabled == [1, 2]

    def test_cascade_passes_minimum(self):
        with pytest.raises(ConfigError):
            SystemConfig(cascade_passes=1)

    def test_block_size_minimum(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_size_pulses=10)

    # a config that loads can run a block: the seed feeds a SeedSequence,
    # and the calibration frame must leave at least one signal pulse
    @pytest.mark.parametrize("text, key", [
        ("seed = -1", "seed"),
        ("block_size_pulses = 1000", "block_size_pulses"),
        ("block_size_pulses = 1000\nf_cal = 0", "block_size_pulses"),
        ("f_cal = 0.9999999", "block_size_pulses"),
    ], ids=["seed-negative", "block-1000", "block-1000-no-f_cal",
            "f_cal-near-1"])
    def test_config_that_cannot_run_a_block_rejected(self, text, key):
        with pytest.raises(ConfigError) as exc_info:
            parse_config_text(text)
        assert exc_info.value.key == key

    def test_smallest_runnable_block(self):
        cfg = SystemConfig(block_size_pulses=1001, seed=0)
        assert cfg.calibration_pulses == 1000
        assert math.isfinite(
            signal_variance(cfg, 0, cfg.drift.mean_state()))
        assert SystemConfig(f_cal=0.999999).calibration_pulses == 999_999

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(alpha=-0.1)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


# any text for any key: every config that parses must round-trip
_VALUES = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.booleans().map(lambda b: str(b).lower()))


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(_KEY_TYPES)), _VALUES))
    def test_every_parsed_config_round_trips(self, values):
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert parse_config_text(dump_config(cfg)) == cfg
