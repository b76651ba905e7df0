"""System configuration: defaults, the key = value config-file format, and
validation.

The config keys are exactly the fields of the SystemConfig dataclass tree:
a top-level field is its own key, a field of the nested fiber or drift spec
is `fiber.<field>` / `drift.<field>`, and every field of classical channel i
but its index is `wdm.<i>.<field>`.  `wdm` holds the seven classical
channels only: the quantum band (channel 6) is not an entry, since no model
reads anything of it.  One walk over the tree gives the parser its key
table and types and gives dump_config its lines, so a key cannot exist in
one and not the other.  A bad channel index is an unknown key.  Every float
value must be finite.

The default operating point was fixed by a one-time calibration run so that
the no-WDM secret key rate at the default 10 km link sits inside the
20-50 kbit/s band (see README):

  alpha = 0.68, x_th = 2.7 SNU, sample_fraction = 0.02,
  epsilon_intrinsic = 2e-4 SNU, detector efficiency mean 0.99.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .physics import (
    QUANTUM_CHANNEL_INDEX,
    DriftParams,
    FiberSpec,
    WdmChannelSpec,
)

__all__ = [
    "SystemConfig",
    "ConfigError",
    "default_wdm_channels",
    "load_config",
    "parse_config_text",
    "dump_config",
]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key {key!r}: "
        super().__init__(prefix + message)
        self.line = line
        self.key = key


def default_wdm_channels() -> list[WdmChannelSpec]:
    """The seven classical channels of the 8-band grid, every band but the
    quantum one, each enabled at -4.5 dBm."""
    return [WdmChannelSpec(i) for i in range(1, 9)
            if i != QUANTUM_CHANNEL_INDEX]


@dataclass(frozen=True)
class SystemConfig:
    rep_rate_hz: float = 1.0e7
    alpha: float = 0.68
    epsilon_intrinsic_snu: float = 2.0e-4
    x_th_snu: float = 2.7
    f_cal: float = 0.1
    sample_fraction: float = 0.02
    qber_smoothing: float = 0.05     # EMA weight for the pooled qber estimate
    cascade_passes: int = 4
    block_size_pulses: int = 1_000_000
    seed: int = 12345
    fiber: FiberSpec = field(default_factory=FiberSpec)
    wdm: list[WdmChannelSpec] = field(default_factory=default_wdm_channels)
    drift: DriftParams = field(default_factory=lambda: DriftParams(
        efficiency_mean=0.99,
        efficiency_sigma=2.0e-4,
        phase_sigma=2.0e-4,
        reversion_rate=1.0 / 600.0,
    ))
    # Diagnostic override of the homodyne noise sigma; None in normal runs.
    force_sigma_snu: float | None = None

    def __post_init__(self):
        for key, _, value in _walk(self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{value!r} is not finite", key=key)
        if self.rep_rate_hz <= 0:
            raise ConfigError("rep_rate_hz must be > 0", key="rep_rate_hz")
        if not 0.0 <= self.f_cal < 1.0:
            raise ConfigError(f"f_cal {self.f_cal!r} outside [0, 1)", key="f_cal")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ConfigError("sample_fraction outside (0, 1)",
                              key="sample_fraction")
        if not 0.0 < self.qber_smoothing <= 1.0:
            raise ConfigError("qber_smoothing outside (0, 1]",
                              key="qber_smoothing")
        if self.alpha < 0.0:
            raise ConfigError("alpha must be >= 0", key="alpha")
        if self.x_th_snu < 0.0:
            raise ConfigError("x_th_snu must be >= 0", key="x_th_snu")
        if self.epsilon_intrinsic_snu < 0.0:
            raise ConfigError("epsilon_intrinsic_snu must be >= 0",
                              key="epsilon_intrinsic_snu")
        if self.cascade_passes < 2:
            raise ConfigError("cascade_passes must be >= 2",
                              key="cascade_passes")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", key="seed")
        if self.calibration_pulses >= self.block_size_pulses:
            raise ConfigError(
                f"a block of {self.block_size_pulses} pulses leaves no signal "
                f"pulse after its {self.calibration_pulses}-pulse calibration "
                f"frame", key="block_size_pulses")

    @property
    def calibration_pulses(self) -> int:
        """Pulses in a block's calibration frame: a fraction f_cal of the
        block, and never fewer than 1000."""
        return max(1000, int(round(self.f_cal * self.block_size_pulses)))

    @property
    def classical_channels(self) -> list[WdmChannelSpec]:
        """`wdm`, under the name perfbench reads."""
        return self.wdm

    def with_wdm_enabled(self, enabled_indices) -> "SystemConfig":
        """Copy with only the listed classical channels enabled."""
        enabled = set(enabled_indices)
        return replace(self, wdm=[replace(ch, enabled=(ch.index in enabled))
                                  for ch in self.wdm])


_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def _walk(obj, prefix: str = ""):
    """(key, type hint, value) of every config field, in field order: the
    fields of a nested spec become dotted keys, and channel i's fields,
    all but its index, come last as `wdm.<i>.<field>`."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _walk(value, f"{prefix}{f.name}.")
        elif f.name not in ("wdm", "index"):
            yield prefix + f.name, hints[f.name], value
    for ch in getattr(obj, "wdm", ()):
        yield from _walk(ch, f"wdm.{ch.index}.")


def _replace(obj, values: dict, prefix: str = ""):
    """`obj` with every parsed value of its keys, as _walk names them."""
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            changes[f.name] = _replace(value, values, f"{prefix}{f.name}.")
        elif f.name == "wdm":
            changes[f.name] = [_replace(ch, values, f"wdm.{ch.index}.")
                               for ch in value]
        elif prefix + f.name in values:
            changes[f.name] = values[prefix + f.name]
    return replace(obj, **changes)


# key -> converter; an optional field (`float | None`) reads as its type
_KEY_TYPES = {key: (typing.get_args(hint) or (hint,))[0]
              for key, hint, _ in _walk(SystemConfig())}


def _convert(raw: str, conv, line: int, key: str):
    if conv is bool:
        try:
            return _BOOL_VALUES[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"expected a boolean, got {raw!r}", line, key)
    try:
        return conv(raw.strip())
    except ValueError:
        raise ConfigError(f"expected {conv.__name__}, got {raw!r}", line, key)


def parse_config_text(text: str) -> SystemConfig:
    """Parse the line-oriented `key = value` format with dotted section
    keys ('#' starts a comment).  Unknown keys are rejected; missing keys
    take the documented defaults."""
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {rawline!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError("unknown key", lineno, key)
        values[key] = _convert(value, _KEY_TYPES[key], lineno, key)

    try:
        return _replace(SystemConfig(), values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: SystemConfig) -> str:
    """Fully-resolved config in the same format load_config accepts."""
    return "".join(
        f"{key} = {str(value).lower() if isinstance(value, bool) else repr(value)}\n"
        for key, _, value in _walk(cfg) if value is not None)
