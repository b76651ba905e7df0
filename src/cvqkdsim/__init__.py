"""Desk-scale simulator and protocol stack for four-state CV-QKD with
homodyne detection, coexisting with classical OOK WDM channels."""

from .config import ConfigError, SystemConfig, dump_config, load_config
from .physics import (
    CalibrationError,
    DriftParams,
    DriftState,
    FiberSpec,
    KeptPulses,
    PulseBatch,
    WdmChannelSpec,
    fiber_transmittance,
    wdm_excess_noise,
)
from .pipeline import distill_block, simulate_quantum_exchange
from .protocol import Role, SessionFailed, loopback_pair, run_session
from .quantum import CoherentStateEnsemble, binary_entropy, holevo_bound

__all__ = [
    "SystemConfig",
    "ConfigError",
    "load_config",
    "dump_config",
    "FiberSpec",
    "WdmChannelSpec",
    "PulseBatch",
    "KeptPulses",
    "DriftParams",
    "DriftState",
    "CalibrationError",
    "fiber_transmittance",
    "wdm_excess_noise",
    "CoherentStateEnsemble",
    "holevo_bound",
    "binary_entropy",
    "simulate_quantum_exchange",
    "distill_block",
    "Role",
    "SessionFailed",
    "run_session",
    "loopback_pair",
]

__version__ = "0.1.0"
