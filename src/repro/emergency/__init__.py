"""Facility-emergency response: the staged degradation ladder.

Couples the facility fault models (:mod:`repro.thermal.facility`, the
``facility-*`` fault kinds) to a fleet-level coordinator that trades
performance away one rung at a time — revoke overclocks, cap power,
evacuate, shut down — so a cooling-plant failure never costs a single
Tjmax violation, then walks back up as headroom returns.
"""

from .ladder import (
    EMERGENCY_ESCALATE,
    EMERGENCY_RELAX,
    EmergencyCoordinator,
    EmergencyStage,
    LadderConfig,
    StageActions,
    StagedLadder,
    max_stage,
    worst_margin_c,
)

__all__ = [
    "EMERGENCY_ESCALATE",
    "EMERGENCY_RELAX",
    "EmergencyCoordinator",
    "EmergencyStage",
    "LadderConfig",
    "StageActions",
    "StagedLadder",
    "max_stage",
    "worst_margin_c",
]
