"""The three analysis phases (Section 4.2.1).

The paper extends the Pirolli/Card Sensemaking model with an explicit
Navigation phase, and shows (Section 5.3.5) that almost all study
requests fit this three-phase structure.
"""

from __future__ import annotations

from enum import Enum


class AnalysisPhase(Enum):
    """The user's current frame of mind while exploring."""

    #: Scanning coarse zoom levels for visually interesting patterns and
    #: forming hypotheses (new regions of interest).
    FORAGING = "foraging"

    #: Zooming between the coarse levels of Foraging and the detailed
    #: levels of Sensemaking — shifting the analysis focus.
    NAVIGATION = "navigation"

    #: Comparing neighboring tiles at detailed zoom levels to confirm or
    #: refute the current hypothesis.
    SENSEMAKING = "sensemaking"

    @classmethod
    def from_string(cls, value: str) -> "AnalysisPhase":
        """Parse a phase from its serialized string value."""
        for phase in cls:
            if phase.value == value:
                return phase
        raise ValueError(f"unknown analysis phase {value!r}")


#: Stable ordering for reports and confusion matrices.
ALL_PHASES: tuple[AnalysisPhase, ...] = (
    AnalysisPhase.FORAGING,
    AnalysisPhase.NAVIGATION,
    AnalysisPhase.SENSEMAKING,
)
