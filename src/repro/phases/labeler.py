"""How well labeled traces fit the three-phase model (Section 5.3.5).

The paper hand-labeled every study request with its analysis phase; our
simulated users record the generating phase directly.
:func:`model_fit_fraction` checks those labels against each phase's
definition, with :func:`detail_cutoff` drawing the line between coarse
and detailed zoom levels.
"""

from __future__ import annotations

from repro.phases.model import AnalysisPhase
from repro.users.session import Trace


def detail_cutoff(num_levels: int) -> int:
    """The zoom level at which browsing counts as "detailed".

    Two thirds of the way down the pyramid: with the paper's 9 levels
    that puts levels 6-8 in Sensemaking territory, matching the study's
    task target levels.
    """
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    return max(1, (2 * (num_levels - 1) + 2) // 3)


def model_fit_fraction(trace: Trace, num_levels: int) -> float:
    """Fraction of labeled requests consistent with the three-phase model.

    Section 5.3.5 reports that only 57 of 1390 study requests were "not
    described adequately" by the model.  A request is consistent when
    its phase label matches the phase's definition:

    - Foraging happens at coarse levels (pans, peeks, and the zooms
      between coarse levels all count as scanning),
    - Navigation is zooming (any level),
    - Sensemaking happens at detailed levels (neighbor pans and
      verification zooms).
    """
    cutoff = detail_cutoff(num_levels)
    consistent = 0
    labeled = 0
    for request in trace.requests:
        phase = request.phase
        if phase is None:
            continue
        labeled += 1
        level = request.tile.level
        move = request.move
        if phase is AnalysisPhase.FORAGING:
            fits = level <= cutoff
        elif phase is AnalysisPhase.NAVIGATION:
            fits = move is None or move.is_zoom_in or move.is_zoom_out
        else:  # SENSEMAKING
            fits = level >= cutoff - 1
        if fits:
            consistent += 1
    return consistent / labeled if labeled else 0.0
