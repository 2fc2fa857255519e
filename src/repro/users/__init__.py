"""User sessions, traces, and the simulated user study (Section 5.3).

The paper's evaluation is driven by request traces from 18 domain
scientists completing 3 search tasks.  :mod:`repro.users.behavior`
implements a stochastic user policy that follows the paper's own
analysis model (forage at coarse levels → navigate down to a snowy ROI →
sensemake among detail tiles → zoom back out), and
:mod:`repro.users.study` runs 18 seeded simulated participants through
the 3 tasks to produce the study trace corpus.
"""

from repro.users.adversarial import adversarial_walks
from repro.users.behavior import BehaviorProfile, SimulatedUser
from repro.users.convergent import convergent_walks, cross_user_hit_rate
from repro.users.flashcrowd import flash_crowd_walks
from repro.users.session import Request, StudyData, Trace
from repro.users.study import run_study

__all__ = [
    "BehaviorProfile",
    "Request",
    "SimulatedUser",
    "StudyData",
    "Trace",
    "adversarial_walks",
    "convergent_walks",
    "cross_user_hit_rate",
    "flash_crowd_walks",
    "run_study",
]
