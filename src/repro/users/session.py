"""Request and trace record types (Section 4.1's formalization).

A :class:`Trace` is one user session: the ordered tile requests of one
user completing one task (``U_j = [r_1, r_2, ...]``).  Each
:class:`Request` carries the move that produced it and the analysis
phase the generator was in — the synthetic analogue of the paper's
hand-labeled phases.  Traces serialize to JSON lines for reuse across
experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.phases.model import AnalysisPhase
from repro.tiles.key import TileKey
from repro.tiles.moves import Move, move_from_string


@dataclass(frozen=True)
class Request:
    """One tile request ``r`` in a session."""

    index: int
    tile: TileKey
    move: Move | None
    phase: AnalysisPhase | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "index": self.index,
            "tile": self.tile.to_string(),
            "move": self.move.value if self.move is not None else None,
            "phase": self.phase.value if self.phase is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Request":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            tile=TileKey.from_string(data["tile"]),
            move=move_from_string(data["move"]) if data.get("move") else None,
            phase=(
                AnalysisPhase.from_string(data["phase"])
                if data.get("phase")
                else None
            ),
        )


@dataclass
class Trace:
    """One user session: an ordered list of requests."""

    user_id: int
    task_id: int
    requests: list[Request] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def moves(self) -> list[Move]:
        """The move sequence (initial request excluded — it has no move)."""
        return [r.move for r in self.requests if r.move is not None]

    def tiles(self) -> list[TileKey]:
        """The tile sequence, in request order."""
        return [r.tile for r in self.requests]

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "user_id": self.user_id,
            "task_id": self.task_id,
            "requests": [r.to_dict() for r in self.requests],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            user_id=int(data["user_id"]),
            task_id=int(data["task_id"]),
            requests=[Request.from_dict(r) for r in data["requests"]],
        )


@dataclass
class StudyData:
    """The full trace corpus of a user study."""

    traces: list[Trace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def user_ids(self) -> list[int]:
        """Distinct user ids, sorted."""
        return sorted({t.user_id for t in self.traces})

    @property
    def task_ids(self) -> list[int]:
        """Distinct task ids, sorted."""
        return sorted({t.task_id for t in self.traces})

    def by_user(self, user_id: int) -> list[Trace]:
        """All traces of one user."""
        return [t for t in self.traces if t.user_id == user_id]

    def by_task(self, task_id: int) -> list[Trace]:
        """All traces of one task."""
        return [t for t in self.traces if t.task_id == task_id]

    def excluding_user(self, user_id: int) -> list[Trace]:
        """Training split for leave-one-user-out cross validation."""
        return [t for t in self.traces if t.user_id != user_id]

    def total_requests(self) -> int:
        """Total requests across all traces (paper: 1390)."""
        return sum(len(t) for t in self.traces)

    # ------------------------------------------------------------------
    # persistence (JSON lines, one trace per line)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the corpus as JSON lines."""
        with open(Path(path), "w", encoding="utf-8") as handle:
            for trace in self.traces:
                handle.write(json.dumps(trace.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "StudyData":
        """Read a corpus written by :meth:`save`."""
        traces = []
        with open(Path(path), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    traces.append(Trace.from_dict(json.loads(line)))
        return cls(traces=traces)
