"""Convergent multi-user workloads (the shared-hotspot scenario).

Real exploration traffic converges: many analysts drill into the same
anomaly from different directions (the premise of the paper's Section
6.2 and of cross-client systems like Kyrix's shared backend).  This
module builds that workload synthetically and deterministically so the
cross-user *prediction* claim is testable: ``num_users`` walks that
approach one globally hot tile ``H`` along L-shaped paths from four
compass corners, then dwell on it.

The shape is chosen to separate prediction sharing from cache sharing:

- Every path has a **turn** the Momentum baseline must mispredict (the
  previous move stops repeating exactly where the path bends toward
  ``H``), and the dwell oscillation makes the *return* moves equally
  momentum-hostile.
- Paths from different corners are **tile-disjoint except near ``H``**,
  so with a one-slot cache a later user's hits cannot come from tiles
  an earlier user left behind — only from *predictions* informed by
  earlier users' traffic.
- Everyone ends dwelling on ``H``, so a live popularity model learns
  ``H`` from user 1 and steers users 2..N through their turns.

Used by ``benchmarks/test_shared_hotspot_convergence.py`` and the
fast-tier ``tests/test_shared_hotspots.py`` end-to-end assertions, which
replay the walks through
:func:`repro.experiments.sweep.run.replay_walks`.
"""

from __future__ import annotations

from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.pyramid import TileGrid

#: One walk: ``(move, key)`` request pairs, first move ``None``.
Walk = list[tuple[Move | None, TileKey]]


def _l_path(hot: TileKey, corner: int, leg: int) -> list[TileKey]:
    """Keys of one L-shaped approach: leg 1, the turn, leg 2 into hot."""
    hx, hy, level = hot.x, hot.y, hot.level
    if corner == 0:  # from the north-west: east, then south
        first = [TileKey(level, x, hy - leg) for x in range(hx - leg, hx + 1)]
        second = [TileKey(level, hx, y) for y in range(hy - leg + 1, hy + 1)]
    elif corner == 1:  # from the south-east: west, then north
        first = [TileKey(level, x, hy + leg) for x in range(hx + leg, hx, -1)]
        first.append(TileKey(level, hx, hy + leg))
        second = [TileKey(level, hx, y) for y in range(hy + leg - 1, hy - 1, -1)]
    elif corner == 2:  # from the north-east: south, then west
        first = [TileKey(level, hx + leg, y) for y in range(hy - leg, hy + 1)]
        second = [TileKey(level, x, hy) for x in range(hx + leg - 1, hx - 1, -1)]
    else:  # from the south-west: north, then east
        first = [TileKey(level, hx - leg, y) for y in range(hy + leg, hy - 1, -1)]
        second = [TileKey(level, x, hy) for x in range(hx - leg + 1, hx + 1)]
    return first + second


def convergent_walks(
    grid: TileGrid,
    hot: TileKey | None = None,
    num_users: int = 4,
    leg: int = 3,
    dwell: int = 2,
) -> list[Walk]:
    """Deterministic walks converging on one hot tile.

    User ``u`` approaches from corner ``u % 4``; every walk ends with
    ``dwell`` oscillations between ``hot`` and its southern neighbor.
    ``hot`` defaults to the center tile of the grid's deepest level.
    The turn corner sits ``leg`` moves from ``hot``, so a live hotspot
    model with ``proximity >= leg`` can steer the turn.
    """
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if leg < 2:
        raise ValueError(f"leg must be >= 2 (a path needs a turn), got {leg}")
    if dwell < 0:
        raise ValueError(f"dwell must be >= 0, got {dwell}")
    if hot is None:
        level = grid.deepest_level
        n = 1 << level
        hot = TileKey(level, n // 2, n // 2)
    n = 1 << hot.level
    if not (
        leg <= hot.x < n - leg and leg <= hot.y < n - leg and hot.y + 1 < n
    ):
        raise ValueError(
            f"hot tile {hot} needs {leg} tiles of margin on every side "
            f"(grid is {n}x{n} at level {hot.level})"
        )
    neighbor = TileKey(hot.level, hot.x, hot.y + 1)
    walks: list[Walk] = []
    for user in range(num_users):
        keys = _l_path(hot, user % 4, leg)
        for _ in range(dwell):
            keys.extend((neighbor, hot))
        walk: Walk = [(None, keys[0])]
        for previous, current in zip(keys, keys[1:]):
            move = previous.move_to(current)
            if move is None:
                raise AssertionError(
                    f"non-adjacent walk step {previous} -> {current}"
                )
            walk.append((move, current))
        for _, key in walk:
            if not grid.valid(key):
                raise ValueError(f"walk leaves the grid at {key}")
        walks.append(walk)
    return walks


def cross_user_hit_rate(recorders: list) -> float:
    """Aggregate hit rate of users 2..N (user 1 is the cold-start user)."""
    later = recorders[1:]
    total = sum(recorder.count for recorder in later)
    if total == 0:
        return 0.0
    return sum(recorder.hits for recorder in later) / total
