"""Tile rendering: the visualizer's view of a data tile.

The study interface (Figure 7) renders each tile as a heatmap where
snow shows orange-to-yellow and snow-free land green-to-blue.  A
headless reproduction renders the same values as ASCII art for
terminals and docs — no plotting dependencies required.
"""

from __future__ import annotations

import numpy as np

from repro.tiles.tile import DataTile

#: Dark-to-bright ASCII luminance ramp.
_ASCII_RAMP = " .:-=+*#%@"


def _normalize(values: np.ndarray, value_range: tuple[float, float]) -> np.ndarray:
    lo, hi = value_range
    if hi <= lo:
        raise ValueError(f"empty value range {value_range}")
    return np.clip((np.asarray(values, dtype="float64") - lo) / (hi - lo), 0.0, 1.0)


def render_ascii(
    tile: DataTile,
    attribute: str,
    value_range: tuple[float, float] = (-1.0, 1.0),
    width: int = 32,
) -> str:
    """Render one tile attribute as ASCII art.

    The tile is downsampled (by averaging) to at most ``width`` columns;
    rows use two-character cells so the aspect ratio looks square in a
    terminal.
    """
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    values = _normalize(tile.attribute(attribute), value_range)
    h, w = values.shape
    step = max(1, w // width)
    if step > 1:
        trim_h, trim_w = h - h % step, w - w % step
        values = values[:trim_h, :trim_w]
        values = values.reshape(
            trim_h // step, step, trim_w // step, step
        ).mean(axis=(1, 3))
    indices = np.minimum(
        (values * len(_ASCII_RAMP)).astype(int), len(_ASCII_RAMP) - 1
    )
    return "\n".join(
        "".join(_ASCII_RAMP[i] * 2 for i in row) for row in indices
    )
