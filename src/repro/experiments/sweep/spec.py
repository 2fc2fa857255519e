"""Declarative sweep specifications.

A sweep spec names a parameter grid — the axes swept (cartesian
product) plus the fixed parameters every cell shares::

    {
      "name": "ci-downscaled",
      "parameters": {
        "users": [2, 4],
        "cache_shards": [1, 4],
        "shared_hotspots": ["off", "boost"],
        "workload": ["study", "convergent", "adversarial", "flash_crowd"],
        "frontend": ["inprocess", "socket"]
      },
      "fixed": {"size": 256, "k": 5, "prefetch_mode": "background"}
    }

Every parameter (axis or fixed) must be a *known* one — the domain table
below is the single source of truth — and validation raises typed errors
(:class:`UnknownParameterError`, :class:`EmptyGridError`,
:class:`DuplicateCellError`) so callers and CI can tell a bad spec from
a bad run.  :meth:`SweepSpec.cells` expands the grid via the cartesian
``_argument_product`` (the ``MBradbury/slp`` runner idiom) into
:class:`SweepCell` values whose ``cell_id`` is a deterministic, filename-
safe slug — the key both incremental persistence (skip-completed resume)
and snapshot diffing are built on.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.middleware.config import (
    FIDELITY_MODES,
    PREFETCH_MODES,
    PUSH_MODES,
    SHARED_HOTSPOT_MODES,
)


class SweepSpecError(ValueError):
    """A sweep spec failed validation."""


class UnknownParameterError(SweepSpecError):
    """The spec names a parameter the harness does not know."""


class EmptyGridError(SweepSpecError):
    """The spec expands to zero cells (no axes, or an empty axis)."""


class DuplicateCellError(SweepSpecError):
    """Two grid cells collapse to the same parameter assignment."""


#: Workloads a cell can replay (see :mod:`repro.users`).
WORKLOADS = ("study", "convergent", "adversarial", "flash_crowd")

#: Serving front ends a cell can replay through.
FRONTENDS = ("inprocess", "socket", "cluster")


def _check_choice(name: str, choices: Sequence[str]):
    def check(value: object) -> None:
        if value not in choices:
            raise SweepSpecError(
                f"parameter {name!r} must be one of {tuple(choices)}, "
                f"got {value!r}"
            )

    return check


def _check_int(name: str, minimum: int):
    def check(value: object) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SweepSpecError(
                f"parameter {name!r} must be an integer, got {value!r}"
            )
        if value < minimum:
            raise SweepSpecError(
                f"parameter {name!r} must be >= {minimum}, got {value}"
            )

    return check


def _check_float(name: str, minimum: float, maximum: float | None = None):
    def check(value: object) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SweepSpecError(
                f"parameter {name!r} must be a number, got {value!r}"
            )
        if value < minimum or (maximum is not None and value > maximum):
            bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise SweepSpecError(
                f"parameter {name!r} must be {bound}, got {value}"
            )

    return check


def _check_bool(name: str):
    def check(value: object) -> None:
        if not isinstance(value, bool):
            raise SweepSpecError(
                f"parameter {name!r} must be a boolean, got {value!r}"
            )

    return check


#: Every parameter the harness understands: default value + validator.
#: Any of them may be swept as a grid axis or pinned under ``fixed``.
PARAMETER_DOMAINS: dict[str, tuple[object, object]] = {
    # the grid axes the ROADMAP names
    "users": (2, _check_int("users", 1)),
    "cache_shards": (1, _check_int("cache_shards", 1)),
    "shared_hotspots": (
        "off",
        _check_choice("shared_hotspots", SHARED_HOTSPOT_MODES),
    ),
    "workload": ("convergent", _check_choice("workload", WORKLOADS)),
    "frontend": ("inprocess", _check_choice("frontend", FRONTENDS)),
    # serving knobs
    "k": (5, _check_int("k", 1)),
    "prefetch_mode": ("sync", _check_choice("prefetch_mode", PREFETCH_MODES)),
    "prefetch_workers": (1, _check_int("prefetch_workers", 1)),
    "recent_capacity": (4, _check_int("recent_capacity", 1)),
    "prefetch_capacity": (8, _check_int("prefetch_capacity", 1)),
    "hotspot_decay": (0.9, _check_float("hotspot_decay", 1e-9, 1.0)),
    "hotspot_tick_every": (16, _check_int("hotspot_tick_every", 0)),
    # progressive fidelity + overload shedding
    "fidelity": ("off", _check_choice("fidelity", FIDELITY_MODES)),
    "shed_queue_depth": (32, _check_int("shed_queue_depth", 1)),
    "shed_miss_streak": (0, _check_int("shed_miss_streak", 0)),
    # cluster front end (run.py enforces the frontend pairing); which
    # worker a session lives on is a pure function of (its id,
    # cluster_workers, ring_replicas, ring_seed) — worker node names
    # are stable — so cluster cells stay trajectory-gateable.
    "cluster_workers": (1, _check_int("cluster_workers", 1)),
    # push prefetch (socket front end only; run.py enforces the pairing)
    "push": ("off", _check_choice("push", PUSH_MODES)),
    "push_budget_bytes": (
        256 * 1024,
        _check_int("push_budget_bytes", 1024),
    ),
    "push_max_inflight": (4, _check_int("push_max_inflight", 1)),
    # world / workload shape
    "size": (256, _check_int("size", 64)),
    "tile_size": (32, _check_int("tile_size", 8)),
    "seed": (7, _check_int("seed", 0)),
    "steps": (24, _check_int("steps", 1)),
    "max_requests": (30, _check_int("max_requests", 1)),
    # ``settle`` drains the background scheduler after every request, so
    # hit rates (and so virtual latency) stay deterministic — the
    # property the regression gate needs.
    "settle": (True, _check_bool("settle")),
}

#: Short slug aliases so cell ids stay readable.
_SLUG_ALIASES = {
    "cluster_workers": "clworkers",
    "cache_shards": "shards",
    "shared_hotspots": "hotspots",
    "push_budget_bytes": "pushbudget",
    "push_max_inflight": "pushinflight",
    "shed_queue_depth": "sheddepth",
    "shed_miss_streak": "shedmiss",
}


def _argument_product(
    parameters: Mapping[str, Sequence[object]],
) -> list[dict[str, object]]:
    """Cartesian product of the grid axes, as one dict per cell.

    Axis order follows the spec (insertion order), so the expansion is
    reproducible for a given spec.
    """
    names = list(parameters)
    combos = itertools.product(*(parameters[name] for name in names))
    return [dict(zip(names, values)) for values in combos]


def _slug_value(value: object) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: its identity and its full parameter assignment."""

    #: Deterministic filename-safe id built from the *axis* values only
    #: (the fixed parameters are shared by the whole sweep).
    cell_id: str
    #: The axis assignment that distinguishes this cell.
    axes: dict[str, object]
    #: The complete parameter set (defaults <- fixed <- axes).
    params: dict[str, object]

    def __hash__(self) -> int:  # axes/params are dicts
        return hash(self.cell_id)


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep specification."""

    name: str
    parameters: dict[str, tuple]
    fixed: dict[str, object]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Validate and build a spec from its JSON form."""
        if not isinstance(data, Mapping):
            raise SweepSpecError(f"spec must be a mapping, got {type(data).__name__}")
        unknown_keys = set(data) - {"name", "parameters", "fixed"}
        if unknown_keys:
            raise SweepSpecError(
                f"unknown spec keys {sorted(unknown_keys)}; expected "
                "'name', 'parameters', 'fixed'"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise SweepSpecError("spec needs a non-empty string 'name'")
        raw_parameters = data.get("parameters", {})
        raw_fixed = data.get("fixed", {})
        if not isinstance(raw_parameters, Mapping):
            raise SweepSpecError("'parameters' must be a mapping of axis -> values")
        if not isinstance(raw_fixed, Mapping):
            raise SweepSpecError("'fixed' must be a mapping of parameter -> value")

        for source, mapping in (("parameters", raw_parameters), ("fixed", raw_fixed)):
            for key in mapping:
                if key not in PARAMETER_DOMAINS:
                    raise UnknownParameterError(
                        f"unknown parameter {key!r} in {source!r}; known "
                        f"parameters: {sorted(PARAMETER_DOMAINS)}"
                    )
        overlap = set(raw_parameters) & set(raw_fixed)
        if overlap:
            raise SweepSpecError(
                f"parameters {sorted(overlap)} appear both as grid axes "
                "and under 'fixed'; pick one"
            )

        if not raw_parameters:
            raise EmptyGridError("spec sweeps no parameters (empty grid)")
        parameters: dict[str, tuple] = {}
        for key, values in raw_parameters.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise SweepSpecError(
                    f"axis {key!r} must be a list of values, got {values!r}"
                )
            if len(values) == 0:
                raise EmptyGridError(f"axis {key!r} has no values (empty grid)")
            checker = PARAMETER_DOMAINS[key][1]
            for value in values:
                checker(value)
            parameters[key] = tuple(values)

        fixed: dict[str, object] = {}
        for key, value in raw_fixed.items():
            PARAMETER_DOMAINS[key][1](value)
            fixed[key] = value

        spec = cls(name=name, parameters=parameters, fixed=fixed)
        seen: dict[str, dict] = {}
        for cell in spec.cells():
            if cell.cell_id in seen:
                raise DuplicateCellError(
                    f"duplicate grid cell {cell.cell_id!r} (axis values "
                    f"{cell.axes} repeat); de-duplicate the axis lists"
                )
            seen[cell.cell_id] = cell.axes
        return spec

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "parameters": {k: list(v) for k, v in self.parameters.items()},
            "fixed": dict(self.fixed),
        }

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def defaults(self) -> dict[str, object]:
        """The complete shared parameter set (defaults overlaid by fixed)."""
        params = {
            name: default for name, (default, _) in PARAMETER_DOMAINS.items()
        }
        params.update(self.fixed)
        return params

    def cell_id(self, axes: Mapping[str, object]) -> str:
        """The deterministic slug of one axis assignment."""
        parts = []
        for name in sorted(axes):
            alias = _SLUG_ALIASES.get(name, name)
            parts.append(f"{alias}={_slug_value(axes[name])}")
        return "__".join(parts)

    def cells(self) -> list[SweepCell]:
        """Expand the grid (cartesian product), sorted by cell id."""
        shared = self.defaults()
        cells = []
        for axes in _argument_product(self.parameters):
            params = dict(shared)
            params.update(axes)
            cells.append(
                SweepCell(
                    cell_id=self.cell_id(axes), axes=axes, params=params
                )
            )
        cells.sort(key=lambda cell: cell.cell_id)
        return cells


# ----------------------------------------------------------------------
# built-in specs
# ----------------------------------------------------------------------
#: The CI trajectory sweep: every axis the ROADMAP names, downscaled to
#: fit CI minutes; deterministic (settle + single prefetch worker), so
#: the hit-rate/virtual-latency trajectory is regression-gateable.
CI_SPEC = {
    "name": "ci-downscaled",
    "parameters": {
        "users": [2, 4],
        "cache_shards": [1, 4],
        "shared_hotspots": ["off", "boost"],
        "workload": ["study", "convergent", "adversarial", "flash_crowd"],
        "frontend": ["inprocess", "socket"],
    },
    "fixed": {
        "size": 256,
        "k": 5,
        "prefetch_mode": "background",
        "prefetch_workers": 1,
        "settle": True,
        "steps": 24,
        "max_requests": 30,
        "seed": 7,
    },
}

#: A four-cell smoke spec (examples, fast tests): in-process sync only.
SMOKE_SPEC = {
    "name": "smoke",
    "parameters": {
        "users": [1, 2],
        "workload": ["convergent", "adversarial"],
    },
    "fixed": {
        "size": 64,
        "tile_size": 8,
        "prefetch_mode": "sync",
        "settle": False,
        "steps": 12,
    },
}

#: The push-mode trajectory sweep: off/on over the socket front end (the
#: only one that can push) on the two workloads where push matters most.
#: Kept as its own spec — and its own snapshot directory in CI — so the
#: ``ci`` grid's snapshots stay byte-comparable across the
#: push-introducing change.
CI_PUSH_SPEC = {
    "name": "ci-push",
    "parameters": {
        "push": ["off", "on"],
        "users": [2, 4],
        "workload": ["convergent", "flash_crowd"],
    },
    "fixed": {
        "size": 256,
        "k": 5,
        "frontend": "socket",
        "prefetch_mode": "background",
        "prefetch_workers": 1,
        "settle": True,
        "steps": 24,
        "max_requests": 30,
        "seed": 7,
    },
}

#: The overload-shedding trajectory sweep: the fidelity ladder off/on
#: over a deliberately starved cache (one recent slot) with the
#: deterministic miss-streak signal swept at two sensitivities.  The
#: study workload is the one whose zoom legs leave pyramid ancestors
#: resident, so degraded ancestor-carve serving actually fires there.
#: Its own spec — and its own snapshot directory in CI — so the
#: pre-fidelity ``ci``/``ci-push`` snapshots stay byte-comparable.
CI_OVERLOAD_SPEC = {
    "name": "ci-overload",
    "parameters": {
        "fidelity": ["off", "progressive"],
        "users": [2, 4],
        "shed_miss_streak": [1, 2],
    },
    "fixed": {
        "size": 256,
        "k": 5,
        "frontend": "socket",
        "workload": "study",
        "prefetch_mode": "background",
        "prefetch_workers": 1,
        "recent_capacity": 1,
        "prefetch_capacity": 5,
        "settle": True,
        "steps": 24,
        "max_requests": 30,
        "seed": 7,
    },
}

#: The cluster trajectory sweep: worker count over the consistent-hash
#: router on the two multi-user workloads.  Deterministic because
#: session placement only depends on (cluster_workers, ring_replicas,
#: ring_seed) and every session replays sequentially with settle — and,
#: since a session is served whole by one worker, equal between worker
#: counts on every metric that is not wall clock.  Its
#: own spec — and its own snapshot directory in CI — so the earlier
#: snapshots stay byte-comparable across the cluster-introducing change.
CI_CLUSTER_SPEC = {
    "name": "ci-cluster",
    "parameters": {
        "cluster_workers": [1, 2],
        "users": [2, 4],
        "workload": ["convergent", "flash_crowd"],
    },
    "fixed": {
        "size": 256,
        "k": 5,
        "frontend": "cluster",
        "prefetch_mode": "background",
        "prefetch_workers": 1,
        "settle": True,
        "steps": 24,
        "max_requests": 30,
        "seed": 7,
    },
}

BUILTIN_SPECS: dict[str, dict] = {
    "ci": CI_SPEC,
    "ci-push": CI_PUSH_SPEC,
    "ci-overload": CI_OVERLOAD_SPEC,
    "ci-cluster": CI_CLUSTER_SPEC,
    "smoke": SMOKE_SPEC,
}


def resolve_spec(name: str) -> SweepSpec:
    """A built-in spec by name (``ci``, ``ci-push``, ``ci-overload``,
    ``ci-cluster``, ``smoke``)."""
    if name not in BUILTIN_SPECS:
        raise SweepSpecError(
            f"unknown spec {name!r}: not a built-in ({sorted(BUILTIN_SPECS)})"
        )
    return SweepSpec.from_dict(BUILTIN_SPECS[name])
