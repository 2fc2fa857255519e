"""The parameter-sweep harness: spec validation, resume, gate.

Fast tier: everything here runs on tiny grids or injected fake cell
runners.  The end-to-end downscaled sweep (real serving stack, real
snapshot, real gate) lives in ``benchmarks/test_sweep_smoke.py`` behind
the ``bench`` marker.
"""

import json

import pytest

from repro.experiments.sweep import (
    BUILTIN_SPECS,
    CellResult,
    DuplicateCellError,
    EmptyGridError,
    SnapshotError,
    SweepSpec,
    SweepSpecError,
    Tolerances,
    UnknownParameterError,
    build_snapshot,
    compare_snapshots,
    find_snapshots,
    latest_snapshot,
    load_snapshot,
    resolve_spec,
    run_sweep,
    snapshot_filename,
    write_snapshot,
)
from repro.experiments.sweep.cli import main
from repro.experiments.sweep.run import (
    cell_path,
    load_cell_record,
    write_cell_record,
)


def tiny_spec(**overrides) -> SweepSpec:
    data = {
        "name": "tiny",
        "parameters": {
            "users": [1, 2],
            "cache_shards": [1, 4],
        },
        "fixed": {"size": 64, "tile_size": 8, "prefetch_mode": "sync"},
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


def fake_runner(calls=None):
    """A cell executor that fabricates metrics instead of serving."""

    def run(cell) -> CellResult:
        if calls is not None:
            calls.append(cell.cell_id)
        return CellResult(
            cell_id=cell.cell_id,
            params=dict(cell.params),
            metrics={
                "requests": 10,
                "hits": 9,
                "hit_rate": 0.9,
                "avg_ms": 120.0,
                "p50_ms": 20.0,
                "p95_ms": 984.0,
                "p99_ms": 984.0,
                "wall_seconds": 0.01,
                "throughput_rps": 1000.0,
                "registry_tiles": 0,
            },
        )

    return run


class TestSpecValidation:
    def test_unknown_parameter_axis(self):
        with pytest.raises(UnknownParameterError):
            SweepSpec.from_dict(
                {"name": "x", "parameters": {"warp_factor": [1]}}
            )

    def test_unknown_parameter_fixed(self):
        with pytest.raises(UnknownParameterError):
            SweepSpec.from_dict(
                {
                    "name": "x",
                    "parameters": {"users": [1]},
                    "fixed": {"warp_factor": 9},
                }
            )

    def test_empty_grid_no_axes(self):
        with pytest.raises(EmptyGridError):
            SweepSpec.from_dict({"name": "x", "parameters": {}})

    def test_empty_grid_empty_axis(self):
        with pytest.raises(EmptyGridError):
            SweepSpec.from_dict({"name": "x", "parameters": {"users": []}})

    def test_duplicate_cell(self):
        with pytest.raises(DuplicateCellError):
            SweepSpec.from_dict(
                {"name": "x", "parameters": {"users": [2, 2]}}
            )

    def test_axis_and_fixed_overlap(self):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_dict(
                {
                    "name": "x",
                    "parameters": {"users": [1, 2]},
                    "fixed": {"users": 3},
                }
            )

    def test_domain_validation_applies_to_values(self):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_dict(
                {"name": "x", "parameters": {"workload": ["nope"]}}
            )
        with pytest.raises(SweepSpecError):
            SweepSpec.from_dict({"name": "x", "parameters": {"users": [0]}})

    def test_typed_errors_are_value_errors(self):
        assert issubclass(UnknownParameterError, SweepSpecError)
        assert issubclass(EmptyGridError, SweepSpecError)
        assert issubclass(DuplicateCellError, SweepSpecError)
        assert issubclass(SweepSpecError, ValueError)

    def test_builtin_specs_validate(self):
        for name in BUILTIN_SPECS:
            spec = resolve_spec(name)
            assert spec.cells()

    def test_ci_spec_covers_roadmap_axes(self):
        spec = resolve_spec("ci")
        assert set(spec.parameters) == {
            "users",
            "cache_shards",
            "shared_hotspots",
            "workload",
            "frontend",
        }
        assert len(spec.cells()) == 64

    def test_resolve_spec_unknown(self):
        with pytest.raises(SweepSpecError):
            resolve_spec("no-such-spec")

    def test_roundtrip(self):
        spec = tiny_spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec


class TestCellIds:
    def test_deterministic_and_sorted(self):
        cells = tiny_spec().cells()
        ids = [cell.cell_id for cell in cells]
        assert ids == sorted(ids)
        assert ids == [cell.cell_id for cell in tiny_spec().cells()]

    def test_slug_shape(self):
        ids = {cell.cell_id for cell in tiny_spec().cells()}
        assert "shards=1__users=1" in ids  # aliased + sorted axis names

    def test_filename_safe(self):
        spec = SweepSpec.from_dict(
            {
                "name": "x",
                "parameters": {
                    "hotspot_decay": [0.9, 1.0],
                    "settle": [True, False],
                },
            }
        )
        for cell in spec.cells():
            assert "/" not in cell.cell_id
            assert " " not in cell.cell_id
        ids = {cell.cell_id for cell in spec.cells()}
        assert "hotspot_decay=0.9__settle=on" in ids


class TestResume:
    def test_fresh_run_executes_everything(self, tmp_path):
        calls = []
        summary = run_sweep(tiny_spec(), tmp_path, runner=fake_runner(calls))
        assert len(calls) == 4
        assert summary.executed == sorted(calls)
        assert not summary.skipped

    def test_resume_skips_completed_and_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path, runner=fake_runner())
        before = {
            path.name: path.read_bytes() for path in tmp_path.glob("*.json")
        }
        calls = []
        summary = run_sweep(spec, tmp_path, runner=fake_runner(calls))
        after = {
            path.name: path.read_bytes() for path in tmp_path.glob("*.json")
        }
        assert calls == []  # nothing re-executed
        assert len(summary.skipped) == 4
        assert before == after  # untouched, not rewritten

    def test_interrupted_sweep_runs_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        cells = spec.cells()
        # Simulate an interrupt: only the first two cells completed.
        partial = fake_runner()
        for cell in cells[:2]:
            write_cell_record(
                cell_path(tmp_path, cell.cell_id),
                partial(cell).to_record(),
            )
        calls = []
        summary = run_sweep(spec, tmp_path, runner=fake_runner(calls))
        assert calls == [cell.cell_id for cell in cells[2:]]
        assert summary.skipped == [cell.cell_id for cell in cells[:2]]
        assert summary.total == 4

    def test_param_drift_invalidates_record(self, tmp_path):
        """A record whose fixed params no longer match is re-run — a
        stale results dir cannot poison a changed sweep."""
        spec = tiny_spec()
        run_sweep(spec, tmp_path, runner=fake_runner())
        drifted = SweepSpec.from_dict(
            {
                "name": "tiny",
                "parameters": {"users": [1, 2], "cache_shards": [1, 4]},
                "fixed": {"size": 64, "tile_size": 8, "prefetch_mode": "background"},
            }
        )
        calls = []
        summary = run_sweep(drifted, tmp_path, runner=fake_runner(calls))
        assert len(calls) == 4  # all re-run
        assert not summary.skipped

    def test_force_reruns_everything(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path, runner=fake_runner())
        calls = []
        run_sweep(spec, tmp_path, force=True, runner=fake_runner(calls))
        assert len(calls) == 4

    def test_corrupt_record_is_rerun(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, tmp_path, runner=fake_runner())
        victim = cell_path(tmp_path, spec.cells()[0].cell_id)
        victim.write_text("{not json")
        calls = []
        run_sweep(spec, tmp_path, runner=fake_runner(calls))
        assert calls == [spec.cells()[0].cell_id]

    def test_load_cell_record_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema_version": 99}))
        assert load_cell_record(path) is None


class TestSnapshot:
    def _snapshot(self, tmp_path, spec=None, **kwargs):
        spec = spec or tiny_spec()
        summary = run_sweep(spec, tmp_path, runner=fake_runner())
        return build_snapshot(
            spec, summary.results, git_sha="abc1234", **kwargs
        )

    def test_build_and_roundtrip(self, tmp_path):
        snapshot = self._snapshot(tmp_path / "r")
        assert snapshot["schema_version"] == 1
        assert len(snapshot["cells"]) == 4
        assert snapshot["spec"]["name"] == "tiny"
        assert snapshot["environment"]["python"]
        path = write_snapshot(snapshot, tmp_path / "traj")
        assert path.name == snapshot_filename(snapshot)
        assert path.name.startswith("BENCH_") and "abc1234" in path.name
        assert load_snapshot(path) == snapshot

    def test_missing_cells_rejected_unless_partial(self, tmp_path):
        spec = tiny_spec()
        summary = run_sweep(spec, tmp_path, runner=fake_runner())
        partial = summary.results[:2]
        with pytest.raises(SnapshotError):
            build_snapshot(spec, partial, git_sha="abc")
        snapshot = build_snapshot(
            spec, partial, git_sha="abc", allow_partial=True
        )
        assert len(snapshot["missing_cells"]) == 2

    def test_foreign_cells_rejected(self, tmp_path):
        spec = tiny_spec()
        summary = run_sweep(spec, tmp_path, runner=fake_runner())
        alien = CellResult("not-a-cell", {}, {})
        with pytest.raises(SnapshotError):
            build_snapshot(spec, summary.results + [alien], git_sha="abc")

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_2020-01-01_zzz.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_find_and_latest(self, tmp_path):
        spec = tiny_spec()
        summary = run_sweep(spec, tmp_path / "r", runner=fake_runner())
        older = build_snapshot(
            spec,
            summary.results,
            git_sha="aaa",
            created_utc="2026-01-01T00:00:00+00:00",
        )
        newer = build_snapshot(
            spec,
            summary.results,
            git_sha="bbb",
            created_utc="2026-02-01T00:00:00+00:00",
        )
        traj = tmp_path / "traj"
        write_snapshot(newer, traj)
        write_snapshot(older, traj)
        found = find_snapshots(traj)
        assert [p.name for p in found] == [
            "BENCH_2026-01-01_aaa.json",
            "BENCH_2026-02-01_bbb.json",
        ]
        assert latest_snapshot(traj).name == "BENCH_2026-02-01_bbb.json"
        assert latest_snapshot(tmp_path / "empty") is None


class TestCompare:
    def _snapshots(self, tmp_path):
        spec = tiny_spec()
        summary = run_sweep(spec, tmp_path, runner=fake_runner())
        base = build_snapshot(spec, summary.results, git_sha="base")
        current = json.loads(json.dumps(base))
        current["git_sha"] = "cur"
        return base, current

    def test_identical_snapshots_pass(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        report = compare_snapshots(base, current)
        assert report.ok
        assert report.compared_cells == 4
        assert "OK" in report.render()

    def test_latency_regression_fails(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        cell = next(iter(current["cells"]))
        current["cells"][cell]["metrics"]["p95_ms"] *= 2
        report = compare_snapshots(base, current)
        assert not report.ok
        assert report.regressions[0].metric == "p95_ms"
        assert "FAIL" in report.render()

    def test_hit_rate_drop_fails(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        cell = next(iter(current["cells"]))
        current["cells"][cell]["metrics"]["hit_rate"] -= 0.05
        assert not compare_snapshots(base, current).ok

    def test_within_tolerance_passes(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        for cell in current["cells"].values():
            cell["metrics"]["p95_ms"] *= 1.1  # < default +25%
            cell["metrics"]["hit_rate"] -= 0.01  # < default 0.02
        assert compare_snapshots(base, current).ok

    def test_absolute_slack_shields_tiny_baselines(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        for cell in base["cells"].values():
            cell["metrics"]["p50_ms"] = 0.001
        for cell in current["cells"].values():
            cell["metrics"]["p50_ms"] = 0.9  # huge relative, < 1ms slack
        assert compare_snapshots(base, current).ok

    def test_throughput_drop_warns_not_fails(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        for cell in current["cells"].values():
            cell["metrics"]["throughput_rps"] /= 10
        report = compare_snapshots(base, current)
        assert report.ok
        assert any("throughput" in w for w in report.warnings)

    def test_grid_changes_warn(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        cell = next(iter(current["cells"]))
        del current["cells"][cell]
        report = compare_snapshots(base, current)
        assert report.ok
        assert any("baseline" in w for w in report.warnings)

    def test_improvements_reported(self, tmp_path):
        base, current = self._snapshots(tmp_path)
        for cell in current["cells"].values():
            cell["metrics"]["avg_ms"] /= 4
        report = compare_snapshots(base, current)
        assert report.ok
        assert report.improvements

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            Tolerances(latency_increase=-0.1)
        with pytest.raises(ValueError):
            Tolerances(throughput_drop=2.0)


class TestCli:
    """Exit-code contract of the gate (what CI scripts rely on)."""

    def _bootstrap(self, monkeypatch):
        monkeypatch.setitem(BUILTIN_SPECS, "tiny", tiny_spec().to_dict())
        return "tiny"

    def test_spec_errors(self, tmp_path, monkeypatch, capsys):
        results = str(tmp_path / "results")
        assert main(["run", "--spec", "no-such-spec", "--results-dir", results]) == 2
        assert "error:" in capsys.readouterr().err
        monkeypatch.setitem(BUILTIN_SPECS, "bad", {"name": "x", "parameters": {}})
        assert main(["run", "--spec", "bad", "--results-dir", results]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_run_snapshot_compare_roundtrip(
        self, tmp_path, monkeypatch, capsys
    ):
        # Patch the real cell runner out — the CLI contract under test
        # is wiring + exit codes, not the serving stack.
        import repro.experiments.sweep.cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "run_sweep",
            lambda spec, results_dir, force=False, log=None: run_sweep(
                spec, results_dir, force=force, runner=fake_runner()
            ),
        )
        spec_name = self._bootstrap(monkeypatch)
        results = tmp_path / "results"
        traj = tmp_path / "traj"
        assert (
            main(["run", "--spec", spec_name, "--results-dir", str(results)])
            == 0
        )
        assert (
            main(
                [
                    "snapshot",
                    "--spec",
                    spec_name,
                    "--results-dir",
                    str(results),
                    "--out-dir",
                    str(traj),
                    "--git-sha",
                    "abc1234",
                ]
            )
            == 0
        )
        snapshots = list(traj.glob("BENCH_*.json"))
        assert len(snapshots) == 1

        # Self-compare (single committed snapshot) passes.
        assert (
            main(
                [
                    "compare",
                    "--baseline",
                    str(traj),
                    "--current",
                    str(traj),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "self-comparison" in out

        # A doctored regression fails with exit 1.
        doc = load_snapshot(snapshots[0])
        for cell in doc["cells"].values():
            cell["metrics"]["p99_ms"] *= 3
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        assert (
            main(
                [
                    "compare",
                    "--baseline",
                    str(traj),
                    "--current",
                    str(doctored),
                ]
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().out

        # report renders markdown tables.
        assert main(["report", "--current", str(snapshots[0])]) == 0
        assert "| cell" in capsys.readouterr().out

    def test_compare_missing_snapshot_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["compare", "--baseline", str(tmp_path), "--current", str(tmp_path)])
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_snapshot_partial_guard(self, tmp_path, monkeypatch, capsys):
        spec_name = self._bootstrap(monkeypatch)
        empty = tmp_path / "none"
        assert (
            main(
                [
                    "snapshot",
                    "--spec",
                    spec_name,
                    "--results-dir",
                    str(empty),
                    "--out-dir",
                    str(tmp_path / "traj"),
                ]
            )
            == 2
        )
        assert "missing" in capsys.readouterr().err
