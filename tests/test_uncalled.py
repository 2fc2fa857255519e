"""The ``uncalled`` gate (``experiments/uncalled.py``) and what feeds it.

The gate's verdicts are checked on synthetic call records: every def
under ``src/repro`` is placed in a suite by hand, so no suite runs under
the recorder here; only a one-line child process does, to check that
switching the recorder's hook off is caught.  The last tests hold ``experiments/calls/record.sh``
to what CI runs, and the committed allowlists to the defs that exist.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("uncalled", ROOT / "experiments" / "uncalled.py")
uncalled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncalled)


@pytest.fixture(scope="module")
def defs():
    return list(uncalled.definitions())


def _name(definition) -> str:
    path, _, qualname, _ = definition
    return f"{path}:{qualname}"


def _key(definition) -> tuple:
    path, line, _, _ = definition
    return (path, line)


class Records:
    """Call records and allowlists in which every def is accounted for:
    one def only the fast tier reached (with a reason), one def no
    suite reached (with a reason), and every other def reached by
    another suite.  Tests then break one of these."""

    def __init__(self, tmp_path: Path, monkeypatch, defs) -> None:
        self.tmp_path = tmp_path
        self.fast_only, self.uncalled = defs[0], defs[-1]
        self.fast = {_key(d) for d in defs if d is not self.uncalled}
        self.others = self.fast - {_key(self.fast_only)}
        self.explained = {_name(self.fast_only): "a reason"}
        self.allowed = {_name(self.uncalled): "a reason"}
        # The source is parsed once per module (the ``defs`` fixture).
        monkeypatch.setattr(uncalled, "definitions", lambda: iter(defs))
        monkeypatch.setattr(uncalled, "ALLOWLIST", tmp_path / "uncalled.txt")
        monkeypatch.setattr(uncalled, "FAST_ONLY_ALLOWLIST", tmp_path / "fast_only.txt")

    def _write(self, directory: str, keys: set) -> str:
        path = self.tmp_path / directory
        path.mkdir(exist_ok=True)
        record = {"pid": 1, "argv": ["-c"], "hook_lost": False, "calls": sorted(keys)}
        (path / "1-1.json").write_text(json.dumps(record))
        return str(path)

    def report(self, *more: Path) -> int:
        """The gate's exit status, reading ``more`` record directories
        after the synthetic suites."""
        for path, entries in (
            (uncalled.ALLOWLIST, self.allowed),
            (uncalled.FAST_ONLY_ALLOWLIST, self.explained),
        ):
            path.write_text("".join(f"{name}  {why}\n" for name, why in entries.items()))
        suites = [self._write("fast", self.fast), self._write("others", self.others)]
        return uncalled.main(suites + [str(directory) for directory in more])


@pytest.fixture
def records(tmp_path, monkeypatch, defs):
    return Records(tmp_path, monkeypatch, defs)


class TestReport:
    def test_every_def_accounted_for_passes(self, records, capsys):
        assert records.report() == 0
        out = capsys.readouterr().out
        assert "uncalled functions 0 (allowlisted 1)" in out
        assert "reached only by the fast tier 1 (" in out

    def test_unlisted_uncalled_def_fails(self, records, capsys):
        records.allowed.clear()
        assert records.report() == 1
        assert f"uncalled: {records.uncalled[0]}:{records.uncalled[1]}" in capsys.readouterr().out

    def test_unlisted_fast_only_def_fails(self, records, capsys):
        records.explained.clear()
        assert records.report() == 1
        assert "fast-only without a reason" in capsys.readouterr().out

    def test_fast_only_entry_another_suite_reached_fails(self, records, capsys):
        records.others.add(_key(records.fast_only))
        assert records.report() == 1
        assert "reached by another suite" in capsys.readouterr().out

    def test_uncalled_entry_something_called_fails(self, records, capsys):
        records.others.add(_key(records.uncalled))
        assert records.report() == 1
        assert "allowlisted but called" in capsys.readouterr().out

    @pytest.mark.parametrize("entries", ["allowed", "explained"])
    def test_entry_that_names_no_def_fails(self, records, capsys, entries):
        getattr(records, entries)["src/repro/gone.py:gone"] = "a reason"
        assert records.report() == 1
        assert "not a non-stub def: src/repro/gone.py:gone" in capsys.readouterr().out

    def test_entry_without_a_reason_is_refused(self, records):
        records.explained[_name(records.fast_only)] = ""
        with pytest.raises(SystemExit, match="gives no reason"):
            records.report()


def _record_child(out: Path, code: str) -> None:
    """Run ``python -c code`` under the call recorder, its records
    going to ``out`` (not to any suite the test itself is recorded in)."""
    path = [str(ROOT / "experiments" / "calls"), str(ROOT / "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), REPRO_CALLS_DIR=str(out))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestRecorder:
    @pytest.mark.parametrize("switched_off", [False, True])
    def test_a_process_that_switches_the_hook_off_fails_the_report(
        self, records, capsys, tmp_path, switched_off
    ):
        out = tmp_path / "child"
        code = "import sys; import repro.tiles.key"
        if switched_off:
            code += "; sys.setprofile(None)"
        _record_child(out, code)
        (record,) = (json.loads(path.read_text()) for path in out.glob("*.json"))
        assert record["hook_lost"] is switched_off
        assert record["argv"] == ["-c"]
        assert records.report(out) == int(switched_off)
        named = f"recorder switched off, calls after it unrecorded: pid {record['pid']} '-c'"
        assert (named in capsys.readouterr().out) is switched_off


@pytest.mark.parametrize("path", [uncalled.ALLOWLIST, uncalled.FAST_ONLY_ALLOWLIST])
def test_committed_entries_name_defs(defs, path):
    """A deleted or renamed function takes its allowlist line with it;
    the recorder-driven report would refuse the stale line too, but
    only after every suite ran."""
    assert set(uncalled.allowlist(path)) <= {_name(d) for d in defs}


def _run_by(text: str) -> set:
    """The scripts a shell text runs: ``python <script>.py`` under
    ``experiments/``, ``examples/`` or ``benchmarks/perf/``, and
    ``python -m repro...``; comment lines skipped."""
    found = set()
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        found.update(re.findall(
            r"\bpython(?:\s+-W\s+\S+)?\s+((?:experiments|examples|benchmarks/perf)/[\w/]+\.py)",
            line,
        ))
        found.update(f"-m {module}" for module in re.findall(r"\bpython\s+-m\s+(repro[\w.]*)", line))
    return found


def test_record_sh_runs_every_script_ci_runs():
    """The recorder must see what CI runs, or a function CI reaches is
    reported fast-only (flags and sizes may differ)."""
    ci = _run_by((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    assert {"experiments/sweep.py", "experiments/scoreboard.py", "benchmarks/perf/run.py"} <= ci
    record = "\n".join(
        line
        for line in (ROOT / "experiments" / "calls" / "record.sh").read_text().splitlines()
        if not line.lstrip().startswith("#")
    )
    assert sorted(script for script in ci if script not in record) == []
