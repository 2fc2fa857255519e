#!/usr/bin/env python
"""List the functions under ``src/repro/`` that nothing ran, or only tests.

Reads the call records ``experiments/calls/sitecustomize.py`` wrote (one
directory per suite, the fast tier's first), lists every ``def`` under
``src/repro/`` by parsing the source, and prints two counts:

- ``uncalled functions N``: defs no suite called.  Stubs are not
  counted: bodies that hold only a docstring, ``...``, ``pass`` or
  ``raise NotImplementedError``.
- ``reached only by the fast tier M (L lines)``: defs the fast tier
  called and no other suite did, each then listed on its own line as
  ``path:line qualname (lines)``.

A function may stay uncalled only if ``experiments/uncalled_allowlist.txt``
names it, and may be reached only by the fast tier only if
``experiments/fast_only_allowlist.txt`` names it; both hold one
``path:qualname  reason`` per line.  The exit status is 1 if any other
function is uncalled or fast-only, if an uncalled entry names a function
that is now called, if a fast-only entry names one another suite now
reaches, if an entry of either list names a function that no longer
exists, or if a recorded process switched the recorder's hook off (each
such process is named by its pid and argv); 0 otherwise.

Usage (from the repository root; ``experiments/calls/record.sh`` runs
the suites and then this)::

    python experiments/uncalled.py FAST_DIR [OTHER_DIR ...]
"""

import argparse
import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "experiments" / "uncalled_allowlist.txt"
FAST_ONLY_ALLOWLIST = ROOT / "experiments" / "fast_only_allowlist.txt"


def _is_stub(node: ast.AST) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def definitions():
    """Yield ``(path, key line, qualname, lines)`` for every non-stub def.

    The key line is the first decorator's line, which is what a code
    object's ``co_firstlineno`` reads.
    """
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=relative)
        todo = [(tree, "")]
        while todo:
            parent, prefix = todo.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    todo.append((node, f"{prefix}{node.name}."))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + node.name
                    todo.append((node, f"{qualname}.<locals>."))
                    if not _is_stub(node):
                        line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        yield relative, line, qualname, node.end_lineno - line + 1
                else:
                    todo.append((node, prefix))


def called(directory: Path, lost: list) -> set:
    """The ``(path, line)`` keys the records under ``directory`` hold;
    each process that lost the recorder's hook is appended to ``lost``."""
    calls = set()
    for path in directory.glob("*.json"):
        record = json.loads(path.read_text())
        calls.update(map(tuple, record["calls"]))
        if record["hook_lost"]:
            lost.append(f"pid {record['pid']} {' '.join(record['argv'])!r}")
    return calls


def allowlist(path: Path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            if not reason.strip():
                raise SystemExit(f"{path.name}: {name} gives no reason")
            entries[name] = reason.strip()
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fast", type=Path, help="the fast tier's call records")
    parser.add_argument("others", type=Path, nargs="*",
                        help="every other suite's call records")
    args = parser.parse_args(argv)
    lost = []
    fast = called(args.fast, lost)
    others = set().union(*(called(other, lost) for other in args.others))
    allowed = allowlist(ALLOWLIST)
    explained = allowlist(FAST_ONLY_ALLOWLIST)

    uncalled, fast_only, names = [], [], set()
    failed = bool(lost)
    for process in lost:
        print(f"recorder switched off, calls after it unrecorded: {process}")
    for path, line, qualname, lines in definitions():
        name = f"{path}:{qualname}"
        names.add(name)
        key = (path, line)
        if name in explained and key in others:
            print(f"fast-only allowlisted but reached by another suite: {name}")
            failed = True
        if name in allowed:
            if key in fast or key in others:
                print(f"allowlisted but called: {name}")
                failed = True
        elif key not in fast and key not in others:
            uncalled.append(f"{path}:{line} {qualname}")
        elif key not in others:
            fast_only.append((f"{path}:{line} {qualname}", lines))
            if name not in explained:
                print(f"fast-only without a reason: {path}:{line} {qualname}")
                failed = True
    for name in sorted((set(allowed) | set(explained)) - names):
        print(f"allowlisted but not a non-stub def: {name}")
        failed = True
    for entry in uncalled:
        print(f"uncalled: {entry}")
    print(f"uncalled functions {len(uncalled)} (allowlisted {len(allowed)})")
    total = sum(lines for _, lines in fast_only)
    print(f"reached only by the fast tier {len(fast_only)} ({total} lines,"
          f" allowlisted {len(explained)})")
    for entry, lines in fast_only:
        print(f"  {entry} ({lines})")
    return 1 if uncalled or failed else 0


if __name__ == "__main__":
    sys.exit(main())
