#!/usr/bin/env python3
"""Reachability probe: which functions under ``src/repro`` does anything run?

Runs, in this one process, everything the repository exercises outside its
unit tests:

* the repo benchmark's smoke mode (``benchmarks/e2e/run.py --smoke``: every
  workload, timed and traced);
* every ``repro`` subcommand, ``serve`` once per CI soak with that soak's
  flags;
* the paper-exhibit scripts (``benchmarks/bench_*.py`` under pytest, and
  ``bench_session_reuse.py``'s own entry point);
* every ``examples/*.py`` script, run as ``__main__``;

while a ``sys.setprofile`` / ``threading.setprofile`` hook records every code
object entered.  Forked pool workers leave by ``os._exit``, so the probe
wraps ``os._exit`` (before anything imports ``repro``) to write the child's
set to a scratch directory first; the parent merges those sets.

It then compiles every module under ``src/repro``, lists the named functions
no run entered, and prints them per package with their line totals::

    python3 benchmarks/reach.py

It exits 1 when a run fails or when the unreached function lines exceed
:data:`MAX_UNREACHED_LINES`, so code that nothing runs cannot come back
unnoticed; CI's ``reach`` job runs it.  Each failed run is named again,
with its exit status, after the totals, so the tail of a long log shows
which one failed.  Deleting unreached code lowers the
count: lower the constant with it.  Stdlib only; a run takes about 40 s on
a 2-core Xeon.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = (SRC / "repro").resolve()

Key = Tuple[str, int, str]

#: The ratchet: the most unreached function lines a run may report (the
#: highest of five runs; chaos and retry paths vary a little between runs).
MAX_UNREACHED_LINES = 932

#: The CLI runs: the CI smoke of ``e2e`` and ``components``, one small
#: ``samplers`` table, every exhibit, and ``serve`` with each CI soak's flags.
CLI_RUNS: List[List[str]] = [
    ["e2e", "--dataset", "shapenet", "--scale", "0.05", "--samples", "128",
     "--neighbors", "8", "--frames", "2"],
    ["components"],
    ["samplers", "--points", "2000", "--samples", "128"],
    ["figures"],
    ["serve", "--frames", "200", "--workers", "2", "--execution", "thread",
     "--max-wait-ms", "5", "--seed", "0"],
    ["serve", "--frames", "200", "--workers", "2", "--execution", "process",
     "--max-wait-ms", "5", "--seed", "0"],
    ["serve", "--frames", "200", "--workers", "2", "--execution", "thread",
     "--backend", "numpy", "--max-wait-ms", "5", "--seed", "0"],
    ["serve", "--frames", "120", "--workers", "2", "--execution", "process",
     "--chaos", "--chaos-kill-after", "2", "--max-wait-ms", "5", "--seed", "0",
     "--request-timeout", "120"],
    ["serve", "--traffic", "mixed", "--frames", "120", "--workers", "2",
     "--rate-hz", "2000", "--execution", "process", "--chaos",
     "--chaos-kill-after", "2", "--admission", "shed", "--queue-capacity",
     "6", "--min-load-sheds", "5", "--max-wait-ms", "5", "--seed", "0",
     "--request-timeout", "120"],
]


class Recorder:
    """Code objects entered, per process; children dump theirs on exit."""

    def __init__(self, dump_dir: Path) -> None:
        self.seen: Set[types.CodeType] = set()
        self.dump_dir = dump_dir
        self._real_exit = os._exit

    def hook(self, frame, event, _arg):
        if event == "call":
            self.seen.add(frame.f_code)

    def keys(self) -> Set[Key]:
        keys = set()
        for code in self.seen:
            path = os.path.realpath(code.co_filename)
            if path.startswith(str(PACKAGE)):
                keys.add((path, code.co_firstlineno, code.co_name))
        return keys

    def _exit(self, status: int) -> None:
        sys.setprofile(None)
        with contextlib.suppress(Exception):
            path = self.dump_dir / f"child_{os.getpid()}.json"
            path.write_text(json.dumps(sorted(self.keys())))
        self._real_exit(status)

    def install(self) -> None:
        os._exit = self._exit
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)

    def remove(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        os._exit = self._real_exit

    def merged(self) -> Set[Key]:
        keys = self.keys()
        for dump in self.dump_dir.glob("child_*.json"):
            keys.update(tuple(key) for key in json.loads(dump.read_text()))
        return keys


@contextlib.contextmanager
def argv(args: List[str]) -> Iterator[None]:
    saved = sys.argv[:]
    sys.argv = args
    try:
        yield
    finally:
        sys.argv = saved


def run_everything() -> Dict[str, int]:
    """Every run, in this process; returns each run's exit status."""
    import pytest

    from repro import cli

    statuses: Dict[str, int] = {}

    def record(name: str, status, output: str = "") -> None:
        statuses[name] = int(status or 0)
        print(f"  {name}: exit {statuses[name]}", file=sys.stderr, flush=True)
        if statuses[name]:
            print("\n".join(output.splitlines()[-15:]), file=sys.stderr, flush=True)

    def run_script(path: Path, *args: str) -> None:
        with argv([str(path), *args]), contextlib.redirect_stdout(io.StringIO()) as output:
            try:
                runpy.run_path(str(path), run_name="__main__")
                status = 0
            except SystemExit as stop:
                status = stop.code
        record(" ".join([str(path.relative_to(ROOT)), *args]), status, output.getvalue())

    run_script(HERE / "e2e" / "run.py", "--smoke")

    for args in CLI_RUNS:
        name = "repro " + " ".join(args[:7])
        with tempfile.TemporaryDirectory() as scratch:
            if args[0] == "serve":
                args = args + ["--metrics-out", str(Path(scratch) / "metrics.json")]
            with contextlib.redirect_stdout(io.StringIO()) as output:
                status = cli.main(args)
        record(name, status, output.getvalue())

    with contextlib.redirect_stdout(io.StringIO()) as output:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--benchmark-disable"]
            + sorted(str(p) for p in HERE.glob("bench_*.py"))
        )
    record("pytest benchmarks/bench_*.py", status, output.getvalue())

    run_script(HERE / "bench_session_reuse.py")

    for example in sorted((ROOT / "examples").glob("*.py")):
        run_script(example)
    return statuses


def functions(path: Path) -> Iterator[Tuple[Key, str, Set[int]]]:
    """Every named function compiled from ``path``: key, qualname, lines."""
    filename = os.path.realpath(path)
    stack = [compile(path.read_text(), filename, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & 0x2 and not code.co_name.startswith("<"):  # CO_NEWLOCALS
            lines = [line for _, _, line in code.co_lines() if line is not None]
            span = set(range(code.co_firstlineno, max(lines, default=code.co_firstlineno) + 1))
            qualname = getattr(code, "co_qualname", code.co_name)
            yield (filename, code.co_firstlineno, code.co_name), qualname, span


def report(reached: Set[Key]) -> Dict[str, object]:
    packages: Dict[str, Dict[str, object]] = defaultdict(
        lambda: {"functions": 0, "unreached": 0, "lines": set(), "unreached_lines": set(), "names": []}
    )
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        package = relative.parts[0] if len(relative.parts) > 1 else relative.stem
        entry = packages[package]
        for key, qualname, span in functions(path):
            entry["functions"] += 1
            entry["lines"].update((str(relative), line) for line in span)
            if key not in reached:
                entry["unreached"] += 1
                entry["unreached_lines"].update((str(relative), line) for line in span)
                entry["names"].append(f"{relative}:{key[1]} {qualname}")
    out: Dict[str, object] = {}
    for package, entry in sorted(packages.items()):
        out[package] = {
            "functions": entry["functions"],
            "unreached": entry["unreached"],
            "function_lines": len(entry["lines"]),
            "unreached_lines": len(entry["unreached_lines"]),
            "names": sorted(entry["names"]),
        }
    return out


def failed_runs(statuses: Dict[str, int]) -> List[str]:
    """``"<run>: exit <status>"`` for every run that failed, in run order."""
    return [f"{name}: exit {status}" for name, status in statuses.items() if status]


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as dumps:
        recorder = Recorder(Path(dumps))
        recorder.install()
        try:
            statuses = run_everything()
        finally:
            recorder.remove()
        reached = recorder.merged()

    packages = report(reached)
    totals = {
        name: sum(p[name] for p in packages.values())
        for name in ("functions", "unreached", "function_lines", "unreached_lines")
    }
    for package, entry in packages.items():
        print(
            f"{package:18s} {entry['unreached']:4d}/{entry['functions']:4d} functions"
            f" {entry['unreached_lines']:5d}/{entry['function_lines']:5d} lines unreached"
        )
        for name in entry["names"]:
            print(f"    {name}")
    print(
        f"total              {totals['unreached']:4d}/{totals['functions']:4d} functions"
        f" {totals['unreached_lines']:5d}/{totals['function_lines']:5d} lines unreached"
    )
    sys.stdout.flush()
    failures = failed_runs(statuses)
    for failure in failures:
        print(f"failed run: {failure}", file=sys.stderr)
    over = totals["unreached_lines"] > MAX_UNREACHED_LINES
    if over:
        print(
            f"{totals['unreached_lines']} unreached function lines exceed the ratchet"
            f" MAX_UNREACHED_LINES = {MAX_UNREACHED_LINES}: delete the new dead code"
            " or run it from a workload, exhibit, example or CI step",
            file=sys.stderr,
        )
    return 1 if over or failures else 0


if __name__ == "__main__":
    sys.exit(main())
