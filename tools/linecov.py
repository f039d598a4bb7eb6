"""A line census of ``src/ccxsim``: the executable lines tier-1 never runs.

Usage, from anywhere inside the repository:

    python3 tools/linecov.py                              print them
    python3 tools/linecov.py --check tests/unreached.txt  compare with a list

The collector uses the standard library only.  It runs the tier-1 suite in
this process under a ``sys.settrace`` function that records each line event
in a file of ``src/ccxsim``; the suite's own output goes to stderr.  A line is
executable when a code object compiled from its file maps an instruction to
it.  The unreached lines print to stdout as sorted ``file:line`` entries,
``file`` relative to ``src/ccxsim``.

With ``--check``, each line of the list reads ``file:line kind: reason``,
``kind`` one of ``KINDS``; blank lines and ``#`` comments are skipped.  The
check exits 1 if a line is unreached and not listed, or listed and now
reached, and prints both sets.  Line numbers are the compiler's, so the list
holds for one Python version (3.11).  Code that only a subprocess of the
suite runs counts as unreached.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ccxsim"
TIER1 = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--continue-on-collection-errors", str(REPO / "tests")]
KINDS = ("audit", "guard", "entry point", "untested refusal")


def executable_lines(path: Path) -> set:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_tier1() -> dict:
    """Each ``src/ccxsim`` file's name -> the lines tier-1 ran."""
    import pytest

    reached: dict = {}
    tracers: dict = {}  # co_filename -> its local trace function, or None
    prefix = str(PACKAGE) + os.sep

    def tracer_for(filename):
        path = os.path.abspath(filename)
        local = None
        if path.startswith(prefix):
            add = reached.setdefault(path[len(prefix):], set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local
        tracers[filename] = local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            return tracer_for(filename)

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(REPO)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        raise SystemExit(f"tier-1 failed (pytest status {int(status)}): no census")
    return reached


def unreached(reached: dict) -> list:
    entries = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        lines = executable_lines(path) - reached.get(name, set())
        entries.extend(f"{name}:{line}" for line in sorted(lines))
    return entries


def read_list(path: Path) -> dict:
    """The listed ``file:line`` entries -> their reasons."""
    listed = {}
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        entry, _, reason = text.partition(" ")
        if not reason.strip().startswith(tuple(f"{kind}:" for kind in KINDS)):
            raise SystemExit(f"{path}:{number}: {entry} needs a reason: one of "
                             + ", ".join(f"'{kind}: ...'" for kind in KINDS))
        if entry in listed:
            raise SystemExit(f"{path}:{number}: {entry} listed twice")
        listed[entry] = reason.strip()
    return listed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="LIST",
                        help="fail unless LIST names exactly the unreached lines")
    args = parser.parse_args(argv)
    listed = read_list(args.check) if args.check else None
    found = unreached(run_tier1())
    if listed is None:
        print("\n".join(found))
        return 0
    missing = [entry for entry in found if entry not in listed]
    stale = [entry for entry in listed if entry not in set(found)]
    for title, entries in (("unreached and not listed", missing),
                           ("listed and now reached", stale)):
        if entries:
            print(f"{len(entries)} {title}:", *entries, sep="\n  ")
    print(f"{len(found)} unreached lines, {len(listed)} listed")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
