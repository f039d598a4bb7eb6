"""The small-EPC probe: how many differential seeds stay equal across modes
when the sgx EPC is smaller than the differential's own sizes.

Usage, from anywhere inside the repository:

    python3 tools/epc_probe.py 16 12              seeds 0-199 at 16 and 12 granules
    python3 tools/epc_probe.py --seeds 10 16      seeds 0-9 at 16 granules

Each seed's scenario is drawn by ``tests/test_differential._draw`` and run
through ``scenario.compare_modes`` with that seed's differential config at
the given EPC size, by the differential's own ``_run``: after every line the
audit and the paging checks run, and at the end no page may keep an owner.
A seed is ``equal`` when the modes differ only in fields that
``MODE_DIFFERENCES`` names and every check holds, ``capped`` when it makes
more than ``RELOAD_CAP`` page reloads, as a paging livelock does, and
``other`` otherwise.  The reload count decides, so the result does not depend on the
machine's speed; a wall cap of ``CAP`` seconds per seed, far above any
seed's time, is only a backstop.  One line per size:

    16 granules: 199 equal, 0 capped, 1 other; not equal: 69

The not-equal seeds are listed in order, a capped one marked ``(capped)``,
or ``-`` if there is none.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import random
import signal
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from ccxsim import fixtures  # noqa: E402
from ccxsim.runtime import HostRuntime  # noqa: E402
from test_differential import RELOAD_CAP, _draw, _run  # noqa: E402

CAP = 60.0  # s per seed, a backstop: seeds 0-199 at 12 and 16 granules took at most 0.45 s
# each on a 2-vCPU VM, with at most 188 reloads


class _Capped(Exception):
    """A seed made more than ``RELOAD_CAP`` reloads or ran past ``CAP``."""


@contextlib.contextmanager
def _capped():
    """Raise :class:`_Capped` at the reload past ``RELOAD_CAP``, or in this
    thread once ``CAP`` seconds have passed."""
    reload, reloads = HostRuntime._reload, itertools.count(1)

    def counted(rt, eid, page):
        if next(reloads) > RELOAD_CAP:
            raise _Capped()
        return reload(rt, eid, page)

    def expire(signum, frame):
        raise _Capped()

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        HostRuntime._reload = counted
        signal.setitimer(signal.ITIMER_REAL, CAP)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        HostRuntime._reload = reload
        signal.signal(signal.SIGALRM, previous)


def probe(seed: int, epc_size: int, directory) -> str:
    """``equal``, ``capped`` or ``other`` for one seed at one EPC size."""
    try:
        with _capped():
            _run(seed, directory, _draw(random.Random(seed)), epc_size)
    except _Capped:
        return "capped"
    except Exception:  # a difference, a failed check or a refusal the run does not expect
        return "other"
    return "equal"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("epc_sizes", nargs="+", type=int, metavar="GRANULES")
    parser.add_argument("--seeds", type=int, default=200, help="probe seeds 0..N-1 (200)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        fixtures.write_demo_tree(directory)
        for size in args.epc_sizes:
            outcomes = {seed: probe(seed, size, directory) for seed in range(args.seeds)}
            counts = [sum(o == kind for o in outcomes.values())
                      for kind in ("equal", "capped", "other")]
            failing = [f"{seed} (capped)" if o == "capped" else str(seed)
                       for seed, o in outcomes.items() if o != "equal"]
            print(f"{size} granules: {counts[0]} equal, {counts[1]} capped, {counts[2]} other;"
                  f" not equal: {', '.join(failing) or '-'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
