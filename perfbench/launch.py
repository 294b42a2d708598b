"""Run one ``harnack`` CLI process from the checkout's ``src/`` tree.

    python3 perfbench/launch.py MARK_FILE MODE -- <harnack arguments>

MODE is ``run`` (plain CLI run), ``setup`` (stop as soon as the first audit
or cache action would start) or ``trace:<file>`` (run with the per-layer
tracer installed and write its figures to <file> as JSON).

The moment the CLI hands over to its first audit or cache action is written
to MARK_FILE as a ``time.monotonic()`` reading, so the caller can compute the
start-up time of the process from its own spawn time.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mark_first_entry(mark_file: str, setup_only: bool, targets) -> None:
    """Make the first call of any ``(owner, name)`` target record the hand-over time."""
    state = {"marked": False}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            if not state["marked"]:
                state["marked"] = True
                with open(mark_file, "w") as handle:
                    handle.write(repr(time.monotonic()))
                if setup_only:
                    sys.stdout.flush()
                    os._exit(0)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in targets:
        setattr(owner, name, wrap(getattr(owner, name)))


def main(argv: list[str]) -> int:
    mark_file, mode, dashdash, *cli_args = argv
    if dashdash != "--":
        raise SystemExit("usage: launch.py MARK_FILE MODE -- <harnack arguments>")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harnack import cli
    from harnack.cache import KernelCache

    tracer = None
    if mode.startswith("trace:"):
        import tracer as tracing  # perfbench/, the script's directory, is on sys.path

        tracer = tracing.install()
    actions = [(cli, "run")] + [(KernelCache, name) for name in ("list_entries", "verify", "clear")]
    _mark_first_entry(mark_file, mode == "setup", actions)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            with open(mode[len("trace:"):], "w") as handle:
                json.dump(tracer.stats, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
