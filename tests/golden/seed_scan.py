"""Run one audit family over a range of seeds and print every failing audit.

    PYTHONPATH=src python tests/golden/seed_scan.py FAMILY DIM FIRST LAST

FAMILY is ``exit``, ``dirichlet`` or ``ehi``, and the seeds run from FIRST to
LAST inclusive.  Each seed is one ``cli.run`` of the family with the CLI's
default grids and one thread, as ``harnack FAMILY --dim DIM --seed s`` runs
it.  Each failing audit prints one line, ``seed audit_id worst``, with its
worst witness as JSON; a last line counts the failing seeds.  Exits 1 when
any seed fails, so a verdict that depends on the seed shows in the status.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

from harnack.cli import RunConfig, run  # noqa: E402
from harnack.report import jsonable  # noqa: E402

FAMILIES = ("exit", "dirichlet", "ehi")


def failures(family: str, dim: int, seed: int) -> list[tuple[str, dict]]:
    """``(audit_id, worst)`` of each audit that fails at this seed, worst as JSON data."""
    audits = run(RunConfig(command=family, dim=dim, seed=seed, threads=1)).audits
    return [(audit.audit_id, jsonable(audit.worst)) for audit in audits if not audit.passed]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("dim", type=int)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    failing = 0
    for seed in range(args.first, args.last + 1):
        found = failures(args.family, args.dim, seed)
        failing += bool(found)
        for audit_id, worst in found:
            print(seed, audit_id, json.dumps(worst), flush=True)
    print(f"{failing} of {args.last - args.first + 1} seeds fail {args.family} at d={args.dim}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
