"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-tests, serve-mdx, append-mix (see README.md in
this directory).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run also writes its spans to ``.perfbench/`` in the checkout.

Exit codes: 0 success; 1 a wrong answer or failed operation; 2 usage error
or no program source next to this directory; 3 the open-loop generator fell
behind its schedule, so the run is invalid and reports nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-tests", "serve-mdx", "append-mix")


def _use_source_tree() -> None:
    """Import the program from ``src/`` of this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns its :class:`perfbench.common.Outcome`."""
    _use_source_tree()
    from perfbench import append_mix, paper_tests, serve_mdx

    if name == "paper-tests":
        return paper_tests.run(seed, seconds, trace)
    if name == "append-mix":
        return append_mix.run(seed, seconds, trace)
    return serve_mdx.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _use_source_tree()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench import common

    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except common.InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    table = common.PER_LAYER if args.trace else common.END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    if set(values) != set(table):
        raise RuntimeError(
            f"metric names drifted: {sorted(set(values) ^ set(table))}")
    for line in outcome.errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    if args.trace:
        outcome.spans.write(
            ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json")
    for name, unit in table.items():
        print(f"{name:36s} {values[name]:14.6f} {unit}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
