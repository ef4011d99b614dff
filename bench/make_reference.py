"""Write bench/reference.json: the stdout digest of every corpus call at the
default seed, for each workload.

    python3 bench/make_reference.py

Each output must pass the benchmark's structural checks first; nothing is
written if one fails.  Regenerate only when the CLI output is meant to
change.
"""
from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, run_pass, setup, use_sources


def main() -> int:
    reference = {}
    use_sources()
    import corpus

    for workload in corpus.WORKLOADS:
        _, items = setup(workload, DEFAULT_SEED)
        tally, wall = run_pass(items, corpus.Checker(None))
        print(f"{workload}: {len(items)} calls in {wall:.1f} s, {tally.failed} failed")
        if tally.failed:
            return 1
        reference[workload] = tally.digests
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
