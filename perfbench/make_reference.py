"""Regenerate perfbench/reference.json, the output digests at seed 0.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, only for a change meant to alter
the program's outputs, and justify the new digests in CHANGES.md.
serve-mix runs longer than a benchmark window so that the reference
covers more cache-missing jobs than a run reaches.
"""

import json
import sys

import run

SEED = 0
SECONDS = {"sim-core": 1.0, "campaign-inject": 1.0, "serve-mix": 90.0}


def main() -> int:
    run._bootstrap()
    run.OUT.mkdir(exist_ok=True)
    workloads = {}
    for workload, seconds in SECONDS.items():
        result, digests = run.measure(workload, SEED, seconds, False,
                                      reference={})
        if not result["correct"]:
            print(f"{workload}: {result['failed']} operations failed; "
                  "reference not written", file=sys.stderr)
            return 1
        workloads[workload] = digests
    run.REFERENCE.write_text(json.dumps(
        {"seed": SEED, "workloads": workloads}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
