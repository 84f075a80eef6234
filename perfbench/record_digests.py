"""Record the stdout digest of every command the cli_specialize workload
can draw, each run from cleared caches, into digests.json.

Run from the repository root at the commit whose output is the
reference:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import probes
import run
import workloads


def main():
    uwrt = run.fresh_import()
    caches = probes.find_caches()
    digests = {}
    for argv in workloads.cli_catalogue():
        probes.reset_caches(caches)
        rc, text = workloads.run_cli(uwrt.cli, argv)
        if rc != 0:
            print(f"exit code {rc}: {workloads.argv_key(argv)}",
                  file=sys.stderr)
            return 1
        digests[workloads.argv_key(argv)] = workloads.stdout_digest(rc, text)
    with open(workloads.DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
