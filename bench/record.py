"""Record the expected reports of every workload command into expected.json.

    python3 bench/record.py > bench/expected.json

Runs each command once on the seed-0 inputs.  A report must stay
byte-identical from commit to commit, so re-record only when a report
format changes on purpose, and say so in the change.
"""

import hashlib
import json
import subprocess
import sys

from run import ROOT, WORK, WORKLOADS, ext_lines, make_workload


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from amalgext.cli import run as cli_run

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    WORK.mkdir(exist_ok=True)
    reports = {}
    for name in WORKLOADS:
        for command in make_workload(name, 0).commands:
            code, text = cli_run(command.argv)
            if code != 0:
                print(f"error: {command.key} exits {code}", file=sys.stderr)
                return 1
            reports[command.key] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                                    "ext": ext_lines(text)}
    json.dump({"commit": commit, "reports": reports}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
