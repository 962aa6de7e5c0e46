"""Record one benchmark run of every workload in one JSON file.

    python3 bench_record.py --out BENCH_33.json --seed 1 --seconds 20

Runs ``bench/run.py --workload W --seed N --seconds S --trace 0`` (with
``--smoke`` if given) for each workload that ``BENCHMARK.json`` lists, one
at a time.  The file holds the tree's ``git describe --always --dirty``,
its ``src_loc`` and ``tier1_tests`` once, and each workload's ``info`` and
result lines as ``bench/run.py`` printed them, less those two counts.
Stdlib only.  Exit status 1 when any run is not ``correct``, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SHARED = ("src_loc", "tier1_tests")  # the tree's, so the same in every run


def describe() -> str | None:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def bench(workload: str, args) -> tuple[dict, dict]:
    """``(info, result)`` of one ``bench/run.py`` run; a run that prints
    no result line gives ``{"correct": False, ...}`` with its stderr."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if len(lines) != 2 or "info" not in lines[0]:
        return {}, {"correct": False, "exit": proc.returncode,
                    "stderr": proc.stderr[-2000:]}
    return lines[0]["info"], lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="each run's length; BENCHMARK.json's by default")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    record = {"git": describe(), "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, **dict.fromkeys(SHARED), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        info, result = bench(workload, args)
        for key in SHARED:
            if key in info:
                record[key] = info.pop(key)
        record["workloads"][workload] = {"info": info, "result": result}
        print(workload, "correct" if result["correct"] else "NOT correct",
              file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(w["result"]["correct"]
                    for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
