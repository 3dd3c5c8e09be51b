"""Record the SHA-256 of every seeded input and output into digests.json.

    python3 perfbench/record_digests.py --seeds 0-19 [--workload NAME ...]

Runs one untraced pass of each workload per seed from the root of a
checkout and stores the digests the benchmark later compares against.
A pass whose commands or output checks fail is not recorded.  Re-record
only when a change is meant to alter the seeded outputs or the
workload definitions, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args()
    os.environ.update(run.PINNED)
    sys.path.insert(0, str(run.SRC))
    import fleetsizing.cli as cli
    import tracing
    from workloads import WORKLOADS

    table = json.loads(run.DIGESTS.read_text())
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in args.seeds:
            work = run.OUT / f"record-{name}-{seed}-{os.getpid()}"
            try:
                work.mkdir(parents=True)
                wl.make_inputs(work, seed)
                inputs = {f: run.sha256((work / f).read_bytes()) for f in wl.inputs()}
                p = run.run_pass(cli, tracing, wl, work, seed, "record", False)
                ledger = run.Ledger()
                run.check_pass(ledger, wl, work, p, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if ledger.failures:
                print(f"{name} seed {seed}: not recorded: {ledger.failures}", file=sys.stderr)
                continue
            table.setdefault(name, {})[str(seed)] = {**inputs, **p.digests}
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
