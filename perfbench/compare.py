"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines that `run.py --out FILE` appended, one per run.
For every workload and end-to-end metric in BENCHMARK.json it prints the
median and quartiles of the per-run values on each side and how far NEW is
worse than BASE, as a share of BASE's median, against the metric's bound.
Results recorded under different mpmath backends are refused: gmpy2 against
pure Python shifts every timing.
"""

import json
import os
import sys

from run import HERE, _quartiles


def load_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = (load_runs(p) for p in argv)
    backends = {r["env"]["mpmath_backend"] for r in base + new}
    if len(backends) > 1:
        sys.stderr.write("refusing to compare results from different mpmath "
                         "backends: %s\n" % ", ".join(sorted(backends)))
        return 2
    for key in ("nproc", "python"):
        seen = {str(r["env"][key]) for r in base + new}
        if len(seen) > 1:
            print("warning: %s differs between runs: %s" % (key, sorted(seen)))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    worst = 0
    for wl in spec["workloads"]:
        sides = [[r for r in runs if r["workload"] == wl["name"] and r["trace"] == 0]
                 for runs in (base, new)]
        if not all(sides):
            print("%s: no runs on one side" % wl["name"])
            continue
        for m in spec["end_to_end"]:
            b, n = ([r["metrics"][m["name"]] for r in side] for side in sides)
            bq, nq = _quartiles(b), _quartiles(n)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (nq[1] - bq[1]) / abs(bq[1])
            spread = (bq[2] - bq[0]) / abs(bq[1])
            if worse > m["bound"]:
                verdict = "REGRESSION"
                worst = 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread %.3f)" % spread
            else:
                verdict = "ok"
            print("%-18s %-15s base %.5g [%.5g..%.5g] n=%d  new %.5g [%.5g..%.5g] "
                  "n=%d  worse %+.3f (bound %.3g)  %s"
                  % (wl["name"], m["name"], bq[1], bq[0], bq[2], len(b),
                     nq[1], nq[0], nq[2], len(n), worse, m["bound"], verdict))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
