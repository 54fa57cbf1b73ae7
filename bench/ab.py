#!/usr/bin/env python3
"""Suite A/B: run bench/suite on two commits in alternating pairs, and judge
the runs against the end-to-end bounds in BENCHMARK.json.

usage:
  python3 bench/ab.py run PARENT [CHANGE] --out FILE [--pairs N]
                          [--seconds S] [--workloads W,W] [--workdir DIR]
  python3 bench/ab.py compare FILE

`run` exports PARENT and CHANGE (default HEAD; `$(git stash create)` names
uncommitted work) with `git archive` into DIR/parent and DIR/change, and
copies this checkout's bench/suite and BENCHMARK.json into both, so only the
code under test differs. Each tree builds into its own CARGO_TARGET_DIR.
Pair i (1..N) runs every workload once per side with seed i, the parent
first when i is odd. Each run appends one line to FILE:

  {"workload", "pair", "seed", "side", "ran_first", "seconds",
   "correct", "attempted", "failed", "metrics": {name: value}}

`compare` groups the runs by workload and run length. For every end_to_end
metric it prints both medians, the parent's spread (interquartile range over
median, quartiles interpolated linearly), how many pairs the change won and
a verdict, with `bound` taken from BENCHMARK.json:

  unresolved  the parent's spread exceeds the bound (unless every change run
              beats every parent run: better)
  worse       the change median is worse than the parent's by more than bound
  better      the change median is better than the parent's by more than bound
  ok          otherwise

Exit status: 1 when a metric is worse or missing, or a group's correct-run
share falls or its failed-op share rises; 2 on unreadable input; else 0.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"workload", "pair", "seed", "side", "ran_first", "seconds",
        "correct", "attempted", "failed", "metrics"}
SIDES = ("parent", "change")


class BadInput(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- run ---------------------------------------------------------------------

def export_tree(ref, dest):
    """Write `ref`'s tree to `dest` with this checkout's suite; return its
    commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          f"{ref}^{{commit}}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    suite = os.path.join(dest, "bench", "suite")
    shutil.rmtree(suite, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "suite"), suite,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return sha


def suite_run(tree, workload, seed, seconds):
    """One run.py invocation in `tree`; its JSON result, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join(tree, "bench", "suite", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, env=env, text=True,
                         stdout=subprocess.PIPE).stdout.strip().splitlines()
    try:
        return json.loads(out[-1])
    except (IndexError, ValueError):
        return None


def cmd_run(args):
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            sys.exit(f"ab.py: unknown workload {w!r} (BENCHMARK.json has "
                     f"{', '.join(known)})")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds == int(seconds):
        seconds = int(seconds)
    workdir = os.path.abspath(args.workdir)
    trees = {}
    for side, ref in zip(SIDES, (args.parent, args.change)):
        trees[side] = os.path.join(workdir, side)
        sha = export_tree(ref, trees[side])
        print(f"ab.py: {side} = {ref} ({sha[:12]})", file=sys.stderr)
    # Build both trees (and check they run) before the first measured run.
    for side in SIDES:
        if suite_run(trees[side], workloads[0], 0, 0.2) is None:
            sys.exit(f"ab.py: the {side} tree does not build or run")

    with open(args.out, "a") as out:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 == 1 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    res = suite_run(trees[side], w, pair, seconds)
                    if res is None:
                        print(f"ab.py: {w} pair {pair} {side}: no result",
                              file=sys.stderr)
                        res = {"correct": False, "attempted": 0, "failed": 0,
                               "metrics": {}}
                    rec = {"workload": w, "pair": pair, "seed": pair,
                           "side": side, "ran_first": side == order[0],
                           "seconds": seconds, "correct": res["correct"],
                           "attempted": res["attempted"],
                           "failed": res["failed"],
                           "metrics": {k: v["value"]
                                       for k, v in res["metrics"].items()}}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"ab.py: pair {pair}/{args.pairs} {w} {side}: "
                          f"correct={rec['correct']}", file=sys.stderr)
    return 0


# ---- compare -----------------------------------------------------------------

def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_runs(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                r = json.loads(line)
            except ValueError as e:
                raise BadInput(f"{path}:{n}: {e}")
            if not isinstance(r, dict) or set(r) != KEYS:
                raise BadInput(f"{path}:{n}: keys must be {sorted(KEYS)}")
            if r["side"] not in SIDES or not isinstance(r["metrics"], dict):
                raise BadInput(f"{path}:{n}: bad side or metrics")
            counts = (r["attempted"], r["failed"], r["seconds"])
            if not all(is_number(x) and x >= 0 for x in counts) or \
                    not all(is_number(v) and v > 0
                            for v in r["metrics"].values()):
                raise BadInput(f"{path}:{n}: counts must be >= 0 and "
                               "metric values > 0")
            runs.append(r)
    if not runs:
        raise BadInput(f"{path}: no runs")
    return runs


def spread(values):
    """Interquartile range over median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def judge(parent, change, bound, sign):
    """The verdict for one metric's parent and change values; `sign` is 1
    when higher is better, -1 when lower is."""
    if spread(parent) > bound:
        if min(c * sign for c in change) > max(p * sign for p in parent):
            return "better"
        return "unresolved"
    mid = statistics.median(parent)
    gain = sign * (statistics.median(change) - mid) / mid
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "ok"


def fmt(value, unit):
    """Three significant digits, with K/M for rates and ms below 1 s."""
    suffix = ""
    if unit == "s" and value < 1:
        value, unit = value * 1e3, "ms"
    elif unit == "ops/s" and value >= 1e3:
        value, suffix = ((value / 1e6, "M") if value >= 1e6
                         else (value / 1e3, "K"))
    digits = max(0, 2 - math.floor(math.log10(value)))
    return f"{value:.{digits}f}{suffix} {unit}"


def share(num, den):
    return num / den if den else 0.0


def cmd_compare(args):
    metrics = load_spec()["end_to_end"]
    runs = load_runs(args.file)
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seconds"]), []).append(r)

    failures = 0
    counts = {}
    for (workload, seconds), group in groups.items():
        sides = {s: [r for r in group if r["side"] == s] for s in SIDES}
        if not all(sides.values()):
            raise BadInput(f"{workload} at {seconds} s lacks runs of one side")
        correct = {s: share(sum(r["correct"] for r in sides[s]),
                            len(sides[s])) for s in SIDES}
        failed = {s: share(sum(r["failed"] for r in sides[s]),
                           sum(r["attempted"] for r in sides[s]))
                  for s in SIDES}
        print(f"{workload}, {seconds} s runs: "
              f"{len(sides['parent'])} parent, {len(sides['change'])} change; "
              f"correct runs {correct['parent']:.0%} -> "
              f"{correct['change']:.0%}; failed ops {failed['parent']:.2g} "
              f"-> {failed['change']:.2g}")
        if correct["change"] < correct["parent"]:
            print("  FAIL: the change's correct-run share fell")
            failures += 1
        if failed["change"] > failed["parent"]:
            print("  FAIL: the change's failed-op share rose")
            failures += 1
        print(f"  {'metric':22} {'parent':>14} {'change':>14} {'spread':>7} "
              f"{'bound':>6} {'wins':>6}  verdict")
        for m in metrics:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            vals = {s: {r["pair"]: r["metrics"][name] for r in sides[s]
                        if name in r["metrics"]} for s in SIDES}
            if not vals["parent"] or not vals["change"]:
                verdict = "missing"
                print(f"  {name:22} {'-':>14} {'-':>14} {'':7} {'':6} {'':6}"
                      f"  {verdict}")
            else:
                p = list(vals["parent"].values())
                c = list(vals["change"].values())
                pairs = [k for k in vals["parent"] if k in vals["change"]]
                wins = sum((vals["change"][k] - vals["parent"][k]) * sign > 0
                           for k in pairs)
                verdict = judge(p, c, bound, sign)
                print(f"  {name:22} {fmt(statistics.median(p), unit):>14} "
                      f"{fmt(statistics.median(c), unit):>14} "
                      f"{spread(p):7.1%} {bound:6.0%} "
                      f"{f'{wins}/{len(pairs)}':>6}  {verdict}")
            counts[verdict] = counts.get(verdict, 0) + 1
            if verdict in ("worse", "missing"):
                failures += 1
    print("ab.py: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating suite pairs")
    run.add_argument("parent")
    run.add_argument("change", nargs="?", default="HEAD")
    run.add_argument("--out", required=True, help="jsonl file to append to")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float,
                     help="run length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--workloads", help="comma list (default: all)")
    run.add_argument("--workdir", default=os.path.join(ROOT, ".ab"),
                     help="where the two trees are exported and built")
    cmp = sub.add_parser("compare", help="judge a jsonl file of runs")
    cmp.add_argument("file")
    args = ap.parse_args()
    if args.cmd == "run":
        return cmd_run(args)
    try:
        return cmd_compare(args)
    except (OSError, BadInput) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
