#!/usr/bin/env python3
"""Compare a parent revision with this checkout on one perfbench workload.

Usage (from the repository root):

    python3 scripts/perf_pairs.py PARENT_REV WORKLOAD [--pairs 10] [--seconds 30] [--seed-base N]

PARENT_REV is checked out with `git worktree add --detach` under
build-pairs/ (ignored by git) and reused by later calls. The change side is
this working tree, uncommitted edits included. Each side runs its own
perfbench/run.py with the command arguments in BENCHMARK.json plus
--workload, --seed, --seconds and --trace 0, building into its own
CARGO_TARGET_DIR under build-pairs/. Pair k runs seed N + k on both sides;
even pairs run the parent first, odd pairs the change first.

For each end-to-end metric in BENCHMARK.json it prints both sides' median
and quartiles, the change's relative difference, the change's wins out of
the pairs (ties count for neither, the direction comes from `better`) and a
verdict:

    gain        wins in at least 9/10 of the pairs, the medians differ by
                more than the parent's interquartile range, and the change
                failed no larger share of its operations than the parent
    worse       the change's median is worse than the parent's by more than
                the metric's bound
    unresolved  not worse past the bound, but either side's interquartile
                range, relative to its median, exceeds the bound and not
                every change run beats every parent run
    within      none of the above

It also prints each side's failed/attempted totals and flags every run that
reports "correct": false or gives no result. Raw results are appended to
build-pairs/<workload>-<rev>.jsonl and build output to build-pairs/*.log.
BENCHMARK.json and perfbench/ are only read.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "build-pairs")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def parent_tree(rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(WORK, "parent-" + sha[:12])
    if not os.path.isdir(path):
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def run_once(tree, target_dir, command, workload, seed, seconds, log):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=log, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    stamps = [ln for ln in lines if ln.startswith("# ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, stamps


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def spread(median, q1, q3):
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def better(a, b, direction):
    """True when `a` is better than `b`."""
    return a < b if direction == "lower" else a > b


def relative_iqr(median, q1, q3):
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(metric, runs, npairs, more_failures):
    """One table row; `more_failures` forbids a gain verdict."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in runs
             if p and c and name in p["metrics"] and name in c["metrics"]]
    if not pairs:
        return None
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    pm, cm = statistics.median(par), statistics.median(chg)
    pq1, pq3 = quartiles(par)
    cq1, cq3 = quartiles(chg)
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    change = (cm - pm) / pm if pm else 0.0
    worse = change if direction == "lower" else -change
    if (not more_failures and wins >= 0.9 * npairs and better(cm, pm, direction)
            and abs(cm - pm) > pq3 - pq1):
        verdict = "gain"
    elif worse > bound:
        verdict = "worse"
    elif max(relative_iqr(pm, pq1, pq3), relative_iqr(cm, cq1, cq3)) > bound and not all(
            better(c, p, direction) for c in chg for p in par):
        verdict = "unresolved"
    else:
        verdict = "within"
    return (f"{name:<15} {spread(pm, pq1, pq3):>32} {spread(cm, cq1, cq3):>32}"
            f" {100 * change:+7.1f}%  {wins:>2}/{len(pairs):<2}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed-base", type=int, default=1)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {a.workload!r}")
    os.makedirs(WORK, exist_ok=True)
    sha, ptree = parent_tree(a.parent_rev)
    sides = {
        "parent": (ptree, os.path.join(WORK, "bench-parent-" + sha[:12])),
        "change": (ROOT, os.path.join(WORK, "bench-change")),
    }
    raw_path = os.path.join(WORK, f"{a.workload}-{sha[:12]}.jsonl")

    runs, problems, stamps = [], [], {}
    totals = {s: [0, 0] for s in sides}  # failed, attempted
    for k in range(a.pairs):
        seed = a.seed_base + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            tree, target = sides[side]
            with open(os.path.join(WORK, side + ".log"), "a") as log:
                code, result, st = run_once(tree, target, bench["command"],
                                            a.workload, seed, a.seconds, log)
            stamps.setdefault(side, st)
            if result is None or code != 0:
                problems.append(f"pair {k} {side} seed {seed}: no result (exit {code})")
                result = None
            else:
                totals[side][0] += result.get("failed", 0)
                totals[side][1] += result.get("attempted", 0)
                if result.get("correct") is not True:
                    problems.append(f"pair {k} {side} seed {seed}: correct = "
                                    f"{result.get('correct')}")
            pair[side] = result
            with open(raw_path, "a") as raw:
                raw.write(json.dumps({"pair": k, "side": side, "seed": seed,
                                      "rev": sha if side == "parent" else "worktree",
                                      "exit": code, "result": result}) + "\n")
        runs.append((pair["parent"], pair["change"]))
        print(f"pair {k + 1}/{a.pairs} (seed {seed}, {order[0]} first) done",
              file=sys.stderr, flush=True)

    print(f"workload {a.workload}, {a.pairs} pairs of {a.seconds} s, seeds "
          f"{a.seed_base}..{a.seed_base + a.pairs - 1}, parent {sha[:12]} vs worktree")
    for line in stamps.get("change", []):
        print(line)
    print(f"{'metric':<15} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'change':>8}  wins   verdict")
    def fail_share(side):
        failed, attempted = totals[side]
        return failed / attempted if attempted else float(failed > 0)

    more_failures = fail_share("change") > fail_share("parent")
    for metric in bench["end_to_end"]:
        row = summarize(metric, runs, a.pairs, more_failures)
        if row:
            print(row)
    for side, (failed, attempted) in totals.items():
        print(f"{side}: {failed} failed of {attempted} attempted")
    if more_failures:
        print("no gain verdicts: the change failed a larger share of operations")
    for p in problems:
        print("FLAG " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
