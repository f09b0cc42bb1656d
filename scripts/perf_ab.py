#!/usr/bin/env python3
"""Same-machine A/B of the repo benchmark: this tree against a base revision.

Usage::

    python scripts/perf_ab.py BASE_REV

Adds a temporary detached ``git worktree`` at ``BASE_REV`` and copies this
tree's ``perfbench/`` and ``BENCHMARK.json`` into it, so both sides run
the same benchmark code and differ only in the simulator under ``src/``.
For every workload in ``BENCHMARK.json`` it then runs
``perfbench/run.py --workload W --seed 7 --seconds 5`` in each tree,
``PAIRS`` times, alternating which side runs first.

Each side reads its bytecode from its own ``PYTHONPYCACHEPREFIX`` under
the A/B's scratch directory, filled by ``python -m compileall -q src
perfbench`` in that tree before the first pair.  Without it, a side
whose tree holds no ``__pycache__`` (the fresh base worktree) compiles
every module on every start where ``PYTHONDONTWRITEBYTECODE`` is set,
and its set-up time reads slower for a reason unrelated to the change.

Each end-to-end metric of ``BENCHMARK.json`` gets one verdict from the
runs of the two sides, in the metric's ``better`` direction:

- ``better``: the change wins at least nine tenths of the pairs (pair
  ``i`` is the ``i``-th base run and the ``i``-th change run; a tie
  counts for neither) and its median beats the base's by more than the
  distance between the base's quartiles -- the rule a claimed gain must
  meet;
- ``unresolved``: otherwise, when the base's own quartile spread
  exceeds the metric's bound, so the runs cannot tell a change within
  the bound from one beyond it -- unless every change run is better
  than every base run;
- ``worse``: otherwise, when the change's median is worse than the
  base's by more than the bound;
- ``ok``: otherwise.

After each run it reads the identity ``digest`` of that run's batches
from the tree's ``perfbench/results/<workload>-seed7-trace0.json`` and
keeps it with the run document.  Per workload it then reports whether
every base and change run shares one digest (``same``) or not
(``differs``).  A speed-only change must read ``same`` everywhere
(``perfbench/README.md``); a semantic change moves the digest
legitimately, so ``differs`` is a report, not a failure.

It prints one table and exits 1 on any ``worse`` verdict, on any change
run that reports ``correct: false``, or when the change fails a larger
share of its attempted operations than the base.  The run documents,
the table and the digest report are also saved to
``perfbench/results/perf_ab.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: run pairs per workload; each pair runs the base and the change once.
#: A claimed gain must win at least nine of ten alternating pairs, so
#: ten is the floor.
PAIRS = 10
#: ``--seconds`` of each benchmark run.
SECONDS = 5
#: ``--seed`` of each benchmark run (the tier-1 seed).
SEED = 7


class Row(NamedTuple):
    """One line of the verdict table."""

    workload: str
    metric: str
    base: float
    change: float
    ratio: float
    spread: float
    bound: float
    verdict: str


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (the definition ``perfbench/README.md`` uses)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def claims_gain(base: Sequence[float], change: Sequence[float],
                lower_is_better: bool) -> bool:
    """Whether ``change`` beats ``base`` by the rule a claimed gain must
    meet: it wins at least nine tenths of the pairs, and its median is
    better by more than the base's quartile distance."""
    sign = -1 if lower_is_better else 1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, _q2, q3 = statistics.quantiles(base, n=4)
    gain = sign * (statistics.median(change) - statistics.median(base))
    return wins * 10 >= 9 * len(base) and gain > q3 - q1


def failed_share(runs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(
    workload: str,
    end_to_end: Sequence[Dict[str, Any]],
    base: Sequence[Dict[str, Any]],
    change: Sequence[Dict[str, Any]],
) -> Tuple[List[Row], List[str]]:
    """Verdict rows for one workload's run documents, and every reason
    the change fails the gate (empty when it passes)."""
    rows = []
    problems = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        base_values = [run["metrics"][name]["value"] for run in base]
        change_values = [run["metrics"][name]["value"] for run in change]
        base_median = statistics.median(base_values)
        change_median = statistics.median(change_values)
        ratio = change_median / base_median
        lower = metric["better"] == "lower"
        if lower:
            worsening = ratio - 1
            better_throughout = max(change_values) < min(base_values)
        else:
            worsening = 1 - ratio
            better_throughout = min(change_values) > max(base_values)
        base_spread = spread(base_values)
        if claims_gain(base_values, change_values, lower):
            verdict = "better"
        elif base_spread > bound and not better_throughout:
            verdict = "unresolved"
        elif worsening > bound:
            verdict = "worse"
            problems.append(
                f"{workload} {name}: {worsening:.1%} worse than the base "
                f"(bound {bound:.0%})")
        else:
            verdict = "ok"
        rows.append(Row(workload, name, base_median, change_median, ratio,
                        base_spread, bound, verdict))
    incorrect = sum(not run["correct"] for run in change)
    if incorrect:
        problems.append(f"{workload}: {incorrect} of {len(change)} change "
                        "runs report correct: false")
    if failed_share(change) > failed_share(base):
        problems.append(
            f"{workload}: the change fails {failed_share(change):.2%} of its "
            f"operations, the base {failed_share(base):.2%}")
    return rows, problems


def digest_report(base: Sequence[Dict[str, Any]],
                  change: Sequence[Dict[str, Any]]) -> str:
    """``same`` when every run of both sides has one identity digest,
    else ``differs``."""
    digests = {run["digest"] for run in (*base, *change)}
    return "same" if len(digests) == 1 else "differs"


def render(rows: Sequence[Row]) -> str:
    lines = [f"{'workload':<12} {'metric':<12} {'base':>11} {'change':>11} "
             f"{'ratio':>6} {'spread':>7} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row.workload:<12} {row.metric:<12} {row.base:>11.4g} "
            f"{row.change:>11.4g} {row.ratio:>6.3f} {row.spread:>7.1%} "
            f"{row.bound:>6.0%}  {row.verdict}")
    return "\n".join(lines)


def side_env(scratch: str, side: str) -> Dict[str, str]:
    """The environment of one side's runs: this process's, with a
    bytecode cache of that side's own under ``scratch``."""
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(scratch, "pycache", side)
    return env


def fill_bytecode_cache(tree: str, env: Dict[str, str]) -> None:
    """Compile ``tree``'s simulator and benchmark into the cache ``env``
    names; compileall writes it even under ``PYTHONDONTWRITEBYTECODE``."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"perf_ab: compileall in {tree} exited {done.returncode}:"
                 f"\n{done.stdout}{done.stderr}")


def run_once(tree: str, workload: str,
             env: Dict[str, str]) -> Dict[str, Any]:
    """One benchmark run in ``tree``: its last-line JSON document, with
    the identity ``digest`` from the run's full result document."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"perf_ab: {workload} in {tree} exited {done.returncode}:"
                 f"\n{done.stderr}")
    doc: Dict[str, Any] = json.loads(done.stdout.strip().splitlines()[-1])
    result = os.path.join(tree, "perfbench", "results",
                          f"{workload}-seed{SEED}-trace0.json")
    with open(result, encoding="utf-8") as fh:
        doc["digest"] = json.load(fh)["digest"]
    return doc


def git(*args: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def add_base_tree(base_rev: str, tree: str) -> None:
    """Check ``base_rev`` out at ``tree`` with this tree's benchmark."""
    done = git("worktree", "add", "--detach", tree, base_rev)
    if done.returncode != 0:
        sys.exit(f"perf_ab: cannot check out {base_rev}:\n{done.stderr}")
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), os.path.join(tree, "perfbench"),
        ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), tree)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base_rev = argv[0]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        w: {"base": [], "change": []} for w in workloads}
    scratch = tempfile.mkdtemp(prefix="perf-ab-")
    base_tree = os.path.join(scratch, "base")
    try:
        add_base_tree(base_rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        envs = {side: side_env(scratch, side) for side in trees}
        for side, tree in trees.items():
            fill_bytecode_cache(tree, envs[side])
        for workload in workloads:
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else (
                    "change", "base")
                for side in order:
                    runs[workload][side].append(
                        run_once(trees[side], workload, envs[side]))
                print(f"{workload}: pair {pair + 1}/{PAIRS} done",
                      flush=True)
    finally:
        git("worktree", "remove", "--force", base_tree)
        shutil.rmtree(scratch, ignore_errors=True)
        git("worktree", "prune")

    rows: List[Row] = []
    problems: List[str] = []
    digests: Dict[str, str] = {}
    for workload in workloads:
        workload_rows, workload_problems = judge(
            workload, benchmark["end_to_end"], runs[workload]["base"],
            runs[workload]["change"])
        rows += workload_rows
        problems += workload_problems
        digests[workload] = digest_report(runs[workload]["base"],
                                          runs[workload]["change"])
    print(f"\nbase {base_rev} vs this tree: medians of {PAIRS} runs of "
          f"{SECONDS} s each, seed {SEED}; spread is the base's")
    print(render(rows))
    print("identity digests: " + ", ".join(
        f"{workload} {report}" for workload, report in digests.items()))
    results = os.path.join(ROOT, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "perf_ab.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"base_rev": base_rev, "runs": runs,
                   "rows": [row._asdict() for row in rows],
                   "digests": digests, "problems": problems},
                  fh, indent=1, sort_keys=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
