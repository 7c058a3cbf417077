#!/usr/bin/env python3
"""Paired perfbench runs of a base revision against the working tree.

Usage, from the repository root:

    python3 scripts/perf_pairs.py --base REV --workload W [--workload W2 ...] \
        [--pairs N] [--seed N] [--trace 0|1] [--workdir DIR]

--workload repeats; `--workload all` names every workload BENCHMARK.json
declares, so a claimed workload and its no-regression workloads come
from one command (`make perf-pairs BASE=REV W=all`).

Exports REV with `git archive` into a scratch directory (a fresh one
under the system temp directory unless --workdir names one), then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace R` N
times on each tree for each workload in turn, alternating which side
goes first. T is BENCHMARK.json's `run_seconds`; if that file cannot be
read, --seconds is left off and perfbench/run.py applies its own
default. Each run builds its own tree's benchmark from source. The last
line of each run's output is its JSON result.

Before the runs, prints how each tree is compiled: the build profile
its dune-workspace names (`dev`, dune's default, when it has none) and
the `ocamlopt_flags` that `dune printenv` reports for lib/ffs, plus a
line saying so when the two sides differ; the report repeats these
lines above its table. Then prints every run's end-to-end metrics,
plus `setup_host_s`, the median set-up in host seconds (not a gated
metric: the gated `setup_s` is in reference seconds), then one table
with a row per workload and metric in the format EXPERIMENTS.md uses:
q1 / median / q3 for each side, how many pairs the change won (ties
count for neither side), and whether the gain rule holds: the change
wins at least nine tenths of the pairs and the medians differ by more
than the distance between the base's quartiles. A metric's better
direction comes from BENCHMARK.json.

Exits 1 if any run fails or reports a failed check. Reads perfbench/
and changes nothing in it.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_HOST = re.compile(r"setup \d+: host ([0-9.]+) s")
PROFILE = re.compile(r"^\s*\(profile\s+([^\s()]+)\s*\)", re.MULTILINE)
OCAMLOPT_FLAGS = re.compile(r"\(ocamlopt_flags\s*\(([^()]*)\)\)")


def export_tree(rev, dest):
    """Write revision [rev] of this repository into [dest]."""
    os.makedirs(dest, exist_ok=True)
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=out, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def build_settings(tree):
    """[tree]'s build profile and lib/ffs's ocamlopt_flags, as text."""
    try:
        with open(os.path.join(tree, "dune-workspace")) as f:
            m = PROFILE.search(f.read())
        profile = m.group(1) if m else "dev"
    except OSError:
        profile = "dev"
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = subprocess.run(
        cmd + ["printenv", "--root", tree, "lib/ffs"],
        cwd=tree,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    m = OCAMLOPT_FLAGS.search(env.stdout)
    flags = " ".join(m.group(1).split()) if m else "unknown"
    return f"profile {profile}, ocamlopt_flags `{flags}`"


def benchmark_spec():
    """BENCHMARK.json's metric directions (name -> "higher" or "lower"),
    its run length in seconds and its workload names (None and [] if
    the file cannot be read)."""
    better = {"setup_host_s": "lower"}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return better, None, []
    for group in ("end_to_end", "per_layer"):
        better.update({m["name"]: m["better"] for m in spec.get(group, [])})
    workloads = [w["name"] for w in spec.get("workloads", [])]
    return better, spec.get("run_seconds"), workloads


def run_once(tree, workload, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed)]
    if seconds is not None:
        cmd += ["--seconds", f"{seconds:g}"]
    cmd += ["--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct", False) or result.get("failed", 1) != 0:
        raise RuntimeError(f"{tree}: {result.get('failed')} failed checks")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # host seconds, printed beside the gated reference-second figures:
    # they tell a change in the work from a change in the calibration
    setups = [float(m.group(1)) for m in map(SETUP_HOST.match, lines) if m]
    if setups:
        metrics["setup_host_s"] = sorted(setups)[len(setups) // 2]
    return metrics


def quartiles(xs):
    """q1, median, q3 by linear interpolation between order statistics."""
    s = sorted(xs)

    def at(p):
        if len(s) == 1:
            return s[0]
        pos = p * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def show(v):
    if abs(v) >= 10000:
        return f"{v / 1000:.1f}k"
    if abs(v) >= 100:
        return f"{v:.1f}"
    return f"{v:.3f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument(
        "--workload",
        action="append",
        required=True,
        help="perfbench workload; repeat for several, or `all` for BENCHMARK.json's",
    )
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=960117)
    ap.add_argument("--trace", type=int, default=0, help="1: traced runs, per-layer metrics")
    ap.add_argument("--workdir", help="where to export the base tree (kept afterwards)")
    args = ap.parse_args()

    better, seconds, declared = benchmark_spec()
    workloads = []
    for w in args.workload:
        for name in declared if w == "all" else [w]:
            if name not in workloads:
                workloads.append(name)
    if not workloads:
        print("perf_pairs: `all` needs BENCHMARK.json's workload list", file=sys.stderr)
        return 2
    scratch = args.workdir or tempfile.mkdtemp(prefix="perf-pairs-")
    try:
        base_tree = export_tree(args.base, scratch)
        sides = {"base": base_tree, "change": ROOT}
        # read before any run: the change side builds in the working tree
        builds = {side: build_settings(tree) for side, tree in sides.items()}
        header = [f"{side} ({tree}): {builds[side]}" for side, tree in sides.items()]
        if builds["base"] != builds["change"]:
            header.append("the two sides are compiled differently")
        print("\n".join(header), flush=True)
        runs = {w: {"base": [], "change": []} for w in workloads}
        for w in workloads:
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                for side in order:
                    m = run_once(sides[side], w, args, seconds)
                    runs[w][side].append(m)
                    shown = ", ".join(f"{k} {show(v)}" for k, v in sorted(m.items()))
                    print(f"{w} pair {i + 1} {side}: {shown}", flush=True)
    except (RuntimeError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        if not args.workdir:
            shutil.rmtree(scratch, ignore_errors=True)

    print()
    print("\n".join(header))
    print()
    print("| workload | seed | pairs | metric | before | after | after wins | gain rule |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name in sorted(runs[w]["base"][0]):
            before = [r[name] for r in runs[w]["base"]]
            after = [r[name] for r in runs[w]["change"]]
            higher = better.get(name, "higher") == "higher"
            wins = sum(1 for b, a in zip(before, after) if (a > b if higher else a < b))
            q1, med, q3 = quartiles(before)
            a1, amed, a3 = quartiles(after)
            gap = amed - med if higher else med - amed
            holds = wins * 10 >= 9 * args.pairs and gap > q3 - q1
            print(
                f"| `{w}` | {args.seed} | {args.pairs} | `{name}` "
                f"| {show(q1)} / {show(med)} / {show(q3)} | {show(a1)} / {show(amed)} / {show(a3)} "
                f"| {wins} of {args.pairs} | {'holds' if holds else 'does not hold'} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
