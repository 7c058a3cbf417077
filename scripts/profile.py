#!/usr/bin/env python3
"""Where did the CPU time go: a function-level profile of one command.

Usage, from the repository root:

    dune build @all
    python3 scripts/profile.py [--top N] -- _build/default/bin/ffs_age.exe -q

or `make profile CMD="_build/default/bin/ffs_age.exe -q"`.

It builds scripts/sampler.c into a fresh temporary directory, runs the
command with the sampler preloaded (LD_PRELOAD), and resolves each
sampled PC against the copy of the executable the sampler saved when
the process exited: a rebuild between the run and the report moves
every symbol, and resolving against the file on disk would then
attribute samples to whatever code moved into their place. Symbols come
from `nm -n`, the code segment's extent from `readelf -l`; a PC is
mapped to a symbol after subtracting the executable's load bias (a PIE
loads at a random base).

The report lists the top functions, then shares by group: one group per
OCaml module (`camlFfs__Cg.*` is `Ffs.Cg`), "workload" for the workload
generator's modules, "GC/runtime" for the OCaml runtime's C code, and
"[outside the executable]" for shared libraries and the vDSO. Each
executable the command runs under the sampler gets its own report, the
most sampled first. The kernel tick caps the rate at a few hundred
samples per CPU second, so `--repeat N` runs the command N times and
pools the samples of identical executables.

Run the executable itself, not `dune exec`: an interval timer survives
execve, so a sampled dune that execs its target could deliver a SIGPROF
before the target's sampler has installed its handler.

The sampler changes no machine setting; it arms one ITIMER_PROF in the
process it is loaded into.
"""

import argparse
import bisect
import collections
import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLER = os.path.join(ROOT, "scripts", "sampler.c")

# OCaml 5 native symbols: caml<Lib__Module>.<function>_<stamp>
OCAML_SYMBOL = re.compile(r"^caml([A-Z][A-Za-z0-9_']*)\.(.*?)(?:_\d+)?$")


def build_sampler(workdir):
    so = os.path.join(workdir, "sampler.so")
    subprocess.run(
        [
            "cc",
            "-O2",
            "-shared",
            "-fPIC",
            '-DSAMPLER_DIR="%s"' % workdir,
            SAMPLER,
            "-o",
            so,
        ],
        check=True,
    )
    return so


def text_symbols(exe):
    """(addresses, names) of the executable's code symbols, ascending,
    and the end of its executable segment (from `readelf -l`)."""
    out = subprocess.run(
        ["nm", "-n", "--defined-only", exe], check=True, capture_output=True, text=True
    ).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    segments = subprocess.run(
        ["readelf", "-lW", exe], check=True, capture_output=True, text=True
    ).stdout
    end = 0
    for line in segments.splitlines():
        parts = line.split()
        # LOAD offset vaddr paddr filesz memsz flags... ; code has flag E
        if parts[:1] == ["LOAD"] and "E" in parts[6:-1]:
            end = max(end, int(parts[2], 16) + int(parts[5], 16))
    return addrs, names, end


def module_of(mangled):
    """`Ffs__Cg` -> `Ffs.Cg`; an executable's `Dune__exe__Ffs_age` -> `Ffs_age`."""
    parts = mangled.split("__")
    if parts[:2] == ["Dune", "exe"]:
        parts = parts[2:]
    return ".".join(parts)


def pretty(sym):
    """`camlFfs__Cg.sync_span_591` -> `Ffs.Cg.sync_span`."""
    m = OCAML_SYMBOL.match(sym)
    return "%s.%s" % (module_of(m.group(1)), m.group(2)) if m else sym


def group_of(sym):
    m = OCAML_SYMBOL.match(sym)
    if not m:
        return "GC/runtime"
    module = module_of(m.group(1))
    return "workload" if module.split(".")[0] == "Workload" else module


def load_samples(samples_path):
    """(exe copy, exe digest, path it ran from, PCs relative to its load bias)"""
    exe = samples_path[: -len(".samples")] + ".exe"
    with open(samples_path) as f:
        header = f.readline().rstrip("\n").split(" ", 2)
        base = int(header[1], 16)
        offs = [int(line, 16) - base for line in f if line.strip()]
    with open(exe, "rb") as f:
        digest = hashlib.md5(f.read()).hexdigest()
    return exe, digest, header[2] if len(header) > 2 else "?", offs


def report(exe, path, offs, runs, top):
    addrs, names, end = text_symbols(exe)
    funcs = collections.Counter()
    groups = collections.Counter()
    resolved = 0
    for off in offs:
        i = bisect.bisect_right(addrs, off) - 1
        if i < 0 or off >= end:
            funcs["[outside the executable]"] += 1
            groups["[outside the executable]"] += 1
            continue
        resolved += 1
        funcs[pretty(names[i])] += 1
        groups[group_of(names[i])] += 1
    n = len(offs)
    print(
        "%s: %d samples from %d process(es), %.1f%% resolved to a symbol"
        % (path, n, runs, 100.0 * resolved / n)
    )
    print("  top functions:")
    for name, c in funcs.most_common(top):
        print("    %6.2f%%  %6d  %s" % (100.0 * c / n, c, name))
    print("  by group:")
    for name, c in groups.most_common():
        print("    %6.2f%%  %6d  %s" % (100.0 * c / n, c, name))
    return n


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    ap.add_argument("--repeat", type=int, default=1, help="runs to pool (default 1)")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- COMMAND [ARGS...]")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    if os.path.basename(cmd[0]) == "dune":
        ap.error("run the built executable, not dune (see --help)")
    workdir = tempfile.mkdtemp(prefix="ffs-profile-")
    try:
        env = dict(os.environ, LD_PRELOAD=build_sampler(workdir))
        rc = 0
        for _ in range(args.repeat):
            rc = rc or subprocess.run(cmd, env=env).returncode
        files = glob.glob(os.path.join(workdir, "prof.*.samples"))
        if not files:
            print("no samples: the command exited abnormally or used no CPU", file=sys.stderr)
            return rc or 1
        pooled = {}
        for samples in files:
            exe, digest, path, offs = load_samples(samples)
            entry = pooled.setdefault(digest, [exe, path, 0, []])
            entry[2] += 1
            entry[3].extend(offs)
        for exe, path, runs, offs in sorted(pooled.values(), key=lambda v: -len(v[3])):
            report(exe, path, offs, runs, args.top)
        return rc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
