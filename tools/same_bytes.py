#!/usr/bin/env python3
"""Run a fixed corpus with two mct_sim binaries and compare every output.

    python3 tools/same_bytes.py OLD_MCT_SIM NEW_MCT_SIM

Each binary runs every case of the corpus in its own temporary
directory, with relative output paths, so no output names the
directory it was written in. Then every file the runs wrote and every
case's stdout are compared byte for byte. No case asks for a host
profile or a manifest, whose bytes depend on the host, so no output is
exempt. The one file left out is the sweep's memo (MCT_SWEEP_CACHE),
which is a cache of the sweep's inputs rather than an output.

The corpus:
  - every application of `mct_sim list`, evaluated at 100k+400k
    instructions with a stats document and two checkpoint slots;
  - a bank-aware, eager, slow-write, cancelling config and a
    --startgap eval;
  - a fully armed lbm eval: event trace, spans at --span-sample 1,
    timeline, alert rules (tools/report/alerts.txt) and checkpoints;
  - an mct run with provenance JSONL and Chrome output and checkpoints;
  - `eval --stats`;
  - a trace capture and its replay;
  - a no-quota sweep at 10k+30k instructions.

Exit codes: 0 every output identical, 1 differences (listed), 2 usage
error, 3 a run failed.
"""

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ALERTS = Path(__file__).resolve().parent / "report" / "alerts.txt"
MEMO_DIR = "memo"
EVAL = ["--warmup", "100000", "--measure", "400000"]


def cases(apps):
    """(name, argv) pairs; outputs are named after the case."""
    out = []
    for app in apps:
        out.append((f"eval-{app}", ["eval", "--app", app, *EVAL,
                                    "--stats-json", f"eval-{app}.json",
                                    "--ckpt-out", f"eval-{app}.ck",
                                    "--ckpt-every", "200000"]))
    out.append(("eval-mechanisms",
                ["eval", "--app", "lbm", *EVAL, "--bank", "2", "--eager",
                 "8", "--slow", "3.0", "--cancel", "both",
                 "--stats-json", "eval-mechanisms.json"]))
    out.append(("eval-startgap",
                ["eval", "--app", "milc", *EVAL, "--startgap",
                 "--stats-json", "eval-startgap.json"]))
    out.append(("eval-armed",
                ["eval", "--app", "lbm", *EVAL,
                 "--stats-json", "armed.json", "--stats-every", "100000",
                 "--trace-out", "armed.trace.jsonl",
                 "--trace-chrome", "armed.trace.json",
                 "--spans-out", "armed.spans.jsonl",
                 "--spans-chrome", "armed.spans.json",
                 "--span-sample", "1",
                 "--timeline-out", "armed.timeline.json",
                 "--alerts", str(ALERTS),
                 "--alerts-out", "armed.alerts.jsonl",
                 "--ckpt-out", "armed.ck", "--ckpt-every", "250000"]))
    out.append(("mct",
                ["mct", "--app", "lbm", "--warmup", "100000", "--insts",
                 "3000000", "--stats-json", "mct.json",
                 "--stats-every", "250000",
                 "--provenance-out", "mct.prov.jsonl",
                 "--provenance-chrome", "mct.prov.json",
                 "--ckpt-out", "mct.ck", "--ckpt-every", "1000000"]))
    out.append(("eval-stats", ["eval", "--app", "milc", *EVAL, "--stats"]))
    out.append(("trace-capture",
                ["trace", "--app", "milc", "--ops", "20000",
                 "--out", "milc.trace"]))
    out.append(("trace-replay",
                ["eval", "--trace", "milc.trace", "--warmup", "20000",
                 "--measure", "100000"]))
    out.append(("sweep-noquota",
                ["sweep", "--app", "lbm", "--space", "noquota",
                 "--warmup", "10000", "--measure", "30000",
                 "--csv", "sweep.csv"]))
    return out


def run_corpus(sim, workdir, corpus):
    """Run every case in @p workdir; returns an error string or None."""
    env = dict(os.environ)
    env["MCT_SWEEP_CACHE"] = os.path.join(MEMO_DIR, "sweep_cache.csv")
    os.mkdir(os.path.join(workdir, MEMO_DIR))
    for name, argv in corpus:
        with open(os.path.join(workdir, f"{name}.stdout"), "wb") as out:
            proc = subprocess.run([sim] + argv, cwd=workdir, env=env,
                                  stdout=out, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-400:]
            return f"{name}: exit {proc.returncode}: {tail}"
    return None


def outputs(workdir):
    """Relative paths of every output file under @p workdir."""
    found = set()
    for root, dirs, files in os.walk(workdir):
        dirs[:] = [d for d in dirs if d != MEMO_DIR]
        for f in files:
            found.add(os.path.relpath(os.path.join(root, f), workdir))
    return found


def list_apps(sim):
    text = subprocess.run([sim, "list"], capture_output=True, text=True,
                          check=True).stdout
    apps = []
    for line in text.splitlines():
        if line.startswith("mixes"):
            break
        if line.startswith("  "):
            apps.append(line.strip())
    return apps


def main(argv):
    if len(argv) != 3 or not all(os.access(a, os.X_OK) for a in argv[1:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (os.path.abspath(a) for a in argv[1:])
    try:
        apps = list_apps(old)
    except subprocess.CalledProcessError as e:
        print(f"old: mct_sim list: exit {e.returncode}", file=sys.stderr)
        return 3
    corpus = cases(apps)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        dirs = {}
        for side, sim in (("old", old), ("new", new)):
            dirs[side] = os.path.join(tmp, side)
            os.mkdir(dirs[side])
            err = run_corpus(sim, dirs[side], corpus)
            if err:
                print(f"{side}: {err}", file=sys.stderr)
                return 3
        old_files, new_files = outputs(dirs["old"]), outputs(dirs["new"])
        diffs = [f"only in {side}: {f}"
                 for side, mine, theirs in (("old", old_files, new_files),
                                            ("new", new_files, old_files))
                 for f in sorted(mine - theirs)]
        same = sorted(old_files & new_files)
        for f in same:
            if not filecmp.cmp(os.path.join(dirs["old"], f),
                               os.path.join(dirs["new"], f), shallow=False):
                diffs.append(f"differs: {f}")
    if diffs:
        print("\n".join(diffs))
        return 1
    print(f"same bytes: {len(same)} files from {len(corpus)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
