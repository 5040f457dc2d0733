#!/usr/bin/env python3
"""Run the repository benchmark and append its result to the history.

Run from anywhere, with perfbench/run.py's arguments:

    python3 bench/history.py --workload bfc_quick --seed 1 --seconds 36 --trace 0

Every argument but --session goes to perfbench/run.py unchanged, and its
output is echoed line by line. When it finishes, one JSON row is appended
to BENCH_history.jsonl at the repository root:

    {"commit", "workload", "seed", "trace", "correct", "lib_lines",
     "metrics": {name: value}}

With `--session NAME` the row also has "session": NAME. Rows that share a
session were measured in one sitting on one machine, so they can
be compared with each other: a change's rows with its parent's, run in
turn from two checkouts under the same name.

"commit" is HEAD, with "-dirty" appended when tracked files other than
BENCH_history.jsonl differ from it, so rows appended one after another
from one checkout name the same commit. "lib_lines" is the size of the
simulator at HEAD: the lines of every lib/**/*.ml and lib/**/*.mli file,
so code size is recorded next to speed. The workload, seed and trace
mode come from run.py's own header line, "correct" and the metrics from
its final JSON line. The exit status is run.py's; a run that prints no
final JSON line appends nothing.

    python3 bench/history.py --check

reads BENCH_history.jsonl and runs nothing. A session row is paired when
the same session has a row with the same workload, seed and trace at the
row's parent commit (`git rev-parse COMMIT^`), or at a commit whose parent
is the row's (a parent's rows are paired by its change's). It lists every
unpaired session row and exits 1 if there is one; rows without a session
are skipped. It needs the commits' history, not a shallow clone.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def lib_lines():
    counts = git("grep", "-c", "", "HEAD", "--", "lib/*.ml", "lib/*.mli")
    return sum(int(line.rsplit(":", 1)[1]) for line in counts.splitlines())


def split_session(args):
    """(session, the other arguments): `--session NAME` or `--session=NAME`
    taken out of args, session None when absent."""
    session, rest, i = None, [], 0
    while i < len(args):
        if args[i] == "--session" and i + 1 < len(args):
            session, i = args[i + 1], i + 2
        elif args[i].startswith("--session="):
            session, i = args[i].split("=", 1)[1], i + 1
        else:
            rest, i = rest + [args[i]], i + 1
    return session, rest


def check():
    """Exit status 1, after listing them, when some session row is unpaired;
    0 otherwise."""
    with open(HISTORY) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    key = lambda r: (r["session"], r["workload"], r["seed"], r["trace"])
    commits = {}
    for r in rows:
        if "session" in r:
            commits.setdefault(key(r), set()).add(r["commit"])
    # "" for a commit git cannot name (a "-dirty" row, a commit not fetched)
    parent = {c: git("rev-parse", "--verify", "--quiet", c + "^")
              for cs in commits.values() for c in cs}
    unpaired = 0
    for n, r in enumerate(rows, 1):
        if "session" not in r:
            continue
        c, same = r["commit"], commits[key(r)]
        if parent[c] in same or any(parent[o] == c for o in same):
            continue
        unpaired += 1
        print("BENCH_history.jsonl:%d: session %s, %s seed %d trace %d at %s: no row at "
              "its parent %s" % (n, r["session"], r["workload"], r["seed"], r["trace"], c,
                                 parent[c] or "(unknown commit)"))
    sessions = {k[0] for k in commits}
    print("history: %d session rows in %d sessions, %d unpaired"
          % (sum(1 for r in rows if "session" in r), len(sessions), unpaired))
    return 1 if unpaired else 0


def main():
    if sys.argv[1:] == ["--check"]:
        return check()
    session, args = split_session(sys.argv[1:])
    proc = subprocess.Popen([sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
                            + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        lines.append(line.strip())
    code = proc.wait()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return code
    workload, seed, trace = next(
        m.groups() for m in (re.fullmatch(r"workload (\S+) +seed (\d+) +trace (\d)", l)
                             for l in lines) if m)
    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no", "--",
           ".", ":(exclude)" + os.path.basename(HISTORY)):
        commit += "-dirty"
    row = {
        "commit": commit,
        "workload": workload,
        "seed": int(seed),
        "trace": int(trace),
        "correct": result["correct"],
        "lib_lines": lib_lines(),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    if session is not None:
        row["session"] = session
    with open(HISTORY, "a") as f:
        f.write(json.dumps(row) + "\n")
    print("history: appended a %s row to %s" % (workload, HISTORY), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
