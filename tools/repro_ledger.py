#!/usr/bin/env python3
"""The repro ledger: what the paper reproduction and the spec library cost.

Write mode times two suites from the outside. The figures suite is RUNS
runs of `slowcc_figures` over every entry, then RUNS runs of each entry
alone. The specs suite is RUNS runs of each scenario spec through
`slowcc_sweep --spec DIR --experiment NAME` over SPEC_ALGORITHMS with
SPEC_TRIALS seeds. Each run's wall time and events/s are written as
{median, min, max}, with its simulated event count (the last stderr
line of `slowcc_figures`, or the sum over `slowcc_sweep`'s manifest), to
a JSON file of schema slowcc.repro.v2. The event stream is
deterministic, so an entry whose event count differs between its runs
is a bug and fails the write.

    tools/repro_ledger.py --figures build-release/bench/slowcc_figures \\
        --sweep build-release/tools/slowcc_sweep --specs specs \\
        --out BENCH_repro.json

Validate mode checks a ledger's schema and numbers, with --figures that
its figure entries are `slowcc_figures --list`, in order, and with
--specs that its spec entries are the library's `*.toml` stems, sorted:

    tools/repro_ledger.py --validate BENCH_repro.json \\
        [--figures build/bench/slowcc_figures] [--specs specs]

Exit status: 0 on success, 1 on a failed run or an invalid ledger,
2 on a usage error.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

SCHEMA = "slowcc.repro.v2"
RUNS = 3
SPEC_ALGORITHMS = ["tcp", "tfrc:6"]
SPEC_TRIALS = 3
EVENTS_LINE = re.compile(r"^slowcc_figures: (\d+) events simulated$", re.M)


class LedgerError(Exception):
    pass


def list_entries(figures):
    out = subprocess.run([figures, "--list"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return out.split()


def spec_names(specs):
    """The scenario names of a spec directory: its *.toml stems, sorted."""
    return sorted(f[:-len(".toml")] for f in os.listdir(specs)
                  if f.endswith(".toml"))


def build_type(binary):
    """CMAKE_BUILD_TYPE of the build tree holding <build>/<dir>/BIN."""
    cache = os.path.join(os.path.dirname(os.path.abspath(binary)), "..",
                         "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8") as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    except OSError:
        return None
    return m.group(1) if m else None


def timed_run(figures, names):
    """One slowcc_figures process: (wall seconds, simulated events)."""
    start = time.perf_counter()
    proc = subprocess.run([figures, *names], text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    label = " ".join(names) or "every entry"
    if proc.returncode != 0:
        raise LedgerError(f"slowcc_figures {label} exited {proc.returncode}:"
                          f"\n{proc.stderr}")
    m = EVENTS_LINE.findall(proc.stderr)
    if len(m) != 1:
        raise LedgerError(f"slowcc_figures {label} printed no events line")
    return round(wall, 6), int(m[0])


def timed_spec_run(sweep, specs, name, scratch):
    """One slowcc_sweep process over one spec: (wall seconds, events)."""
    prefix = os.path.join(scratch, name)
    start = time.perf_counter()
    proc = subprocess.run(
        [sweep, "--spec", specs, "--experiment", name, "--algorithms",
         ",".join(SPEC_ALGORITHMS), "--trials", str(SPEC_TRIALS), "--quiet",
         "--out", prefix],
        text=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise LedgerError(f"slowcc_sweep {name} exited {proc.returncode}:"
                          f"\n{proc.stderr}")
    with open(prefix + ".manifest.jsonl", encoding="utf-8") as f:
        events = sum(json.loads(line)["events"] for line in f if line.strip())
    return round(wall, 6), events


def spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def record(label, runs):
    events = {e for _, e in runs}
    if len(events) != 1:
        raise LedgerError(f"{label}: event counts differ between runs: "
                          f"{sorted(events)}")
    (n,) = events
    walls = [w for w, _ in runs]
    return {"wall_s": spread(walls),
            "events_per_s": spread([round(n / w, 1) for w in walls]),
            "events": n}


def write(figures, sweep, specs, out):
    for binary in (figures, sweep):
        kind = build_type(binary)
        if kind != "Release":
            raise LedgerError(f"{binary} is not from a Release build "
                              f"(CMAKE_BUILD_TYPE {kind}); write the ledger "
                              "from one")
    names = list_entries(figures)
    total = [timed_run(figures, []) for _ in range(RUNS)]
    alone = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            alone[name].append(timed_run(figures, [name]))
    scenarios = spec_names(specs)
    spec_runs = {name: [] for name in scenarios}
    with tempfile.TemporaryDirectory() as scratch:
        for _ in range(RUNS):
            for name in scenarios:
                spec_runs[name].append(
                    timed_spec_run(sweep, specs, name, scratch))
    ledger = {
        "schema": SCHEMA,
        "runs": RUNS,
        "build_type": kind,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "entries": {name: record(name, alone[name]) for name in names},
        "total": record("total", total),
        "specs": {
            "algorithms": SPEC_ALGORITHMS,
            "trials": SPEC_TRIALS,
            "entries": {name: record(name, spec_runs[name])
                        for name in scenarios},
        },
    }
    with open(out, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    t = ledger["total"]
    print(f"repro_ledger: wrote {out}: {len(names)} entries, total "
          f"{t['wall_s']['median']:.2f} s, {t['events']} events; "
          f"{len(scenarios)} specs")


def check_record(label, rec):
    if not isinstance(rec, dict) or \
            sorted(rec) != ["events", "events_per_s", "wall_s"]:
        raise LedgerError(f"{label}: want keys events, events_per_s, wall_s")
    n = rec["events"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise LedgerError(f"{label}: events must be an integer >= 0")
    for key in ("wall_s", "events_per_s"):
        s = rec[key]
        if not isinstance(s, dict) or sorted(s) != ["max", "median", "min"]:
            raise LedgerError(f"{label}.{key}: want keys median, min, max")
        for stat, v in s.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                    not math.isfinite(v) or v < 0:
                raise LedgerError(f"{label}.{key}.{stat}: not a finite "
                                  f"number >= 0: {v!r}")
            # Only a closed form (no simulated event) runs at 0 events/s.
            if v == 0 and (key == "wall_s" or n > 0):
                raise LedgerError(f"{label}.{key}.{stat} is 0")
        if not s["min"] <= s["median"] <= s["max"]:
            raise LedgerError(f"{label}.{key}: want min <= median <= max")
    want = n / rec["wall_s"]["median"]
    if abs(rec["events_per_s"]["median"] - want) > 1e-6 * want + 0.1:
        raise LedgerError(f"{label}: events_per_s.median is not "
                          "events / wall_s.median")


def validate(path, figures, specs):
    try:
        with open(path, encoding="utf-8") as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        raise LedgerError(f"cannot read {path}: {e}") from e
    if not isinstance(ledger, dict) or ledger.get("schema") != SCHEMA:
        raise LedgerError(f"schema is not {SCHEMA}")
    if ledger.get("runs") != RUNS:
        raise LedgerError(f"runs is not {RUNS}")
    entries = ledger.get("entries")
    if not isinstance(entries, dict) or not entries:
        raise LedgerError("no entries")
    for name, rec in entries.items():
        check_record(name, rec)
    check_record("total", ledger.get("total"))
    if figures is not None:
        want = list_entries(figures)
        if list(entries) != want:
            missing = [n for n in want if n not in entries]
            extra = [n for n in entries if n not in want]
            raise LedgerError("entries differ from slowcc_figures --list: "
                              f"missing {missing}, extra {extra}")
    suite = ledger.get("specs")
    if not isinstance(suite, dict) or \
            sorted(suite) != ["algorithms", "entries", "trials"]:
        raise LedgerError("specs: want keys algorithms, entries, trials")
    if suite["algorithms"] != SPEC_ALGORITHMS or \
            suite["trials"] != SPEC_TRIALS:
        raise LedgerError(f"specs: want algorithms {SPEC_ALGORITHMS} and "
                          f"trials {SPEC_TRIALS}")
    spec_entries = suite["entries"]
    if not isinstance(spec_entries, dict) or not spec_entries:
        raise LedgerError("specs: no entries")
    for name, rec in spec_entries.items():
        check_record(f"specs.{name}", rec)
    if specs is not None:
        want = spec_names(specs)
        if list(spec_entries) != want:
            missing = [n for n in want if n not in spec_entries]
            extra = [n for n in spec_entries if n not in want]
            raise LedgerError(f"specs entries differ from {specs}/*.toml: "
                              f"missing {missing}, extra {extra}")
    print(f"repro_ledger: {path} OK ({len(entries)} entries + total, "
          f"{len(spec_entries)} specs)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--figures", help="the slowcc_figures binary")
    ap.add_argument("--sweep", help="the slowcc_sweep binary (write mode)")
    ap.add_argument("--specs", help="the scenario spec directory")
    ap.add_argument("--out", help="ledger to write (write mode)")
    ap.add_argument("--validate", metavar="FILE", help="ledger to check")
    args = ap.parse_args()
    if (args.validate is None) == (args.out is None):
        ap.error("give exactly one of --out and --validate")
    if args.out is not None and None in (args.figures, args.sweep,
                                         args.specs):
        ap.error("--out needs --figures, --sweep and --specs")
    try:
        if args.validate is not None:
            validate(args.validate, args.figures, args.specs)
        else:
            write(args.figures, args.sweep, args.specs, args.out)
    except (LedgerError, subprocess.CalledProcessError, OSError) as e:
        print(f"repro_ledger: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
