#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the
measuring program (perfbench/sopr_bench.exe) and the unmodified
sopr-server binary with dune into the build directory named by
$CARGO_TARGET_DIR (default .bench_build), then runs one measurement and
relays its output; the last line of standard output is the result
object.  Nothing is written outside the checkout and the build
directory.

Two further modes report on the benchmark itself and print no result
object:

    --steadiness N   repeat the run N times and print, per metric, the
                     median, quartiles and (max-min)/median, next to the
                     spread of a fixed CPU-only reference loop timed
                     between repetitions (host noise; reported only)
    --selftest       run every workload twice at a tiny size with one
                     seed and assert that exact counts, digests and
                     engine counters repeat, that the traced run does the
                     untimed run's work, and that every metric named in
                     BENCHMARK.json is printed with its unit
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ["rules-rollup", "rules-keyed", "wire-oltp"]


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build both executables; return (bench, server) paths."""
    for need in ("dune-project", "lib", "bin/sopr_server.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a full source checkout")
    bd = build_dir()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", bd,
           "--profile", "release",
           "./perfbench/sopr_bench.exe", "./bin/sopr_server.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not complete: {e}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", 1)
    out = os.path.join(bd, "default")
    return (os.path.join(out, "perfbench", "sopr_bench.exe"),
            os.path.join(out, "bin", "sopr_server.exe"))


def measure(exes, workload, seed, seconds, trace, extra=()):
    """One measurement: (exit code, stdout text)."""
    bench, server = exes
    work = os.path.join(build_dir(), "perfbench-work")
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", server, "--work-dir", work, *extra]
    # own process group, so that a timeout also stops any server child
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    return code, out


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed_metrics(stdout):
    """Every 'metric NAME VALUE UNIT' line, as {name: (value, unit)}."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


# ---------------------------------------------------------------------------
# steadiness report

def reference_loop():
    """A fixed CPU-only loop; its time varies only with the host."""
    t = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t


def spread_line(name, values, unit=""):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    rng = (max(values) - min(values)) / med if med else float("nan")
    iqr = (q3 - q1) / med if med else float("nan")
    return (f"{name:34s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} "
            f"q3 {q3:12.6g} iqr/med {iqr:7.4f} (max-min)/med {rng:7.4f}")


def steadiness(exes, a):
    values, refs = {}, []
    units = {}
    for k in range(a.steadiness):
        refs.extend(reference_loop() for _ in range(3))
        seed = a.seed + k if a.vary_seeds else a.seed
        code, out = measure(exes, a.workload, seed, a.seconds, a.trace)
        res = result_of(out) if code == 0 else None
        if not res or not res["correct"]:
            print(out)
            fail(f"repetition {k + 1} failed (exit {code})", 1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"repetition {k + 1}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
            flush=True)
    refs.extend(reference_loop() for _ in range(3))
    print(f"steadiness {a.workload}: {a.steadiness} runs, seconds "
          f"{a.seconds}, trace {a.trace}, "
          f"seeds {'varied from' if a.vary_seeds else 'all'} {a.seed}")
    for name, vs in values.items():
        print(spread_line(name, vs, units[name]))
    print(spread_line("host reference loop", refs, "s"))


# ---------------------------------------------------------------------------
# self-test

# per-layer metrics that are counts, not times: identical on every run
EXACT_LAYER = [
    "parser.kw_per_txn", "stmt_cache.hit_ratio", "compile.kw_per_txn",
    "execute.kw_per_txn", "execute.seq_scans_per_txn",
    "execute.index_probes_per_txn", "execute.range_probes_per_txn",
    "execute.hash_join_probes_per_txn", "rules.firings_per_txn",
    "rules.conditions_per_txn", "rules.candidates_per_txn",
    "rules.kw_per_txn", "server.requests_per_txn", "alloc_kw_per_txn",
    "wal_bytes_per_txn",
]


def selftest(exes, a):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    extra = ["--txns", str(a.txns), "--min-rounds", "1"]
    for w in WORKLOADS:
        outs = {}
        for trace in ("0", "1"):
            for rep in (1, 2):
                code, out = measure(exes, w, a.seed, 0, trace, extra)
                res = result_of(out) if out else None
                tag = f"{w} trace {trace} run {rep}"
                if code != 0 or not res or not res["correct"]:
                    problems.append(f"{tag}: exit {code}, result {res}")
                    continue
                if res["failed"] != 0:
                    problems.append(f"{tag}: {res['failed']} failed")
                got = {n: m["unit"] for n, m in res["metrics"].items()}
                if got != declared[trace]:
                    problems.append(f"{tag}: metrics {got} != declared "
                                    f"{declared[trace]}")
                outs[(trace, rep)] = out
        if len(outs) != 4:
            continue
        def lines(out, prefixes):
            return [l for l in out.splitlines() if l.startswith(prefixes)]
        # each mode repeats its digests, reference outcomes and counters
        # exactly; the traced run replays only the first of the untimed
        # run's streams, so its digest and outcomes are that stream's
        for prefixes in (("digest ", "reference "), ("counters ",)):
            for trace in ("0", "1"):
                if (lines(outs[(trace, 1)], prefixes)
                        != lines(outs[(trace, 2)], prefixes)):
                    problems.append(f"{w}: trace {trace} {prefixes} differ")
        checks = ("digest ", "reference ")
        if lines(outs[("1", 1)], checks) != lines(outs[("0", 1)], checks)[:2]:
            problems.append(f"{w}: traced stream differs from untimed stream")
        if any("check engine_counters ok" not in outs[("1", r)]
               for r in (1, 2)):
            problems.append(f"{w}: traced counters differ from untimed")
        m = {k: printed_metrics(o) for k, o in outs.items()}
        for trace, names in (("0", ["alloc_kw_per_txn", "wal_bytes_per_txn"]),
                             ("1", EXACT_LAYER)):
            for name in names:
                v1, v2 = m[(trace, 1)].get(name), m[(trace, 2)].get(name)
                if v1 != v2:
                    problems.append(f"{w}: trace {trace} {name} differs: "
                                    f"{v1} vs {v2}")
        print(f"selftest {w}: {len(outs)} runs checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--vary-seeds", action="store_true",
                   help="with --steadiness: seed, seed+1, ...")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--txns", type=int, default=60,
                   help="with --selftest: transactions per round")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    exes = build()
    if a.selftest:
        selftest(exes, a)
    elif a.steadiness:
        steadiness(exes, a)
    else:
        code, out = measure(exes, a.workload, a.seed, a.seconds, a.trace)
        sys.stdout.write(out)
        sys.exit(code)


if __name__ == "__main__":
    main()
