#!/usr/bin/env python3
"""Schema check for benchmark result files (BENCH_*.json).

Every machine-readable benchmark record the harness emits must:

  - be valid JSON with the envelope keys ``experiment`` (non-empty
    string), ``tiny`` (bool) and ``results`` (non-empty list);
  - contain only finite numbers (no NaN/Infinity smuggled in via the
    lax JSON parsers some tools use);
  - when checked in (``--checked-in``), come from a full-size run
    (``tiny`` must be false — tiny-mode numbers are meaningless and
    exist only to prove the experiments execute);
  - when checked in, an E20 record must show its claim: at 10^6 item
    rows the index nested-loop join beats the hash join, and it stays
    within 2x of its own time at 10^4 rows (64 probes, not a pass over
    the table).

``--compare`` reads the whole set of records together and checks the
trajectory-level invariants that individual-file validation cannot:

  - every result row within a file carries the same key schema (a new
    arm or a renamed field is schema drift and must be deliberate);
  - the E21 prepared-statement record is present — the statement cache
    is load-bearing and its benchmark must not silently disappear;
  - E21's claim holds: at the ~1 KB statement size, EXECUTE against
    the cached plan beats parse+compile — by at least 5x in a
    full-size record, or at all in a tiny smoke record.

Usage:  check_bench.py [--checked-in] [--compare] FILE [FILE ...]
"""

import json
import math
import sys


def walk_numbers(node, path, problems):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            problems.append(f"{path}: non-finite number {node!r}")
    elif isinstance(node, dict):
        for key, value in node.items():
            walk_numbers(value, f"{path}.{key}", problems)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk_numbers(value, f"{path}[{i}]", problems)


def check_file(filename, checked_in):
    problems = []
    try:
        with open(filename) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]

    if not isinstance(doc, dict):
        return ["top level is not an object"]

    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        problems.append("missing or empty 'experiment'")

    tiny = doc.get("tiny")
    if not isinstance(tiny, bool):
        problems.append("'tiny' missing or not a boolean")
    elif checked_in and tiny:
        problems.append("checked-in results must come from a full run (tiny=false)")

    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("'results' missing, not a list, or empty")
    else:
        for i, row in enumerate(results):
            if not isinstance(row, dict) or not row:
                problems.append(f"results[{i}] is not a non-empty object")

    walk_numbers(doc, "$", problems)
    if checked_in and experiment == "E20" and isinstance(results, list):
        check_e20(doc, problems)
    return problems


def check_e20(doc, problems):
    """The join-method claim of a full-size E20 record."""
    join = {}
    for row in doc.get("results", []):
        if isinstance(row, dict) and row.get("section") == "rule_join":
            join[(row.get("arm"), row.get("rows"))] = row.get("ms_per_op")
    inl_small = join.get(("index_nested_loop", 10_000))
    inl_big = join.get(("index_nested_loop", 1_000_000))
    hash_big = join.get(("hash_join", 1_000_000))
    numbers = (inl_small, inl_big, hash_big)
    if not all(isinstance(x, (int, float)) for x in numbers):
        problems.append(
            "E20 record lacks rule_join index_nested_loop rows at 10^4 and "
            "10^6 or a hash_join row at 10^6"
        )
        return
    if not inl_big < hash_big:
        problems.append(
            f"E20 claim violated at 10^6 rows: index_nested_loop {inl_big:.3f} "
            f"ms must beat hash_join {hash_big:.3f} ms"
        )
    if not inl_big <= 2.0 * inl_small:
        problems.append(
            f"E20 claim violated: index_nested_loop at 10^6 rows ({inl_big:.3f} "
            f"ms) must stay within 2x of its 10^4-row time ({inl_small:.3f} ms)"
        )


def check_schema_consistency(filename, doc, problems):
    """All result rows in one record must share a key schema."""
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return
    first = results[0]
    if not isinstance(first, dict):
        return
    schema = set(first.keys())
    for i, row in enumerate(results[1:], start=1):
        if isinstance(row, dict) and set(row.keys()) != schema:
            problems.append(
                f"schema drift: results[{i}] keys {sorted(row.keys())} "
                f"!= results[0] keys {sorted(schema)}"
            )


def check_e21(filename, doc, problems):
    """The prepared-statement claim: cached EXECUTE beats parse+compile
    at the 1 KB statement size (5x when full-size, >1x when tiny)."""
    by_arm = {}
    for row in doc.get("results", []):
        if isinstance(row, dict) and row.get("size") == "1kb":
            by_arm[row.get("arm")] = row.get("ns_per_op")
    compile_ns = by_arm.get("parse_compile")
    cached_ns = by_arm.get("execute_cached")
    if not isinstance(compile_ns, (int, float)) or not isinstance(
        cached_ns, (int, float)
    ):
        problems.append("E21 record lacks 1kb parse_compile/execute_cached rows")
        return
    if cached_ns <= 0:
        problems.append(f"E21 execute_cached ns_per_op not positive: {cached_ns}")
        return
    factor = 1.0 if doc.get("tiny") else 5.0
    if compile_ns < factor * cached_ns:
        problems.append(
            f"E21 claim violated at 1kb: execute_cached {cached_ns:.0f} ns "
            f"must be at least {factor:g}x faster than parse_compile "
            f"{compile_ns:.0f} ns"
        )


def compare_files(files):
    """Cross-file trajectory checks; returns a list of problem strings."""
    problems = []
    docs = {}
    for filename in files:
        try:
            with open(filename) as f:
                docs[filename] = json.load(f)
        except (OSError, ValueError) as exc:
            problems.append(f"{filename}: unreadable or invalid JSON: {exc}")
    for filename, doc in docs.items():
        if isinstance(doc, dict):
            local = []
            check_schema_consistency(filename, doc, local)
            problems.extend(f"{filename}: {p}" for p in local)
    e21_docs = [
        (filename, doc)
        for filename, doc in docs.items()
        if isinstance(doc, dict) and doc.get("experiment") == "E21"
    ]
    if not e21_docs:
        problems.append(
            "no E21 (prepared statements) record among "
            + ", ".join(sorted(docs)) if docs else "no files readable"
        )
    for filename, doc in e21_docs:
        local = []
        check_e21(filename, doc, local)
        problems.extend(f"{filename}: {p}" for p in local)
    return problems


def main(argv):
    args = argv[1:]
    checked_in = "--checked-in" in args
    compare = "--compare" in args
    files = [a for a in args if a not in ("--checked-in", "--compare")]
    if not files:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    failed = False
    for filename in files:
        problems = check_file(filename, checked_in)
        if problems:
            failed = True
            for p in problems:
                print(f"{filename}: {p}", file=sys.stderr)
        else:
            print(f"{filename}: ok")
    if compare:
        problems = compare_files(files)
        if problems:
            failed = True
            for p in problems:
                print(p, file=sys.stderr)
        else:
            print(f"compare: ok ({len(files)} records)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
