#!/usr/bin/env python3
"""Bench regression gate: diff freshly produced BENCH_*.json work
counters against the committed baselines and fail on any regression
beyond a tolerance.

The tracked counters are the deterministic *work* numbers the perf PRs
bought — probes (combinations_tried, partition_probes), pulls
(items_pulled), and decodes (items_decoded). Wall-times are machine
noise and are never compared (the benches' --counters-only mode strips
them from the JSON anyway).

Usage:
    check_regression.py [--tolerance PCT] BASELINE.json FRESH.json \
        [BASELINE2 FRESH2 ...]

Exit code 1 if any tracked counter in a fresh file exceeds its baseline
by more than the tolerance (default 10%; counters going *down* or
appearing/disappearing with a changed bench shape are not failures — a
reshaped bench must commit its new baseline in the same change).
`--tolerance 0` is the strict not-worse check ci.sh uses to decide
whether fresh counters may be promoted to the committed baselines — the
gate would otherwise ratchet *backwards* one sub-tolerance regression
at a time.
"""

import json
import sys

TRACKED = {
    "items_pulled",
    "items_decoded",
    "combinations_tried",
    "partition_probes",
}


def counters(node, path=""):
    """Yields (path, value) for every tracked counter in a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if key in TRACKED and isinstance(value, (int, float)):
                yield sub, value
            else:
                yield from counters(value, sub)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from counters(value, f"{path}[{i}]")


def check_invariants(fresh_path):
    """Absolute gates on the fresh P4 snapshot-IO fields.

    The counter diff above is relative (fresh vs baseline); this
    property is an absolute claim the storage layer makes and must hold
    in every fresh run: a trusted mmap open touches under 10% of the
    file's bytes before the first query. Old baselines (and benches
    other than P4) simply lack the fields — that is not a failure, the
    gate only tightens once the fields exist.
    """
    with open(fresh_path) as f:
        totals = json.load(f).get("totals", {})
    if not isinstance(totals, dict):
        return True
    name = fresh_path.split("/")[-1]
    ok = True
    raw = totals.get("snapshot_bytes")
    touched = totals.get("mmap_bytes_touched")
    if (isinstance(raw, int) and isinstance(touched, int) and
            totals.get("mmap_supported") is True):
        if 10 * touched >= raw:
            print(f"[bench-gate] {name}: FAIL — trusted mmap open "
                  f"touched {touched} of {raw} file bytes (>= 10%)")
            ok = False
    # P3 observability: the slow-query log must honor its
    # bounded-ring capacity. (The registry's < 3% wall-time overhead is
    # a timing, not a counter: bench_p3_serving enforces it by its own
    # exit code and leaves it out of --counters-only files.)
    if totals.get("slowlog_capacity_ok") is False:
        print(f"[bench-gate] {name}: FAIL — slow-query log broke its "
              f"bounded-ring capacity contract")
        ok = False
    return ok


def check_pair(baseline_path, fresh_path, tolerance):
    with open(baseline_path) as f:
        baseline = dict(counters(json.load(f)))
    with open(fresh_path) as f:
        fresh = dict(counters(json.load(f)))

    regressions = []
    compared = 0
    for path, base_value in baseline.items():
        if path not in fresh:
            continue  # bench reshaped; the new baseline ships with it
        fresh_value = fresh[path]
        compared += 1
        limit = base_value * (1.0 + tolerance)
        if fresh_value > limit and fresh_value > base_value:
            regressions.append((path, base_value, fresh_value))

    name = baseline_path.split("/")[-1]
    if compared == 0:
        # A bench rename/bug that drops every tracked counter must not
        # read as success — promotion would then overwrite the baseline
        # with a counter-less file and neuter the gate permanently.
        print(f"[bench-gate] {name}: FAIL — no tracked counters in "
              f"common between baseline ({len(baseline)}) and fresh "
              f"({len(fresh)}); a reshaped bench must keep the work "
              f"counters comparable or update the baseline deliberately")
        return False
    if regressions:
        print(f"[bench-gate] {name}: {len(regressions)} regression(s) "
              f"out of {compared} counters:")
        for path, base_value, fresh_value in regressions:
            pct = 100.0 * (fresh_value - base_value) / base_value \
                if base_value else float("inf")
            print(f"  {path}: {base_value} -> {fresh_value} (+{pct:.1f}%)")
        return False
    print(f"[bench-gate] {name}: OK ({compared} counters within "
          f"{tolerance:.0%})")
    return True


def main(argv):
    tolerance = 0.10
    args = argv[1:]
    if args and args[0] == "--tolerance":
        tolerance = float(args[1]) / 100.0
        args = args[2:]
    if len(args) < 2 or len(args) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    for i in range(0, len(args), 2):
        ok &= check_pair(args[i], args[i + 1], tolerance)
        ok &= check_invariants(args[i + 1])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
