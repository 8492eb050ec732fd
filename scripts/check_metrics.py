#!/usr/bin/env python3
"""Schema check for the metrics exporters (DESIGN section 8).

Validates that a bench run's ``--metrics`` output is well-formed and that the
JSON-lines and Prometheus exports of the same snapshot agree byte-for-value:

* every JSON metric line parses and matches the expected schema
  (counter: ``value``; gauge: ``value``; histogram: ``count``/``sum``/
  ``buckets`` with ascending inclusive ``le`` bounds and
  count == sum of bucket counts),
* the Prometheus file parses as text exposition format 0.0.4 with one
  ``# TYPE`` per family, cumulative buckets ending in ``+Inf`` == count,
* both exports contain exactly the same metric families with equal values,
* every family follows the naming convention (``sdbenc_`` prefix; counters
  end in ``_total``; histograms in a unit suffix ``_ns``/``_bytes``/
  ``_count``; gauges in ``_bytes``/``_depth``/``_ns``/``_count`` or one of
  the live-population suffixes ``_inflight``/``_connections`` unless
  allowlisted as an enum-valued gauge),
* a required set of families is present and non-zero — the acceptance
  criterion that an instrumented end-to-end run actually recorded cipher
  invocations, buffer-pool traffic and per-stage query latencies.

Usage:
  check_metrics.py --json OUT.TXT --prom METRICS.PROM [--require-nonzero ...]
"""

import argparse
import json
import re
import sys

# Gauges whose value is an enum, not a measurement, and therefore carry no
# unit suffix.
DEFAULT_NAMING_ALLOWLIST = [
    "sdbenc_crypto_backend",
]

# Unit suffixes per metric type. Counters are cumulative event counts
# (Prometheus convention: ``_total``); histograms and gauges name what they
# measure. ``_inflight``/``_connections`` are the network server's
# live-population gauges (sdbenc_server_inflight, sdbenc_server_connections).
TYPE_SUFFIXES = {
    "counter": ("_total",),
    "histogram": ("_ns", "_bytes", "_count"),
    "gauge": ("_bytes", "_depth", "_ns", "_count", "_inflight",
              "_connections"),
}

DEFAULT_REQUIRED_NONZERO = [
    "sdbenc_cipher_encrypt_blocks_total",
    "sdbenc_aead_seal_total",
    "sdbenc_aead_open_total",
    "sdbenc_storage_pool_hits_total",
    "sdbenc_storage_pool_misses_total",
    # Every page-file fsync (checkpoint, recovery, a commit covering
    # unlogged evictions) counts here; the smoke run's Flush makes some.
    "sdbenc_storage_page_file_syncs_total",
    "sdbenc_core_select_range_ns",
    "sdbenc_core_collect_rows_ns",
]

PROM_SERIES_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{le="(?P<le>[^"]+)"\})? (?P<value>\d+)$'
)


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_json_lines(path):
    """Returns {metric: parsed-object} for lines carrying a "metric" key."""
    metrics = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            if "metric" not in obj:
                continue  # a bench result line, not a metric line
            name, mtype = obj["metric"], obj.get("type")
            if mtype == "counter":
                if not isinstance(obj.get("value"), int) or obj["value"] < 0:
                    fail(f"{name}: counter needs a non-negative int value")
            elif mtype == "gauge":
                if not isinstance(obj.get("value"), int):
                    fail(f"{name}: gauge needs an int value")
            elif mtype == "histogram":
                count, total = obj.get("count"), obj.get("sum")
                buckets = obj.get("buckets")
                if not isinstance(count, int) or not isinstance(total, int):
                    fail(f"{name}: histogram needs int count and sum")
                if not isinstance(buckets, list):
                    fail(f"{name}: histogram needs a bucket list")
                if sum(b["count"] for b in buckets) != count:
                    fail(f"{name}: bucket counts do not sum to count")
                bounds = [b["le"] for b in buckets]
                if bounds != sorted(bounds):
                    fail(f"{name}: bucket bounds not ascending")
            else:
                fail(f"{name}: unknown type {mtype!r}")
            if name in metrics:
                fail(f"{name}: duplicate metric line")
            metrics[name] = obj
    if not metrics:
        fail(f"{path}: no metric lines found")
    return metrics


def parse_prometheus(path):
    """Returns {family: {"type": t, "series": {key: value}}}."""
    families = {}
    typed = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4:
                    fail(f"{path}:{lineno}: malformed TYPE comment")
                _, _, name, mtype = parts
                if name in typed:
                    fail(f"{name}: duplicate TYPE comment")
                typed[name] = mtype
                families[name] = {"type": mtype, "series": {}}
                continue
            if line.startswith("#"):
                continue
            m = PROM_SERIES_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable series line: {line!r}")
            name, le, value = m.group("name"), m.group("le"), int(
                m.group("value"))
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in typed:
                    family = name[: -len(suffix)]
                    break
            if family not in families:
                fail(f"{path}:{lineno}: series {name} precedes its TYPE")
            key = f'{name}{{le="{le}"}}' if le is not None else name
            families[family]["series"][key] = value
    if not families:
        fail(f"{path}: no metric families found")
    return families


def check_prom_histogram(name, fam):
    series = fam["series"]
    count = series.get(f"{name}_count")
    if count is None:
        fail(f"{name}: missing _count")
    if f"{name}_sum" not in series:
        fail(f"{name}: missing _sum")
    inf = series.get(f'{name}_bucket{{le="+Inf"}}')
    if inf != count:
        fail(f"{name}: +Inf bucket {inf} != count {count}")
    # Cumulative buckets must be non-decreasing in le order.
    buckets = []
    for key, value in series.items():
        m = re.match(rf'^{re.escape(name)}_bucket{{le="([^"]+)"}}$', key)
        if m and m.group(1) != "+Inf":
            buckets.append((int(m.group(1)), value))
    buckets.sort()
    cumulative = [v for _, v in buckets]
    if cumulative != sorted(cumulative):
        fail(f"{name}: cumulative buckets decrease")


def cross_check(json_metrics, prom_families):
    json_names = set(json_metrics)
    prom_names = set(prom_families)
    if json_names != prom_names:
        only_json = json_names - prom_names
        only_prom = prom_names - json_names
        fail(f"family mismatch: json-only={sorted(only_json)} "
             f"prom-only={sorted(only_prom)}")
    for name, obj in json_metrics.items():
        fam = prom_families[name]
        if obj["type"] != fam["type"]:
            fail(f"{name}: type mismatch {obj['type']} vs {fam['type']}")
        if obj["type"] in ("counter", "gauge"):
            prom_value = fam["series"].get(name)
            if prom_value != obj["value"]:
                fail(f"{name}: value {obj['value']} (json) != "
                     f"{prom_value} (prom)")
        else:
            check_prom_histogram(name, fam)
            if fam["series"][f"{name}_count"] != obj["count"]:
                fail(f"{name}: count mismatch between exports")
            if fam["series"][f"{name}_sum"] != obj["sum"]:
                fail(f"{name}: sum mismatch between exports")
            # Non-cumulative json buckets vs cumulative prom buckets.
            running = 0
            for bucket in obj["buckets"]:
                running += bucket["count"]
                key = f'{name}_bucket{{le="{bucket["le"]}"}}'
                if fam["series"].get(key) != running:
                    fail(f"{name}: bucket le={bucket['le']} cumulative "
                         f"{fam['series'].get(key)} != {running}")


def check_naming(json_metrics, allowlist):
    allowed = set(allowlist)
    for name, obj in json_metrics.items():
        if name in allowed:
            continue
        if not re.match(r"^sdbenc_[a-z0-9_]+$", name):
            fail(f"{name}: metric names must be lower_snake with the "
                 f"sdbenc_ prefix")
        suffixes = TYPE_SUFFIXES[obj["type"]]
        if not name.endswith(suffixes):
            fail(f"{name}: {obj['type']} must end in one of "
                 f"{'/'.join(suffixes)} (or be allowlisted)")


def check_required(json_metrics, required):
    for name in required:
        obj = json_metrics.get(name)
        if obj is None:
            fail(f"required metric {name} missing")
        observed = obj["value"] if obj["type"] in ("counter", "gauge") \
            else obj["count"]
        if observed == 0:
            fail(f"required metric {name} is zero")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", required=True,
                        help="bench stdout containing JSON metric lines")
    parser.add_argument("--prom", required=True,
                        help="Prometheus text-format export of the same "
                             "snapshot")
    parser.add_argument("--require-nonzero", nargs="*",
                        default=DEFAULT_REQUIRED_NONZERO,
                        help="metric families that must be present with a "
                             "non-zero value/count")
    parser.add_argument("--naming-allowlist", nargs="*",
                        default=DEFAULT_NAMING_ALLOWLIST,
                        help="metric families exempt from the unit-suffix "
                             "naming convention")
    args = parser.parse_args()

    json_metrics = parse_json_lines(args.json)
    prom_families = parse_prometheus(args.prom)
    cross_check(json_metrics, prom_families)
    check_naming(json_metrics, args.naming_allowlist)
    check_required(json_metrics, args.require_nonzero)
    print(f"check_metrics: OK: {len(json_metrics)} families consistent "
          f"across both exports")


if __name__ == "__main__":
    main()
