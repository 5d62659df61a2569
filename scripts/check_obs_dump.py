#!/usr/bin/env python3
"""Validates the observability dump of an instrumented store run.

The `geostore` example (`cargo run --release --example geostore`), run with
PARGEO_OBS_DUMP=1, replays a mixed-serving preset on a 4-shard store at
`observe(Trace)` and prints that store's registry rendered as JSON and as
Prometheus text between
`--- obs json ---` / `--- obs prometheus ---` / `--- obs end ---`
markers. This script asserts both renderings parse and contain the
expected metric families — the CI gate that exposition stays well-formed —
and that the dumped store, which is built with no `.backend(..)` call, is
the BDL-tree store: its index gauges must carry `backend="bdl"`. That store
is serial (no `.pipeline(true)`): it answers each read run from a snapshot
it drops before the next write, so no pin may outlive the replay and no
write may copy on a pin's behalf.
"""
import json
import re
import sys

EXPECTED_COUNTERS = {
    "geostore_requests_total",
    "geostore_memo_total",
    "geostore_memo_fallback_total",
    "geostore_write_epochs_total",
    "shard_write_ops_total",
    "shard_routed_points_total",
}
EXPECTED_HISTOGRAMS = {"geostore_request_nanos", "span_nanos"}
DEFAULT_BACKEND_GAUGES = ("index_arena_bytes", "index_nodes_total")
# (family, JSON section) that a serial store leaves at exactly zero.
ZERO_AFTER_SERIAL_RUN = (
    ("geostore_pinned_views", "gauges"),
    ("geostore_index_cow_bytes_total", "counters"),
)

PROM_SAMPLE = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+(\.\d+)?$')


def section(text: str, start: str, end: str) -> str:
    i = text.index(start) + len(start)
    return text[i : text.index(end, i)]


def main() -> None:
    text = open(sys.argv[1]).read()

    blob = json.loads(section(text, "--- obs json ---", "--- obs prometheus ---"))
    counters = {c["name"] for c in blob["counters"]}
    missing = EXPECTED_COUNTERS - counters
    assert not missing, f"JSON missing counter families: {missing}"
    hists = {h["name"] for h in blob["histograms"]}
    missing = EXPECTED_HISTOGRAMS - hists
    assert not missing, f"JSON missing histogram families: {missing}"
    for h in blob["histograms"]:
        assert h["p50"] <= h["p90"] <= h["p99"] <= h["max"], (
            f'{h["name"]}: quantiles out of order'
        )
        assert h["count"] == 0 or h["sum"] >= h["max"], (
            f'{h["name"]}: sum below max'
        )
    served = sum(
        c["value"] for c in blob["counters"] if c["name"] == "geostore_requests_total"
    )
    assert served > 0, "instrumented run served no requests"
    for family, kind in ZERO_AFTER_SERIAL_RUN:
        values = [m["value"] for m in blob[kind] if m["name"] == family]
        assert values == [0], f"{family}: expected one sample at 0, got {values}"

    prom = section(text, "--- obs prometheus ---", "--- obs end ---")
    typed = set(re.findall(r"^# TYPE (\S+) (?:counter|gauge|histogram)$", prom, re.M))
    missing = (EXPECTED_COUNTERS | EXPECTED_HISTOGRAMS) - typed
    assert not missing, f"Prometheus missing # TYPE lines: {missing}"
    bad = [
        line
        for line in prom.splitlines()
        if line and not line.startswith("#") and not PROM_SAMPLE.match(line)
    ]
    assert not bad, f"malformed Prometheus sample lines: {bad[:5]}"
    for gauge in DEFAULT_BACKEND_GAUGES:
        labelled = re.findall(rf"^{gauge}\{{([^}}]*)\}} \d+$", prom, re.M)
        assert labelled == ['backend="bdl"'], (
            f'{gauge}: expected one sample labelled backend="bdl", got {labelled}'
        )

    print(
        f"obs dump ok: {len(counters)} counter / {len(hists)} histogram "
        f"families, {served} requests served"
    )


if __name__ == "__main__":
    main()
