#!/usr/bin/env bash
# Scheduling hot-path benchmark snapshot: runs the real-mode micro-runtime
# benches (throughput, end-to-end drain, call round trip — with the
# executor's steal/park counters), the fig6 single-server sweep, and the
# flash-crowd overload bench (skewed load vs bounded mailboxes + hot-actor
# migration), then assembles BENCH_runtime.json for before/after comparison
# across commits.
#
# Usage: scripts/bench_compare.sh [output.json]   (default: BENCH_runtime.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_runtime.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Refuse to overwrite a snapshot taken on different hardware: wall-clock
# numbers are not comparable across core counts, and a silently re-baselined
# file makes every later before/after diff a lie. Re-baseline deliberately
# with BENCH_ALLOW_HOST_MISMATCH=1.
if [[ -f "$out" && "${BENCH_ALLOW_HOST_MISMATCH:-0}" != 1 ]]; then
  prev_cores="$(python3 -c \
    'import json,sys; print(json.load(open(sys.argv[1])).get("host_cores",""))' \
    "$out" 2>/dev/null || true)"
  cur_cores="$(python3 -c 'import os; print(os.cpu_count())')"
  if [[ -n "$prev_cores" && "$prev_cores" != "$cur_cores" ]]; then
    echo "bench_compare: REFUSING to overwrite $out:" >&2
    echo "bench_compare:   last snapshot ran on $prev_cores cores; this host has $cur_cores." >&2
    echo "bench_compare:   Cross-hardware numbers are not comparable. Set" >&2
    echo "bench_compare:   BENCH_ALLOW_HOST_MISMATCH=1 to re-baseline anyway." >&2
    exit 1
  fi
fi

cmake -B build -S . >/dev/null
cmake --build build -j --target micro_runtime fig6_single_server \
  flash_crowd micro_scale >/dev/null

echo "bench_compare: running micro_runtime (real-mode filter)..."
build/bench/micro_runtime \
  --benchmark_filter='RealMode' \
  --benchmark_min_time=1.0 \
  --benchmark_format=json >"$tmp/micro.json"

echo "bench_compare: running fig6_single_server (AODB_BENCH_SECONDS=5)..."
AODB_BENCH_SECONDS=5 build/bench/fig6_single_server >"$tmp/fig6.txt"

echo "bench_compare: running flash_crowd (AODB_BENCH_SECONDS=5)..."
AODB_BENCH_SECONDS=5 build/bench/flash_crowd \
  --metrics-json="$tmp/flash_metrics.json" >"$tmp/flash.txt"

# Million-actor scale snapshot, two cluster legs:
#  1. resident-path sweep (cold tail off): the flat-cost acceptance ratio —
#     per-message cost growth as the REGISTERED population grows 1000x with
#     a fixed hot working set. A cold-miss tail would fold real fault work
#     (storage loads) into the ratio and measure the workload, not the
#     structure.
#  2. fault leg (1M row only, 1% uniform cold tail): exercises the paging
#     path at scale and snapshots the activation-fault count + queue-wait
#     p99. AODB_SCALE_* env overrides pass through to both legs
#     (e.g. AODB_SCALE_ACTORS=100000 for a quick local run).
echo "bench_compare: running micro_scale (cluster mode, resident-path sweep)..."
AODB_SCALE_TAIL_PER_MILLE=0 build/bench/micro_scale >"$tmp/scale_cluster.txt"

echo "bench_compare: running micro_scale (cluster mode, 1M fault leg)..."
AODB_SCALE_MIN_ACTORS="${AODB_SCALE_ACTORS:-1000000}" \
  AODB_SCALE_REPEATS=1 AODB_SCALE_MESSAGES=800000 \
  build/bench/micro_scale >"$tmp/scale_fault.txt"

echo "bench_compare: running micro_scale (--mode=directory stripe sweep)..."
build/bench/micro_scale --mode=directory >"$tmp/scale_dir.txt"

python3 - "$tmp/micro.json" "$tmp/fig6.txt" "$tmp/flash.txt" \
  "$tmp/scale_cluster.txt" "$tmp/scale_fault.txt" "$tmp/scale_dir.txt" \
  "$out" <<'EOF'
import json, re, subprocess, sys

(micro_path, fig6_path, flash_path, scale_cluster_path, scale_fault_path,
 scale_dir_path, out_path) = sys.argv[1:8]

with open(micro_path) as f:
    micro_raw = json.load(f)

micro = []
for b in micro_raw.get("benchmarks", []):
    entry = {
        "name": b["name"],
        "real_time_ns": b.get("real_time"),
        "cpu_time_ns": b.get("cpu_time"),
    }
    if "items_per_second" in b:
        entry["items_per_second"] = b["items_per_second"]
    for counter in ("steals", "parks", "tasks_run"):
        if counter in b:
            entry[counter] = b[counter]
    micro.append(entry)

# fig6 table rows: sensors  achieved  stddev  util%  lat_mean  lat_p50  lat_p99
fig6 = []
row = re.compile(
    r"^\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$")
with open(fig6_path) as f:
    for line in f:
        m = row.match(line)
        if m:
            fig6.append({
                "sensors": int(m.group(1)),
                "achieved_rps": float(m.group(2)),
                "util_pct": float(m.group(4)),
                "lat_p50_ms": float(m.group(6)),
                "lat_p99_ms": float(m.group(7)),
            })

# flash_crowd table rows: phase  offered acked failed retries p50 p99
#                          migr mbox_rej shed conserved
flash = []
flash_row = re.compile(
    r"^\s*(uniform, managed|skewed, unmanaged|skewed, managed)\s+"
    r"(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+"
    r"(\d+)\s+(\d+)\s+(\d+)\s+(yes|NO)\s*$")
with open(flash_path) as f:
    for line in f:
        m = flash_row.match(line)
        if m:
            flash.append({
                "phase": m.group(1),
                "offered": int(m.group(2)),
                "acked": int(m.group(3)),
                "failed": int(m.group(4)),
                "retries": int(m.group(5)),
                "lat_p50_ms": float(m.group(6)),
                "lat_p99_ms": float(m.group(7)),
                "migrations": int(m.group(8)),
                "mailbox_rejects": int(m.group(9)),
                "shed": int(m.group(10)),
                "conserved": m.group(11) == "yes",
            })

# micro_scale cluster rows: registered messages msgs_per_sec ns_per_msg
#                           ratio_vs_1k faults paged_out fault_p99_us dir_entries
scale_row = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
    r"(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*$")

def parse_scale(path):
    rows = []
    with open(path) as f:
        for line in f:
            m = scale_row.match(line)
            if m:
                rows.append({
                    "registered": int(m.group(1)),
                    "msgs_per_sec": float(m.group(3)),
                    "ns_per_msg": float(m.group(4)),
                    "ratio_vs_1k": float(m.group(5)),
                    "faults": int(m.group(6)),
                    "paged_out": int(m.group(7)),
                    "fault_p99_us": int(m.group(8)),
                    "directory_entries": int(m.group(9)),
                })
    return rows

scale = parse_scale(scale_cluster_path)
scale_fault = parse_scale(scale_fault_path)

# micro_scale directory rows:
#   shards threads mops_per_sec speedup_vs_1 contended_per_kop
shard_sweep = []
shard_row = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$")
with open(scale_dir_path) as f:
    for line in f:
        m = shard_row.match(line)
        if m:
            shard_sweep.append({
                "shards": int(m.group(1)),
                "mops_per_sec": float(m.group(3)),
                "speedup_vs_1": float(m.group(4)),
                "contended_per_kop": float(m.group(5)),
            })

def shard_speedup(n):
    for r in shard_sweep:
        if r["shards"] == n:
            return r["speedup_vs_1"]
    return 0.0

def flash_p99(phase):
    for r in flash:
        if r["phase"] == phase:
            return r["lat_p99_ms"]
    return 0.0

def git(*args):
    try:
        return subprocess.check_output(("git",) + args, text=True).strip()
    except Exception:
        return ""

def micro_time(name):
    for m in micro:
        if m["name"] == name:
            return m.get("real_time_ns") or 0.0
    return 0.0

# Flight-recorder hot-path overhead: headline TellDrain with the recorder
# on (the production default) vs the recorder-off control. Target <= 0.02.
drain_on = micro_time("BM_RealModeTellDrain/8/16/real_time")
drain_off = micro_time("BM_RealModeTellDrainNoRecorder/8/16/real_time")

snapshot = {
    # "<hash>-dirty" when the measured tree has uncommitted changes on top
    # of <hash>.
    "commit": git("describe", "--always", "--dirty"),
    "date": git("show", "-s", "--format=%cI", "HEAD"),
    "host_cores": __import__("os").cpu_count(),
    "micro_runtime": micro,
    "fig6_single_server": fig6,
    "fig6_peak_rps": max((r["achieved_rps"] for r in fig6), default=0.0),
    "flash_crowd": flash,
    # The overload acceptance ratio: skewed-managed p99 over the uniform
    # baseline p99 (target: <= 2.0).
    "flash_crowd_p99_ratio": (
        round(flash_p99("skewed, managed") / flash_p99("uniform, managed"), 3)
        if flash_p99("uniform, managed") > 0 else 0.0),
    # Fractional slowdown of the headline drain bench with the recorder on.
    "flight_recorder_overhead": (
        round(drain_on / drain_off - 1.0, 4) if drain_off > 0 else 0.0),
    # Million-actor scale, resident path: per-message cost vs registered
    # count under a working-set cap, cold tail off (acceptance: largest
    # row's ratio_vs_1k <= 1.2).
    "micro_scale": scale,
    "micro_scale_cost_ratio": (
        scale[-1]["ratio_vs_1k"] if scale else 0.0),
    # Fault leg: the largest row re-run with the 1% uniform cold tail, so
    # the activation-fault path (paged entry -> storage load -> turn) is
    # exercised and its enqueue->first-turn p99 tracked.
    "micro_scale_fault": scale_fault,
    "activation_fault_count": (
        scale_fault[-1]["faults"] if scale_fault else 0),
    "activation_fault_p99_us": (
        scale_fault[-1]["fault_p99_us"] if scale_fault else 0),
    # Raw directory throughput vs stripe count; the tracked lock-striping
    # win (acceptance: >= 2.0 at 8 stripes vs 1).
    "directory_shard_sweep": shard_sweep,
    "directory_shard_speedup_8v1": shard_speedup(8),
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"bench_compare: wrote {out_path}")
EOF
