#!/usr/bin/env bash
# Runs the perf-tracked benchmark subset and merges the results into one
# JSON snapshot so the per-PR perf trajectory accumulates in-repo
# (BENCH_PR<N>.json at the repo root, or wherever $2 points).
#
# Usage: bench/run_benches.sh [build_dir] [out.json]
#   build_dir  default: build
#   out.json   default: bench_snapshot.json
#
# Knobs:
#   MALTHUS_BENCH_MS    measurement interval per point (default 100)
#   MALTHUS_BENCH_REPS  repetitions per point; the snapshot records the
#                       median plus p10/p50/p90 dispersion (default 5 here —
#                       single-rep medians on small hosts scatter more than
#                       the effects being tracked)
#   MALTHUS_BENCH_PIN   pin worker threads round-robin over allowed CPUs,
#                       one per CPU, at points with no more threads than
#                       allowed CPUs; points past the CPU count run
#                       unpinned, since pinning would stack a spinner on
#                       the lock owner's CPU (default 1; set 0 to let the
#                       scheduler migrate at every point)
set -euo pipefail

build_dir="${1:-build}"
out="${2:-bench_snapshot.json}"

export MALTHUS_BENCH_REPS="${MALTHUS_BENCH_REPS:-5}"
export MALTHUS_BENCH_PIN="${MALTHUS_BENCH_PIN:-1}"

benches=(
  bench_handover_latency
  bench_fig02_tas_vs_mcs
  bench_abl_spin_budget
  bench_abl_sharding
)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for b in "${benches[@]}"; do
  bin="$build_dir/$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build_dir --target $b)" >&2
    exit 1
  fi
  echo "== $b" >&2
  "$bin" --benchmark_format=json >"$tmpdir/$b.json"
done

python3 - "$out" "$tmpdir" "${benches[@]}" <<'EOF'
import json, os, platform, re, subprocess, sys

out, tmpdir, names = sys.argv[1], sys.argv[2], sys.argv[3:]

def git(*args):
    try:
        return subprocess.check_output(("git", *args), text=True).strip()
    except Exception:
        return None

def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except Exception:
        return None

def effective_cpus(allowed):
    # Affinity mask ∩ cgroup CPU quota — what EffectiveCpuCount() in
    # src/platform/sysinfo.h computes. cpus_allowed alone overstates the
    # budget inside quota-limited containers (e.g. cpu.max "50000 100000"
    # on an 8-wide mask is half a CPU, not 8).
    quota_cpus = None
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        parts = v2.split()
        if len(parts) == 2 and parts[0] != "max":
            try:
                quota_cpus = max(1, -(-int(parts[0]) // int(parts[1])))
            except ValueError:
                pass
    else:
        q = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        p = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        if q and p:
            try:
                if int(q) > 0:
                    quota_cpus = max(1, -(-int(q) // int(p)))
            except ValueError:
                pass
    if allowed is None:
        return quota_cpus
    return min(allowed, quota_cpus) if quota_cpus else allowed

def machine_profile():
    # Numbers within a snapshot are only comparable to numbers from the
    # same machine shape; record enough topology to tell snapshots apart.
    allowed = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    prof = {
        "kernel": platform.release(),
        "arch": platform.machine(),
        "cpus_online": os.cpu_count(),
        "cpus_allowed": allowed,
        "cpus_effective": effective_cpus(allowed),
    }
    cpuinfo = read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    if m:
        prof["cpu_model"] = m.group(1)
    try:
        nodes = [d for d in os.listdir("/sys/devices/system/node") if re.fullmatch(r"node\d+", d)]
        prof["numa_nodes"] = len(nodes) or 1
    except Exception:
        prof["numa_nodes"] = None
    meminfo = read("/proc/meminfo") or ""
    m = re.search(r"^MemTotal:\s*(\d+) kB$", meminfo, re.M)
    if m:
        prof["mem_total_mb"] = int(m.group(1)) // 1024
    for cache in ("index2", "index3"):
        size = read(f"/sys/devices/system/cpu/cpu0/cache/{cache}/size")
        level = read(f"/sys/devices/system/cpu/cpu0/cache/{cache}/level")
        if size and level:
            prof[f"l{level}_cache"] = size
    gov = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    if gov:
        prof["cpufreq_governor"] = gov
    # Shard counts the PR 8 sharding ablation sweeps (bench_abl_sharding);
    # recorded here so a snapshot is self-describing about its axes.
    prof["ablation_shard_counts"] = [1, 4, 16]
    return prof

snapshot = {
    "commit": git("rev-parse", "HEAD"),
    "machine": machine_profile(),
    "benchmarks": {},
}
for name in names:
    with open(f"{tmpdir}/{name}.json") as f:
        data = json.load(f)
    snapshot["context"] = data.get("context", {})
    snapshot["benchmarks"][name] = [
        {k: v for k, v in b.items() if not k.startswith("cpu_")}
        for b in data.get("benchmarks", [])
    ]

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
print(f"wrote {out}")
EOF
