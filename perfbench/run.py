#!/usr/bin/env python3
"""Repository benchmark: host time of the DiTile-DGNN simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_sweep --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny
    python3 perfbench/run.py --record --workload serve_zipf --seed 1

The script builds perfbench/ (the simulator libraries plus the C++
harness) in Release mode under $CARGO_TARGET_DIR or .bench_build, runs
the harness, checks every modeled output against the digests recorded
in perfbench/reference/digests.json, prints a report, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced and then traced with the same seed, prints the per-layer
table and the tracing overhead, and reports the per-layer metrics.
See perfbench/README.md for the workloads, metrics and layers.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference" / "digests.json"
WORKLOADS = ("fleet_sweep", "serve_zipf", "scaleout_grid")

# Set-up-only launches before and after the timed run; with the timed
# run's own set-up that makes five samples, and setup_s is their median.
SETUP_REPEATS_EACH_SIDE = 2
# Wall-clock cap on one harness process.
HARNESS_TIMEOUT_S = 150

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_TIMES = (
    "graph.synth_ms",
    "workload.loads_ms",
    "tiling.alg1_ms",
    "core.plan_tail_ms",
    "sim.plan_ms.ReaDy",
    "sim.plan_ms.DGNN-Booster",
    "sim.plan_ms.RACE",
    "sim.plan_ms.MEGA",
    "sim.execute_ms.ReaDy",
    "sim.execute_ms.DGNN-Booster",
    "sim.execute_ms.RACE",
    "sim.execute_ms.MEGA",
    "sim.execute_ms.DiTile-DGNN",
    "serve.query_ms",
    "serve.event_ms",
    "serve.roll_ms",
    "serve.tenant_ms",
    "serve.parse_ms",
    "serve.checkpoint_ms",
    "serve.recover_ms",
    "scaleout.partition_ms",
    "scaleout.run_ms",
)

LAYER_COUNTS = (
    ("sim.plan_cache.hits", "count"),
    ("sim.plan_cache.misses", "count"),
    ("sim.plan_cache.evictions", "count"),
    ("workload.digest_cache.hits", "count"),
    ("workload.digest_cache.misses", "count"),
    ("workload.digest_cache.size", "count"),
    ("tiling.comm_cache.hits", "count"),
    ("tiling.comm_cache.misses", "count"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.delta_edges", "count"),
    ("serve.wal.appended", "count"),
    ("serve.wal.syncs", "count"),
    ("serve.plan_hits", "count"),
    ("serve.plan_misses", "count"),
    ("noc.spatial_bytes", "B"),
    ("noc.temporal_bytes", "B"),
    ("noc.reuse_bytes", "B"),
    ("dram.row_hits", "count"),
    ("dram.row_misses", "count"),
    ("dram.row_conflicts", "count"),
    ("interchip.payload_bytes", "B"),
    ("interchip.wire_bytes", "B"),
    ("model.cycles.ReaDy", "cycles"),
    ("model.cycles.DGNN-Booster", "cycles"),
    ("model.cycles.RACE", "cycles"),
    ("model.cycles.MEGA", "cycles"),
    ("model.cycles.DiTile-DGNN", "cycles"),
    ("model.serve_p99_us", "us"),
    ("model.cluster_cycles", "cycles"),
)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build the harness; returns the binary path."""
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out / "perfbench_harness"


def source_identity():
    """Commit when run from a git checkout, and a digest of src/."""
    # The ceiling keeps git from answering for an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=env).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit or "unknown", digest.hexdigest()[:16]


def run_harness(binary, work, args):
    """Run the harness once; returns (report, spawn_ns)."""
    out = work / "report.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), f"--out={out}", f"--work-dir={work}"] + args
    spawn_ns = time.monotonic_ns()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"harness timed out: {' '.join(cmd)}") from e
    if done.returncode == 3:
        raise BenchError("harness refused to time this build")
    if done.returncode != 0:
        raise BenchError(f"harness failed ({done.returncode}): "
                         f"{' '.join(cmd)}")
    return json.loads(out.read_text()), spawn_ns


def reference_key(workload, smoke):
    return workload + ("/smoke" if smoke else "")


def load_reference():
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def check_outputs(report, reference):
    """Digest and internal checks; returns (failed_ops, complete, lines).

    `complete` is true when every digest had a recorded reference.
    """
    recorded = reference.get(
        reference_key(report["workload"], report["smoke"]), {}).get(
            str(report["seed"]), {})
    failed = 0
    matched = 0
    unreferenced = 0
    mismatched = []
    for entry in report["digests"]:
        want = recorded.get(entry["key"])
        if want is None:
            unreferenced += 1
        elif want == entry["digest"]:
            matched += 1
        else:
            failed += entry["ops"]
            mismatched.append(entry["key"])
    lines = [f"digests: {matched} match, {len(mismatched)} mismatch, "
             f"{unreferenced} without a recorded reference "
             f"(seed {report['seed']})"]
    if mismatched:
        lines.append("  mismatched: " + " ".join(mismatched[:20]))
    for check in report["checks"]:
        failed += check["failed_ops"]
        if not check["ok"]:
            failed = max(failed, 1)
        lines.append(f"check {check['name']}: "
                     f"{'ok' if check['ok'] else 'FAILED'} "
                     f"({check['detail'].strip()})")
    return min(failed, report["ops"]), unreferenced == 0, lines


def print_header(report, commit, src_digest):
    b = report["build"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"pool width {report['pool_width']}  nproc {report['nproc']}")
    print(f"build {b['type']} ({b['compiler']}, flags '{b['flags'].strip()}'"
          f", optimized={b['optimized']} NDEBUG={b['ndebug']} "
          f"sanitized={b['sanitized']})  commit {commit}  "
          f"src {src_digest}")


def end_to_end(report, setup_samples):
    op = report["op_ms"]
    metrics = {
        "ops_per_s": report["ops_per_s"],
        "op_ms_p50": op["p50"],
        "op_ms_p90": op["p90"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    print(f"ops {report['ops']} in {report['timed_s']:.3f} s "
          f"({report['complete_passes']} complete pass(es) of "
          f"{report['pass_ops']} ops); closed loop, 1 client")
    rows = [
        ("ops_per_s", "1/s", metrics["ops_per_s"], report["ops"]),
        ("op_ms_p50", "ms", op["p50"], op["n"]),
        ("op_ms_p90", "ms", op["p90"], op["n"]),
        ("op_ms_p99", "ms", op["p99"], op["n"]),
    ]
    query = report["query_ms"]
    if query["n"]:
        rows += [("query_ms_p50", "ms", query["p50"], query["n"]),
                 ("query_ms_p99", "ms", query["p99"], query["n"])]
    rows += [("setup_s", "s", metrics["setup_s"], len(setup_samples)),
             ("peak_rss_mb", "MB", metrics["peak_rss_mb"], 1)]
    for name, unit, value, n in rows:
        print(f"  {name:<14} {value:>14.4f} {unit:<4} (n={n})")
    return metrics


def per_layer(report, untraced):
    layers = {row["name"]: row for row in report["layers"]}
    overhead = report["ops_per_s"] - untraced["ops_per_s"]
    print(f"traced run: {report['ops']} ops, coverage of op time by "
          f"named layers {100 * report['coverage']:.1f}%")
    print(f"tracing overhead: ops_per_s traced {report['ops_per_s']:.4f} "
          f"- untraced {untraced['ops_per_s']:.4f} = {overhead:+.4f} "
          f"({100 * overhead / untraced['ops_per_s']:+.2f}%)")
    print(f"  {'layer':<28} {'total_ms':>12} {'self_ms':>12} "
          f"{'calls':>8} {'share':>7} {'setup_ms':>10} {'per_pass_ms':>12}")
    for row in sorted(report["layers"], key=lambda r: -r["total_ms"]):
        print(f"  {row['name']:<28} {row['total_ms']:>12.3f} "
              f"{row['self_ms']:>12.3f} {row['calls']:>8} "
              f"{100 * row['share_of_op']:>6.1f}% "
              f"{row['setup_ms']:>10.3f} {row['per_pass_ms']:>12.3f}")
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = (layers[name]["per_pass_ms"]
                         if name in layers else 0.0, "ms")
    counts = report["counts"]
    for name, unit in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0), unit)
    return metrics


def run_workload(args, binary, reference, commit, src_digest):
    work = build_root() / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = [f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}"]
    try:
        if args.trace:
            untraced, _ = run_harness(binary, work, base)
            spans = build_root() / "spans" / (
                f"{args.workload}-seed{args.seed}.tsv")
            spans.parent.mkdir(parents=True, exist_ok=True)
            report, _ = run_harness(binary, work,
                                    base + ["--trace", f"--spans={spans}"])
        else:
            setup_samples = []

            def setup_sample(extra):
                done, spawn_ns = run_harness(binary, work, base + extra)
                setup_samples.append((done["ready_ns"] - spawn_ns) / 1e9)
                return done

            for _ in range(SETUP_REPEATS_EACH_SIDE):
                setup_sample(["--setup-only"])
            report = setup_sample([])
            for _ in range(SETUP_REPEATS_EACH_SIDE):
                setup_sample(["--setup-only"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_header(report, commit, src_digest)
    failed, _, lines = check_outputs(report, reference)
    if args.trace:
        failed_untraced, _, _ = check_outputs(untraced, reference)
        failed = max(failed, failed_untraced)
        metrics = per_layer(report, untraced)
    else:
        values = end_to_end(report, setup_samples)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for line in lines:
        print(line)
    attempted = report["ops"]
    print(f"error_rate {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_smoke(binary, reference):
    work = build_root() / "work" / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    status = 0
    try:
        for workload in WORKLOADS:
            report, _ = run_harness(binary, work, [
                f"--workload={workload}", "--seed=1", "--seconds=0",
                "--smoke", "--trace"])
            failed, complete, lines = check_outputs(report, reference)
            print(f"smoke {workload}: {report['ops']} ops, "
                  f"{failed} failed, coverage "
                  f"{100 * report['coverage']:.1f}%")
            for line in lines:
                print("  " + line)
            if failed or not complete:
                status = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: " + ("ok" if status == 0 else "FAILED"))
    return status


def record(args, binary, reference):
    """Record the digests of one run as the reference for its seed."""
    work = build_root() / "work" / f"record-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        extra = ["--smoke", "--seconds=0"] if args.smoke else [
            f"--seconds={args.seconds}"]
        report, _ = run_harness(binary, work, [
            f"--workload={args.workload}", f"--seed={args.seed}"] + extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not all(c["ok"] for c in report["checks"]):
        raise BenchError("internal checks failed; nothing recorded")
    digests = {e["key"]: e["digest"] for e in report["digests"]}
    entry = reference.setdefault(reference_key(args.workload, args.smoke),
                                 {})
    entry[str(args.seed)] = digests
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    print(f"recorded {len(digests)} digest(s) for "
          f"{reference_key(args.workload, args.smoke)} seed {args.seed}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, checks on")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference")
    args = parser.parse_args()
    if args.workload is None and (args.record or not args.smoke):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        binary = build()
        reference = load_reference()
        if args.record:
            return record(args, binary, reference)
        if args.smoke:
            return run_smoke(binary, reference)
        commit, src_digest = source_identity()
        return run_workload(args, binary, reference, commit, src_digest)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
