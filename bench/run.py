"""hopfcheck benchmark: one command, four workloads, end-to-end or traced.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src``
there and fails (exit 2, no result line) when ``src/hopfcheck`` is absent.

--trace 0  measures the end-to-end metrics with nothing wrapped: passes are
           repeated until --seconds have elapsed and medians are reported.
--trace 1  measures the per-layer metrics: one traced catalog build, untraced
           passes for --seconds (the overhead baseline), one span-traced pass
           and two profiled passes whose scalar counts must repeat exactly.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable table and a ``detail`` object with the environment, sample counts
and quartiles.  The exit status is 1 when any output was wrong.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_INTERPRETERS = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# gated metrics; wall_ref is the median pass time in units of the reference loop
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mib": "MiB"}
# printed beside them, not gated: raw times drift with the host
RAW_UNITS = {"wall_s": "s", "request_p50_ms": "ms", "request_tail_ms": "ms", "pairs_per_s": "1/s"}


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (100: too few samples)."""
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            return q
    return 100.0


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def git_commit(root: str):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest(src_pkg: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src_pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def measure_setup(root: str, src_pkg: str):
    """Median over fresh interpreters of import hopfcheck + first catalog build."""
    samples = []
    for i in range(SETUP_INTERPRETERS + 1):  # the first one also writes bytecode caches
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), "setup"],
            capture_output=True, text=True, env=workloads.child_env(root), cwd=root, check=True,
        ).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        if not probe["module"].startswith(src_pkg + os.sep):
            raise SystemExit(f"setup probe imported hopfcheck from {probe['module']}, not {src_pkg}")
        if i:
            samples.append(probe["setup_s"])
    return statistics.median(samples), samples


def timed_passes(workload, seconds: float):
    """Passes until ``seconds`` have elapsed, with a block of reference-loop
    samples before every pass and after the last (len(blocks) = passes + 1)."""
    passes, blocks = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        blocks.append(workload.reference_block())
        passes.append(workload.run_pass())
    blocks.append(workload.reference_block())
    return passes, blocks


def end_to_end(passes, blocks, setup_s):
    """Gated metrics, and the raw times in seconds for the table and detail.

    Each pass is divided by the median of the reference samples just before
    and just after it, so that both see the same host speed; ``wall_ref`` is
    the median of those quotients."""
    walls = [p.wall for p in passes]
    ratios = [p.wall / statistics.median(before + after) for p, before, after in zip(passes, blocks, blocks[1:])]
    reference = [x for block in blocks for x in block]
    latencies = [x for p in passes for x in p.latencies]
    wall = statistics.median(walls)
    tail_q = tail_percentile(len(latencies))
    p50, tail = percentile(latencies, 50), percentile(latencies, tail_q)
    ref = statistics.median(reference)
    child_rss = max(p.rss_kib for p in passes)
    rss_kib = child_rss if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup_s, "wall_ref": statistics.median(ratios), "peak_rss_mib": rss_kib / 1024}
    raw = {"wall_s": wall, "request_p50_ms": p50 * 1000, "request_tail_ms": tail * 1000}
    if passes[0].pairs:
        raw["pairs_per_s"] = passes[0].pairs / wall
    detail = {
        **raw,
        "passes": len(passes),
        "wall_s_quartiles": quartiles(walls),
        "requests": len(latencies),
        "request_tail_percentile": tail_q,
        "pairs_per_pass": passes[0].pairs,
        "peak_rss_of": "largest child" if child_rss else "benchmark process",
        "reference_loop_ms": ref * 1000,
        "reference_loop_ms_quartiles": [q * 1000 for q in quartiles(reference)],
        "wall_s_over_run_reference": wall / ref,
    }
    return metrics, raw, detail


def traced_run(workload, hc, seconds: float, verdict):
    tracer = spans.Tracer()
    if not workload.traced_in_children:
        tracer.install()
        try:
            hc.catalog_entries()
        finally:
            tracer.uninstall()
    workload.prepare()
    untraced, _ = timed_passes(workload, seconds)
    for p in untraced:
        workload.check(p.outputs, verdict)
    baseline = statistics.median(p.wall for p in untraced)

    cli = {}
    if workload.traced_in_children:
        traced = workload.run_pass(probe_mode="trace")
        probes = traced.outputs["probes"]
        for probe in probes:
            tracer.merge(probe["trace"])
        cli = {
            "interpreter_start_ms": statistics.median((p["latency_s"] - p["in_child_s"]) * 1000 for p in probes),
            "import_s": statistics.median(p["import_s"] for p in probes),
            "catalog_s": statistics.median(p["catalog_s"] for p in probes),
            "command_s": statistics.median(p["command_s"] for p in probes),
        }
        profiled = [workload.run_pass(probe_mode="profile") for _ in range(2)]
        counts = []
        for p in profiled:
            total: dict = {}
            for probe in p.outputs["probes"]:
                for k, v in probe["counts"].items():
                    total[k] = total.get(k, 0) + v
            counts.append(total)
    else:
        tracer.install()
        try:
            traced = workload.run_pass()
        finally:
            tracer.uninstall()
        profiled, counts = [], []
        for _ in range(2):
            p, c = spans.scalar_counts(workload.run_pass)
            profiled.append(p)
            counts.append(c)
    for p in [traced] + profiled:
        workload.check(p.outputs, verdict)
    for problem in workload.reconcile(tracer, traced.outputs):
        verdict.fail(f"span reconciliation: {problem}")
    if counts[0] != counts[1]:
        verdict.fail(f"scalar counts differ between two profiled passes: {counts[0]} vs {counts[1]}")
    metrics = spans.layer_metrics(tracer, counts[0], cli, traced.wall - baseline)
    detail = {
        "untraced_passes": len(untraced),
        "untraced_wall_s": baseline,
        "traced_wall_s": traced.wall,
        "profiled_wall_s": [p.wall for p in profiled],
        "spans_recorded": len(tracer.spans) + tracer.merged_spans,
        "scalar_counts_repeat": counts[0] == counts[1],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src_pkg = os.path.realpath(os.path.join(root, "src", "hopfcheck"))
    if not os.path.isfile(os.path.join(src_pkg, "__init__.py")):
        print(f"no hopfcheck sources under {root}/src: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(src_pkg))

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "seed": args.seed,
        "git_commit": git_commit(root),
        "src_digest": source_digest(src_pkg),
    }
    setup_s, setup_samples = (None, [])
    if not args.trace:
        setup_s, setup_samples = measure_setup(root, src_pkg)

    import hopfcheck
    import hopfcheck.cli  # noqa: F401  (not imported by the package itself)
    import hopfcheck.documents  # noqa: F401

    if not os.path.realpath(hopfcheck.__file__).startswith(src_pkg + os.sep):
        print(f"imported hopfcheck from {hopfcheck.__file__}, not {src_pkg}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".bench_work", f"{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    verdict = workloads.Verdict()
    raw = {}
    try:
        workload = workloads.WORKLOADS[args.workload](hopfcheck, root, args.seed, workdir)
        if args.trace:
            metrics, detail = traced_run(workload, hopfcheck, args.seconds, verdict)
            units = spans.metric_units()
        else:
            hopfcheck.catalog_entries()
            workload.prepare()
            passes, blocks = timed_passes(workload, args.seconds)
            for p in passes:
                workload.check(p.outputs, verdict)
            metrics, raw, detail = end_to_end(passes, blocks, setup_s)
            detail["setup_s_samples"] = setup_samples
            units = END_TO_END_UNITS
        if isinstance(workload, workloads.CliRequests):
            env["bare_interpreter_ms"] = workload.bare_start_ms
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    env["loadavg_after"] = os.getloadavg()

    failed_share = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  (closed loop, one client)")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  {name:44s} {value:14.6g} {RAW_UNITS[name]}")
    print(f"  {'failed_share':44s} {failed_share:14.6g} (of {verdict.attempted} ops_attempted)")
    for problem in verdict.problems:
        print(f"  !! {problem}")
    print(json.dumps({"detail": {"env": env, **detail, "failed_share": failed_share, "problems": verdict.problems}}))
    correct = verdict.failed == 0 and verdict.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
