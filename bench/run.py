"""Benchmark of the rsdiffsfm pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload robust-ca --seed 1 --seconds 36 --trace 0

The package is imported from the checkout's own `src/`.  With `--trace 0`
the run measures the end-to-end metrics with the package exactly as
shipped.  With `--trace 1` every timed unit runs twice in a row, untraced
and then with the span tracer installed; the run reports the per-layer
metrics of the traced units and the tracing overhead between the pairs.
Every run checks the outputs against the benchmark's own ground truth and
exits 1 when a check fails.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
report (environment, checks, sample counts and, when traced, every span)
goes to bench/out/.  See bench/README.md for the metrics and workloads.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (name, unit, better) of the end-to-end metrics every workload reports in
# its JSON result.  Each workload has one timed unit, so off the workload
# that defines it a timing metric is another reading of the same unit time:
# trials_per_s is defined on sweep-readout, estimate_s on robust-ca and
# chain_s on dense-chain (see bench/README.md)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("estimate_s", "s", "lower"),
    ("chain_s", "s", "lower"),
]
# printed and gated by the ground-truth checks, but not in the JSON result:
# they are either undefined on some workload or, on dense-chain (one
# estimate per seed), spread across seeds by more than any allowed bound;
# fail_frac is carried by the result's "attempted" and "failed"
CHECKED = [
    ("fail_frac", "ratio", "lower"),
    ("trans_err_deg", "deg", "lower"),
    ("rot_err_deg", "deg", "lower"),
    ("k_err", "1", "lower"),
    ("depth_rel_err", "ratio", "lower"),
    ("depth_valid_frac", "ratio", "higher"),
    ("rect_err", "gray levels", "lower"),
]
# per-layer metrics that come from the workload or the runner, not a span;
# on workloads without the layer they read 0
LAYER_EXTRA = [
    ("experiment.dropped_trials", "count"),
    ("experiment.gs_trans_err_deg", "deg"),
    ("experiment.gs_rot_err_deg", "deg"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep-readout", "robust-ca", "dense-chain"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_record():
    """BLAS library name and its thread count, read from the loaded library."""
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    threads = "unknown"
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                threads = getattr(lib, fn)()
                break
    return {"name": name, "threads": threads}


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable ({type(exc).__name__})"
    return out.stdout.strip() if out.returncode == 0 else f"unavailable (exit {out.returncode})"


def environment(rssfm_threads):
    import numpy
    import scipy

    return {
        "nproc": command_output(["nproc"]),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        # a checkout without .git must not report the commit of a repository around it
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists()
        else "unavailable (not a git checkout)",
        "RSSFM_THREADS": "unset" if rssfm_threads is None
        else f"{rssfm_threads} (removed for the run)",
    }


def run_unit(workload, i, tracer):
    """One timed unit, on the CPU clock that gates it and on the wall clock."""
    w0, c0 = time.perf_counter(), time.process_time()
    record = workload.run_unit(i, tracer)
    record["wall"] = time.perf_counter() - w0
    record["cpu"] = time.process_time() - c0
    return record


def timed_loop(workload, seconds, tracer=None):
    """Run units until the next one would, by the median so far, end late.

    With a tracer every unit runs twice in a row, untraced and then traced,
    so that both runs of a pair see the same machine state; returns the
    untraced and the traced units.
    """
    plain, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_unit(workload, len(plain), None))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_unit(workload, len(traced), tracer))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return plain, traced


def end_to_end(units, setup_s, accuracy):
    """(value, sample count) of every end-to-end and checked metric.

    The three timing metrics are the unit's CPU time read three ways; each
    is the issue's definition on one workload only (see bench/README.md,
    Clocks, for why CPU time)."""
    done = [u for u in units if u["estimates"] > 0]
    attempted = sum(u["attempted"] for u in units)
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "trials_per_s": (statistics.median(u["estimates"] / u["cpu"] for u in units), len(units)),
        "chain_s": (statistics.median(u["cpu"] for u in units), len(units)),
        "fail_frac": (sum(u["failed"] for u in units) / attempted, attempted),
    }
    if done:
        out["estimate_s"] = (statistics.median(
            u.get("estimate_s", u["cpu"] / u["estimates"]) for u in done), len(done))
    out.update(accuracy)
    return out


def shares(summary, traced_wall):
    """Shares of the blocking path: solver and scoring work inside ransac, and
    sample extraction inside the CLI chain."""
    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    out = {}
    ransac_total = summary.get("robust.ransac", {}).get("total_s", 0.0)
    if ransac_total > 0:
        inner = self_s("robust.score_motion") + self_s("gs_solver.solve_gs") + sum(
            v["self_s"] for k, v in summary.items() if k.startswith("rs_solvers."))
        out["score_and_solvers_of_ransac"] = inner / ransac_total
    if "cli.estimate" in summary and traced_wall > 0:
        out["cli_estimate_self_of_chain"] = self_s("cli.estimate") / traced_wall
    return out


def main():
    args = parse_args()
    if not (SRC / "rsdiffsfm" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'rsdiffsfm'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    # the sweep runs the package's thread pool as shipped, sized by the CPU count
    rssfm_threads = os.environ.pop("RSSFM_THREADS", None)

    import rsdiffsfm

    if Path(rsdiffsfm.__file__).resolve().parent != (SRC / "rsdiffsfm").resolve():
        fail(f"imported rsdiffsfm from {rsdiffsfm.__file__}, not from {SRC}")
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        # one cold set-up, from process start to the end of the warm-up, so
        # that first-call costs count; gated as the process's CPU time, which
        # leaves out the time the hypervisor runs other guests on this CPU
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = (time.process_time(), 1)
        setup_wall_s = time.perf_counter() - T_START

        tracer = tracing.Tracer() if args.trace else None
        units, traced = timed_loop(workload, args.seconds, tracer)
        checks, accuracy, layer_extra = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = units + traced
    e2e = end_to_end(units, setup_s, accuracy)
    correct = bool(checks) and all(c["ok"] for c in checks)
    attempted = sum(u["attempted"] for u in timed)
    failed = sum(u["failed"] for u in timed)
    env = environment(rssfm_threads)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "checks": checks,
        "attempted": attempted, "failed": failed,
        "end_to_end": {k: {"value": v, "n": n} for k, (v, n) in e2e.items()},
        "import_s": import_s,
        "setup_wall_s": setup_wall_s,
        "unit_walls_s": [u["wall"] for u in timed],
        "unit_cpu_s": [u["cpu"] for u in timed],
    }

    print(f"rsdiffsfm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'end-to-end (untraced units)':<42} {'value':>12}  {'unit':<11} {'better':<6}   n")
    for name, unit, better in END_TO_END + CHECKED:
        if name in e2e:
            value, n = e2e[name]
            print(f"  {name:<40} {value:>12.6g}  {unit:<11} {better:<6} {n:>3}")
    print(f"wall clock (not gated): median unit {statistics.median(u['wall'] for u in units):.4g} s "
          f"against {statistics.median(u['cpu'] for u in units):.4g} s CPU; set-up {setup_wall_s:.4g} s")
    if args.trace:
        layer, unmeasured = tracing.layer_metrics(tracer)
        unmeasured.update(tracer.unmeasured)
        for name, unit in LAYER_EXTRA:
            layer.setdefault(name, layer_extra.get(name, (0.0, unit)))
        overhead = sum(u["cpu"] for u in traced) / sum(u["cpu"] for u in units) - 1.0
        layer["trace.overhead_frac"] = (overhead, "ratio")
        layer["trace.spans"] = (float(len(tracer.spans)), "count")
        summary = tracer.summary()
        share = shares(summary, sum(u["wall"] for u in traced))
        print(f"per-layer ({len(traced)} traced units; times are self times)")
        for name, (value, unit) in layer.items():
            print(f"  {name:<40} {value:>12.6g}  {unit}")
        for name, reason in unmeasured.items():
            print(f"  {name:<40} unmeasured: {reason}")
        for name, value in share.items():
            print(f"  share {name:<34} {value:>12.4f}")
        print(f"tracing overhead: {overhead:+.2%}, traced over untraced CPU time "
              f"of {len(traced)} unit pairs")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report.update(per_layer=metrics, unmeasured=unmeasured, shares=share,
                      spans_by_name=summary, spans=[list(s[:6]) for s in tracer.spans])
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END if name in e2e}
    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))
    print(f"report: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
