"""qnetsim benchmark: one closed-loop client runs a workload's batch of jobs.

    python3 bench/run.py --workload network --seed 1 --seconds 55 --trace 0

Workloads (see bench/README.md for why each was chosen): network runs
the keypool and keychain job families, quantum runs circuits and wide.
Every input is generated from --seed.

--trace 0 runs the batch back to back until --seconds have passed (at
least once) and reports the end-to-end metrics: wall_s (host time for
the batch, the sum over jobs of each job's fastest time), setup_s
(median wall time of fresh processes that import qnetsim and generate
the inputs) and peak_rss_mb.  --trace 1 runs the batch once untraced and
once with every layer wrapped, and reports the per-layer metrics plus
trace.overhead_ratio; end-to-end numbers come only from untraced runs.

Every job's output is checked after its timed call.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run outputs and spans go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads (setup probes inherit it).  On a
# few shared cores a second thread makes wide's 20-qubit kernels ~10%
# faster at twice the CPU time, and their timings less steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# The probe reads the clock itself: the parent's wait for a child with a
# timeout polls in steps of up to 50 ms, which would quantise set-up time.
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.make_batch(sys.argv[3], int(sys.argv[4])); print(time.perf_counter())")


def _import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (ROOT / "src" / "qnetsim" / "__init__.py").is_file():
        sys.exit(f"error: no qnetsim sources under {ROOT / 'src'}")
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import qnetsim
    if Path(qnetsim.__file__).resolve().parent != ROOT / "src" / "qnetsim":
        sys.exit(f"error: qnetsim imported from {qnetsim.__file__}, not from {ROOT / 'src'}")


# ---- running jobs ------------------------------------------------------------

class Pass:
    """Timings and outcomes of running a batch one or more times."""

    def __init__(self, batch):
        self.times = {job.id: [] for job in batch}
        self.models = {}  # job id -> model outputs of its first run
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def wall_s(self, ids=None):
        """Host time of the batch (or of the jobs `ids`): the sum over jobs
        of each job's fastest run.  Other tenants of a shared host only
        ever add time, in bursts that can outlast a whole round, so the
        fastest of several rounds is the steadiest estimate of the
        program's own cost."""
        ids = self.times if ids is None else ids
        return sum(min(self.times[i]) for i in ids if self.times[i])


def run_pass(batch, seconds, tracer=None, workdir=None):
    """Run the batch once, then keep cycling through its jobs while the
    next job, at its last duration, still ends within `seconds`; the last
    round may stop part way.  With a tracer, wrappers are installed
    around each timed call only, so output checks are not traced."""
    result = Pass(batch)
    workdir = Path(tempfile.mkdtemp(dir=workdir or OUT))
    began = time.perf_counter()
    try:
        for job in batch:
            _run_job(job, result, tracer, workdir)
        for job in itertools.cycle(batch):
            last = result.times[job.id][-1] if result.times[job.id] else 0.0
            if time.perf_counter() - began + last > seconds:
                break
            _run_job(job, result, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _run_job(job, result, tracer, workdir):
    out_dir = workdir / f"job{job.id}"
    out_dir.mkdir()
    result.attempted += 1
    gc.collect()
    try:
        if tracer is not None:
            tracer.job = job.id
            tracer.install()
        try:
            t0 = time.perf_counter()
            raw = job.run(out_dir)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = job.outcome(raw, out_dir)
    except Exception:  # a crashing job is a failed job; keep measuring the rest
        result.failures.append((job.id, job.kind, traceback.format_exc(limit=3)))
        return
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result.times[job.id].append(elapsed)
    first = result.models.setdefault(job.id, outcome.model)
    if not outcome.ok:
        result.failures.append((job.id, job.kind, outcome.detail))
    elif outcome.model != first:
        result.failures.append((job.id, job.kind, "output differs between runs"))


# ---- metrics -------------------------------------------------------------------

def model_metrics(models):
    """Model outputs summed over the batch; a speed-only change keeps them."""
    models = list(models)

    def total(key):
        return sum(m.get(key, 0) for m in models)

    latencies = [x for m in models for x in m.get("latencies_ms", ())]

    def latency(q):
        return float(np.percentile(latencies, q)) if latencies else 0.0

    return {
        "des.events": (total("events"), "count"),
        "protocols.requests_done": (total("requests_done"), "count"),
        "protocols.requests_open": (total("requests_open"), "count"),
        "protocols.sim_latency_ms_p50": (latency(50), "ms"),
        "protocols.sim_latency_ms_p90": (latency(90), "ms"),
        "scenarios.trace_bytes": (total("trace_bytes"), "bytes"),
        "mbqc.branches": (total("branches"), "count"),
        "compiler.ops": (total("ops"), "count"),
    }


def _work(batch):
    work = {}
    for job in batch:
        for key, value in job.work.items():
            work[key] = work.get(key, 0) + value
    return work


def setup_seconds(workload, seed):
    """Median wall time of fresh interpreters that import qnetsim and build
    the workload's inputs: the set-up every run of the benchmark pays."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", PROBE, str(BENCH), str(ROOT / "src"),
                                workload, str(seed)], cwd=ROOT, check=True, timeout=60,
                               capture_output=True, text=True)
        times.append(float(probe.stdout.split()[-1]) - t0)
    return statistics.median(times)


def environment(seed):
    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            return ((path / "level").read_text().strip(), (path / "type").read_text().strip(),
                    (path / "size").read_text().strip())
        except OSError:
            return None

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = [c for c in (cache(i) for i in range(8)) if c is not None]
    l3 = next((c[2] for c in caches if c[0] == "3"), "unknown")
    l3_mib = int(l3[:-1]) / 1024 if l3.endswith("K") and l3[:-1].isdigit() else None
    where = ("inside" if l3_mib and l3_mib >= 16 else "not inside") + f" the {l3} L3"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "cpu": model,
        "l2": next((c[2] for c in caches if c[0] == "2"), "unknown"),
        "l3": l3,
        "seed": seed,
        "note": (f"wide's 20-qubit state (2^20 x 16 B = 16 MiB) sits {where}, so "
                 "wide measures cache-resident kernels and backend.gb_per_s_computed "
                 "is bytes computed from the state size, not measured DRAM "
                 "bandwidth; a state 4x a 300 MiB LLC would need >= 26 qubits (1 GiB)."),
    }


# ---- main ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    batch = workloads.make_batch(args.workload, args.seed)
    env = environment(args.seed)
    print("environment: " + json.dumps(env))

    if args.trace:
        plain = run_pass(batch, args.seconds / 2)
        tracer = layers.Tracer()
        traced = run_pass(batch, 0, tracer=tracer)
        passes = (plain, traced)
        metrics = model_metrics(traced.models.values())
        layer = tracer.metrics()
        logged, executed = metrics["des.events"][0], layer.get("des.events", (None,))[0]
        if executed is not None and executed != logged:
            traced.failures.append((-1, "trace", f"SimEnv.run executed {executed} "
                                    f"events, trace.log has {logged}"))
        for job in batch:
            if job.id in plain.models and plain.models[job.id] != traced.models.get(job.id):
                traced.failures.append((job.id, job.kind,
                                        "traced output differs from untraced"))
        metrics.update(layer)
        metrics["trace.overhead_ratio"] = (traced.wall_s() / plain.wall_s(), "ratio")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                     {job.id: [job.family, job.kind] for job in batch})
    else:
        measured = run_pass(batch, args.seconds)
        passes = (measured,)
        setup_s = setup_seconds(args.workload, args.seed)
        wall_s = measured.wall_s()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
        work = _work(batch)
        rates = {"sim_s": ("sim_s_per_wall_s", "virtual_s/s"),
                 "shots": ("shots_per_s", "shots/s"), "gates": ("gates_per_s", "gates/s")}
        for key, (name, unit) in rates.items():
            if work.get(key):
                print(f"{name} = {work[key] / wall_s:.6g} {unit}")
        for family in workloads.WORKLOADS[args.workload]:
            family_s = measured.wall_s([job.id for job in batch if job.family == family])
            print(f"wall_s of {family} jobs = {family_s:.6g} s")
        rounds = min(len(t) for t in measured.times.values())
        print(f"jobs per batch = {len(batch)}, complete rounds = {rounds}, "
              f"job runs = {measured.attempted}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for job_id, kind, detail in (f for p in passes for f in p.failures):
        print(f"FAILED job {job_id} ({kind}): {detail}", file=sys.stderr)
    print(f"error_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
