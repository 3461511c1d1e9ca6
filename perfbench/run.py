"""Benchmark of the goldman command line: one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``goldman`` from
``src/`` and from nowhere else.  One Python thread drives
``goldman.cli.main(argv)`` in-process, job after job with no think time,
for S seconds after an untimed warm-up pass.  Every job's output is
checked; a job that raises, exits nonzero, fails a check or changes its
output between passes counts as failed.

Times are reported at reference speed.  A fixed reference kernel is timed
between jobs throughout the run, and every wall time of the run is
multiplied by ``REFERENCE_SECONDS`` over the kernel's median time.  The
speed of a shared machine drifts by up to 1.5x over minutes, which moves
the kernel and the program alike; raw wall times are printed and saved too.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones.  The lines before the last line of standard output
are a human-readable report; the last line is one JSON object.  The full
result, and with tracing every span, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads.  Two threads made single rank-sweep jobs vary
# by up to 30% on a 2-vCPU machine, and one is faster at these sizes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 6       # extra set-ups in fresh processes; setup_s is the median
TAIL_BEYOND = 10       # the tail percentile keeps this many passes above it
# Median time of reference_kernel() on the 2-vCPU Xeon (KVM) guest the
# bounds were set on; it only fixes the unit of the scaled times.
REFERENCE_SECONDS = 0.04
REFERENCE_EVERY = 0.1  # seconds of jobs between two timings of the kernel


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-suite", "form-pipeline", "rank-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def reference_kernel() -> float:
    """Wall time of a fixed computation shaped like the program's inner
    loops: chains of small complex matrix products, dict updates and string
    sorting.  It uses nothing from goldman, so no change to the program
    moves it; only the machine's speed does."""
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(8)]
    start = time.perf_counter()
    table = {}
    for r in range(60):
        m = np.eye(3, dtype=complex)
        for i in range(40):
            m = m @ mats[(7 * i + r) % 8]
            table[(r, i % 5)] = m.trace()
        sorted(str(v) for v in table.values())
    return time.perf_counter() - start


def setup(workload: str, seed: int, work: Path):
    """Import goldman from the checkout and write the seeded job plan.

    Returns (plan, cli module, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import goldman
    import goldman.cli
    if Path(goldman.__file__).resolve().parent != (SRC / "goldman").resolve():
        raise SystemExit(f"error: goldman imported from {goldman.__file__}, not {SRC}")
    import jobs
    plan = jobs.plan(workload, seed, work)
    work.mkdir(parents=True, exist_ok=True)
    (work / "plan.json").write_text(json.dumps([list(job.argv) for job in plan], indent=1))
    return plan, goldman.cli, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes, each importing goldman anew."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ------------------------------------------------------------ environment

def _blas_libraries():
    """Loaded BLAS libraries with their runtime thread counts."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if line.rsplit("/", 1)[-1].lower().startswith("lib")
                    and "blas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        entry = {"library": Path(path).name, "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        found.append(entry)
    return found


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "goldman").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


# -------------------------------------------------------------- the loop

class Bench:
    """Runs passes of a plan, times them untraced or traced, checks outputs."""

    def __init__(self, plan, cli, seed: int, tracer=None):
        import jobs

        self.jobs = jobs
        self.plan = plan
        self.cli = cli
        self.tracer = tracer
        self.oracle = {i: jobs.oracle_sample(job, seed)
                       for i, job in enumerate(plan) if job.command == "gram"}
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_s: list[float] = []     # reference-kernel times
        self._since_reference = REFERENCE_EVERY
        self.pass_s: list[float] = []          # raw wall times, as all below
        self.traced_pass_s: list[float] = []
        self.command_s: list[dict[str, float]] = []
        self.job_s: dict[str, list[float]] = {}
        self.layer_passes: list[dict] = []

    def _run_job(self, job):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, rc, out.getvalue()

    def run_pass(self, timed: bool = True, traced: bool = False):
        if traced:
            self.tracer.install()
            self.tracer.begin_pass()
        results = []
        try:
            for job in self.plan:
                if traced:
                    self.tracer.job += 1
                results.append(self._run_job(job))
                self._since_reference += results[-1][0]
                if self._since_reference >= REFERENCE_EVERY:
                    self.reference_s.append(reference_kernel())
                    self._since_reference = 0.0
        finally:
            if traced:
                self.tracer.uninstall()
        wall = sum(seconds for seconds, _, _ in results)
        if traced:
            self.layer_passes.append(self.tracer.aggregate_pass())
            self.traced_pass_s.append(wall)
        elif timed:
            self.pass_s.append(wall)
            per_command = {}
            for job, (seconds, _, _) in zip(self.plan, results):
                per_command[job.command] = per_command.get(job.command, 0.0) + seconds
                self.job_s.setdefault(job.label, []).append(seconds)
            self.command_s.append(per_command)
        self._check(results)
        gc.collect()

    def _check(self, results):
        for index, (job, (_, rc, stdout)) in enumerate(zip(self.plan, results)):
            self.attempted += 1
            try:
                reason = self.jobs.check(job, rc, stdout)
                if reason is None and index in self.oracle:
                    reason = self.jobs.oracle_check(job, self.oracle[index])
                if reason is None:
                    digest = self.jobs.digest(job, stdout)
                    if self.digests.setdefault(index, digest) != digest:
                        reason = "output differs from the first pass"
            except Exception as exc:  # a broken output must not stop the run
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append(f"{job.label}: {reason}")


# --------------------------------------------------------------- metrics

def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    above it, but never below the median, which it is for short runs."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_shares(bench: Bench) -> dict[str, float]:
    """Median share of traced pass time spent as self time in each layer."""
    import tracer

    shares = {layer: [] for layer in tracer.LAYERS}
    for agg, wall in zip(bench.layer_passes, bench.traced_pass_s):
        for layer in tracer.LAYERS:
            own = sum(v for n, v in agg["self_s"].items() if n.split(".")[0] == layer)
            shares[layer].append(own / wall)
    return {layer: statistics.median(v) for layer, v in shares.items() if v}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "goldman" / "__init__.py").is_file():
        print(f"error: no goldman sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        plan, cli, first_setup = setup(args.workload, args.seed, work)
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        # verify's file round trip writes temporary files; keep them in the checkout
        (work / "tmp").mkdir()
        tempfile.tempdir = str(work / "tmp")
        setup_samples = [first_setup] + probe_setups(args)

        import tracer as tracer_module
        tracer = tracer_module.Tracer() if args.trace else None
        bench = Bench(plan, cli, args.seed, tracer)
        bench.run_pass(timed=False)
        deadline = time.perf_counter() + args.seconds
        count = 0
        while time.perf_counter() < deadline or count < 2:
            bench.run_pass(traced=tracer is not None and count % 2 == 1)
            count += 1
        env = environment(args.seed)
        result = report(args, spec, bench, setup_samples, env)
        if tracer is not None:
            tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["summary"]))
    return 0


def report(args, spec, bench: Bench, setup_samples, env) -> dict:
    failed = len(bench.failures)
    reference = statistics.median(bench.reference_s)
    scale = REFERENCE_SECONDS / reference
    pass_median = statistics.median(bench.pass_s) * scale
    tail_value, tail_pct = tail(bench.pass_s)
    tail_value *= scale
    setup_s = statistics.median(setup_samples) * scale
    commands = {f"{command}_s": scale * statistics.median(p.get(command, 0.0)
                                                         for p in bench.command_s)
                for command in dict.fromkeys(job.command for job in bench.plan)}
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print(f"environment: {json.dumps(env)}")
    print(f"jobs: attempted={bench.attempted} failed={failed} "
          f"fail_frac={failed / bench.attempted:.4f}")
    for reason in bench.failures[:20]:
        print(f"  failure: {reason}")
    print(f"speed scale: {scale:.4f} (reference kernel median {reference * 1e3:.3f} ms "
          f"of {len(bench.reference_s)}); times below are at reference speed, raw in ()")
    print(f"pass_s: {pass_median:.6f} s ({pass_median / scale:.6f} s) "
          f"median of {len(bench.pass_s)} untraced passes")
    print(f"pass_s.tail: {tail_value:.6f} s ({tail_value / scale:.6f} s) "
          f"p{tail_pct:.1f} of {len(bench.pass_s)} passes")
    print(f"setup_s: {setup_s:.6f} s ({setup_s / scale:.6f} s) "
          f"median of {len(setup_samples)} set-ups")
    for name, value in commands.items():
        print(f"{name}: {value:.6f} s ({value / scale:.6f} s) median per pass")
    for label, values in bench.job_s.items():
        print(f"job {label}: {scale * statistics.median(values):.6f} s median")

    e2e = {
        "setup_s": setup_s,
        "pass_s": pass_median,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"peak_rss_mb: {e2e['peak_rss_mb']:.3f} MB")
    detail = {"environment": env, "speed_scale": scale, "reference_s_samples": bench.reference_s,
              "raw_pass_s_samples": bench.pass_s, "pass_s_tail_percentile": tail_pct,
              "raw_setup_s_samples": setup_samples, "commands": commands,
              "fail_frac": failed / bench.attempted, "failures": bench.failures}

    if args.trace:
        import tracer as tracer_module

        overhead = statistics.median(bench.traced_pass_s) / statistics.median(bench.pass_s) - 1
        layer = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "trace.overhead_frac":
                value = overhead
            else:
                value = statistics.median(
                    tracer_module.layer_metric(name, agg, bench.tracer.check_spans)
                    for agg in bench.layer_passes)
            layer[name] = {"value": value, "unit": entry["unit"]}
        shares = layer_shares(bench)
        print(f"trace.overhead_frac: {overhead:.4f} (traced {len(bench.traced_pass_s)} "
              f"passes vs untraced {len(bench.pass_s)})")
        print("layer self-time shares of a traced pass: " + ", ".join(
            f"{k}={v:.3f}" for k, v in shares.items()))
        detail["layer_shares"] = shares
        metrics = layer
    else:
        metrics = {entry["name"]: {"value": e2e[entry["name"]], "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}
    summary = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
               "metrics": metrics}
    return {"summary": summary, **detail}


if __name__ == "__main__":
    sys.exit(main())
