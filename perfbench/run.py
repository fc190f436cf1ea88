"""The shearlift benchmark: one command for every workload.

    python3 perfbench/run.py --workload cli-catalog --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports shearlift from
./src.  ``--workload all`` runs every workload in turn.  A run makes whole
rounds of the workload's seeded job list until ``--seconds`` of measuring
have passed, on one thread with the BLAS pools pinned to one thread, then
checks every job's output against references computed apart from the
program.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it describe the run and the host, and a copy of the
whole record is written to perfbench/results/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-catalog", "cli-fcn", "library-points")
SETUP_SAMPLES = 7
# A fresh interpreter imports the CLI and evaluates one point.
SETUP_CODE = ("import shearlift.cli\n"
              "from shearlift import families\n"
              "s = families.evaluate(families.FamilyParams('f_2n', n=2), "
              "0.3 + 0.4j)\n"
              "assert abs(s.v) > 0\n")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_sample():
    """Seconds for one fresh interpreter to import shearlift.cli and
    evaluate one point."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: Popen.wait with one polls at up to 50 ms intervals,
    # which would quantize the sample.
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                          cwd=ROOT, stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with code {code}")
    return dt


# Host-speed calibration.  The host's speed drifts by up to 1.6x between
# 3-second windows and between runs minutes apart, which averaging inside
# a run cannot remove.  A fixed kernel of the benchmark's own (pure-Python
# complex arithmetic, like the program's per-point work, and independent
# of shearlift) is timed between jobs; every time is scaled by
# CALIB_NOMINAL over the kernel's time around it.  The unscaled times are
# kept in the run record.
CALIB_NOMINAL = 1e-3
CALIB_EVERY = 0.02


def calibration_kernel():
    acc = 0j
    for k in range(1, 1000):
        z = 0.9 * k / 1000 * cmath.exp(0.37j * k)
        w = (1 + z) / (1 - z)
        acc += cmath.exp(0.5 * cmath.log(w)) / (1 - z ** 3)
    return acc


def calibrate():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    lo_value, hi_value = sorted_values[lo], sorted_values[hi]
    return lo_value + (pos - lo) * (hi_value - lo_value)


def host_info():
    import numpy
    import shearlift
    commit = "unknown"  # a source copy that is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"backend": shearlift.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "nproc": os.cpu_count()}


RESERVOIR = 1 << 16


class Samples:
    """Job times in a fixed-size seeded reservoir (Vitter's algorithm R),
    so that the benchmark's own memory does not grow with the number of
    rounds and peak_rss_mb stays the program's.  A sample keeps the index
    of the calibration before it and of its job.  The summed time per
    calibration interval covers every sample, for points_per_s."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.dt = array("d", bytes(8 * RESERVOIR))
        self.calib = array("q", bytes(8 * RESERVOIR))
        self.job = array("q", bytes(8 * RESERVOIR))
        self.seen = 0
        self.interval_time = {}

    def add(self, dt, calib, job):
        self.interval_time[calib] = self.interval_time.get(calib, 0.0) + dt
        slot = self.seen
        self.seen += 1
        if slot >= RESERVOIR:
            slot = self.rng.randrange(self.seen)
            if slot >= RESERVOIR:
                return
        self.dt[slot] = dt
        self.calib[slot] = calib
        self.job[slot] = job

    def kept(self):
        n = min(self.seen, RESERVOIR)
        return zip(self.dt[:n], self.calib[:n], self.job[:n])


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        import workloads
        self.seconds = seconds
        self.trace = trace
        self.jobs = workloads.WORKLOADS[workload](seed, workdir)
        self.min_rounds = workloads.MIN_ROUNDS[workload]
        self.tail_q = workloads.TAIL_Q[workload]
        if (1 - self.tail_q) * self.min_rounds * len(self.jobs) < 10:
            raise ValueError(f"{workload}: fewer than 10 jobs beyond the "
                             "tail percentile")
        self.reference = []
        self.problems = []
        self.samples = Samples(seed)
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.output_bytes = 0
        self.setup = []
        self.calib = []
        self.peak_rss_mb = 0.0

    def _call(self, job):
        """Runs one job; returns (seconds, output), or (None, None) when it
        raised.  An exception other than the job's known fault is a
        problem."""
        t0 = time.perf_counter()
        try:
            ret = job.call()
        except Exception as exc:  # noqa: BLE001 -- every failure is counted
            if not (job.known_fault and isinstance(exc, job.known_fault)):
                self.problems.append(f"{job.name}: raised {exc!r}")
            return None, None
        dt = time.perf_counter() - t0
        return dt, job.output(ret)

    def warm_up(self):
        """Round 0, untimed: fills the program's caches and keeps the
        outputs the later rounds must repeat and the checks judge."""
        self.reference = [self._call(job)[1] for job in self.jobs]

    def measure(self):
        """Whole rounds until ``seconds`` of measuring have passed.  Set-up
        samples and calibration are interleaved and not counted."""
        start = time.perf_counter()
        paused = 0.0
        last_calib = -1.0

        def elapsed():
            return time.perf_counter() - start - paused

        while self.rounds < self.min_rounds or elapsed() < self.seconds:
            size = 0
            for index, (job, ref) in enumerate(zip(self.jobs,
                                                   self.reference)):
                t0 = time.perf_counter()
                if (not self.trace and len(self.setup) < SETUP_SAMPLES
                        and elapsed() >= len(self.setup) * self.seconds
                        / SETUP_SAMPLES):
                    self.calib.append(calibrate())
                    self.setup.append((setup_sample(), len(self.calib) - 1))
                    last_calib = -1.0
                if t0 - last_calib > CALIB_EVERY:
                    self.calib.append(calibrate())
                    last_calib = time.perf_counter()
                paused += time.perf_counter() - t0
                self.attempted += 1
                dt, out = self._call(job)
                if dt is None:
                    self.failed += 1
                    continue
                self.samples.add(dt, len(self.calib) - 1, index)
                self.points += job.points
                if out != ref:
                    self.problems.append(f"{job.name}: output differs from "
                                         "round 0")
                if isinstance(out, tuple) and isinstance(out[-1], bytes):
                    size += len(out[-1])
            self.rounds += 1
            self.output_bytes = size
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        while not self.trace and len(self.setup) < SETUP_SAMPLES:
            self.calib.append(calibrate())
            self.setup.append((setup_sample(), len(self.calib) - 1))
        self.calib.append(calibrate())

    def factor(self, i):
        """Scale to the calibrated host speed for a sample taken after
        calibration i: CALIB_NOMINAL over the median of the four
        calibrations around it (two before, two after)."""
        near = sorted(self.calib[max(0, i - 1):i + 3])
        return CALIB_NOMINAL / statistics.median(near)

    def job_medians(self):
        """Median unscaled time in ms of each job (CLI workloads, a few
        dozen jobs a round) or call kind (library-points, hundreds)."""
        by_label = {}
        for dt, _, j in self.samples.kept():
            job = self.jobs[j]
            label = job.name if len(self.jobs) <= 100 else job.kind
            by_label.setdefault(label, []).append(dt)
        medians = {k: statistics.median(v) * 1e3 for k, v in by_label.items()}
        return dict(sorted(medians.items(), key=lambda kv: kv[1]))

    def check(self):
        for job, ref in zip(self.jobs, self.reference):
            if ref is not None:
                self.problems += [f"{job.name}: {p}" for p in job.check(ref)]

    def end_to_end(self, scale=True):
        factor = self.factor if scale else (lambda i: 1.0)
        times = sorted(dt * factor(i) for dt, i, _ in self.samples.kept())
        total = sum(t * factor(i)
                    for i, t in self.samples.interval_time.items())
        metrics = {
            "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "job_tail_ms": (percentile(times, self.tail_q) * 1e3, "ms"),
            "points_per_s": (self.points / total, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        if self.setup:
            setup = [dt * factor(i) for dt, i in self.setup]
            metrics["setup_s"] = (statistics.median(setup), "s")
        return metrics

    def per_layer(self, tracer):
        """Per-layer metrics of a traced run: time per call or per job of
        the kind that reaches the layer, and counts per round."""
        jobs = {}
        for job in self.jobs:
            jobs[job.kind] = jobs.get(job.kind, 0) + self.rounds
        cli_jobs = sum(jobs.get(k, 0) for k in ("map", "surface", "verify"))

        def per(total, count, scale):
            return total * scale / count if count else 0.0

        def us(span):
            s = tracer.span(span)
            return per(s.total, s.calls, 1e6), "us/call"

        def ms(span):
            s = tracer.span(span)
            return per(s.total, s.calls, 1e3), "ms/call"

        def per_round(span):
            return tracer.span(span).calls / self.rounds, "count/round"

        def self_ms(span, count):
            return per(tracer.span(span).self_time, count, 1e3), "ms/job"

        f1 = tracer.span("special.appell_f1")
        seg = tracer.span("kernels.adaptive_segment")
        metrics = {
            "families.evaluate_us": us("families.evaluate"),
            "families.evaluate_calls": per_round("families.evaluate"),
            "families.hprime_us": us("families.hprime"),
            "families.fallback_points": per_round("families.fallback"),
            "special.appell_f1_us": us("special.appell_f1"),
            "special.appell_f1_calls": per_round("special.appell_f1"),
            "special.f1_series_calls": per_round("special.f1_series"),
            "special.f1_integral_calls": per_round("special.f1_integral"),
            "special.f1_useful_ratio": (
                per(f1.calls - f1.raised, f1.calls, 1.0), "ratio"),
            "shear.shear_at_us": us("shear.shear_at"),
            "shear.shear_at_calls": per_round("shear.shear_at"),
            "kernels.adaptive_segment_us": us("kernels.adaptive_segment"),
            "kernels.panels_per_call": (per(tracer.panels, seg.calls, 1.0),
                                        "count"),
            "analytic.cauchy_derivative_us": us("analytic.cauchy_derivative"),
            "surface.lift_sample_us": us("surface.lift_sample"),
            "surface.build_mesh_self_ms": self_ms("surface.build_mesh",
                                                  jobs.get("surface", 0)),
            "render.map_curves_self_ms": self_ms("render.map_curves",
                                                 jobs.get("map", 0)),
            "render.document_ms": (per(tracer.span("render.document").total,
                                       cli_jobs, 1e3), "ms/job"),
            "render.output_bytes": (self.output_bytes, "bytes/round"),
            "cli.self_ms": self_ms("cli.main", cli_jobs),
        }
        for check in ("oracle_equivalence", "dilatation_identity",
                      "prevertex_identity", "jacobian_positive",
                      "chd_heuristic", "surface_properties"):
            metrics[f"verify.{check}_ms"] = ms(f"verify.{check}")
        return metrics


def run_workload(name, seed, seconds, trace):
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        run = Run(name, seed, seconds, trace, workdir)
        if not trace:
            setup_sample()  # compiles the bytecode caches; not counted
        phases = [time.perf_counter()]
        run.warm_up()
        phases.append(time.perf_counter())
        if trace:
            from spans import Tracer
            with Tracer() as tracer:
                run.measure()
        else:
            run.measure()
        phases.append(time.perf_counter())
        end_to_end = run.end_to_end()
        raw = run.end_to_end(scale=False)
        run.check()
        phases.append(time.perf_counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.per_layer(tracer) if trace else end_to_end
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": run.rounds,
            "jobs_per_round": len(run.jobs), "jobs_timed": run.samples.seen,
            "tail_percentile": round(100 * run.tail_q, 2),
            "phase_s": {k: round(b - a, 3) for k, a, b in zip(
                ("warm_up", "measure", "check"), phases, phases[1:])},
            "calibration_ms": {
                "median": statistics.median(run.calib) * 1e3,
                "min": min(run.calib) * 1e3, "max": max(run.calib) * 1e3,
                "samples": len(run.calib)},
            "setup_samples_s": [dt for dt, _ in run.setup],
            "problems": run.problems[:20],
            "job_median_ms": run.job_medians(),
            "end_to_end": {k: v[0] for k, v in end_to_end.items()},
            "end_to_end_unscaled": {k: v[0] for k, v in raw.items()}}
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shearlift" / "__init__.py").is_file():
        fail(f"no shearlift sources under {SRC}; run from a source checkout")
    if importlib.util.find_spec("mpmath") is None:
        fail("mpmath is needed for the correctness references")
    sys.path.insert(0, str(SRC))
    host = host_info()
    names = (WORKLOADS if args.workload == "all"
             else (args.workload,))
    results = []
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds,
                                    args.trace)
        record = {"host": host, "run": info, "result": result}
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / (f"BENCH_{name}_seed{args.seed}"
                          f"_trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps({"host": host, "run": info}))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
