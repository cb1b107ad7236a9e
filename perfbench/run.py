"""sefront benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src/`` next to
this directory and from nowhere else.  Ops run back to back in this process;
the first op of each combination is a warm-up and is not timed.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a fixed op set run with and without tracing.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  ``--smoke`` shrinks every input, for the benchmark's own test;
``--write-reference`` stores the reference check's values (reference.py).
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before NumPy loads (threadpoolctl is not available).
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3

# name -> (unit, better); emitted by every workload with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rtf": ("s/s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lsd_db": ("dB", "lower"),
}


def per_layer_metrics():
    from tracer import NAMES, TRACED

    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_ms"] = ("ms", "lower")
    for module in TRACED:
        out[f"{module}.self_ms"] = ("ms", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


def import_program():
    """Import sefront from ROOT/src only; exit non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import sefront
        from sefront import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(sefront.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: sefront imported from {sefront.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Runs ops, counts attempts and failures; a failed op is not timed."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str):
        self.failed += 1
        print(f"perfbench: {message}", file=sys.stderr)

    def execute(self, op):
        """Seconds the op's steps took, or None if it failed or its check did."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            for step in op.steps:
                step()
        except Exception:  # the op's failure is a measured outcome
            self.fail(f"op {op.key} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        if op.checked and not self.check(op):
            return None
        return elapsed

    def check(self, op) -> bool:
        """Run the workload's output check on op; False if it failed."""
        try:
            self.wl.check(op)
        except Exception as exc:  # any malformed output is a failed op
            self.fail(f"op {op.key} check failed: {exc!r}")
            return False
        return True


def run_setup(wl, work: Path) -> list[float]:
    times = []
    for _ in range(1 if wl.smoke else SETUP_REPS):
        if work.exists():
            shutil.rmtree(work)
        start = time.perf_counter()
        wl.setup(work)
        times.append(time.perf_counter() - start)
    return times


def warm_up(wl, runner: Runner):
    """First op of each combination, untimed; enhance ops are rerun and
    must write byte-identical output."""
    from workloads import digest

    for i in range(len(wl.combos)):
        op = wl.op(i)
        if runner.execute(op) is None or not wl.rerun_check:
            continue
        first = digest(op.outputs)
        again = wl.op(i)
        if runner.execute(again) is not None and digest(again.outputs) != first:
            runner.fail(f"op {op.key}: rerun output differs from the first run")


def timed(wl, runner: Runner, seconds: float):
    """Whole cycles (one op per combination) until the deadline has passed.

    Returns the op latencies and each complete cycle's real-time factor;
    a cycle with a failed op has none.
    """
    n = len(wl.combos)
    lat, cycles = [], []
    i = n  # ops 0..n-1 were the warm-up
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        spent, audio, whole = 0.0, 0.0, True
        for _ in range(n):
            op = wl.op(i)
            i += 1
            dt = runner.execute(op)
            if dt is None:
                whole = False
                continue
            lat.append(dt)
            spent += dt
            audio += op.audio_s
        if whole:
            cycles.append(spent / audio)
    return lat, cycles


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def traced(wl, runner: Runner, seconds: float, spec: dict):
    """Alternate untraced and traced passes over a fixed op set."""
    from tracer import NAMES, TRACED, Tracer
    from workloads import digest

    tracer = Tracer()
    idx = wl.trace_indices()
    plain_s = traced_s = 0.0
    passes = 0
    by_key: dict = {}
    watch = ("gain.gain_mmse_stsa", "dd.dd_xi", "rnn.forward", "dsp.stft")
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        plain = {}
        for i in idx:
            op = wl.op(i)
            dt = runner.execute(op)
            plain_s += dt or 0.0
            plain[i] = digest(op.outputs) if dt is not None else None
        tracer.install()
        try:
            for i in idx:
                op = wl.op(i)
                before = dict(tracer.calls)
                dt = runner.execute(op)
                traced_s += dt or 0.0
                if dt is not None and digest(op.outputs) != plain[i]:
                    runner.fail(f"op {op.key}: traced output differs from the untraced one")
                if passes == 0:
                    row = by_key.setdefault(op.key, {"ops": 0, "frames": 0})
                    row["ops"] += 1
                    row["frames"] += op.meta.get("frames", 0)
                    for name in watch:
                        row[name] = row.get(name, 0) + tracer.calls[name] - before[name]
        finally:
            tracer.uninstall()
        passes += 1

    n_ops = passes * len(idx)
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name] / n_ops
        metrics[f"{name}.self_ms"] = 1e3 * tracer.self_s[name] / n_ops
    for module, fns in TRACED.items():
        metrics[f"{module}.self_ms"] = sum(metrics[f"{module}.{f}.self_ms"] for f in fns)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0

    unreached = [n for n in spec["workloads"][wl.name]["reaches"]
                 if n not in tracer.absent and tracer.calls[n] == 0]
    for name in unreached:
        runner.fail(f"traced function {name} was not reached on {wl.name}")
    info = {"trace_passes": passes, "trace_ops_per_pass": len(idx),
            "absent": tracer.absent, "unreached": unreached, "calls_by_combo": by_key}
    return metrics, info


def reference_run(name: str, runner: Runner, work: Path):
    """The workload at smoke size on the fixed reference inputs: returns
    the print of each output and the figures (lsd_db, ...) over them."""
    from inputs import REFERENCE_SEED
    from workloads import WORKLOADS

    ref = WORKLOADS[name](REFERENCE_SEED, smoke=True)
    runner.wl = ref
    try:
        ref.setup(work)
        return ref.reference(runner.execute)
    except Exception:  # a malformed output fails the run, not the process
        runner.fail(f"reference run raised:\n{traceback.format_exc()}")
        return {}, {}


def write_reference(name: str) -> None:
    import reference

    import_program()
    work = ROOT / ".perfbench_work" / f"reference-{name}-{os.getpid()}"
    runner = Runner(None)
    try:
        prints, _ = reference_run(name, runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.failed:
        sys.exit(f"perfbench: {name}: {runner.failed} reference ops failed; nothing written")
    reference.write(name, prints)
    print(f"perfbench: {name}: {len(prints)} reference prints -> {reference.PATH}")


def run_workload(args) -> int:
    import_program()
    import_s = time.perf_counter() - T0
    import reference
    from workloads import WORKLOADS

    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(wl)
    info = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "env": environment(args.seed)}
    try:
        setup_times = run_setup(wl, work)
        warm_up(wl, runner)
        if args.trace:
            metrics, extra = traced(wl, runner, args.seconds, spec)
            units = per_layer_metrics()
            info.update(extra)
        else:
            lat, cycles = timed(wl, runner, args.seconds)
            if not cycles:
                sys.exit("perfbench: no op completed in the timed window")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            summary = wl.summary(runner)
            prints, figures = reference_run(wl.name, runner, work / "reference")
            for problem in reference.mismatches(wl.name, prints):
                runner.fail(f"reference check: {problem}")
            if "lsd_db" not in figures:
                sys.exit("perfbench: the reference run produced no output")
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "rtf": statistics.median(cycles),
                "op_p50_ms": 1e3 * statistics.median(lat),
                "op_p90_ms": 1e3 * quantile(lat, 0.9),
                "peak_rss_mb": peak_rss_mb,
                "lsd_db": figures.pop("lsd_db"),
            }
            units = END_TO_END
            info.update({"timed_ops": len(lat), "cycles": len(cycles), "import_s": import_s,
                         "setup_runs_s": setup_times, "reference_prints": len(prints),
                         **summary, **{f"reference_{k}": v for k, v in figures.items()}})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    info["op_fail_frac"] = runner.failed / max(runner.attempted, 1)
    print(json.dumps({"info": info}, sort_keys=True))
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{wl.name:16} {name:34} {value:14.6g} {unit:6} ({better} is better)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, check=False)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enhance-classic", "enhance-neural", "train", "mix-score", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference check's values instead of running")
    args = parser.parse_args(argv)
    if args.write_reference:
        from workloads import WORKLOADS

        for name in list(WORKLOADS) if args.workload == "all" else [args.workload]:
            write_reference(name)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
