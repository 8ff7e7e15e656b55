"""attnguide benchmark: named workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload guided_default --seed 0 --seconds 40 --trace 0

Builds the program from ``src/`` of the checkout it sits in, makes the
workload's inputs from ``--seed``, measures whole passes over the workload for
at least ``--seconds`` seconds, checks every output, and prints the metrics by
name with their units.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they are
the per-layer ones, from passes that alternate untraced and traced.  See
README.md beside this file.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("guided_default", "unguided_default", "ablation_slice")

END_TO_END = {
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "item_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "autodiff.tensors": "count/item",
    "autodiff.graph_nodes.spatial": "nodes/iter",
    "autodiff.graph_nodes.syntax": "nodes/iter",
    "autodiff.backward.calls": "calls/item",
    "autodiff.backward.s": "s/item",
    "denoiser.denoise_step.grad.calls": "calls/item",
    "denoiser.denoise_step.grad.s": "s/item",
    "denoiser.denoise_step.nograd.calls": "calls/item",
    "denoiser.denoise_step.nograd.s": "s/item",
    "denoiser.ddim_step.s": "s/item",
    "denoiser.build.s": "s/item",
    "guidance.loss_sp.calls": "calls/item",
    "guidance.loss_sp.s": "s/item",
    "guidance.loss_syt.calls": "calls/item",
    "guidance.loss_syt.s": "s/item",
    "guidance.guide_latent.self_s": "s/item",
    "guidance.iter.spatial_s": "s/iter",
    "guidance.iter.syntax_s": "s/iter",
    "guidance.run_guided_sampling.self_s": "s/item",
    "guidance.prepare_inputs.s": "s/item",
    "metrics.summarize_run.calls": "calls/item",
    "metrics.summarize_run.s": "s/item",
    "metrics.run_ablation.self_s": "s/item",
    "boxes.detect_and_parse.s": "s/item",
    "boxes.validate_trajectories.s": "s/item",
    "boxes.resample_frames.s": "s/item",
    "boxes.rasterize_masks.s": "s/item",
    "syntax.tokenize.s": "s/item",
    "syntax.extract_pairs.s": "s/item",
    "cli.generate.self_s": "s/item",
    "cli.bytes_written": "bytes/item",
    "autodiff.errors": "count",
    "denoiser.errors": "count",
    "guidance.errors": "count",
    "metrics.errors": "count",
    "boxes.errors": "count",
    "syntax.errors": "count",
    "cli.errors": "count",
    "outputs.bitexact": "share",
    "outputs.latent_max_dev": "abs",
    "outputs.failed_ratio": "share",
    "quality.in_box_t1": "ratio",
    "quality.align_t2": "nats",
    "trace.overhead": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one work unit per pass kind and one set-up probe (self-test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass on the reference seed and rewrite its reference file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import attnguide from the checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import attnguide
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import attnguide from {SRC}: {exc}")
    if not Path(attnguide.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: attnguide imported from {attnguide.__file__}, not from {SRC}")


def environment():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def probe_setup(args):
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unit_index = 0


def run_unit(workload, unit, tally):
    """Run one work unit; returns its seconds per item.  Only ``run`` is timed."""
    workload.prepare(unit)
    workload.tracer.item = tally.unit_index
    tally.unit_index += 1
    start = time.perf_counter()
    try:
        out, error = workload.run(unit), None
    except Exception as exc:
        out, error = None, exc
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            problems = workload.check(unit, out)
        except Exception as exc:
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
    else:
        problems = [f"{type(error).__name__}: {error}"]
    tally.attempted += workload.items_per_unit
    if problems:
        tally.failed += workload.items_per_unit
        for problem in problems[:3]:
            print(f"benchmark: FAILED {unit}: {problem}", file=sys.stderr)
    return elapsed / workload.items_per_unit


def run_pass(workload, units, tally, calibrator=None):
    """Per-item seconds of one pass over ``units``, machine-speed scaled if calibrated."""
    times = []
    for unit in units:
        elapsed = run_unit(workload, unit, tally)
        if calibrator is not None:
            elapsed = calibrator.scale(elapsed)
        times += [elapsed] * workload.items_per_unit
    return times


def end_to_end(workload, units, tally, args):
    """Untraced timings, each scaled by the calibration kernel timed around it."""
    # Keep the items and the kernel that scales them on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrator = calibration.Calibrator()
    setup = [calibrator.scale(probe_setup(args)) for _ in range(1 if args.smoke else SETUP_PROBES)]
    times, start = [], time.perf_counter()
    while True:
        times += run_pass(workload, units, tally, calibrator)
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    kernel_ms = [1000 * k for k in calibrator.kernel_s]
    print(f"benchmark: {len(times)} items; item_s.p90 from n={len(times)} samples; "
          f"setup_s over {len(setup)} probes: {', '.join(f'{s:.4f}' for s in setup)}; "
          f"calibration kernel median {statistics.median(kernel_ms):.2f} ms "
          f"(min {min(kernel_ms):.2f}, max {max(kernel_ms):.2f}, "
          f"nominal {1000 * calibration.NOMINAL_S:.1f})")
    return {
        "items_per_s": len(times) / sum(times),
        "item_s.p50": statistics.median(times),
        "item_s.p90": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, units, tally, args, env):
    """Alternate untraced and traced passes; layer metrics from the traced ones."""
    item_s = {False: [], True: []}
    traced, traced_items, start = False, 0, time.perf_counter()
    while True:
        if traced:
            workload.tracer.install()
        try:
            times = run_pass(workload, units, tally)
        finally:
            if traced:
                workload.tracer.uninstall()
        item_s[traced].append(sum(times) / len(times))
        traced_items += len(times) if traced else 0
        if item_s[False] and item_s[True] and (
                args.smoke or time.perf_counter() - start >= args.seconds):
            break
        traced = not traced
    if workload.tracer.missing:
        print(f"benchmark: not traced (not found): {', '.join(workload.tracer.missing)}",
              file=sys.stderr)
    metrics = tracing.layer_metrics(workload.tracer, traced_items)
    quality = workload.quality or [(0.0, 0.0)]
    metrics.update({
        "cli.bytes_written": float(statistics.mean(workload.bytes_written or [0])),
        "outputs.bitexact": float(statistics.mean(workload.bitexact or [0])),
        "outputs.latent_max_dev": workload.max_dev,
        "outputs.failed_ratio": tally.failed / tally.attempted,
        "quality.in_box_t1": statistics.mean(q[0] for q in quality),
        "quality.align_t2": statistics.mean(q[1] for q in quality),
        "trace.overhead": statistics.median(item_s[True]) / statistics.median(item_s[False]) - 1,
    })
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    workload.tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                       "traced_items": traced_items, "env": env})
    print(f"benchmark: {traced_items} traced items, {len(workload.tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    workload = None
    try:
        if args.record_reference and args.seed != workloads.REFERENCE_SEED:
            sys.exit(f"benchmark: references are recorded on seed {workloads.REFERENCE_SEED}")
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracing.Tracer(),
                                                      recording=args.record_reference)
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = environment()
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        units = workload.units()[:1] if args.smoke else workload.units()
        tally = Tally()
        if args.record_reference:
            run_pass(workload, units, tally)
            if tally.failed:
                sys.exit("benchmark: outputs failed their invariants; reference not written")
            workloads.REFERENCE_DIR.mkdir(exist_ok=True)
            np.savez_compressed(workloads.REFERENCE_DIR / f"{args.workload}.npz",
                                **workload.record)
            print(f"benchmark: wrote {len(workload.record)} reference arrays")
            return 0
        run_unit(workload, units[0], tally)  # warm-up: caches and lazy imports
        if args.trace:
            metrics, units_of = per_layer(workload, units, tally, args, env), PER_LAYER
        else:
            metrics, units_of = end_to_end(workload, units, tally, args), END_TO_END
        for name, unit in units_of.items():
            print(f"metric {name} = {metrics[name]:.6g} {unit}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units_of.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
