"""Run one csvortex benchmark workload and print its metrics.

Usage, from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload plane_m2 --seed 0 --seconds 30 --trace 0

The run sets up the workload five times (a fresh interpreter importing
csvortex, input generation) and reports the median as ``setup_s``.  It then
repeats the workload's operation until ``--seconds`` have passed, checks
every result against the paper's verified claims and the recorded reference
energies, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  ``solve_norm`` and ``cpu_norm``
are the median over the operations of the operation's wall (CPU) time
divided by the mean wall (CPU) time of the reference-kernel passes run just
before and just after it (see reference.py for why).  The raw seconds are printed
beside them.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (medians), the raw solve time, and the
tracing overhead; it fails the run if traced and untraced operations
disagree on results or counts.

BLAS and OpenMP pools are pinned to one thread before numpy loads, and
scipy.fft runs with its default single worker, because iteration counts
depend on the thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS
os.environ.pop("CSVORTEX_OUT", None)

SETUP_REPEATS = 5

END_TO_END = (("solve_norm", "ratio"), ("cpu_norm", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _environment():
    import numpy
    import scipy
    import scipy.fft

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "fft_workers": scipy.fft.get_workers(),
    }


def _import_seconds(src):
    """Wall time of a fresh interpreter that imports csvortex and exits."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import csvortex"], env=env, check=True)
    return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_op(workload, tracer, kernel, k_before, energy_problems, name):
    """One timed operation, the kernel pass after it, then its output checks."""
    op = {"traced": tracer is not None, "result": None, "problems": []}
    out = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is not None:
            with tracer.operation() as timed:
                out = timed(workload.run)
        else:
            out = workload.run()
    except Exception:
        traceback.print_exc()
        op["problems"].append("operation raised")
    op["wall"] = time.perf_counter() - t0
    op["cpu"] = time.process_time() - c0
    k_after = kernel.measure()
    op["norm"] = op["wall"] / (0.5 * (k_before[0] + k_after[0]))
    op["cpu_norm"] = op["cpu"] / (0.5 * (k_before[1] + k_after[1]))
    op["kernel_after"] = k_after
    if not op["problems"]:
        try:
            energies, counts, problems = workload.check(out)
            op["result"] = (energies, counts)
            op["problems"] = problems + energy_problems(name, energies)
        except Exception:
            traceback.print_exc()
            op["problems"].append("output check raised")
    if tracer is not None:
        op["layers"] = tracer.summary()
    return op


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "csvortex", "__init__.py")):
        print(f"error: no csvortex package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from reference import ReferenceKernel
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS, energy_problems

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".benchrun")
    os.makedirs(workdir, exist_ok=True)
    print("env: " + json.dumps(_environment(), sort_keys=True))

    setups = []
    for rep in range(SETUP_REPEATS):
        t_import = _import_seconds(src)
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups.append(t_import + time.perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            workload.close()

    kernel = ReferenceKernel(workload.kernel)
    tracer = Tracer() if args.trace else None
    ops = []
    try:
        t_start = time.perf_counter()
        k_prev = kernel.measure()
        while (len(ops) < (2 if args.trace else 1)
               or time.perf_counter() - t_start < args.seconds):
            traced = bool(args.trace) and len(ops) % 2 == 1
            op = _run_op(workload, tracer if traced else None, kernel, k_prev,
                         energy_problems, args.workload)
            k_prev = op["kernel_after"]
            ops.append(op)
            print(f"op {len(ops)}: {'traced ' if traced else ''}wall {op['wall']:.3f} s, "
                  f"cpu {op['cpu']:.3f} s, norm {op['norm']:.2f}, "
                  f"result {op['result']}, problems {op['problems'] or 'none'}")
    finally:
        workload.close()
        if not os.listdir(workdir):
            os.rmdir(workdir)

    failed = sum(1 for op in ops if op["problems"])
    # every operation of a run has the same inputs: results and counts must repeat
    consistent = len({repr(op["result"]) for op in ops}) == 1
    traced_ops = [op for op in ops if op["traced"]]
    untraced_ops = [op for op in ops if not op["traced"]]
    if traced_ops:
        count_keys = [k for k, unit in per_layer_metrics()
                      if unit in ("count", "B", "MB") and k in traced_ops[0]["layers"]]
        consistent &= len({tuple(op["layers"][k] for k in count_keys)
                           for op in traced_ops}) == 1
    if not consistent:
        print("inconsistent: operations on the same inputs gave different results or counts")
    print(f"fail_frac = {failed}/{len(ops)}")

    def med(key, group):
        return _median([op[key] for op in group])

    print(f"{len(untraced_ops)} untraced operations: wall median "
          f"{med('wall', untraced_ops):.4f} s, cpu median {med('cpu', untraced_ops):.4f} s, "
          f"norm median {med('norm', untraced_ops):.3f}")
    if args.trace:
        units = dict(per_layer_metrics())
        values = {k: _median([op["layers"][k] for op in traced_ops])
                  for k in units if k in traced_ops[0]["layers"]}
        iters, evals = values["minimize.lbfgs.iters"], values["minimize.lbfgs.evals"]
        calls, rejected = values["torus.feasible.calls"], values["torus.feasible.rejected"]
        values["minimize.lbfgs.evals_per_iter"] = evals / iters if iters else 0.0
        values["torus.feasible.reject_frac"] = rejected / calls if calls else 0.0
        values["untraced.solve_s"] = med("wall", untraced_ops)
        values["trace.solve_s"] = med("wall", traced_ops)
        values["trace.overhead_s"] = values["trace.solve_s"] - values["untraced.solve_s"]
        values["trace.overhead_frac"] = med("norm", traced_ops) / med("norm", untraced_ops) - 1.0
        print(f"ratios: lbfgs evals/iters = {evals:g}/{iters:g}, "
              f"feasible rejected/calls = {rejected:g}/{calls:g}")
        print(f"tracing overhead: traced {values['trace.solve_s']:.3f} s - untraced "
              f"{values['untraced.solve_s']:.3f} s = {values['trace.overhead_s']:.3f} s; "
              f"in kernel units {100 * values['trace.overhead_frac']:.1f}% "
              f"({len(traced_ops)} traced, {len(untraced_ops)} untraced operations)")
    else:
        units = dict(END_TO_END)
        values = {
            "solve_norm": med("norm", untraced_ops),
            "cpu_norm": med("cpu_norm", untraced_ops),
            "setup_s": _median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for key in units:
        print(f"  {key} = {values[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
