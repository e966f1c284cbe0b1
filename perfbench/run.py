"""Layered benchmark of wowaopt: one workload per run, one thread, one caller.

    python3 perfbench/run.py --workload bb-selection --seed 1504 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Each workload is a closed loop with one caller over a pool of instances
built from the workload seed before the timed phase: the next instance
starts when the previous one returns, cycling through the pool until
``--seconds`` have passed.  Every outcome is checked against a reference
(see reference.py) and counts as failed when it raised, was not proven
optimal, or failed the check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead solves
each of the first TRACE_INSTANCES pool entries once untraced and once
traced, prints the per-layer metrics and writes the spans to
.perfbench_out/spans-<workload>.csv.gz.  The last line of standard output
is the JSON result.
"""

import os

# Pin the native thread pools before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LayerStats, Tracer  # noqa: E402

OUT = wl.ROOT / ".perfbench_out"

# Set-up (import plus pool generation) is repeated and its median reported.
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# The traced run covers this many pool entries from the start of the pool
# (24 rounds of the four-cell B&B pools; all of a smaller pool).
TRACE_INSTANCES = 96

# The end-to-end metrics in the JSON result, which BENCHMARK.json bounds.
# solve_ms_p50, solve_ms_tail and failed_frac are printed beside them but
# not bounded.  On a shared 2-core VM the median solve time of the
# memory-heavy workloads (brute-oracle, approx-export) moves by about a
# fifth between runs, and the B&B tail by a quarter between workload seeds;
# with one caller in a closed loop, instances_per_s already carries the mean
# solve time.  failed_frac is 0 whenever the program is correct; the
# result's "failed" and "attempted" carry it.
END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy}")


def gate_selftest(lib) -> None:
    """Exit unless the gate counts a perturbed objective and perturbed LP text as failures."""
    inst = lib.experiments.gen_instance("selection", 8, 3, 1e-2, 11, q=2)
    bb = lib.exact.exact_bb(inst)
    out = wl.solver_for(wl.WORKLOADS["approx-export"])(lib, inst)
    bb_gate, export_gate = wl.Gate(lib, "bb"), wl.Gate(lib, "export")
    bb_gate.record(inst, dataclasses.replace(bb, objective=bb.objective * (1 + 1e-6)),
                   {"objective": reference.value_of(inst, bb.solution.chosen)})
    export_gate.record(inst, dataclasses.replace(out, lp=out.lp.replace("x1", "x2", 1)),
                       reference.export_reference(lib, inst))
    if (bb_gate.failed, export_gate.failed) != (1, 1):
        sys.exit("perfbench: the correctness gate passed a perturbed objective or LP text")


def solve_one(lib, solve, inst, ref, gate, tracer=None, instance=-1) -> tuple[float, int]:
    """Solve and check one instance; returns the solve time and the work count
    (B&B nodes or enumerated solutions, 0 for other outcomes)."""
    if tracer is not None:
        tracer.instance = instance
        tracer.install(lib)
    t0 = time.perf_counter()
    try:
        out, error = solve(lib, inst), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed instance
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    gate.record(inst, out, ref, error)
    return elapsed, getattr(out, "node_count", 0)


def closed_loop(lib, solve, pool, refs, gate, seconds) -> tuple[list[float], float]:
    """Solve pool entries one after another, cycling through the pool, until
    ``seconds`` have passed; returns the solve times and the loop's wall time."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        j = len(times) % len(pool)
        times.append(solve_one(lib, solve, pool[j], refs[j], gate)[0])
    return times, time.perf_counter() - start


def tail(times: list[float]) -> tuple[int, float]:
    """(rank, value) of the highest rank with TAIL_BEYOND samples beyond it
    (the largest sample when there are too few)."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return rank, ordered[rank - 1]


def end_to_end(args, workload, lib, pool, refs, setups) -> tuple[dict, wl.Gate]:
    gate = wl.Gate(lib, workload.mode)
    times, wall = closed_loop(lib, wl.solver_for(workload), pool, refs, gate, args.seconds)
    values = {
        "instances_per_s": gate.attempted / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"timed phase: {wall:.3f} s, {gate.attempted} instances over a pool of {len(pool)}")
    print(f"setup_s is the median of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:20s} {value:.6g} {unit}")
    rank, tail_s = tail(times)
    print(f"  solve_ms_p50         {1e3 * statistics.median(times):.6g} ms")
    print(f"  solve_ms_tail        {1e3 * tail_s:.6g} ms "
          f"(p{100 * rank / len(times):.1f} of {len(times)} instances, {len(times) - rank} beyond)")
    return metrics, gate


def _ratio(num, den):
    return num / den if den else None


def per_layer(args, workload, lib, tracer, setup_spans, pool, refs) -> tuple[dict, wl.Gate]:
    # Each instance is solved untraced and then traced, so that both passes
    # see the same warm state; the traced solves give the layer metrics.
    solve = wl.solver_for(workload)
    gate = wl.Gate(lib, workload.mode)
    first = len(tracer.spans)
    untraced_s = traced_s = traced_phase_s = 0.0
    work = 0
    traced = list(zip(pool, refs))[:TRACE_INSTANCES]
    for i, (inst, ref) in enumerate(traced):
        untraced_s += solve_one(lib, solve, inst, ref, gate)[0]
        t0 = time.perf_counter()
        seconds, count = solve_one(lib, solve, inst, ref, gate, tracer, i)
        traced_phase_s += time.perf_counter() - t0
        traced_s += seconds
        work += count
    s = LayerStats(tracer.spans, first)
    setup = LayerStats(tracer.spans[:setup_spans])
    nodes = work if workload.mode == "bb" else 0
    subsets = work if workload.mode == "brute" else 0
    kernel = "aggregation.wowa_batch"

    def seen(name, value):
        return value if s.calls[name] else None

    metrics = {
        f"{kernel}.calls": (s.calls[kernel], "count"),
        f"{kernel}.columns_per_call": (_ratio(s.work[kernel], s.calls[kernel]), "count"),
        f"{kernel}.self_s": (seen(kernel, s.self_s[kernel]), "s"),
        f"{kernel}.us_per_column": (_ratio(1e6 * s.self_s[kernel], s.work[kernel]), "us"),
    }
    for name in ("model.wowa_value", "model.scenario_costs", "base_solvers.solve_with_costs",
                 "approx.approx_solve"):
        metrics[f"{name}.calls"] = (s.calls[name], "count")
        metrics[f"{name}.self_s"] = (seen(name, s.self_s[name]), "s")
    for name in ("model.write_instance", "model.read_instance", "base_solvers.solve_selection",
                 "base_solvers.solve_assignment", "exact.exact_bb", "exact.brute_force",
                 "mip.build_mip", "mip.export_lp"):
        metrics[f"{name}.self_s"] = (seen(name, s.self_s[name]), "s")
    metrics.update({
        "model.instance_mb": (_ratio(s.work["model.write_instance"], s.calls["model.write_instance"]), "MB"),
        "base_solvers.solve_with_costs.infeasible": (
            s.errors[("base_solvers.solve_with_costs", "FeasibilityError")], "count"),
        "exact.nodes": (nodes, "count"),
        "exact.solves_per_node": (_ratio(s.calls["base_solvers.solve_with_costs"], nodes), "count"),
        "exact.brute.subsets_per_s": (_ratio(subsets, s.incl_s["exact.brute_force"]), "1/s"),
        "exact.objective_bit_mismatches": (gate.bit_mismatches, "count"),
        "mip.export_lp.mb_per_s": (_ratio(s.work["mip.export_lp"], s.incl_s["mip.export_lp"]), "MB/s"),
        "experiments.gen_instance.calls": (setup.calls["experiments.gen_instance"], "count"),
        "experiments.gen_instance.self_s": (setup.self_s["experiments.gen_instance"] or None, "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        "trace.coverage_frac": (sum(s.self_s.values()) / traced_phase_s, "frac"),
    })
    print(f"traced phase: {traced_phase_s:.3f} s, of which solves {traced_s:.3f} s; "
          f"untraced solves: {untraced_s:.3f} s; "
          f"{len(tracer.spans) - first} spans over {len(traced)} instances")
    if tracer.missing:
        print("hooks not found: " + " ".join(tracer.missing))
    if metrics["trace.coverage_frac"][0] < 0.9:
        print("warning: the layer spans cover less than 90% of the traced phase")
    for name, (value, unit) in metrics.items():
        shown = "not observed" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:45s} {shown}")
    path = OUT / f"spans-{workload.name}.csv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(wl.ROOT)}")
    return {name: (0.0 if v is None else v, unit) for name, (v, unit) in metrics.items()}, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl.use_checkout_source()
    import numpy  # noqa: F401 - a dependency, loaded before set-up is timed

    workload = wl.WORKLOADS[args.workload]
    setups = []
    tracer = Tracer()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        pool = None
        gc.collect()  # collect the previous set-up's pool outside the timing
        t0 = time.perf_counter()
        lib = wl.import_library()
        if args.trace:
            tracer.install(lib)
        pool = wl.build_pool(lib, workload, args.seed)
        tracer.uninstall()
        setups.append(time.perf_counter() - t0)
    setup_spans = len(tracer.spans)
    refs = reference.load(workload, args.seed)
    gate_selftest(lib)
    # One untimed solve, so that lazy set-up in numpy and the allocator is done.
    solve_one(lib, wl.solver_for(workload), pool[0], refs[0], wl.Gate(lib, workload.mode))

    print(f"env {environment()}")
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics, gate = per_layer(args, workload, lib, tracer, setup_spans, pool, refs)
    else:
        metrics, gate = end_to_end(args, workload, lib, pool, refs, setups)
    print(f"  failed_frac          {gate.failed / gate.attempted:.6g} ({gate.failed}/{gate.attempted})")
    for reason in gate.reasons:
        print(f"  failure: {reason}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
