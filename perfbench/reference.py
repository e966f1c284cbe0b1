"""Reference answers that the correctness gate compares each outcome with.

The references for the default seed are stored in ``references.json``.  For
any other seed ``run.py`` computes them with this script in a child process
before the timed phase, so scipy and HiGHS stay out of the measured process:

    python3 perfbench/reference.py --workload bb-selection --seed 7   # JSON on stdout
    python3 perfbench/reference.py --store                            # rewrite references.json

* bb-*: the minimum, under the frozen kernel below, of the WOWA of every
  feasible solution, enumerated here.  ``--store`` also solves the
  ``mip.build_mip`` model with scipy's HiGHS ``milp`` and requires the two
  optima to agree; HiGHS takes longer per instance than the B&B it checks,
  so held-out seeds use the enumeration alone.
* brute-oracle: ``exact.exact_bb``.
* approx-export: the aggregated costs under the frozen kernel, the
  deterministic problem on them solved by a stable argsort (selection) or
  scipy's ``linear_sum_assignment`` (assignment), and the sha256 of the LP
  text that ``export_lp`` writes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys

import numpy as np

import workloads as wl

STORE = wl.ROOT / "perfbench" / "references.json"
TIMEOUT_S = 150


def frozen_wowa(A: np.ndarray, v, p) -> np.ndarray:
    """WOWA of every column of the K-by-S matrix A.

    The arithmetic of the kernel as first benchmarked, kept here unchanged
    so that it stays a fixed reference: a later change to the library's
    kernel that moves a value by one ulp shows as an objective mismatch.
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    bp = np.concatenate(([0.0], np.cumsum(v)))
    grid = np.arange(bp.size) / (bp.size - 1)
    order = np.argsort(-A, axis=0, kind="stable")
    sa = np.take_along_axis(A, order, axis=0)
    cum = np.clip(np.cumsum(p[order], axis=0), 0.0, 1.0)
    omega = np.diff(np.interp(cum, grid, bp), axis=0, prepend=0.0)
    out = np.zeros(A.shape[1])
    for k in range(A.shape[0]):
        out += omega[k] * sa[k]
    return out


def value_of(inst, chosen) -> float:
    costs = np.asarray(inst.costs)[:, sorted(chosen)].sum(axis=1)
    return float(frozen_wowa(costs.reshape(-1, 1), inst.v.values, inst.p.values)[0])


def enumerated_optimum(lib, inst) -> float:
    """Minimum WOWA over every feasible solution of a selection or assignment instance."""
    if isinstance(inst.kind, lib.model.Selection):
        solutions = np.array(list(itertools.combinations(range(inst.n), inst.kind.q)))
    else:
        m = inst.kind.m
        solutions = np.arange(m) * m + np.array(list(itertools.permutations(range(m))))
    costs = np.asarray(inst.costs)[:, solutions].sum(axis=2)
    return float(frozen_wowa(costs, inst.v.values, inst.p.values).min())


def highs_optimum(lib, inst) -> list[int]:
    """Chosen elements of an optimum of the exported MIP, solved by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    model = lib.mip.build_mip(inst)
    n, K = model.n, model.K
    nvar = n + K + K * K
    c = np.zeros(nvar)
    c[n:n + K] = model.obj_beta
    c[n + K:] = np.asarray(model.obj_alpha).ravel()
    coupling = np.zeros((K * K, nvar))
    costs = np.asarray(model.costs)
    for i in range(K):
        for j in range(K):
            row = i * K + j
            coupling[row, :n] = -costs[i]
            coupling[row, n + j] = 1.0
            coupling[row, n + K + row] = 1.0
    constraints = [LinearConstraint(coupling, 0.0, np.inf)]
    if isinstance(model.kind, lib.model.Selection):
        card = np.zeros(nvar)
        card[:n] = 1.0
        constraints.append(LinearConstraint(card, model.kind.q, model.kind.q))
    else:
        m = model.kind.m
        lines = np.zeros((2 * m, nvar))
        for r in range(m):
            for col in range(m):
                lines[r, r * m + col] = 1.0
                lines[m + col, r * m + col] = 1.0
        constraints.append(LinearConstraint(lines, 1.0, 1.0))
    lower = np.zeros(nvar)
    lower[n:n + K] = -np.inf
    upper = np.full(nvar, np.inf)
    upper[:n] = 1.0
    integrality = np.zeros(nvar)
    integrality[:n] = 1
    res = milp(c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lower, upper), options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the model: {res.message}")
    chosen = [i for i in range(n) if res.x[i] > 0.5]
    value = value_of(inst, chosen)
    if abs(value - res.fun) > wl.REL_TOL * abs(value):
        raise RuntimeError(f"HiGHS objective {res.fun!r} disagrees with its solution's WOWA {value!r}")
    return chosen


def export_reference(lib, inst) -> dict:
    agg = frozen_wowa(np.asarray(inst.costs), inst.v.values, inst.p.values)
    if isinstance(inst.kind, lib.model.Selection):
        chosen = np.sort(np.argsort(agg, kind="stable")[: inst.kind.q])
    else:
        from scipy.optimize import linear_sum_assignment

        m = inst.kind.m
        rows, cols = linear_sum_assignment(agg.reshape(m, m))
        chosen = np.sort(rows * m + cols)
    lp = lib.mip.export_lp(lib.mip.build_mip(inst))
    return {
        "aggregated": float(agg[chosen].sum()),
        "wowa": value_of(inst, chosen.tolist()),
        "lp_sha256": wl.sha256(lp),
    }


def compute(lib, workload: wl.Workload, seed: int, highs: bool = False) -> list[dict]:
    refs = []
    for (cell, index), inst in zip(wl.pool_keys(workload), wl.build_pool(lib, workload, seed)):
        if workload.mode == "bb":
            ref = {"objective": enumerated_optimum(lib, inst)}
            if highs:
                value = value_of(inst, highs_optimum(lib, inst))
                if abs(value - ref["objective"]) > wl.REL_TOL * abs(value):
                    raise RuntimeError(f"{wl.pool_key(cell, index)}: HiGHS optimum {value!r} "
                                       f"!= enumerated optimum {ref['objective']!r}")
        elif workload.mode == "brute":
            ref = {"objective": lib.exact.exact_bb(inst).objective}
        else:
            ref = export_reference(lib, inst)
        refs.append({"key": wl.pool_key(cell, index), **ref})
    return refs


def load(workload: wl.Workload, seed: int) -> list[dict]:
    """Stored references for the default seed, else computed by this script
    in a child process; exits when they do not match the workload's pool."""
    refs = None
    if seed == wl.DEFAULT_SEED and STORE.is_file():
        doc = json.loads(STORE.read_text())
        if doc.get("seed") == seed:
            refs = doc["workloads"].get(workload.name)
    if refs is None:
        cmd = [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: reference computation exceeded {TIMEOUT_S} s")
        if proc.returncode != 0:
            sys.exit(f"perfbench: reference computation failed:\n{proc.stderr}")
        refs = json.loads(proc.stdout)
    if [r["key"] for r in refs] != [wl.pool_key(cell, index) for cell, index in wl.pool_keys(workload)]:
        sys.exit("perfbench: references do not match the instance pool")
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--store", action="store_true",
                        help="compute every workload at the default seed into references.json, "
                             "checking the bb-* references against HiGHS")
    args = parser.parse_args(argv)
    wl.use_checkout_source()
    lib = wl.import_library()
    if args.store:
        doc = {"seed": wl.DEFAULT_SEED,
               "workloads": {name: compute(lib, w, wl.DEFAULT_SEED, highs=True)
                             for name, w in wl.WORKLOADS.items()}}
        STORE.write_text(json.dumps(doc, indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required without --store")
    json.dump(compute(lib, wl.WORKLOADS[args.workload], args.seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
