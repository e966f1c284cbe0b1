"""Command-line front end.

Subcommands: generate, solve, eval, export-mip, bench.  Element indices
are 0-based everywhere, matching the JSON formats.  Exit codes: 0 success,
1 I/O failure, 2 bad flags or unparsable input, 3 infeasible, 4 model not
supported (importance weights not nonincreasing).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .approx import approx_solve
from .exact import brute_force, check_time_limit, exact_bb
from .experiments import (
    ExperimentConfig,
    check_jobs,
    gen_instance,
    records_to_csv,
    run_benchmark,
    summaries_to_csv,
    summarize,
)
from .aggregation import NonIncreasingWeightsError, _check_alpha
from .mip import build_mip, export_lp
from .model import (
    FeasibilityError,
    read_instance,
    read_solution,
    scenario_costs,
    solution_rank_weights,
    wowa_value,
    write_instance,
    write_solution,
)

EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_UNSUPPORTED = 4


def _checked(parse, check):
    # An argparse type: text that parse or check rejects is a usage error.
    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _alpha(text: str):
    # --alpha: the weight generator's parameter, or None for 'uniform'
    return None if text == "uniform" else _check_alpha(float(text))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wowaopt",
        description="Scenario-based discrete optimization under the WOWA criterion. "
        "Element indices are 0-based in all files and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance")
    gen.add_argument("--kind", required=True, choices=["selection", "assignment"])
    gen.add_argument("--n", type=int, help="element count (selection)")
    gen.add_argument("--m", type=int, help="side of the bipartite graph (assignment)")
    gen.add_argument("--q", type=int, help="selection size (default: 25%% of n, rounded half up)")
    gen.add_argument("-K", type=int, required=True, help="scenario count")
    gen.add_argument("--alpha", type=_checked(str, _alpha), required=True,
                     help="weight generator parameter in (0,1), or 'uniform'")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output instance path")

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--in", dest="inp", required=True, help="instance path")
    solve.add_argument("--method", required=True, choices=["approx", "bb", "brute"])
    solve.add_argument("--time-limit", type=_checked(float, check_time_limit), default=3600.0,
                       help="B&B seconds, positive; inf for no limit (default 3600)")
    solve.add_argument("--out", help="solution output path")

    ev = sub.add_parser("eval", help="evaluate a solution against an instance")
    ev.add_argument("--in", dest="inp", required=True, help="instance path")
    ev.add_argument("--solution", required=True, help="solution path")

    exp = sub.add_parser("export-mip", help="export the MIP model in LP format")
    exp.add_argument("--in", dest="inp", required=True, help="instance path")
    exp.add_argument("--out", required=True, help="output .lp path")

    bench = sub.add_parser("bench", help="run a benchmark grid")
    bench.add_argument("--config", required=True, help="JSON config path")
    bench.add_argument("--out-csv", required=True, help="per-instance records CSV")
    bench.add_argument("--summary-csv", help="per-cell summary CSV")
    bench.add_argument("--jobs", type=_checked(int, check_jobs), default=1,
                       help="parallel worker cap, positive (default 1)")
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _load_config(path: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_dict(json.loads(_read_text(path)))
    except ValueError as exc:  # invalid JSON or a rule of the config, which names its key
        raise ValueError(f"bad config: {exc}") from None


def _fmt(x: float) -> str:
    return repr(round(float(x), 12))


def _cmd_generate(args) -> int:
    flag, other = ("n", "m") if args.kind == "selection" else ("m", "n")
    if getattr(args, other) is not None:
        raise ValueError(f"--kind {args.kind} does not take --{other}")
    size = getattr(args, flag)
    if size is None:
        raise ValueError(f"--kind {args.kind} requires --{flag}")
    inst = gen_instance(args.kind, size, args.K, args.alpha, args.seed, q=args.q)
    _write_text(args.out, write_instance(inst))
    return 0


def _cmd_solve(args) -> int:
    inst = read_instance(_read_text(args.inp))
    if args.method == "approx":
        res = approx_solve(inst)
        sol, value = res.solution, res.wowa_objective
        status = "guaranteed" if res.ratio_bound is not None else "no_guarantee"
        bound = _fmt(res.ratio_bound) if res.ratio_bound is not None else "-"
    elif args.method == "bb":
        res = exact_bb(inst, time_limit=args.time_limit)
        sol, value, status = res.solution, res.objective, res.proof_status
        bound = _fmt(res.lower_bound) if math.isfinite(res.lower_bound) else "-"
    else:
        res = brute_force(inst)
        sol, value, status = res.solution, res.objective, res.proof_status
        bound = _fmt(res.lower_bound)
    print(f"value={_fmt(value)} method={args.method} status={status} bound={bound}")
    if args.out:
        _write_text(args.out, write_solution(sol))
    return 0


def _cmd_eval(args) -> int:
    inst = read_instance(_read_text(args.inp))
    sol = read_solution(_read_text(args.solution))
    costs = scenario_costs(inst, sol)
    omegas = solution_rank_weights(inst, sol).omegas
    value = wowa_value(inst, sol)
    print("scenario_costs=" + ",".join(_fmt(c) for c in costs))
    print("omegas=" + ",".join(_fmt(w) for w in omegas))
    print(f"value={_fmt(value)}")
    return 0


def _cmd_export(args) -> int:
    model = build_mip(read_instance(_read_text(args.inp)))
    _write_text(args.out, export_lp(model))
    return 0


def _cmd_bench(args) -> int:
    records = run_benchmark(_load_config(args.config), jobs=args.jobs,
                            progress=lambda line: print(line, file=sys.stderr))
    _write_text(args.out_csv, records_to_csv(records))
    if args.summary_csv:
        _write_text(args.summary_csv, summaries_to_csv(summarize(records)))
    return 0


# The exit code and message prefix of an error a command raises, from the
# first row whose class matches; argparse exits 2 itself on bad flags.
_ERRORS = (
    (OSError, EXIT_IO, ""),  # the message names the path it cannot read or write
    (FeasibilityError, EXIT_INFEASIBLE, "infeasible solution: "),
    (NonIncreasingWeightsError, EXIT_UNSUPPORTED, ""),
    (ValueError, EXIT_USAGE, ""),  # unparsable input, a bad config, a search space too large
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"generate": _cmd_generate, "solve": _cmd_solve,
                "eval": _cmd_eval, "export-mip": _cmd_export, "bench": _cmd_bench}
    try:
        return commands[args.command](args)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in _ERRORS if isinstance(exc, cls))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
