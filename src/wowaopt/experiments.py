"""Instance generation and the benchmark harness.

Reproducibility contract
------------------------
All randomness flows through a fixed 64-bit generator so that identical
configurations produce identical instances on any platform (and in any
implementation language):

* stream state advance: splitmix64 (state += 0x9E3779B97F4A7C15, output
  mixed with the 0xBF58476D1CE4B5B9 / 0x94D049BB133111EB constants);
* uniform integers in [lo, hi] are lo + next() mod (hi - lo + 1);
* the per-instance stream seed is the benchmark seed XOR the FNV-1a 64
  hash of the UTF-8 key "kind:size:K:alpha:index", where alpha is the
  shortest decimal repr of the float (or the word "uniform").

An instance draws, in order: one integer in [1, 100] per scenario (the
probability numerators), then the costs scenario by scenario, element by
element, each an integer in [0, 100].
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .aggregation import WeightVector, _check_alpha, _integer, generate_weights
from .approx import approx_solve
from .exact import brute_force, check_time_limit, exact_bb
from .mip import build_mip, export_lp
from .model import Assignment, ScenarioInstance, Selection
from .model import _each, _json_int, _json_number, _json_str

__all__ = [
    "SplitMix64",
    "instance_seed",
    "gen_instance",
    "default_q",
    "ExperimentConfig",
    "BenchmarkRecord",
    "RECORD_HEADER",
    "SUMMARY_HEADER",
    "CellSummary",
    "run_benchmark",
    "check_jobs",
    "summarize",
    "records_to_csv",
    "summaries_to_csv",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Fixed 64-bit generator; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._state = _integer(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (closed), by modular reduction."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, lo: int, hi: int, count: int) -> np.ndarray:
        """The next ``count`` randint(lo, hi) draws as a uint64 array, 0 <= lo <= hi < 2**64.

        The i-th state is state + i * gamma mod 2**64, so all draws are one
        vectorized pass (uint64 arithmetic wraps mod 2**64).
        """
        if hi < lo:
            raise ValueError("empty range")
        if lo < 0 or hi > _MASK64 or count < 0:
            raise ValueError(f"randints needs 0 <= lo <= hi < 2**64 and count >= 0, "
                             f"got [{lo}, {hi}] and {count}")
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4B5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        if hi - lo < _MASK64:  # else the span is 2**64 and every draw is kept
            z %= np.uint64(hi - lo + 1)
        return z + np.uint64(lo)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _alpha_token(alpha: Optional[float]) -> str:
    return "uniform" if alpha is None else repr(float(alpha))


def instance_seed(seed: int, kind: str, size: int, k: int, alpha: Optional[float], index: int) -> int:
    """Derived stream seed for one benchmark instance."""
    key = f"{kind}:{size}:{k}:{_alpha_token(alpha)}:{_integer(index, 'index', 0)}".encode("utf-8")
    return (_integer(seed, "seed") ^ _fnv1a64(key)) & _MASK64


def default_q(n: int) -> int:
    """Selection size when not given explicitly: 25% of n, rounded half up, at least 1."""
    return max(1, int(n * 0.25 + 0.5))


def gen_instance(
    kind: str,
    size: int,
    k: int,
    alpha: Optional[float],
    seed: int,
    q: Optional[int] = None,
) -> ScenarioInstance:
    """Random instance: p from uniform integer numerators, integer costs.

    ``kind`` is "selection" (size = n, chooses q elements) or "assignment"
    (size = m, n = m*m elements).  ``alpha`` parameterizes the weight
    generator; None means uniform importance weights.
    """
    # as Python ints: numpy integers overflow in the generator's arithmetic
    size, k, seed = _integer(size, "size", 1), _integer(k, "K", 1), _integer(seed, "seed")
    if kind == "selection":
        n = size
        problem = Selection(q=q if q is not None else default_q(n))
    elif kind == "assignment":
        if q is not None:
            raise ValueError(f"q: only a selection has a size q, got q={q!r} for an assignment")
        n = size * size
        problem = Assignment(m=size)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    rng = SplitMix64(seed)
    numerators = rng.randints(1, 100, k).tolist()
    total = sum(numerators)
    p = [a / total for a in numerators]
    costs = rng.randints(0, 100, k * n).reshape(k, n).astype(float)
    v = WeightVector.uniform(k) if alpha is None else generate_weights(alpha, k)
    return ScenarioInstance(costs, p, v, problem)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid: a single problem kind swept over K and alpha."""

    kind: str  # "selection" or "assignment"
    size: int  # n for selection, m for assignment
    k_values: tuple[int, ...] = (2, 5, 10)
    alphas: tuple[Optional[float], ...] = (1e-2, 1e-4)
    instances: int = 10
    seed: int = 0
    time_limit: float = 3600.0
    method: str = "bb"  # "bb", "brute" or "lp-only"
    lp_dir: Optional[str] = None

    def __post_init__(self):
        # The value rules, named by config key; from_dict checks JSON types only.
        if self.kind not in ("selection", "assignment"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.method not in ("bb", "brute", "lp-only"):
            raise ValueError(f"unknown exact method {self.method!r}")
        if self.lp_dir is not None and self.method != "lp-only":
            raise ValueError(f"lp_dir: only method lp-only writes LP files, got {self.method!r}")
        for key, values in (("K", self.k_values), ("alpha", self.alphas)):
            if len(set(values)) != len(values):  # a repeated cell would run twice
                raise ValueError(f"{key}: repeated value in {list(values)!r}")
        # each value by the library's own rule, kept as Python ints as gen_instance keeps them
        for key, low in (("size", 1), ("instances", 1), ("seed", None)):
            object.__setattr__(self, key, _integer(getattr(self, key), key, low))
        object.__setattr__(self, "k_values", tuple(_integer(k, "K", 1) for k in self.k_values))
        for alpha in self.alphas:
            if alpha is not None:
                _check_alpha(alpha)
        try:
            check_time_limit(self.time_limit)
        except ValueError as exc:
            raise ValueError(f"time_limit: {exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from parsed JSON; a value of the wrong JSON type is rejected, not coerced."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(doc) - set(_CONFIG_FIELDS) - {"size", "n", "m"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        size_key = next((key for key in ("size", "n", "m") if key in doc), None)
        if size_key is None:
            raise ValueError("config needs 'size' (or 'n'/'m')")
        # a missing kind is reported by __post_init__
        known = {"kind": None, "size": _json_int(doc[size_key], size_key)}
        known.update((name, parse(doc[key], key))
                     for key, (name, parse) in _CONFIG_FIELDS.items() if key in doc)
        return cls(**known)


def _alpha(value, key: str) -> Optional[float]:
    if value is None or value == "uniform":
        return None
    return float(_json_number(value, key))


# config key -> (ExperimentConfig field, parser of the JSON value)
_CONFIG_FIELDS = {
    "kind": ("kind", _json_str),
    "K": ("k_values", _each(_json_int)),
    "alpha": ("alphas", _each(_alpha)),
    "instances": ("instances", _json_int),
    "seed": ("seed", _json_int),
    "time_limit": ("time_limit", _json_number),
    "method": ("method", _json_str),
    "lp_dir": ("lp_dir", _json_str),
}


RECORD_HEADER = (
    "kind,size,K,alpha,instance,seed,exact_value,exact_status,"
    "approx_value,deviation_pct,exact_ms,approx_ms"
)

SUMMARY_HEADER = (
    "kind,size,K,alpha,instances,solved,unsolved,"
    "mean_deviation_pct,max_deviation_pct,mean_exact_ms,mean_approx_ms"
)


@dataclass(frozen=True)
class BenchmarkRecord:
    kind: str
    size: int
    k: int
    alpha: Optional[float]
    instance: int
    seed: int
    exact_value: Optional[float]
    exact_status: str  # "optimal", "time_limit" or "exported"
    approx_value: float
    deviation_pct: Optional[float]
    exact_ms: Optional[float]
    approx_ms: float


@dataclass(frozen=True)
class CellSummary:
    kind: str
    size: int
    k: int
    alpha: Optional[float]
    instances: int
    solved: int
    unsolved: int
    mean_deviation_pct: Optional[float]
    max_deviation_pct: Optional[float]
    mean_exact_ms: Optional[float]
    mean_approx_ms: float


def _csv_cell(name: str, value) -> str:
    if name == "alpha":
        return _alpha_token(value)
    if value is None:
        return "unsolved" if name == "exact_value" else ""
    if name.endswith("_ms"):
        return f"{value:.3f}"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_row(record) -> list[str]:
    # a record's cells in field order: alpha as its token, times in ms to three
    # places, other floats by repr, a missing value empty and a missing
    # exact_value as "unsolved"
    return [_csv_cell(f.name, getattr(record, f.name)) for f in fields(record)]


def _deviation_pct(approx: float, exact: float) -> float:
    if exact == 0.0:
        # The guarantee forces approx == 0 whenever the optimum is 0.
        return 0.0
    return 100.0 * (approx - exact) / exact


def _run_one(cfg: ExperimentConfig, k: int, alpha: Optional[float], index: int) -> BenchmarkRecord:
    seed = instance_seed(cfg.seed, cfg.kind, cfg.size, k, alpha, index)
    inst = gen_instance(cfg.kind, cfg.size, k, alpha, seed)

    t0 = time.perf_counter()
    approx = approx_solve(inst)
    approx_ms = 1e3 * (time.perf_counter() - t0)

    exact_value: Optional[float] = None
    exact_ms: Optional[float] = None
    deviation: Optional[float] = None
    if cfg.method == "lp-only":
        status = "exported"
        if cfg.lp_dir is not None:
            path = Path(cfg.lp_dir)
            path.mkdir(parents=True, exist_ok=True)
            name = f"{cfg.kind}_{cfg.size}_{k}_{_alpha_token(alpha)}_{index}.lp"
            (path / name).write_text(export_lp(build_mip(inst)))
    else:
        t0 = time.perf_counter()
        if cfg.method == "bb":
            res = exact_bb(inst, time_limit=cfg.time_limit)
        else:
            res = brute_force(inst)
        exact_ms = 1e3 * (time.perf_counter() - t0)
        exact_value = res.objective
        status = res.proof_status
        deviation = _deviation_pct(approx.wowa_objective, res.objective)

    return BenchmarkRecord(
        kind=cfg.kind,
        size=cfg.size,
        k=k,
        alpha=alpha,
        instance=index,
        seed=seed,
        exact_value=exact_value,
        exact_status=status,
        approx_value=approx.wowa_objective,
        deviation_pct=deviation,
        exact_ms=exact_ms,
        approx_ms=approx_ms,
    )


def check_jobs(jobs: int) -> int:
    """A benchmark worker count: a positive integer, not a bool."""
    return _integer(jobs, "jobs", 1)


def run_benchmark(
    cfg: ExperimentConfig,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> list[BenchmarkRecord]:
    """All cells of the grid; objective columns are scheduling independent.

    Per-instance failures are recorded (status "error") without aborting
    the batch.  Records come back sorted by (K, alpha, instance).
    """
    check_jobs(jobs)
    tasks = [
        (k, alpha, index)
        for k in cfg.k_values
        for alpha in cfg.alphas
        for index in range(cfg.instances)
    ]

    def failure_record(k, alpha, index, exc) -> BenchmarkRecord:
        seed = instance_seed(cfg.seed, cfg.kind, cfg.size, k, alpha, index)
        return BenchmarkRecord(kind=cfg.kind, size=cfg.size, k=k, alpha=alpha, instance=index, seed=seed,
                               exact_value=None, exact_status=f"error: {exc}", approx_value=float("nan"),
                               deviation_pct=None, exact_ms=None, approx_ms=0.0)

    records: list[BenchmarkRecord] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # one call per task, in task order: a worker's future or the work itself
        calls = [pool.submit(_run_one, cfg, *task).result if pool else partial(_run_one, cfg, *task)
                 for task in tasks]
        for (k, alpha, index), call in zip(tasks, calls):
            try:
                records.append(call())
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                records.append(failure_record(k, alpha, index, exc))
            if progress is not None and index == cfg.instances - 1:  # a cell's last task
                progress(
                    f"cell kind={cfg.kind} size={cfg.size} K={k} "
                    f"alpha={_alpha_token(alpha)}: {cfg.instances} instances done"
                )
    return records


def summarize(records: Sequence[BenchmarkRecord]) -> list[CellSummary]:
    """Per-cell aggregates; non-optimal records are excluded from deviation
    statistics and counted as unsolved instead."""
    if not records:
        raise ValueError("no records to summarize")
    cells: dict[tuple, list[BenchmarkRecord]] = {}
    for rec in records:
        cells.setdefault((rec.kind, rec.size, rec.k, rec.alpha), []).append(rec)

    out = []
    for (kind, size, k, alpha), recs in cells.items():
        solved = [r for r in recs if r.exact_status == "optimal"]
        deviations = [r.deviation_pct for r in solved if r.deviation_pct is not None]
        exact_times = [r.exact_ms for r in solved if r.exact_ms is not None]
        out.append(
            CellSummary(
                kind=kind,
                size=size,
                k=k,
                alpha=alpha,
                instances=len(recs),
                solved=len(solved),
                unsolved=len(recs) - len(solved),
                mean_deviation_pct=sum(deviations) / len(deviations) if deviations else None,
                max_deviation_pct=max(deviations) if deviations else None,
                mean_exact_ms=sum(exact_times) / len(exact_times) if exact_times else None,
                mean_approx_ms=sum(r.approx_ms for r in recs) / len(recs),
            )
        )
    out.sort(key=lambda s: (s.kind, s.size, s.k, _alpha_token(s.alpha)))
    return out


def _csv_text(header: str, records: Sequence) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(map(_csv_row, records))
    return buf.getvalue()


def records_to_csv(records: Sequence[BenchmarkRecord]) -> str:
    return _csv_text(RECORD_HEADER, records)


def summaries_to_csv(summaries: Sequence[CellSummary]) -> str:
    return _csv_text(SUMMARY_HEADER, summaries)
