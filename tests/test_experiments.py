import dataclasses
import hashlib

import numpy as np
import pytest

from wowaopt import (
    ExperimentConfig,
    InstanceFormatError,
    SplitMix64,
    gen_instance,
    instance_seed,
    records_to_csv,
    run_benchmark,
    summaries_to_csv,
    summarize,
)
from wowaopt.experiments import RECORD_HEADER, SUMMARY_HEADER, default_q


class TestSplitMix64:
    def test_pinned_outputs_for_seed_zero(self):
        # golden values for the documented recurrence; any change here
        # silently breaks cross-run (and cross-language) reproducibility
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xC329812D1D820396
        assert rng.next_u64() == 0x777A8E89A21F7D3F
        assert rng.next_u64() == 0x98422BF551912D1F

    def test_matches_documented_recurrence(self):
        # clean-room evaluation of the docstring contract, one step
        mask = (1 << 64) - 1
        state = (42 + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        assert SplitMix64(42).next_u64() == z ^ (z >> 31)

    def test_randint_range(self):
        rng = SplitMix64(12345)
        draws = [rng.randint(1, 100) for _ in range(2000)]
        assert min(draws) >= 1 and max(draws) <= 100
        assert len(set(draws)) > 50

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(5, 4)

    @pytest.mark.parametrize("lo, hi", [(7, 7), (1, 100), (0, 100), (3, 3 + 2**32 - 1),
                                        (0, 2**63 - 1), (2**63, 2**64 - 1), (0, 2**64 - 1)],
                             ids=["span-1", "span-100", "span-101", "span-2^32", "span-2^63",
                                  "span-2^63-high", "span-2^64"])
    def test_randints_equal_randint_loop(self, lo, hi):
        bulk, loop = SplitMix64(0xDEADBEEF), SplitMix64(0xDEADBEEF)
        for count in (1, 1000, 0, 37):
            draws = bulk.randints(lo, hi, count)
            assert draws.tolist() == [loop.randint(lo, hi) for _ in range(count)]
        assert bulk.next_u64() == loop.next_u64()

    def test_randints_rejects_empty_range(self):
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match="empty range"):
            rng.randints(5, 4, 10)
        assert rng.next_u64() == SplitMix64(0).next_u64()

    def test_randints_rejects_range_outside_uint64_and_negative_count(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randints(-1, 5, 10)
        with pytest.raises(ValueError):
            SplitMix64(0).randints(0, 2**64, 10)
        with pytest.raises(ValueError):
            SplitMix64(0).randints(0, 5, -1)

    def test_randints_of_none_leaves_the_state(self):
        rng = SplitMix64(99)
        assert rng.randints(0, 100, 0).tolist() == []
        assert rng.next_u64() == SplitMix64(99).next_u64()

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_randints_advance_the_state_by_count_steps(self, seed):
        bulk, steps = SplitMix64(seed), SplitMix64(seed)
        bulk.randints(0, 10, 12345)
        for _ in range(12345):
            steps.next_u64()
        assert bulk.next_u64() == steps.next_u64()


class TestInstanceSeed:
    def test_fnv1a_published_vectors(self):
        from wowaopt.experiments import _fnv1a64

        assert _fnv1a64(b"") == 0xCBF29CE484222325
        assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert _fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_depends_on_every_field(self):
        base = instance_seed(7, "selection", 40, 5, 1e-2, 0)
        assert base != instance_seed(8, "selection", 40, 5, 1e-2, 0)
        assert base != instance_seed(7, "assignment", 40, 5, 1e-2, 0)
        assert base != instance_seed(7, "selection", 41, 5, 1e-2, 0)
        assert base != instance_seed(7, "selection", 40, 6, 1e-2, 0)
        assert base != instance_seed(7, "selection", 40, 5, 1e-4, 0)
        assert base != instance_seed(7, "selection", 40, 5, 1e-2, 1)

    def test_pinned_value_guards_the_contract(self):
        # any change to the hashing scheme breaks reproducibility silently;
        # this value pins the documented FNV-1a/XOR construction
        assert instance_seed(0, "selection", 40, 5, 1e-2, 0) == instance_seed(
            0, "selection", 40, 5, 0.01, 0
        )
        assert instance_seed(0, "selection", 2, 1, None, 0) == 11560952677059485956


class TestGenInstance:
    def test_deterministic_for_seed(self):
        a = gen_instance("selection", 20, 4, 1e-2, 99)
        b = gen_instance("selection", 20, 4, 1e-2, 99)
        assert a == b

    def test_probabilities_positive_and_normalized(self):
        for seed in range(30):
            inst = gen_instance("selection", 10, 8, 1e-3, seed)
            p = inst.p.as_array()
            assert np.all(p > 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_costs_are_integers_in_range(self):
        inst = gen_instance("assignment", 5, 3, 1e-2, 4)
        assert inst.n == 25
        assert np.all(inst.costs == np.round(inst.costs))
        assert inst.costs.min() >= 0 and inst.costs.max() <= 100

    def test_weights_nonincreasing_across_grid(self):
        for alpha in (1e-2, 1e-3, 1e-4):
            for k in (2, 5, 10, 20):
                inst = gen_instance("selection", 8, k, alpha, 1)
                assert inst.v.is_nonincreasing

    def test_uniform_weights_flag(self):
        inst = gen_instance("selection", 8, 4, None, 1)
        assert inst.v.values == tuple([0.25] * 4)

    def test_default_q_rounds_half_up(self):
        assert default_q(40) == 10
        assert default_q(10) == 3   # 2.5 rounds up
        assert default_q(6) == 2    # 1.5 rounds up
        assert default_q(2) == 1
        assert default_q(1) == 1    # never below 1

    def test_selection_q_applied(self):
        inst = gen_instance("selection", 12, 2, 1e-2, 0)
        assert inst.kind.q == 3
        inst = gen_instance("selection", 12, 2, 1e-2, 0, q=5)
        assert inst.kind.q == 5

    # sha256 of repr((p, costs)) for each (kind, size, seed) at K=10, recorded
    # with the draw-by-draw generator, so that the stream and the draw order
    # cannot change unseen.
    _PINS = {
        ("selection", 500, 0): "fc0a7b76ee8953979d5f1857937e57f51000b1cd823b10e0bd93783933a50100",
        ("selection", 500, 2024): "7f6241b6aa8d41510c173925dedc357d9bf89fb65c13ace7427c4afb21aa655b",
        ("selection", 500, 2**64 - 1):
            "2b90dfcd2ef06ddfb1f7b72877e56501037d40ab604fbd395ec010076e970cb3",
        ("assignment", 20, 0): "2b24259be747d45d1dde02a7f2635c4639ce77e72af900e014b667f96db13813",
        ("assignment", 20, 2024): "bac806ad558d489880273adf3f0f8f12a76dc9bc7a43859c70c79eb572930fb1",
        ("assignment", 20, 2**64 - 1):
            "ceefc3de00bb4e2d02894583f1ea805adcaccbcde083cd1a09cd7547004257ea",
    }

    @pytest.mark.parametrize("kind, size, seed", sorted(_PINS))
    def test_draws_are_pinned(self, kind, size, seed):
        inst = gen_instance(kind, size, 10, 1e-2, seed)
        text = repr((inst.p.values, inst.costs.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == self._PINS[kind, size, seed]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_instance("spanning-tree", 5, 2, 1e-2, 0)

    def test_assignment_rejects_a_selection_size(self):
        with pytest.raises(ValueError, match="q"):
            gen_instance("assignment", 3, 2, 0.1, 1, q=5)

    @pytest.mark.parametrize("size, k, named", [
        (5, 2.0, "K"), (5, 2.5, "K"), (5, True, "K"), (5.0, 2, "size"), (True, 2, "size"),
    ])
    def test_size_and_k_must_be_integers(self, size, k, named):
        with pytest.raises(ValueError, match=f"^{named}: must be an integer of at least 1, got"):
            gen_instance("selection", size, k, 0.5, 1)

    @pytest.mark.parametrize("kind", ["selection", "assignment"])
    def test_numpy_integer_size_and_k_accepted(self, kind):
        assert gen_instance(kind, np.int64(4), np.int32(3), 0.5, 1) == gen_instance(kind, 4, 3, 0.5, 1)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(kind="selection", size=10, k_values=(2,), alphas=(1e-2,),
                instances=3, seed=5, method="brute")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    @pytest.mark.parametrize("field, value, named", [
        ("k_values", (0,), "K:"),
        ("k_values", (2, -1), "K:"),
        ("k_values", (2, 2), "K:"),
        ("alphas", (1.5,), "alpha:"),
        ("alphas", (0.0,), "alpha:"),
        ("alphas", (1.0,), "alpha:"),
        ("alphas", (float("nan"),), "alpha:"),
        ("alphas", (True,), r"^alpha: must be a number in \(0, 1\), got True$"),  # named once
        ("alphas", (None, None), "alpha:"),
        ("time_limit", -1.0, "time_limit:"),
        ("time_limit", 0.0, "time_limit:"),
        ("time_limit", float("nan"), "time_limit:"),
        ("instances", 0, "instances"),
        ("size", 0, "size"),
        ("size", 6.0, "size:"),
        ("size", True, "size:"),
        ("instances", 3.0, "instances:"),
        ("seed", 5.0, "seed:"),
        ("seed", None, "seed:"),
        ("k_values", (2.0,), "K:"),
        ("k_values", (2, True), "K:"),
        ("k_values", (2.5,), "K:"),
        ("kind", "tree", "kind"),
        ("method", "milp", "method"),
        ("lp_dir", "lp", "lp_dir:"),  # small_config's method is brute
    ])
    def test_direct_construction_applies_the_value_rules(self, field, value, named):
        with pytest.raises(ValueError, match=named):
            small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("K", [0]), ("K", [2, 2]), ("alpha", [1.5]), ("alpha", [None, "uniform"]),
        ("time_limit", -1), ("time_limit", 0),
    ])
    def test_from_dict_applies_the_same_rules(self, field, value):
        doc = {"kind": "selection", "size": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field}:"):
            ExperimentConfig.from_dict(doc)

    def test_json_type_errors_are_instance_format_errors(self):
        # one checker serves instance documents and configs
        with pytest.raises(InstanceFormatError, match=r"^kind: expected a JSON string, got 1$"):
            ExperimentConfig.from_dict({"kind": 1, "size": 5})
        with pytest.raises(InstanceFormatError, match=r"^K: expected a JSON integer, got 2\.9$"):
            ExperimentConfig.from_dict({"kind": "selection", "size": 5, "K": [2.9]})

    def test_infinite_time_limit_is_accepted(self):
        assert small_config(time_limit=float("inf")).time_limit == float("inf")
        assert ExperimentConfig.from_dict(
            {"kind": "selection", "size": 10, "time_limit": float("inf")}).time_limit == float("inf")


class TestRunBenchmark:
    def test_k1_cell_has_zero_deviation(self):
        records = run_benchmark(small_config(k_values=(1,)))
        assert len(records) == 3
        for rec in records:
            assert rec.exact_status == "optimal"
            assert rec.deviation_pct == pytest.approx(0.0, abs=1e-9)

    def test_uniform_v_cell_has_zero_deviation(self):
        records = run_benchmark(small_config(alphas=(None,)))
        for rec in records:
            assert rec.deviation_pct == pytest.approx(0.0, abs=1e-9)

    def test_deviation_within_guarantee(self):
        records = run_benchmark(small_config(k_values=(2, 4), alphas=(1e-2, 1e-4)))
        for rec in records:
            inst = gen_instance("selection", 10, rec.k, rec.alpha, rec.seed,
                                q=default_q(10))
            bound = 100.0 * (inst.v.values[0] * rec.k - 1.0)
            assert -1e-7 <= rec.deviation_pct <= bound + 1e-6

    def test_reproducible_value_columns(self):
        cfg = small_config(method="bb")
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        assert [r.exact_value for r in a] == [r.exact_value for r in b]
        assert [r.approx_value for r in a] == [r.approx_value for r in b]
        assert [r.seed for r in a] == [r.seed for r in b]

    def test_parallel_matches_serial(self):
        cfg = small_config()
        serial = run_benchmark(cfg, jobs=1)
        parallel = run_benchmark(cfg, jobs=2)
        assert [r.exact_value for r in serial] == [r.exact_value for r in parallel]
        assert [r.approx_value for r in serial] == [r.approx_value for r in parallel]

    def test_numpy_integer_seed_gives_the_records_of_its_int(self):
        cfg = small_config(seed=np.int64(3), k_values=(np.int32(2),), size=np.int8(10))
        assert (type(cfg.seed), type(cfg.size), type(cfg.k_values[0])) == (int, int, int)

        def untimed(records):
            return [dataclasses.replace(r, exact_ms=None, approx_ms=0.0) for r in records]
        assert untimed(run_benchmark(cfg)) == untimed(run_benchmark(small_config(seed=3)))

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.5, 2.0])  # True is not one worker, nor 2.0 two
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_benchmark(small_config(), jobs=jobs)

    def test_bb_and_brute_agree(self):
        recs_bb = run_benchmark(small_config(method="bb"))
        recs_bf = run_benchmark(small_config(method="brute"))
        assert [r.exact_value for r in recs_bb] == [r.exact_value for r in recs_bf]

    def test_lp_only_records_unsolved(self, tmp_path):
        cfg = small_config(method="lp-only", lp_dir=str(tmp_path / "lp"))
        records = run_benchmark(cfg)
        for rec in records:
            assert rec.exact_value is None
            assert rec.exact_status == "exported"
            assert rec.deviation_pct is None
        assert len(list((tmp_path / "lp").glob("*.lp"))) == 3

    def test_progress_lines_per_cell(self):
        lines = []
        run_benchmark(small_config(k_values=(1, 2)), progress=lines.append)
        assert len(lines) == 2
        assert all("cell kind=selection" in line for line in lines)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_become_error_records_in_task_order(self, jobs):
        # alpha 1.5 makes gen_instance raise, in a worker process when jobs > 1;
        # the config's own rules reject it, so it is set past them
        cfg = small_config(alphas=(0.5, 1e-2))
        object.__setattr__(cfg, "alphas", (1.5, 1e-2))
        lines = []
        records = run_benchmark(cfg, jobs=jobs, progress=lines.append)
        assert [r.exact_status.startswith("error: alpha") for r in records] == [True] * 3 + [False] * 3
        assert [(r.alpha, r.instance) for r in records] == [(1.5, 0), (1.5, 1), (1.5, 2),
                                                            (1e-2, 0), (1e-2, 1), (1e-2, 2)]
        assert len(lines) == 2


class TestSummarize:
    def test_single_record(self):
        records = run_benchmark(small_config(instances=1))
        (summary,) = summarize(records)
        assert summary.mean_deviation_pct == summary.max_deviation_pct
        assert summary.mean_deviation_pct == pytest.approx(records[0].deviation_pct)
        assert summary.solved == 1 and summary.unsolved == 0

    def test_mean_of_two(self):
        import dataclasses

        records = run_benchmark(small_config(instances=2))
        records = [
            dataclasses.replace(records[0], deviation_pct=0.0),
            dataclasses.replace(records[1], deviation_pct=10.0),
        ]
        (summary,) = summarize(records)
        assert summary.mean_deviation_pct == pytest.approx(5.0)
        assert summary.max_deviation_pct == pytest.approx(10.0)

    def test_unsolved_excluded_from_means(self):
        import dataclasses

        records = run_benchmark(small_config(instances=2))
        records = [
            dataclasses.replace(records[0], deviation_pct=4.0),
            dataclasses.replace(records[1], exact_status="time_limit", deviation_pct=50.0),
        ]
        (summary,) = summarize(records)
        assert summary.mean_deviation_pct == pytest.approx(4.0)
        assert summary.unsolved == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsv:
    def test_record_schema(self):
        records = run_benchmark(small_config(instances=1))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == RECORD_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(RECORD_HEADER.split(","))

    def test_summary_schema(self):
        records = run_benchmark(small_config(instances=1))
        text = summaries_to_csv(summarize(records))
        assert text.startswith(SUMMARY_HEADER)

    def test_value_columns_stable_across_reruns(self):
        cfg = small_config()
        first = records_to_csv(run_benchmark(cfg)).split("\n")
        second = records_to_csv(run_benchmark(cfg)).split("\n")

        def value_cols(lines):
            return [",".join(line.split(",")[:10]) for line in lines if line]

        assert value_cols(first) == value_cols(second)
