"""Tests of the benchmark itself: its oracles, its self-time arithmetic, and
a smoke-size run of every workload through the real command."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import verify  # noqa: E402
from distlaw import Gen, Inj, IntComb, MSet, Seq, ZERO  # noqa: E402

A, B = Gen("a"), Gen("b")
# a and b do not commute, so word order shows
ENV = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (1, 1))}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def var(name):
    return ("var", name)


def ring3_form(*pairs):
    return IntComb(tuple((Seq(word), c) for word, c in pairs))


DIFF_OF_SQUARES = ("mul", ("add", var("a"), var("b")), ("sub", var("a"), var("b")))


def test_matrix_oracle_accepts_the_ring3_form_and_sees_word_order():
    right = ring3_form(((A, A), 1), ((A, B), -1), ((B, A), 1), ((B, B), -1))
    commuted = ring3_form(((A, A), 1), ((B, B), -1))
    assert verify.check_ring3(DIFF_OF_SQUARES, right, [ENV]) is None
    assert verify.check_ring3(DIFF_OF_SQUARES, commuted, [ENV]) is not None


def test_ring2_form_must_equal_the_abelianised_ring3_form():
    ring3 = ring3_form(((A, A), 1), ((A, B), -1), ((B, A), 1), ((B, B), -1))
    ring2 = IntComb(((MSet((A, A)), 1), (MSet((B, B)), -1)))
    wrong = IntComb(((MSet((A, A)), 1), (MSet((A, B)), 1), (MSet((B, B)), -1)))
    assert verify.check_ring2(ring2, ring3) is None
    assert verify.check_ring2(wrong, ring3) is not None


def test_rig_oracles_check_values_and_multiplicities():
    node = ("mul", ("add", var("a"), var("b")), var("a"))
    right = Inj(MSet((Seq((A, A)), Seq((B, A)))))
    # Boolean-equal to the expression, but a term short
    short = Inj(MSet((Seq((A, A)),)))
    assert verify.check_rig(node, right, [ENV]) is None
    assert verify.check_rig(node, short, [ENV]) is not None
    assert verify.check_rig(var("a"), ZERO, []) is not None


def test_power_counts_are_multinomial():
    square = ("mul", ("add", var("a"), var("b")), ("add", var("a"), var("b")))
    ring3 = ring3_form(((A, A), 1), ((A, B), 1), ((B, A), 1), ((B, B), 1))
    ring2 = IntComb(((MSet((A, A)), 1), (MSet((A, B)), 2), (MSet((B, B)), 1)))
    assert verify.check_ring3(square, ring3, [ENV]) is None
    assert verify.check_power("ring3", 2, 2, ring3) is None
    assert verify.check_power("ring2", 2, 2, ring2) is None
    assert verify.check_power("ring2", 2, 2, IntComb(((MSet((A, A)), 1),))) is not None
    assert verify.check_power("rig", 3, 2, Inj(MSet((Seq((A, A)),)))) is not None


def test_prefix_shared_word_evaluation_matches_direct_products():
    rng = random.Random(7)
    env = {n: verify.random_matrix(rng) for n in "abc"}
    words = {tuple(rng.choice("abc") for _ in range(rng.randint(0, 5))): rng.randint(-3, 3)
             for _ in range(40)}
    direct = verify.MAT_ZERO
    for word, coeff in words.items():
        prod = verify.MAT_ID
        for name in word:
            prod = verify.mat_mul(prod, env[name])
        direct = verify.mat_add(direct, verify.mat_scale(coeff, prod))
    assert verify.eval_words_matrix(words, env) == direct


def test_expected_lifts():
    word = ("seq", ("inj", "a"), "1", ("inj", "b"))
    assert verify.expected_adjoined_lift("1", max, word) == ("inj", "b")
    assert verify.expected_adjoined_lift("1", max, ("seq", "1", "1")) == "1"
    assert verify.expected_adjoined_lift("0", max, ("seq", ("inj", "a"), "0")) == "0"
    both = lambda x, y: "n0" if "n0" in (x, y) else "n1"
    # (n0 + n1) * (n1 - n0) = n0 - n0 + n1 - n0 = n1 - n0
    product = ("mset", ("comb", ("n0", 1), ("n1", 1)), ("comb", ("n0", -1), ("n1", 1)))
    assert verify.expected_sum_lift(both, "n1", product) == ("comb", ("n0", -1), ("n1", 1))
    assert verify.expected_sum_lift(both, "n1", ("mset",)) == ("comb", ("n1", 1))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    seen = []

    def leaf():
        clock.now += 1.0

    def failing():
        clock.now += 4.0
        raise ValueError("leg failed")

    traced_leaf = tracer.wrap(leaf, "terms.leaf", after=lambda args, result: seen.append(1))
    traced_failing = tracer.wrap(failing, "laws.failing")

    def middle():
        clock.now += 2.0
        traced_leaf()
        clock.now += 3.0
        traced_leaf()
        with pytest.raises(ValueError):
            traced_failing()

    traced_middle = tracer.wrap(middle, "monads.middle", record=True)

    def root():
        clock.now += 0.5
        traced_middle()
        clock.now += 0.25

    _, total = tracer.run(root)
    assert total == 11.75
    assert dict(tracer.self_s) == {"terms.leaf": 2.0, "laws.failing": 4.0,
                                   "monads.middle": 5.0, "bench.self": 0.75}
    assert tracer.calls["terms.leaf"] == 2 and len(seen) == 2
    assert tracer.incl_s["monads.middle"] == 11.0
    assert sum(tracer.layer_self_s().values()) == total
    assert tracer.spans == [("bench.pass", 0.0, 11.75, -1), ("monads.middle", 0.5, 11.5, 0)]
    tracer.reset()
    assert not tracer.self_s and not tracer.spans


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    reported = set(spans.layer_metrics(spans.Tracer())) | {"trace.verdict_s", "trace.overhead_s"}
    assert reported == declared


def run_bench(workload, trace, cwd=ROOT, size="smoke"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_of_every_workload(workload):
    plain = run_bench(workload, 0)
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = run_bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.strip().splitlines()[-1])
    assert layers["correct"]
    values = {k: v["value"] for k, v in layers["metrics"].items()}
    assert {k: v["unit"] for k, v in layers["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "ncat":
        assert values["terms.self_s"] == values["terms.constructed"] == 0
        assert values["globular.cells_out"] > 0
    else:
        assert all(values[k] == 0 for k in values if k.startswith("globular."))
        assert values["terms.constructed"] > 0 and values["laws.transform_calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("laws", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
