"""Tests for the benchmark's own code: recorder, statistics and output check.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Task, check_outcome, load_golden  # noqa: E402


class FakeClock:
    """Returns `now`, which the test sets before each enter or exit."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class StepClock:
    """Advances by one on every read."""

    def __init__(self) -> None:
        self.now = -1

    def __call__(self) -> int:
        self.now += 1
        return self.now


def _at(rec: tracer.Recorder, clock: FakeClock, t: int, op: str, arg) -> int | None:
    clock.now = t
    if op == "enter":
        return rec.enter(rec.name_id(arg))
    rec.exit(arg, True)
    return None


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = tracer.Recorder(clock)
    a = _at(rec, clock, 0, "enter", "verify.a")
    b = _at(rec, clock, 2, "enter", "division.b")
    _at(rec, clock, 5, "exit", b)
    c = _at(rec, clock, 6, "enter", "lattices.c")
    _at(rec, clock, 7, "exit", c)
    _at(rec, clock, 10, "exit", a)
    totals = tracer.span_totals(rec)
    assert totals["verify.a"]["self_ns"] == 6
    assert totals["division.b"]["self_ns"] == 3
    assert totals["lattices.c"]["self_ns"] == 1
    assert [rec.parent[i] for i in range(3)] == [-1, a, a]


def test_recursive_spans_count_outermost_once():
    clock = FakeClock()
    rec = tracer.Recorder(clock)
    f0 = _at(rec, clock, 0, "enter", "division.f")
    f1 = _at(rec, clock, 1, "enter", "division.f")
    f2 = _at(rec, clock, 2, "enter", "division.f")
    _at(rec, clock, 3, "exit", f2)
    _at(rec, clock, 5, "exit", f1)
    _at(rec, clock, 9, "exit", f0)
    row = tracer.span_totals(rec)["division.f"]
    assert row["calls"] == 3
    assert row["outer_ns"] == 9
    assert row["self_ns"] == 9  # 1 + 3 + 5: each level once, no double counting


class _Cert:
    def __init__(self, status: str) -> None:
        self.status = status


def test_wrapped_recursion_counts_outcome_on_outermost_span():
    rec = tracer.Recorder(StepClock())
    table = {}

    def chain(n: int) -> _Cert:
        return _Cert("certified") if n == 0 else table["f"](n - 1)

    table["f"] = tracer.wrap(rec, "division.chain_division", chain)
    table["f"](3)
    row = tracer.span_totals(rec)["division.chain_division"]
    assert row["calls"] == 4
    assert row["outer_ns"] == row["self_ns"] == 7
    assert rec.counts == {(-1, "division.chain_division.certified"): 1}


def test_raising_call_is_counted_and_closes_its_span():
    rec = tracer.Recorder(StepClock())

    def boom() -> None:
        raise ValueError("no")

    wrapped = tracer.wrap(rec, "division.morandi_step", boom)
    with pytest.raises(ValueError):
        wrapped()
    fine = tracer.wrap(rec, "towers.value_of", lambda: 1)
    fine()
    totals = tracer.span_totals(rec)
    assert totals["division.morandi_step"]["errors"] == 1
    assert totals["towers.value_of"]["errors"] == 0
    assert rec.parent[1] == -1  # the failed span was popped


def test_percentile_interpolates_between_ranks():
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0], 75) == 1.75
    assert run.percentile([5.0], 75) == 5.0
    assert run.percentile(list(map(float, range(101))), 75) == 75.0


def test_p75_needs_forty_samples_for_ten_beyond_it():
    assert run.samples_beyond(42, 75) == 10
    assert run.samples_beyond(40, 75) == 10
    assert run.samples_beyond(39, 75) == 9
    assert run.samples_beyond(2, 75) == 0
    assert run.samples_beyond(42, 50) == 21


def test_host_speed_is_the_time_average_relative_to_the_reference():
    ref = hostspeed.REFERENCE_NS
    assert hostspeed.speed([(0, ref), (1, 2 * ref)]) == 0.75
    assert hostspeed.speed([]) is None
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        deadline = run.time.monotonic() + 0.3
        while run.time.monotonic() < deadline:
            pass
    finally:
        sampler.stop()
    assert 3 <= len(sampler.samples) <= 8


def test_around_takes_samples_inside_else_the_nearest():
    samples = [(0, 1), (50, 2), (100, 3), (150, 4)]
    assert hostspeed.around(samples, 40, 110) == [(50, 2), (100, 3)]
    assert hostspeed.around(samples, 60, 70) == [(50, 2)]
    assert hostspeed.around(samples, 80, 95) == [(100, 3)]
    assert hostspeed.around([], 0, 10) == []


def _pass(task_s: list[float], speed: float, setup_s: float = 0.2) -> run.Pass:
    return run.Pass(setup_s, speed, sum(task_s), speed, task_s, [speed] * len(task_s), [],
                    20.0, 0.0)


def test_end_to_end_times_are_scaled_by_host_speed_per_pass():
    passes = [_pass([1.0, 2.0], 1.0), _pass([2.0, 4.0], 0.5), _pass([1.0, 2.0], 1.0)]
    starts = [_pass([], 0.5, setup_s=0.4), _pass([], 1.0, setup_s=0.25)]
    metrics = run.end_to_end(starts, passes)
    assert metrics["wall_s"] == 3.0
    assert metrics["task_p50_s"] == 1.5
    assert metrics["setup_s"] == 0.2


def test_in_task_order_undoes_the_run_order():
    run_ = run.Pass(0.1, 1.0, 3.0, 1.0, [3.0, 1.0, 2.0], [0.3, 0.1, 0.2], ["c", "a", "b"],
                    20.0, 0.0)
    back = run.in_task_order(run_, [2, 0, 1])
    assert back.task_s == [1.0, 2.0, 3.0]
    assert back.task_speed == [0.1, 0.2, 0.3]
    assert back.outcomes == ["a", "b", "c"]


def _outcome(report: str, exit_code: int = 0) -> dict:
    import hashlib

    doc = json.loads(report)
    return {
        "exit": exit_code,
        "digest": hashlib.sha256(report.encode()).hexdigest(),
        "result": doc["result"],
        "exit_code": doc["exit_code"],
        "error": None,
    }


def test_digest_check_flags_a_tampered_report():
    task = Task(("counts", "--scenario", "scenarios/counts.scn"), "Verified")
    report = json.dumps({"result": "Verified", "exit_code": 0, "payload": {"rows": [1]}})
    golden = {task.key: _outcome(report)["digest"]}
    assert check_outcome(task, _outcome(report), golden) == []
    tampered = report.replace("[1]", "[2]")
    assert check_outcome(task, _outcome(tampered), golden) == [
        "report bytes differ from the golden digest"
    ]


def test_check_flags_wrong_verdict_crash_and_missing_golden():
    task = Task(("counts",), "Verified")
    report = json.dumps({"result": "Refuted", "exit_code": 1})
    problems = check_outcome(task, _outcome(report, exit_code=1), {})
    assert len(problems) == 4
    assert check_outcome(task, {"error": "KeyError: 'x'"}, {}) == ["crashed: KeyError: 'x'"]


def test_trace_self_checks_flag_a_missed_binding():
    task = Task(("no-common-splitting", "--n", "3", "--p", "2"), "Verified")
    fake = run.Pass(0.0, 1.0, 0.0, 1.0, [0.0], [1.0], [{"family_size_formula": 9}], 0.0, 0.0, {},
                    {})
    assert run.trace_problems([task], fake) == [["members certified 0, family_size_formula 9"]]
    fake.counts = {(0, "division.chain_division.certified"): 9}
    assert run.trace_problems([task], fake) == [[]]


def test_traced_child_reaches_every_binding_and_keeps_reports():
    tasks = [
        Task(("char-not-p", "--scenario", "scenarios/char-not-p-n3-p2.scn"), "Verified"),
        Task(("no-common-splitting", "--scenario", "scenarios/no-common-splitting-n3-p2.scn"),
             "Verified"),
        Task(("chain-check", "--scenario", "scenarios/chain-root-ext-p3.scn"), "Verified"),
    ]
    golden = load_golden()
    passes = [run.run_pass(tasks, True, run.time.monotonic() + 120) for _ in range(2)]
    for p in passes:
        for task, outcome in zip(tasks, p.outcomes):
            assert check_outcome(task, outcome, golden) == []
        assert run.trace_problems(tasks, p) == [[], [], []]
    assert passes[0].counts == passes[1].counts
    calls = [{k: v["calls"] for k, v in p.totals.items()} for p in passes]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main"] == 3
    assert calls[0]["lattices.enumerate_overlattices"] == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "perfbench" / "golden.json").write_bytes((BENCH / "golden.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
