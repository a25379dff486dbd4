"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q

They need no gfoperad import: the tracer runs on stand-in modules, and the
operation loop on a stand-in CLI.
"""

import json
import random
import signal
import time
import types
from fractions import Fraction

import pytest

import run
import tracer as tracing
import workloads


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,4] > C[2,3];  A > D[5,9]
    durations = [10.0, 3.0, 1.0, 4.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(durations, parents) == [3.0, 2.0, 1.0, 4.0]


def test_aggregates_count_recursion_once_in_inclusive_time():
    names = ["outer", "inner", "operad.compose", "symbols.substitute", "deformation.obstruction"]
    # op 0: outer[0,10] > outer[2,5] > inner[3,4];  op 1: obstruction > compose > substitute
    name_of = [0, 0, 1, 4, 2, 3]
    parents = [-1, 0, 1, -1, 3, 4]
    op_of = [0, 0, 0, 1, 1, 1]
    durations = [10.0, 3.0, 1.0, 8.0, 6.0, 2.0]
    counts = [0, 0, 5, 0, 7, 0]
    ops = tracing.op_aggregates(names, name_of, parents, op_of, durations, counts)
    outer = ops[0]["outer"]
    assert outer["calls"] == 2
    assert outer["incl_s"] == 10.0
    assert outer["self_s"] == pytest.approx(7.0 + 2.0)
    assert ops[0]["inner"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0, "count": 5, "nonzero": 1}
    assert ops[1]["_extra"] == {
        "compose.substitute_s": 2.0,
        "deformation.obstruction.compose_calls": 1,
    }
    assert ops[1]["deformation.obstruction"]["self_s"] == 2.0


def test_tracer_wraps_lookup_names_and_restores_them():
    class Poly:
        def __add__(self, other):
            return self

    lib = types.SimpleNamespace()

    def leaf(x):
        return Poly() + Poly()

    def top(x):
        return lib.leaf(x)

    lib.leaf, lib.top = leaf, top
    modules = {"m": lib, "sym": types.SimpleNamespace(Poly=Poly)}
    targets = (
        ("m", "top", "top", None),
        ("m", "leaf", "leaf", None),
        ("sym", "Poly.__add__", "add", None),
        ("m", "absent", "absent", None),
    )
    original_add = Poly.__add__
    t = tracing.Tracer()
    t.op = 3
    t.install(modules, targets)
    lib.top(1)
    t.restore()
    assert lib.top is top and lib.leaf is leaf and Poly.__add__ is original_add
    assert [t.names[i] for i in t.name_of] == ["top", "leaf", "add"]
    assert t.parent == [-1, 0, 1]
    assert t.op_of == [3, 3, 3]
    assert all(s <= e for s, e in zip(t.start, t.end))
    assert t.start[0] <= t.start[1] <= t.start[2] <= t.end[2] <= t.end[1] <= t.end[0]
    assert t.missing == ["m.absent"]
    lib.top(1)  # after restore nothing more is recorded
    assert len(t) == 3


# -- the tail rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, rank, percentile",
    [
        (1, 1, 100.0),
        (10, 1, 10.0),  # no percentile has ten samples beyond it
        (11, 1, 100 / 11),  # the smallest has exactly ten beyond it
        (12, 2, 100 * 2 / 12),
        (20, 10, 50.0),
        (100, 90, 90.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    value, pct, count = run.tail(samples)
    assert value == rank
    assert pct == pytest.approx(percentile)
    assert count == n
    assert sum(1 for s in samples if s > value) >= min(10, n - 1)


# -- output check and fail_rate ------------------------------------------------------


def _case(tmp_path, c, lam):
    return workloads.Case(0, ("compose",), str(tmp_path / "out.json"), Fraction(c), lam)


def _pins(base_bytes, raw=None):
    pins = {"base": {"w": [workloads.digest(base_bytes)]}, "raw": {}}
    if raw is not None:
        pins["raw"]["5"] = {"w": [raw]}
    return pins


@pytest.fixture
def scaled_output(tmp_path):
    base = workloads.random_series(random.Random(1), 2, 2, [1, 2, 3])
    base_bytes = (json.dumps(base, indent=2) + "\n").encode()
    case = _case(tmp_path, "-3/2", (Fraction(2), Fraction(1, 3)))
    scaled = workloads.scale_series(base, case.c, case.lam)
    return base_bytes, case, (json.dumps(scaled, indent=2) + "\n").encode()


def test_scaled_output_maps_back_to_the_base_digest(scaled_output):
    base_bytes, case, data = scaled_output
    assert data != base_bytes
    assert workloads.OutputCheck(_pins(base_bytes), "w", 5)(case, data)
    pinned_raw = workloads.OutputCheck(_pins(base_bytes, workloads.digest(data)), "w", 5)
    assert pinned_raw(case, data)


def _fake_main(case, data, code=0, error=None):
    def main(argv):
        if error is not None:
            raise error
        with open(case.out_path, "wb") as handle:
            handle.write(data)
        return code

    return main


def test_fail_rate_counts_tampered_digests_exits_and_exceptions(scaled_output):
    base_bytes, case, data = scaled_output
    good = workloads.OutputCheck(_pins(base_bytes), "w", 5)
    tampered_base = workloads.OutputCheck(_pins(base_bytes + b" "), "w", 5)
    tampered_raw = workloads.OutputCheck(_pins(base_bytes, "0" * 64), "w", 5)
    tally = run.Tally()
    tally.record(*run.run_op(_fake_main(case, data), case, good))
    tally.record(*run.run_op(_fake_main(case, data), case, tampered_base))
    tally.record(*run.run_op(_fake_main(case, data), case, tampered_raw))
    tally.record(*run.run_op(_fake_main(case, data, code=1), case, good))
    tally.record(*run.run_op(_fake_main(case, data, error=RuntimeError("boom")), case, good))
    tally.record(*run.run_op(_fake_main(case, data[:-2]), case, good))
    assert tally.attempted == 6
    assert tally.failed == 5
    assert len(tally.ok_walls()) == 1  # failed operations add to no timing
    assert len(tally.nominal()) == 1


def test_stale_output_is_not_reused(scaled_output):
    base_bytes, case, data = scaled_output
    check = workloads.OutputCheck(_pins(base_bytes), "w", 5)
    assert run.run_op(_fake_main(case, data), case, check)[0]
    assert not run.run_op(lambda argv: 0, case, check)[0]  # writes nothing this time


def test_a_target_the_tracer_cannot_find_fails_the_run(scaled_output, tmp_path, monkeypatch):
    base_bytes, case, data = scaled_output
    check = workloads.OutputCheck(_pins(base_bytes), "w", 5)
    write = _fake_main(case, data)

    def main(argv):
        time.sleep(0.01)  # long enough that the span wrapper's own cost is negligible
        return write(argv)

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    args = types.SimpleNamespace(seconds=0, workload="w", seed=5)
    timed = run.Tally()
    _metrics, detail = run.traced_run(args, {"gfoperad.cli": types.SimpleNamespace(main=main)}, [case], check, timed)
    assert timed.attempted == 2 and timed.failed == 0
    assert detail["top_spans_match"]
    assert "gfoperad.solver.obstruction" in detail["missing_targets"]
    assert not run.run_correct(timed.failed, detail)
    assert run.run_correct(timed.failed, dict(detail, missing_targets=[]))


# -- host-speed scaling ------------------------------------------------------------


def test_failed_operations_add_to_no_nominal_time():
    tally = run.Tally()
    tally.record(True, 3.0, 1.5)
    tally.record(False, 1.0, 0.5)
    assert tally.ok_walls() == [3.0]
    assert tally.nominal() == [1.5]
    assert tally.scales() == [0.5, 0.5]


def test_each_stretch_scales_by_the_references_on_either_side():
    r = run.REF_NOMINAL_S
    # Work 0-1 s at half speed, a reference 1.0-1.1 s, work 1.1-2.1 s at nominal speed.
    refs = [2 * r, 2 * r, r]
    assert run.nominal_seconds(0.0, 2.1, [(1.0, 1.1)], refs) == pytest.approx(1.0 * 0.5 + 1.0 * 2 / 3)
    assert run.nominal_seconds(0.0, 2.0, [], [r, r]) == pytest.approx(2.0)


def test_host_clock_samples_during_the_work_and_stops_at_its_end():
    clock, op_clock = run.HostClock(interval=0.01), run.WallClock()
    clock.start()
    op_clock.start()
    t_end = time.monotonic() + 0.1
    while time.monotonic() < t_end:
        pass
    op_clock.stop()
    while time.monotonic() < t_end + 0.05:  # work after the end is not counted
        pass
    wall, nominal = clock.stop(end=op_clock.t1)
    assert wall == pytest.approx(op_clock.t1 - clock.t0)
    assert len(clock.cuts) >= 5 and len(clock.refs) == len(clock.cuts) + 2
    counted = [cut for cut in clock.cuts if cut[1] <= op_clock.t1]
    assert len(counted) < len(clock.cuts)
    refs = clock.refs[: len(counted) + 1] + [clock.refs[len(counted) + 1]]
    assert nominal == pytest.approx(run.nominal_seconds(clock.t0, op_clock.t1, counted, refs))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_timed_phase_ends_by_nominal_time_on_a_stride():
    tally = run.Tally()
    step = lambda i: tally.record(True, 0.0, 1.0)  # noqa: E731 - one nominal second per op
    run.timed_loop(3, step, tally)
    assert tally.attempted == 3
    run.timed_loop(1, step, tally, stride=2)  # already past 1 s, but ends on a stride
    assert tally.attempted == 5


def test_layer_seconds_scale_per_op_and_counts_do_not():
    t = tracing.Tracer()
    t.names = ["symbols.substitute"]
    t.name_of, t.parent, t.op_of = [0, 0], [-1, -1], [1, 3]
    t.start, t.end, t.count = [0.0, 10.0], [2.0, 14.0], [7, 7]
    metrics = tracing.layer_metrics(t, [1, 3], {1: 0.5, 3: 0.25})
    assert metrics["symbols.substitute.self_s"]["value"] == pytest.approx(1.0)
    assert metrics["symbols.substitute.calls"]["value"] == 1
    assert metrics["symbols.substitute.terms_out"]["value"] == 7
