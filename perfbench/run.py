"""gfoperad benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload solve_so3 --seed 0 --seconds 25 --trace 0

Each operation is one ``gfoperad`` CLI command run in-process through
``gfoperad.cli.main(argv)`` on JSON inputs written during set-up; its exit code
and the sha256 of its output file are checked.  The next operation starts when
the previous one has ended.

``--trace 0`` measures the end-to-end metrics untraced; ``setup_s`` is the
median of several set-ups, each in a fresh interpreter started by
``run.py --setup-only``.  ``--trace 1`` alternates untraced and traced
operations on the same inputs and reports the per-layer metrics of the traced
ones, and the tracing overhead.

The host this runs on is shared and its speed switches between regimes, so a
fixed reference kernel is timed before, during (every ``SAMPLE_INTERVAL_S``)
and after each operation, and every reported time is scaled to the nominal
host speed by the references around each stretch of it (README.md, "Host-speed
reference").  Raw wall-clock values are kept in the record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with provenance goes
to ``.perfbench/results/`` and the spans of a traced run to ``.perfbench/spans/``
under the checkout root.
"""

from time import monotonic, perf_counter

T_START = perf_counter()  # span times count from here

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")

#: Set-ups of an untraced run, each in a fresh interpreter; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seconds a set-up child may take before it is killed and counted as failed.
SETUP_TIMEOUT_S = 60

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# -- statistics ------------------------------------------------------------------


def tail(samples):
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    The k-th smallest of n samples (1-based) has n - k samples above it, so the
    rule picks k = n - 10, the percentile 100 * (n - 10) / n.  With 10 samples
    or fewer no percentile qualifies; the smallest sample is reported, at
    percentile 100 / n.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 10, 1)
    return ordered[k - 1], 100.0 * k / n, n


#: Median time of one run of the reference kernel on the host the benchmark
#: was written on (2-vCPU Intel Xeon, Python 3.11.7).  Reported times are
#: scaled to this host speed; README.md ("Host-speed reference") says why.
REF_NOMINAL_S = 0.0022

#: Wall seconds between two host references taken while an operation runs.
SAMPLE_INTERVAL_S = 0.05

#: A timed phase ends after this many times ``--seconds`` of wall time, even
#: if its operations have not yet taken ``--seconds`` at the nominal speed.
MAX_WALL_FACTOR = 2


def _reference_kernel():
    """Fixed pure-Python work, independent of gfoperad: Fraction sums in a dict."""
    acc = {}
    for i in range(1, 500):
        key = i % 61
        acc[key] = acc.get(key, 0) + Fraction(1, i % 97 + 1)
    return acc


def host_reference() -> float:
    """Seconds of one run of the reference kernel, garbage collector off.

    The kernel never changes, so its time tracks only the speed the shared
    host gives this process at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def nominal_seconds(start, end, cuts, refs):
    """Seconds of work between ``start`` and ``end`` at the nominal host speed.

    ``cuts`` are the (start, end) times of the host references taken inside
    the interval and ``refs`` their durations, with the reference taken just
    before ``start`` first and the one just after ``end`` last.  The cuts split
    the interval into stretches of work; each stretch counts its wall time
    times REF_NOMINAL_S over the mean of the references on either side of it.
    The references' own time is not work.
    """
    edges = [start] + [t for cut in cuts for t in cut] + [end]
    return sum(
        (edges[2 * k + 1] - edges[2 * k]) * 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
        for k in range(len(cuts) + 1)
    )


class WallClock:
    """Times a stretch of work by the wall clock alone; its nominal time is its wall time."""

    def start(self):
        self.t0 = monotonic()

    def stop(self):
        """Return (wall seconds, nominal seconds) since ``start``."""
        self.t1 = monotonic()
        wall = self.t1 - self.t0
        return wall, wall


class HostClock(WallClock):
    """Times a stretch of work at the nominal host speed.

    The host's speed switches within a second between regimes up to 2x apart,
    so references taken only before and after a 2 s operation miss most of
    it.  While the clock runs, a SIGALRM handler takes a host reference every
    ``SAMPLE_INTERVAL_S`` of wall time, and ``nominal_seconds`` scales each
    stretch between two references.  Only one clock may run at a time.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval

    def _sample(self, _signum, _frame):
        t0 = monotonic()
        ref = host_reference()
        self.cuts.append((t0, monotonic()))
        self.refs.append(ref)

    def start(self):
        self.cuts, self.refs = [], [host_reference()]
        signal.signal(signal.SIGALRM, self._sample)
        self.t0 = monotonic()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self, end=None):
        """Return (wall seconds, nominal seconds) from ``start`` to ``end``
        (by default, now).  The references after ``end`` are not counted;
        the first of them closes the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.t1 = monotonic() if end is None else end
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.refs.append(host_reference())
        k = sum(1 for cut in self.cuts if cut[1] <= self.t1)
        refs = self.refs[: k + 1] + [self.refs[k + 1]]
        return self.t1 - self.t0, nominal_seconds(self.t0, self.t1, self.cuts[:k], refs)


class Tally:
    """Every operation in order: success, wall time and nominal time.

    A failed operation adds to ``failed`` and to no op timing.
    """

    def __init__(self):
        self.ok, self.walls, self.nominals = [], [], []

    def record(self, ok: bool, wall: float, nominal=None):
        self.ok.append(ok)
        self.walls.append(wall)
        self.nominals.append(wall if nominal is None else nominal)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def ok_walls(self):
        return [w for ok, w in zip(self.ok, self.walls) if ok]

    def nominal(self, ops=None):
        """Nominal times of the successful operations (of those in ``ops``, if given)."""
        return [
            n for i, (ok, n) in enumerate(zip(self.ok, self.nominals)) if ok and (ops is None or i in ops)
        ]

    def scales(self):
        """Per operation: nominal over wall time."""
        return [n / w if w else 1.0 for n, w in zip(self.nominals, self.walls)]


def run_op(main, case, check, clock=None):
    """Run one CLI command; return (ok, wall seconds, nominal seconds) of the command.

    ``clock`` times the command (a ``WallClock`` if not given).  A raised
    exception, a nonzero exit code or an output the check rejects makes the
    operation fail.
    """
    clock = clock or WallClock()
    if os.path.exists(case.out_path):
        os.remove(case.out_path)
    clock.start()
    try:
        code = main(list(case.argv))
    except Exception:  # a failed operation is counted, the loop goes on
        times = clock.stop()
        traceback.print_exc(file=sys.stderr)
        return (False, *times)
    times = clock.stop()
    if code != 0:
        print(f"operation {case.argv[0]} #{case.index} exited {code}", file=sys.stderr)
        return (False, *times)
    try:
        with open(case.out_path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"operation {case.argv[0]} #{case.index}: no output ({exc})", file=sys.stderr)
        return (False, *times)
    if not check(case, data):
        print(f"operation {case.argv[0]} #{case.index}: output digest mismatch", file=sys.stderr)
        return (False, *times)
    return (True, *times)


# -- set-up ------------------------------------------------------------------------


def import_library():
    """Import gfoperad from this checkout; return its modules by name."""
    importlib.import_module("gfoperad.cli")
    package_dir = os.path.join(SRC, "gfoperad")
    modules = {m: mod for m, mod in sys.modules.items() if m == "gfoperad" or m.startswith("gfoperad.")}
    if os.path.dirname(os.path.abspath(modules["gfoperad"].__file__)) != package_dir:
        raise ImportError(f"gfoperad imported from {modules['gfoperad'].__file__}, not {package_dir}")
    return modules


def prepare(workload, seed, workdir):
    """Import the library and write the inputs; return (modules, cases)."""
    return import_library(), workloads.build(workload, seed, workdir)


def setup_child(args, check, workdir) -> int:
    """``--setup-only``: import, write the inputs and run one cold operation.

    Prints whether the operation passed, the monotonic clock when this
    process's host clock started and when the operation ended, the nominal
    seconds in between, and the first host reference.  The clock is
    system-wide, so the parent can add the time before this process's clock
    started, counted from its own reading taken before starting the process.
    """
    clock, op_clock = HostClock(), WallClock()
    clock.start()
    try:
        modules, cases = prepare(args.workload, args.seed, workdir)
        ok = run_op(modules["gfoperad.cli"].main, cases[0], check, op_clock)[0]
        _, nominal = clock.stop(end=op_clock.t1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ok": ok, "start": clock.t0, "end": clock.t1, "nominal": nominal, "ref_first": clock.refs[0]}))
    return 0


def timed_setups(args, tally):
    """Set up ``SETUP_REPEATS`` times, each in a fresh interpreter.

    Each set-up is timed from just before its interpreter is started to the
    end of its cold operation.  Its process times itself at the nominal host
    speed; the interpreter's start-up before that is scaled by the first
    reference the process takes.  Returns (nominal seconds, raw seconds) of
    the set-ups that passed; a failed one adds to ``tally`` and to no timing.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    raw, nominal = [], []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        try:
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
            result = json.loads(child.stdout.strip().splitlines()[-1]) if child.returncode == 0 else {}
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"set-up child failed: {exc!r}", file=sys.stderr)
            result = {}
        ok = bool(result.get("ok"))
        tally.record(ok, 0.0)
        if ok:
            raw.append(result["end"] - t0)
            start_up = (result["start"] - t0) * REF_NOMINAL_S / result["ref_first"]
            nominal.append(start_up + result["nominal"])
    return nominal, raw


# -- provenance ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, timed_ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "timed_ops": timed_ops,
    }


# -- the run -----------------------------------------------------------------------


def timed_loop(seconds, step, tally, stride=1):
    """Call ``step(i)`` for i = 0, 1, ... until the operations in ``tally``
    have taken ``seconds`` at the nominal host speed.

    Counting nominal rather than wall time keeps the number of operations,
    and so the percentile the tail rule picks, the same whatever regime the
    host is in.  The loop also ends after ``MAX_WALL_FACTOR * seconds`` of wall
    time, and only after a multiple of ``stride`` calls.  Returns the elapsed
    wall time.
    """
    t0 = perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        if i % stride == 0 and (
            sum(tally.nominals) >= seconds or perf_counter() - t0 >= MAX_WALL_FACTOR * seconds
        ):
            return perf_counter() - t0


def end_to_end(setup_nominal, setup_raw, timed, elapsed):
    """The end-to-end metrics at the nominal host speed, and their raw values."""
    nominal = timed.nominal() or [0.0]
    ok_walls = timed.ok_walls()
    value, percentile, n = tail(nominal)
    metrics = {
        "ops_per_s": {"value": len(ok_walls) / sum(timed.nominals), "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(nominal), "unit": "s"},
        "op_s_tail": {"value": value, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_nominal or [0.0]), "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }
    walls = ok_walls or [0.0]
    detail = {
        "op_s_p50_samples": len(ok_walls),
        "op_s_tail_percentile": percentile,
        "op_s_tail_samples": n,
        "raw_wall": {
            "ops_per_s": len(ok_walls) / sum(timed.walls),
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail(walls)[0],
            "setup_s": statistics.median(setup_raw or [0.0]),
        },
        "setup_s_repeats": setup_raw,
        "setup_s_nominal_repeats": setup_nominal,
        "op_ok": timed.ok,
        "op_walls_s": timed.walls,
        "op_nominal_s": timed.nominals,
        "timed_phase_s": elapsed,
    }
    return metrics, detail


def traced_run(args, modules, cases, check, timed):
    """Alternate untraced and traced operations on each pool entry.

    Returns the per-layer metrics of the traced operations, with
    ``trace.overhead`` (traced over untraced median op time) and
    ``trace.top_span_share`` (median of each traced op's ``cli.main`` span over
    its wall time).
    """
    cli = modules["gfoperad.cli"]
    tracer = tracing.Tracer()
    clock = HostClock()

    def step(i):
        if i % 2:
            tracer.op = i
            tracer.install(modules)
        try:
            timed.record(*run_op(cli.main, cases[(i // 2) % len(cases)], check, clock))
        finally:
            tracer.restore()

    timed_loop(args.seconds, step, timed, stride=2)
    op_ids = [i for i, ok in enumerate(timed.ok) if ok and i % 2 == 1]
    untraced_ids = {i for i, ok in enumerate(timed.ok) if ok and i % 2 == 0}
    metrics = tracing.layer_metrics(tracer, op_ids, dict(enumerate(timed.scales())))
    tops = tracing.top_span_durations(tracer, set(op_ids))
    shares = [tops.get(i, 0.0) / timed.walls[i] for i in op_ids]
    traced_nominal = timed.nominal(set(op_ids)) or [0.0]
    untraced_nominal = timed.nominal(untraced_ids) or [1.0]
    metrics["trace.overhead"] = {
        "value": statistics.median(traced_nominal) / statistics.median(untraced_nominal),
        "unit": "ratio",
    }
    metrics["trace.top_span_share"] = {"value": statistics.median(shares or [0.0]), "unit": "ratio"}
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.jsonl.gz"), T_START)
    detail = {
        "traced_ops": len(op_ids),
        "untraced_ops": len(untraced_ids),
        "spans": len(tracer),
        "missing_targets": sorted(set(tracer.missing)),
        # The top span wraps the same call the wall time measures.
        "top_spans_match": all(0.99 <= s <= 1.0 for s in shares) and bool(shares),
        "trace_overhead": metrics["trace.overhead"]["value"],
    }
    return metrics, detail


def run_correct(failed: int, detail: dict) -> bool:
    """A run is correct if no operation failed and, when traced, every target
    was found and each op's top span matches its wall time.  A target the
    tracer cannot find would read as a layer that costs nothing."""
    return failed == 0 and detail.get("top_spans_match", True) and not detail.get("missing_targets")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gfoperad", "cli.py")):
        print(f"error: no gfoperad sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    check = workloads.OutputCheck(workloads.load_pins(PINS), args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, "work", f"{tag}-{os.getpid()}")
    if args.setup_only:
        return setup_child(args, check, workdir)
    setup_ops, timed = Tally(), Tally()
    record = {}
    try:
        if args.trace == 0:
            setup_nominal, setup_raw = timed_setups(args, setup_ops)
        modules, cases = prepare(args.workload, args.seed, workdir)
        gc.collect()
        cli = modules["gfoperad.cli"]
        if args.trace == 0:
            clock = HostClock()
            elapsed = timed_loop(
                args.seconds, lambda i: timed.record(*run_op(cli.main, cases[i % len(cases)], check, clock)), timed
            )
            metrics, record["detail"] = end_to_end(setup_nominal, setup_raw, timed, elapsed)
        else:
            metrics, record["detail"] = traced_run(args, modules, cases, check, timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = setup_ops.attempted + timed.attempted
    failed = setup_ops.failed + timed.failed
    correct = run_correct(failed, record["detail"])
    record.update(
        provenance=provenance(args, timed.attempted),
        correct=correct,
        attempted=attempted,
        failed=failed,
        fail_rate=failed / attempted,
        metrics=metrics,
    )
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    print("provenance " + json.dumps(record["provenance"]))
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
    print(f"{tag}: {summary} fail_rate={failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace == 0:
        detail = record["detail"]
        raw = " ".join(f"{k}={v:.6g}" for k, v in detail["raw_wall"].items())
        print(
            f"op_s_p50 over {detail['op_s_p50_samples']} ops; op_s_tail at "
            f"p{detail['op_s_tail_percentile']:.1f} of {detail['op_s_tail_samples']} ops; "
            f"raw wall-clock values: {raw}"
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
