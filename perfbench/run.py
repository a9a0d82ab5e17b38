"""povmlearn benchmark: drive ``povmlearn.cli.main`` in process and measure it.

    python3 perfbench/run.py --workload run-deep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every op passed its checks.
README.md explains the workloads, the metrics and the noise handling.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checker import STATUSES, Verdict, check_oracle, check_trials, parse_rows
from hostspeed import REFERENCE_S, STARTUP_REFERENCE_S, time_reference
from tracer import TRUTH, WRAPS, Tracer
from workloads import LEARN_AXES, WORKLOADS, Invocation, Sizes, repetition

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_INTERPRETERS = 7
# Repetitions in the fixed argv set of a traced run.
TRACED_REPETITIONS = 2
# The tail is read at p90 on every run, so that parent and change report the
# same percentile although their invocation counts differ; the sizes in
# workloads.Sizes keep well over 100 invocations, and so at least ten beyond
# p90, in a 15 s run.  Lower percentiles are fallbacks for shorter runs.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
SCENARIOS = tuple(LEARN_AXES)

# Fresh interpreters for setup_s.  Each prints the monotonic clock, which
# the parent shares, once it is ready: the program with its parser built, or
# the baseline with only the heaviest dependency imported.
_SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import povmlearn.cli; "
    "povmlearn.cli.build_parser(); print(time.perf_counter(), povmlearn.cli.__file__)"
)
_BASELINE_CHILD = "import argparse, time, numpy; print(time.perf_counter())"


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_program():
    """Import povmlearn.cli and CSV_COLUMNS from this checkout's src/."""
    if not (SRC / "povmlearn" / "cli.py").is_file():
        raise SetupError(f"no povmlearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import povmlearn.cli
    from povmlearn.experiment import CSV_COLUMNS

    if Path(povmlearn.cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported povmlearn from {povmlearn.cli.__file__}, not from {SRC}")
    return povmlearn.cli, tuple(CSV_COLUMNS)


@dataclass
class Call:
    """One timed invocation and what came of it."""

    inv: Invocation
    wall: float
    cpu: float
    exit_code: int
    output: bytes
    verdict: Verdict = field(default_factory=Verdict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output).hexdigest()


def invoke(cli, inv: Invocation, columns: tuple[str, ...]) -> Call:
    """Call ``cli.main`` with the invocation's argv, then check its output.

    Only the call itself is timed.  ``cli.main`` is looked up at call time
    so that a traced run sees its wrapper.
    """
    if inv.out is not None:
        inv.out.unlink(missing_ok=True)  # a stale file must not pass for this call's output
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()) as errors:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            exit_code = cli.main(list(inv.argv))
        except Exception:  # a crash is a failed op, reported and counted
            traceback.print_exc()
            exit_code = -1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if inv.out is not None and exit_code == 0:
        output = inv.out.read_bytes() if inv.out.exists() else b""
    else:
        output = captured.getvalue().encode()
    call = Call(inv, wall, cpu, exit_code, output)
    text = output.decode(errors="replace")
    if inv.command == "oracle-check":
        call.verdict = check_oracle(text, inv, exit_code)
    else:
        call.verdict = check_trials(text, inv, columns, exit_code)
    if call.verdict.failed:
        print(f"{inv.command} {' '.join(inv.argv)}: {call.verdict.problems}; stderr: "
              f"{errors.getvalue().strip()[-500:]}", file=sys.stderr)
    return call


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the first listed
    percentile with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def _spawn(code: str, *args: str) -> tuple[float, str]:
    """Seconds from spawning an interpreter to the clock reading it prints,
    and whatever it prints after that reading."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"set-up interpreter failed: {done.stderr.strip()[-500:]}")
    ready, _, rest = done.stdout.strip().partition(" ")
    return float(ready) - start, rest


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """Raw and reference-speed seconds from spawning a fresh interpreter to
    an imported povmlearn.cli with its parser built.

    Start-up is file and import work, which tracks host speed differently
    from the reference loop, so each sample is scaled by the baseline
    interpreters spawned just before and after it instead.
    """
    raw, scaled = [], []
    baseline = _spawn(_BASELINE_CHILD)[0]
    for _ in range(count):
        seconds, origin = _spawn(_SETUP_CHILD, str(SRC))
        if Path(origin).resolve().parent.parent != SRC:
            raise SetupError(f"set-up interpreter imported povmlearn from {origin}")
        after = _spawn(_BASELINE_CHILD)[0]
        raw.append(seconds)
        scaled.append(seconds * STARTUP_REFERENCE_S / (0.5 * (baseline + after)))
        baseline = after
    return raw, scaled


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, call: Call) -> None:
        self.attempted += call.inv.ops
        self.failed += call.verdict.failed


def run_untraced(cli, columns, workload, seed, seconds, out_dir, sizes=Sizes()):
    """Closed loop of repetitions for `seconds`; returns metrics and notes.

    The host-speed reference loop runs before the first timed invocation
    and after each one.  An invocation's wall and CPU times are scaled by
    REFERENCE_S over the mean of the two reference runs around it: the host
    has slow bursts shorter than one invocation, which wider windows blur.
    """
    tally = Tally()
    first = [invoke(cli, inv, columns) for inv in repetition(workload, seed, 0, out_dir, sizes)]
    for call in first:  # warm-up: checked and counted, not timed
        tally.add(call)
    records = []
    refs = [time_reference()]
    start = time.perf_counter()
    k = 1
    while k == 1 or time.perf_counter() - start < seconds:
        for inv in repetition(workload, seed, k, out_dir, sizes):
            call = invoke(cli, inv, columns)
            refs.append(time_reference())
            tally.add(call)
            # Keep the record, not the output, so peak RSS stays the program's.
            records.append({"repetition": k, "argv": list(inv.argv), "ops": inv.ops, "wall_s": call.wall,
                            "cpu_s": call.cpu, "ref_wall_s": refs[-1][0], "ref_cpu_s": refs[-1][1],
                            "exit_code": call.exit_code, "failed": call.verdict.failed, "sha256": call.digest})
        k += 1

    reps: dict[int, list[float]] = {}  # repetition -> [ops, scaled wall, scaled cpu, raw wall]
    scaled = []
    for i, rec in enumerate(records):
        (wall_before, cpu_before), (wall_after, cpu_after) = refs[i], refs[i + 1]
        scale_w = REFERENCE_S / (0.5 * (wall_before + wall_after))
        scale_c = REFERENCE_S / (0.5 * (cpu_before + cpu_after))
        scaled.append(rec["wall_s"] * scale_w)
        acc = reps.setdefault(rec["repetition"], [0, 0.0, 0.0, 0.0])
        acc[0] += rec["ops"]
        acc[1] += rec["wall_s"] * scale_w
        acc[2] += rec["cpu_s"] * scale_c
        acc[3] += rec["wall_s"]

    ops_per_s = statistics.median(ops / wall for ops, wall, _, _ in reps.values())
    raw_ops_per_s = statistics.median(ops / raw for ops, _, _, raw in reps.values())
    cpu_us = statistics.median(cpu / ops * 1e6 for ops, _, cpu, _ in reps.values())
    tail_s, pct, beyond = tail(scaled)
    raw_tail_s = tail([rec["wall_s"] for rec in records])[0]
    notes = [
        f"input: {' + '.join(f'{c.inv.ops} {c.inv.command} ops' for c in first)} per repetition; "
        f"{len(reps)} timed repetitions, {len(records)} invocations",
        f"host speed: reference loop median {statistics.median(w for w, _ in refs) * 1e3:.3f} ms "
        f"against {REFERENCE_S * 1e3:.3f} ms; raw figures are at this host's speed",
        f"ops_per_s           {ops_per_s:12.2f} ops/s  median over repetitions (raw {raw_ops_per_s:.2f})",
        f"invocation_ms.tail  {tail_s * 1e3:12.3f} ms     p{pct:g} of {len(records)} invocations, "
        f"{beyond} beyond it (raw {raw_tail_s * 1e3:.3f})",
        f"cpu_us_per_op       {cpu_us:12.3f} us     median over repetitions",
    ] + [f"sha256 of repetition 0, {c.inv.scenario or c.inv.command}: {c.digest}" for c in first]
    metrics = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "invocation_ms.tail": (tail_s * 1e3, "ms"),
        "cpu_us_per_op": (cpu_us, "us"),
    }
    return metrics, notes, tally, records


def traced_pass(cli, columns, invocations) -> tuple[list[Call], Tracer]:
    """Run the invocations once with every WRAPS name wrapped."""
    tracer = Tracer()
    tracer.install()
    try:
        calls = []
        for index, inv in enumerate(invocations):
            tracer.begin(index)
            calls.append(invoke(cli, inv, columns))
    finally:
        tracer.uninstall()
    return calls, tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(calls: list[Call], tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts of one traced pass; they repeat exactly for a seed."""
    totals = tracer.totals()
    count = lambda name: totals.get(name, {}).get("calls", 0)
    trial_calls = [c for c in calls if c.inv.command != "oracle-check"]
    rows = sum(c.inv.rows for c in trial_calls)
    records = [rec for c in trial_calls if not c.verdict.failed for rec in parse_rows(c.output.decode(), c.inv.fmt)[1]]
    statuses = {tag: sum(r["status"] == tag for r in records) for tag in STATUSES}
    z = [abs(r["z_score"]) for r in records if r["z_score"] is not None]
    metrics = {f"{name}.calls": (count(name), "count") for name, _, _ in WRAPS}
    metrics.update({f"experiment.status.{tag}": (n, "count") for tag, n in statuses.items()})
    metrics.update({
        "ensemble.generators_per_op": (_ratio(count("ensemble.RngStream.generator"), rows), "count"),
        "truth.repeat_frac": (_ratio(tracer.repeats, sum(count(name) for name in TRUTH)), "ratio"),
        "learn.qubits": (sum(r["shots_learn"] for r in records), "count"),
        "evaluate.qubits": (sum(r["shots_holdout"] for r in records), "count"),
        "evaluate.max_abs_z": (max(z, default=0.0), "ratio"),
        "evaluate.z_gt5": (sum(v > 5.0 for v in z), "count"),
        "experiment.ok_frac": (_ratio(statuses["ok"], len(records)), "ratio"),
        "render.bytes": (sum(len(c.output) for c in trial_calls), "bytes"),
        "trace.absent_callables": (len(tracer.absent), "count"),
    })
    return metrics


def pass_times(tracer: Tracer, invocations: list[Invocation]) -> dict[str, tuple[float, str]]:
    """Per-layer times of one traced pass."""
    totals = tracer.totals()
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    times = {}
    for name, _, _ in WRAPS:
        agg = totals.get(name, zero)
        times[f"{name}.self_ms"] = (agg["self_s"] * 1e3, "ms")
        times[f"{name}.us_per_call"] = (_ratio(agg["incl_s"], agg["calls"]) * 1e6, "us")
    times["truth.self_ms"] = (sum(totals.get(name, zero)["self_s"] for name in TRUTH) * 1e3, "ms")
    rows = sum(inv.rows for inv in invocations)
    times["render.us_per_row"] = (_ratio(totals.get("experiment.render_results", zero)["incl_s"], rows) * 1e6, "us")
    spent = dict.fromkeys(SCENARIOS, 0.0)
    for name, start, end, _, index in tracer.spans:
        if name == "experiment.run_experiment":
            spent[invocations[index].scenario] += end - start
    for scenario in SCENARIOS:
        trials = sum(inv.rows for inv in invocations if inv.scenario == scenario)
        times[f"experiment.us_per_trial.{scenario}"] = (_ratio(spent[scenario], trials) * 1e6, "us")
    return times


def run_traced(cli, columns, workload, seed, seconds, out_dir, sizes=Sizes()):
    """Alternate untraced and traced passes over one fixed argv set.

    Counts come from the first traced pass; times are medians over the
    traced passes; the overhead is the median ratio of time spent in
    ``cli.main`` by adjacent traced and untraced passes.
    """
    invocations = [inv for k in range(TRACED_REPETITIONS) for inv in repetition(workload, seed, k, out_dir, sizes)]
    for inv in invocations:  # warm-up
        invoke(cli, inv, columns)
    tally = Tally()
    times, ratios = [], []
    first = digests = None
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        plain = [invoke(cli, inv, columns) for inv in invocations]
        traced, tracer = traced_pass(cli, columns, invocations)
        ratios.append(sum(c.wall for c in traced) / sum(c.wall for c in plain))
        times.append(pass_times(tracer, invocations))
        # Reruns of one argv must be byte-identical, traced or not.
        digests = digests or [c.digest for c in plain]
        for expected, call in zip(digests * 2, plain + traced):
            if call.digest != expected and not call.verdict.failed:
                call.verdict.flag("output differs from the first run of the same argv", call.inv.ops)
            tally.add(call)
        first = first or (traced, tracer)
    metrics = count_metrics(*first)
    for name, (_, unit) in times[0].items():
        metrics[name] = (statistics.median(t[name][0] for t in times), unit)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    write_spans(out_dir / "spans.csv", first[1])
    notes = [
        f"traced argv set: {len(invocations)} invocations, {sum(i.ops for i in invocations)} ops; "
        f"{len(times)} traced and {len(times)} untraced passes",
        f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:.4f} (median traced/untraced wall - 1)",
        f"absent callables: {', '.join(first[1].absent) or 'none'}",
    ]
    return metrics, notes, tally


def write_spans(path: Path, tracer: Tracer) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write("name,start_us,end_us,parent,invocation\n")
        for name, start, end, parent, inv in tracer.spans:
            fh.write(f"{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent},{inv}\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark povmlearn through its CLI entry point.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, columns = load_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"povmlearn benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {'on' if args.trace else 'off'}")

    if args.trace:
        metrics, notes, tally = run_traced(cli, columns, args.workload, args.seed, args.seconds, out_dir)
    else:
        try:
            setup_raw, setup_scaled = measure_setup(SETUP_INTERPRETERS)
        except (SetupError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        metrics, notes, tally, records = run_untraced(cli, columns, args.workload, args.seed, args.seconds, out_dir)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        notes += [
            f"setup_s             {metrics['setup_s'][0]:12.4f} s      median of {len(setup_scaled)} fresh "
            f"interpreters (raw {statistics.median(setup_raw):.4f})",
            f"peak_rss_mib        {metrics['peak_rss_mib'][0]:12.2f} MiB",
        ]
        with open(out_dir / "invocations.jsonl", "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
    notes.append(f"fail_frac           {_ratio(tally.failed, tally.attempted):12.6f} ratio  "
                 f"{tally.failed} of {tally.attempted} ops failed their checks")
    notes.append(f"records: {out_dir.relative_to(ROOT)}")
    print("\n".join(notes))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
