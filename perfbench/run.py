"""tilewalks benchmark: one workload in one fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
One client runs the workload's operation list back to back (a closed loop,
single-threaded) until ``--seconds`` have passed, and checks every output.
The last line of stdout is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
first half is untraced and second half traced. See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import reference
import tracer

START = perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_SAMPLES = 9          # fresh interpreters per run; setup_s is their median
SETUP_CODE = "import tilewalks.cli as cli; cli.build_parser()"
RUN_BUDGET_S = 160.0       # no operation may run past this point of the run
CHILD_DEADLINE_S = 30.0
# Times are scaled to a machine on which calibrate() takes this long: its
# median on the 2-vCPU x86-64 machine, Python 3.11.7, where the benchmark
# was defined.
CALIBRATION_S = 0.040


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation passes its deadline."""


def _alarm(signum, frame):
    raise OpTimeout


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work.

    The machine is shared: its speed drifts by 20-30% over minutes, for the
    program and for this loop alike. Each time sample is therefore divided
    by calibrations taken right next to it and multiplied by CALIBRATION_S.
    The loop mixes what the package spends its time on: bytecode, dict
    updates, small-int and big-int arithmetic.
    """
    t0 = perf_counter()
    table, acc = {}, 0
    for i in range(150000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += (i * i) % 7
    big = 3 ** 20000
    for _ in range(20):
        big = big * 7 // 3
    return perf_counter() - t0


def _env():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _python(args, env, capture=False):
    """Run a fresh interpreter; returns (seconds from spawn to exit, stderr).

    The wait blocks in waitpid: subprocess's own timeout polls in steps of
    up to 50 ms, which would round every sample up to the next step. A
    SIGALRM deadline stops a child that hangs.
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE if capture else subprocess.DEVNULL,
                            text=True)
    signal.setitimer(signal.ITIMER_REAL, CHILD_DEADLINE_S)
    try:
        stderr = proc.stderr.read() if capture else ""
        proc.wait()
    except OpTimeout:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args} ran past {CHILD_DEADLINE_S} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if capture:
            proc.stderr.close()
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited with {proc.returncode}")
    return seconds, stderr


def _scaled_runs(args, env, capture=False):
    """(scale, seconds, stderr) of SETUP_SAMPLES fresh interpreters, after one
    warm-up run that writes the bytecode caches. Each scale uses the
    calibrations on either side of its run."""
    _python(args, env)
    calibrations, runs = [calibrate()], []
    for _ in range(SETUP_SAMPLES):
        seconds, stderr = _python(args, env, capture)
        calibrations.append(calibrate())
        runs.append((2 * CALIBRATION_S / (calibrations[-2] + calibrations[-1]), seconds, stderr))
    return runs


def setup_seconds(env):
    """Median time for a fresh interpreter to import the CLI and build its parser."""
    return statistics.median(
        scale * seconds for scale, seconds, _ in _scaled_runs(["-c", SETUP_CODE], env))


def import_seconds(env):
    """Median cumulative import time of tilewalks.cli and of tilewalks.oeis."""
    samples = [
        {mod: t * scale for mod, t in tracer.import_times(stderr).items()}
        for scale, _, stderr in _scaled_runs(["-X", "importtime", "-c", SETUP_CODE], env, True)
    ]
    return {
        f"{mod}.import_s": statistics.median(s.get(f"tilewalks.{mod}", 0.0) for s in samples)
        for mod in ("cli", "oeis")
    }


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


Outcome = namedtuple("Outcome", "op status detail size seconds cpu scale")


def execute(op, deadline):
    """Run and check one operation; status is ok, known-defect or failed.
    The times include the check and are unscaled, as is the deadline."""
    cpu0, t0 = _cpu(), perf_counter()
    status, detail, size = _outcome(op, deadline)
    return Outcome(op, status, detail, size, perf_counter() - t0, _cpu() - cpu0, 1.0)


def _outcome(op, deadline):
    deadline = min(deadline, max(0.1, RUN_BUDGET_S - (perf_counter() - START)))
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        problem = f"deadline of {deadline:g} s passed"
    except (Exception, SystemExit) as exc:
        problem = f"{type(exc).__name__}: {str(exc)[:160]}"
    else:
        problem = op.check(out)
        if problem is None:
            return "ok", "", len(out[1]) if isinstance(out, tuple) else 0
    if op.known_defect and op.defect_signature in problem:
        return "known-defect", problem, 0
    return "failed", problem, 0


def run_passes(ops, seconds, rng, spans=None):
    """Run shuffled passes over the operation list until `seconds` have passed.

    A calibration runs before each operation and after the last. An
    operation's scale is CALIBRATION_S over the mean of the two next to it;
    the pass's scale is CALIBRATION_S over the median of them all.
    """
    passes = []
    end = perf_counter() + seconds
    while not passes or (perf_counter() < end
                         and perf_counter() - START < RUN_BUDGET_S / 2):
        order = list(ops)
        rng.shuffle(order)
        gc.collect()
        if spans:
            spans.work.clear()
            spans.errors.clear()
            spans.max_bits = 0
            calls_before = dict(spans.calls)
        calibrations, outcomes = [calibrate()], []
        for op in order:
            outcome = execute(op, op.deadline * calibrations[-1] / CALIBRATION_S)
            calibrations.append(calibrate())
            scale = 2 * CALIBRATION_S / (calibrations[-2] + calibrations[-1])
            outcomes.append(outcome._replace(scale=scale))
        record = {
            "wall": sum(o.seconds for o in outcomes),
            "scale": CALIBRATION_S / statistics.median(calibrations),
            "outcomes": outcomes,
        }
        if spans:
            record["self"], record["spans"] = spans.drain()
            record["work"] = dict(spans.work)
            record["errors"] = dict(spans.errors)
            record["max_bits"] = spans.max_bits
            record["calls"] = {k: v - calls_before.get(k, 0) for k, v in spans.calls.items()}
        passes.append(record)
    return passes


def op_report(passes):
    """Per-op lines for the log, and (attempted, counts by status)."""
    lines, totals = [], {"ok": 0, "known-defect": 0, "failed": 0}
    by_label = {}
    for record in passes:
        for o in record["outcomes"]:
            by_label.setdefault(o.op.label, (o.op, []))[1].append((o.status, o.detail, o.seconds))
    for label, (op, results) in sorted(by_label.items()):
        counts = {s: sum(1 for r, _, _ in results if r == s) for s in totals}
        for s in totals:
            totals[s] += counts[s]
        seconds = statistics.median(t for _, _, t in results)
        detail = next((d for r, d, _ in results if r != "ok"), "")
        note = f"  [{op.known_defect}]" if op.known_defect else ""
        lines.append(f"op {label:<42} {seconds:8.3f} s  ok {counts['ok']:>3}  known-defect "
                     f"{counts['known-defect']:>3}  failed {counts['failed']:>3}"
                     f"{note}{'  ' + detail if detail else ''}")
    return lines, sum(totals.values()), totals


def per_op_total(passes, field):
    """Sum over the operations of each one's median scaled time."""
    by_label = {}
    for record in passes:
        for o in record["outcomes"]:
            by_label.setdefault(o.op.label, []).append(getattr(o, field) * o.scale)
    return sum(statistics.median(times) for times in by_label.values())


def layer_metrics(passes, plain, imports):
    """Per-layer metrics: scaled times and counts, as means per traced pass."""
    def mean(get, records=passes):
        return sum(get(p) for p in records) / len(records)

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (mean(lambda p: p["self"].get(layer, 0.0) * p["scale"]), "s")
        metrics[f"{layer}.errors"] = (mean(lambda p: p["errors"].get(layer, 0)), "count")
    work = {key: mean(lambda p: p["work"].get(key, 0))
            for key in ("walks.tilings", "walks.column_steps", "boards.tilings_built",
                        "recurrences.terms", "render.svgs", "render.tilings")}
    calls = {name: mean(lambda p: p["calls"].get(f"qsqrt5.QSqrt5.{name}", 0))
             for name in ("floor", "sign")}
    walks_s = metrics["walks.self_s"][0]
    traced_wall = mean(lambda p: p["wall"] * p["scale"])
    metrics.update({
        "walks.tilings": (work["walks.tilings"], "count"),
        "walks.column_steps": (work["walks.column_steps"], "count"),
        "walks.us_per_tiling": (
            1e6 * walks_s / work["walks.tilings"] if work["walks.tilings"] else 0.0, "us"),
        "boards.tilings_built": (work["boards.tilings_built"], "count"),
        "recurrences.terms": (work["recurrences.terms"], "count"),
        "recurrences.max_bits": (max(p["max_bits"] for p in passes), "bits"),
        "qsqrt5.floor_calls": (calls["floor"], "count"),
        "qsqrt5.sign_calls": (calls["sign"], "count"),
        "render.tilings_per_svg": (
            work["render.tilings"] / work["render.svgs"] if work["render.svgs"] else 0.0,
            "count"),
        "cli.output_bytes": (mean(lambda p: sum(o.size for o in p["outcomes"])), "bytes"),
        "ops.known_defect_failures": (mean(lambda p: sum(
            1 for o in p["outcomes"] if o.status == "known-defect")), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.self_sum_s": (mean(lambda p: sum(p["self"].values()) * p["scale"]), "s"),
        "trace.overhead_s": (traced_wall - mean(lambda p: p["wall"] * p["scale"], plain), "s"),
        "trace.spans": (mean(lambda p: p["spans"]), "count"),
    })
    for name, value in imports.items():
        metrics[name] = (value, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tilewalks" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC.name}/tilewalks next to "
              f"{HERE.name}/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tilewalks import oeis

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    env = _env()
    if args.trace:
        imports = import_seconds(env)
    else:
        setup_s = setup_seconds(env)

    rng = random.Random(args.seed)
    ref = reference.Reference(oeis.load_fixture)
    with tempfile.TemporaryDirectory(prefix=".out-", dir=HERE) as tmp:
        ops = workloads.build(args.workload, rng, ref, Path(tmp))
        if args.trace:
            plain = run_passes(ops, args.seconds / 2, rng)
            recorder = tracer.Tracer()
            recorder.install()
            passes = run_passes(ops, args.seconds / 2, rng, recorder)
        else:
            plain = []
            passes = run_passes(ops, args.seconds, rng)

    lines, attempted, totals = op_report(plain + passes)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{len(ops)} operations per pass; unscaled seconds below")
    for line in lines:
        print(line)
    print("pass wall_s:", " ".join(f"{p['wall']:.3f}" for p in passes))
    print("pass scale: ", " ".join(f"{p['scale']:.3f}" for p in passes))
    correct = totals["failed"] == 0
    if args.trace:
        metrics = layer_metrics(passes, plain, imports)
        self_sum, wall = metrics["trace.self_sum_s"][0], metrics["trace.wall_s"][0]
        if self_sum > wall:
            print(f"trace: layer self times {self_sum:.6f} s exceed the pass {wall:.6f} s")
            correct = False
        for name, (moves, workload, kind) in tracer.LAYER_METRICS.items():
            value, unit = metrics[name]
            print(f"layer {name:<28} {value:>16.6f} {unit:<6} {kind:<17} "
                  f"-> {moves} on {workload}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (per_op_total(passes, "seconds"), "s"),
            "cpu_s": (per_op_total(passes, "cpu"), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ops_ok_frac": (totals["ok"] / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
