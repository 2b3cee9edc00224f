"""gridwords benchmark: one workload per process, from a seed.

    python3 bench/run.py --workload walk|shapes|tiles --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it times whole rounds of the
workload's operations (at least three) for at least S seconds and prints
the end-to-end metrics that BENCHMARK.json names, with times rescaled to a
reference machine speed (see pace.py); with --trace 1 it does so
for S/2 seconds untraced, then S/2 seconds with spans around every public
gridwords function, and prints the per-layer metrics.  Outputs are checked
outside the timed region.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import pace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("walk", "shapes", "tiles")
SETUP_SAMPLES = 7  # this process plus six fresh set-up-only processes
MIN_ROUNDS = 3  # so that a per-input median can outvote one slow round
PROBLEMS_SHOWN = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up seconds, and exit")
    return p.parse_args(argv)


class Loop:
    """Closed-loop run over a workload's inputs in whole rounds.

    A round runs every input once, in order.  The loop runs at least
    MIN_ROUNDS rounds and stops at the end of the round that uses up the
    time budget, so every metric covers whole rounds and the mix of inputs
    is the same in every run.  The speed gauge is read before the first op,
    after every GAUGE_EVERY_S seconds of op time and after the last op.
    """

    def __init__(self, work):
        self.work = work
        self.durations = []
        self.op_inputs = []
        self.letters = 0
        self.output_bytes = 0
        self.input_letters = {}  # input index -> letters of one op on it
        self.first = {}  # input index -> outcome of its first successful op
        self.status = []  # per op: None, or why it failed on its own
        self.gauges = []  # (ops timed before it, gauge seconds) per reading
        self._since_gauge = 0.0

    def run(self, seconds, tracer=None, watch=None, min_rounds=MIN_ROUNDS):
        """Time whole rounds of ops for at least `seconds` of op time."""
        inputs = self.work.inputs
        timed = 0.0
        self._read_gauge()
        for rounds in itertools.count(1):
            for k, inp in enumerate(inputs):
                dt = self._op(k, inp, tracer, watch)
                timed += dt
                self._since_gauge += dt
                if self._since_gauge >= pace.GAUGE_EVERY_S:
                    self._read_gauge()
            if rounds >= min_rounds and timed >= seconds:
                if self._since_gauge:
                    self._read_gauge()
                return self

    def _read_gauge(self):
        self.gauges.append((len(self.durations), pace.gauge()))
        self._since_gauge = 0.0

    def scaled_durations(self):
        """Each op's time at the reference speed: its wall-clock time times
        REFERENCE_S over the mean of the gauge readings before and after it."""
        scaled = []
        for (start, before), (stop, after) in zip(self.gauges, self.gauges[1:]):
            scale = 2 * pace.REFERENCE_S / (before + after)
            scaled += [dt * scale for dt in self.durations[start:stop]]
        return scaled

    def _op(self, k, inp, tracer, watch):
        if self.work.fresh_heap:
            gc.collect()  # as if each op ran in a process of its own
        i = len(self.durations)
        if tracer:
            tracer.op = i
        if watch:
            watch.active = True
        error = None
        t0 = time.perf_counter()
        try:
            raw = self.work.run(inp)
        except (Exception, SystemExit) as exc:  # a failed op, not a failed run
            error = f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if watch:
            watch.active = False
        self.durations.append(dt)
        self.op_inputs.append(k)
        if error is None:
            outcome = self.work.outcome(raw)
            self.input_letters[k] = self.work.letters(inp, outcome)
            self.letters += self.input_letters[k]
            self.output_bytes += self.work.output_bytes(outcome)
            if k not in self.first:
                self.first[k] = outcome
            elif outcome != self.first[k]:
                error = "differs from the first op on the same input"
        self.status.append(error)
        return dt

    @property
    def seconds(self):
        return sum(self.durations)

    def _check(self, k):
        try:
            return self.work.check(self.work.inputs[k], self.first[k])
        except Exception as exc:  # an outcome the check cannot read is wrong
            return f"check raised {exc!r}"

    def failures(self):
        """Check each input's first outcome; return (failed ops, problems)."""
        inputs = self.work.inputs
        bad = {k: why for k in self.first if (why := self._check(k))}
        problems = [f"op {i} ({self.work.category(inputs[k])}): {why}"
                    for i, (k, why) in enumerate(zip(self.op_inputs, self.status)) if why]
        problems += [f"input {k} ({self.work.category(inputs[k])}): {why}"
                     for k, why in sorted(bad.items())]
        failed = sum(1 for k, why in zip(self.op_inputs, self.status) if why or k in bad)
        return failed, problems


def quantile(values, q):
    """The q-quantile of values, interpolated between samples (inclusive
    method: with few samples it does not reach out to the maximum)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def setup_samples(args, own):
    """Set-up seconds of this process and of fresh set-up-only processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def input_latencies(loop, durations):
    """Each input's median latency over the rounds of a run."""
    latencies = {}
    for k, dt in zip(loop.op_inputs, durations):
        latencies.setdefault(k, []).append(dt)
    return [statistics.median(v) for v in latencies.values()]


def end_to_end(loop, durations, setup_s):
    """Rates and quantiles of one round in which each input takes its
    median latency: the mix is the workload's, the noise is damped."""
    latencies = input_latencies(loop, durations)
    round_s = sum(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / round_s,
        "letters_per_s": sum(loop.input_letters.values()) / round_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def detect_probes(detect, words):
    """GC-off ns per step and tracemalloc peak bytes per step of detection."""
    def steps(word, hit):
        return hit[0] if hit else len(word)

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        hits = [detect(w) for w in words]
        elapsed = time.perf_counter_ns() - t0
    finally:
        gc.enable()
    gc_off = elapsed / sum(map(steps, words, hits))
    peak = walked = 0
    for w in sorted(words, key=len):  # shortest first, up to 2^18 steps
        tracemalloc.start()
        try:
            hit = detect(w)
            peak += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        walked += steps(w, hit)
        if walked >= 1 << 18:
            break
    return gc_off, peak / walked


def traced_run(args, work, gridwords, tracing):
    # Per-layer figures are totals over spans, not per-input medians, so
    # one round per phase is enough; it keeps a slow walk run within limits.
    base = Loop(work).run(args.seconds / 2, min_rounds=1)
    tracer = tracing.Tracer()
    tracer.install(gridwords, tracing.expected_functions())
    loop = Loop(work)
    try:
        with tracing.GcWatch() as watch:
            loop.run(args.seconds / 2, tracer, watch, min_rounds=1)
    finally:
        tracer.uninstall()
    n = len(loop.durations)
    scaling = {"walk": "walk", "tiles": "search"}.get(args.workload)
    metrics = tracing.layer_metrics(
        tracer, n, lambda i: work.category(work.inputs[loop.op_inputs[i]]), scaling)
    metrics["gc.pause_s"] = watch.pause_s / n
    metrics["gc.collections"] = watch.collections / n
    metrics["cli.output_bytes_per_letter"] = loop.output_bytes / loop.letters
    # Both phases at the reference speed, so that a slow spell in one of
    # them does not pass for the cost of tracing.
    untraced = base.letters / sum(base.scaled_durations())
    traced = loop.letters / sum(loop.scaled_durations())
    metrics["trace.overhead_letters_per_s"] = untraced - traced
    words = work.probe_words or [out[0] for out in loop.first.values()]
    gc_off, peak = detect_probes(gridwords.detect_first_intersection, words)
    metrics[f"{tracing.DETECT}.gc_off_ns_per_step"] = gc_off
    metrics[f"{tracing.DETECT}.peak_bytes_per_step"] = peak
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    spans = os.path.join(ROOT, ".bench_work", f"trace-{args.workload}-{args.seed}.tsv")
    tracer.write(spans)
    print(f"spans: {len(tracer.fid)} written to {os.path.relpath(spans, ROOT)}")
    print(f"tracing overhead: {metrics['trace.overhead_letters_per_s']:.1f} letters/s "
          f"({untraced:.1f} untraced, {traced:.1f} traced, at the reference speed)")
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    return [base, loop], metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gridwords", "__init__.py")):
        print("error: src/gridwords not found; run from a gridwords checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        import gridwords
        import tracing
        from workloads import WORKLOADS as builders

        work = builders[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        setup_s *= pace.REFERENCE_S / pace.gauge()
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            loops, metrics = traced_run(args, work, gridwords, tracing)
            wanted = spec["per_layer"]
        else:
            loop = Loop(work).run(args.seconds)
            setup_s = statistics.median(setup_samples(args, setup_s))
            metrics = end_to_end(loop, loop.scaled_durations(), setup_s)
            wall = end_to_end(loop, loop.durations, setup_s)
            speed = pace.REFERENCE_S / statistics.median(g for _, g in loop.gauges)
            print(f"unscaled wall clock, at {speed:.3f}x the reference speed: " + ", ".join(
                f"{name} {wall[name]:.6g}" for name in ("ops_per_s", "letters_per_s",
                                                        "op_p50_ms", "op_p90_ms")))
            loops = [loop]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.durations) for loop in loops)
    failed, problems = 0, []
    for loop in loops:
        f, p = loop.failures()
        failed += f
        problems += p
    for line in problems[:PROBLEMS_SHOWN]:
        print("check failed: " + line, file=sys.stderr)
    main_loop = loops[-1]
    print(f"{args.workload} seed={args.seed}: {attempted} ops; {len(main_loop.durations)} "
          f"timed over {main_loop.seconds:.2f} s, in {len(main_loop.durations) // len(work.inputs)}"
          f" rounds of {len(work.inputs)} inputs; "
          f"failed_ratio={failed / attempted:.4f} ({failed}/{attempted})")
    by_category = {}
    for k, dt in zip(main_loop.op_inputs, main_loop.durations):
        by_category.setdefault(work.category(work.inputs[k]), []).append(dt)
    print("  median wall-clock ms by input kind: " + ", ".join(
        f"{c} {statistics.median(v) * 1e3:.4g} (n={len(v)})" for c, v in sorted(by_category.items())))
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
