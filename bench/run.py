"""Benchmark of gordian's certify, general and torus workloads.

    python3 bench/run.py --workload general --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; gordian is imported from its src/ directory.
One caller in one thread drives each workload as a closed loop: the next item
starts when the previous one has finished.  The last line of standard output
is a JSON object {correct, attempted, failed, metrics}; an item fails when it
raises or its oracle, run outside the timed region, rejects its output.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from a pass over a fixed,
seed-determined set of items with span wrappers installed (see spans.py).
Spans are written to .bench_out/ at the root of the checkout.

Times are reported at reference speed.  On a shared host the speed of
interpreted code drifts with the load of other tenants: a fixed Fraction loop
was seen to take anywhere between 1x and 2x its fastest time, in spells that
last from seconds to minutes, so runs of the same code spread far more than a
change to gordian would move them.  After every item, outside the timed
region, the benchmark times reference_work(), a fixed loop of Fraction
arithmetic that does not touch gordian.  Each item's seconds are multiplied
by REFERENCE_S over the median reference time of the items around it, which
gives the item's time on a CPU on which reference_work() takes REFERENCE_S.
Set-up rounds are scaled the same way.  The raw wall-clock figures are
printed to standard error next to the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up (fresh import of gordian plus the workload's warm-up items) is
# repeated this many times per run and reported as the median.
SETUP_ROUNDS = 5
# Timed items per untraced run, so that at least 10 lie beyond the 95th percentile.
MIN_ITEMS = 200
# Seconds reference_work() takes on the reference CPU.  On a shared 2-vCPU
# x86-64 cloud host it took 85-95 us in faster spells and 140-170 us in slower ones.
REFERENCE_S = 100e-6
# Each item is scaled by the median reference time of the items up to this
# many places before and after it.
REFERENCE_WINDOW = 10
# Reference timings before and after each set-up round.
SETUP_PROBES = 5

# Per-layer metric -> span name whose calls it counts.
CALL_COUNTS = {
    "sturm.peval.calls": "sturm.peval",
    "sturm.refine_root.calls": "sturm.refine_root",
    "sturm.count_roots.calls": "sturm.count_roots",
    "sturm.split_point.calls": "sturm.split_point",
    "sturm.pgcd.calls": "sturm.pgcd",
    "sturm.sturm_chain.calls": "sturm.sturm_chain",
    "laurent.to_chebyshev.calls": "laurent.to_chebyshev",
    "laurent.LaurentPoly.coeff.calls": "laurent.LaurentPoly.coeff",
    "laurent.torus_factorization.calls": "laurent.torus_factorization",
    "circle.generator_sign_at.calls": "circle.generator_sign_at",
    "circle.independence_witness.calls": "circle.independence_witness",
    "circle.generator_breakpoints.calls": "circle.generator_breakpoints",
    "circle.as_turn.calls": "circle.as_turn",
    "signature.angle_cmp.calls": "signature.angle_cmp",
    "signature.StepFun.calls": "signature.StepFun.__init__",
    "signature.eval_formal_signature.calls": "signature.eval_formal_signature",
    "knots.p_sequence.calls": "knots.p_sequence",
    "knots.alexander.calls": "knots.alexander",
    "knots.sup_signature_difference.calls": "knots.sup_signature_difference",
}
# Per-layer metric -> span name whose self time it reports.
SELF_TIMES = {
    "signature.sup_distance.self_s": "signature.sup_distance",
    "graph.certify_pair.self_s": "graph.certify_pair",
    "graph.verify_certificate.self_s": "graph.verify_certificate",
    "graph.verify_detour.self_s": "graph.verify_detour",
}


class LibraryMissing(Exception):
    """The checkout holds no gordian sources to benchmark."""


def load_gordian():
    """Import a fresh copy of gordian from the checkout, dropping any earlier one."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "gordian" or n.startswith("gordian.")]:
        del sys.modules[name]
    package = importlib.import_module("gordian")
    if Path(package.__file__).resolve().parent != SRC / "gordian":
        raise LibraryMissing(f"imported gordian from {package.__file__}, not from {SRC}")
    return package


def generate(workload: str, seed: int, count: int, warmup: int) -> dict[str, list[dict]]:
    """Warm-up and timed inputs from a child process, so that sympy and mpmath
    never load into this one."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--count", str(count), "--warmup", str(warmup)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout)


def reference_work() -> Fraction:
    """Fixed pure-Python Fraction arithmetic, independent of gordian: the
    probe of how fast the host runs interpreted code at the moment."""
    x = Fraction(1, 3)
    for i in range(1, 17):
        x = (x * Fraction(i, i + 1) + Fraction(1, 7)) % 5
    return x


def probe() -> float:
    """Seconds one reference_work() takes now.  The collector is off, so the
    size of gordian's heap does not leak into the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(times, probes, window: int = REFERENCE_WINDOW) -> list[float]:
    """Each item's seconds on the reference CPU: scaled by REFERENCE_S over
    the median probe of the items around it."""
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, i - window) : i + window + 1])
        for i, t in enumerate(times)
    ]


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, wl, i: int, out, error: Exception | None) -> None:
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = wl.check(i, out)
            except Exception as exc:  # an oracle that cannot decide counts as a failure
                problems = [f"oracle raised {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"item {i}: {p}" for p in problems[: max(0, 10 - len(self.messages))])


def drive(wl, done, after, tracer=None) -> tuple[array, array]:
    """Run items 0, 1, ... until done(count, timed_seconds) holds; returns
    each item's timed seconds and the probe() taken after it.  Only wl.run
    is timed: after(i, output, exception) and the probe run outside the timed
    region, and an item that raises is passed on as its exception while the
    run goes on."""
    times = array("d")
    probes = array("d")
    total = 0.0
    clock = time.perf_counter
    i = 0
    while not done(i, total):
        if tracer is not None:
            tracer.set_item(i)
        out = error = None
        t0 = clock()
        try:
            out = wl.run(i)
        except Exception as exc:  # recorded as a failed item by after()
            error = exc
        elapsed = clock() - t0
        times.append(elapsed)
        total += elapsed
        after(i, out, error)
        probes.append(probe())
        i += 1
    return times, probes


def set_up(cls, inputs: dict[str, list[dict]]):
    """Fresh import plus the warm-up items, SETUP_ROUNDS times; returns the
    workload on the last import and the median set-up seconds, at reference
    speed and raw.  Each round is scaled by the median of the probes taken
    just before and just after it."""
    scaled, raw = [], []
    for _ in range(SETUP_ROUNDS):
        probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        gordian = load_gordian()
        warm = cls(gordian, inputs["warmup"])
        for i in range(len(warm.items)):
            warm.run(i)
        elapsed = time.perf_counter() - t0
        probes += [probe() for _ in range(SETUP_PROBES)]
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / statistics.median(probes))
    gc.collect()
    return cls(gordian, inputs["items"]), statistics.median(scaled), statistics.median(raw)


def timing_metrics(times) -> dict[str, float]:
    return {
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_p95_ms": statistics.quantiles(times, n=20)[18] * 1e3,
    }


def layer_metrics(tracer: spans.Tracer, untraced, traced, phi_hits, phi_misses) -> dict:
    calls, self_s, errors = tracer.calls(), tracer.self_times(), tracer.errors_by_name()
    values: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        prefix = layer + "."
        values[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")
        values[f"{layer}.errors"] = (sum(v for k, v in errors.items() if k.startswith(prefix)), "count")
    for metric, name in CALL_COUNTS.items():
        values[metric] = (calls[name], "count")
    for metric, name in SELF_TIMES.items():
        values[metric] = (self_s[name], "s")
    values["laurent.torus_factorization.hit_ratio"] = (tracer.outcome_ratio("laurent.torus_factorization"), "ratio")
    values["laurent.torus_factorization.trial_divisions"] = (
        tracer.descendants_of("laurent.torus_factorization", "sturm.divmod_int_exact"), "count")
    lookups = phi_hits + phi_misses
    values["graph.phi.cache_hit_ratio"] = (phi_hits / lookups if lookups else 0.0, "ratio")
    values["trace.items_per_s_ratio"] = (sum(at_reference_speed(*untraced)) / sum(at_reference_speed(*traced)), "ratio")
    values["trace.spans"] = (len(tracer.name_id), "count")
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, min_items: int = MIN_ITEMS) -> dict:
    if not (SRC / "gordian" / "__init__.py").is_file():
        raise LibraryMissing(f"no gordian package under {SRC}")
    cls = WORKLOADS[workload]
    trace_items = max(1, math.ceil(cls.trace_rate * seconds))
    count = max(math.ceil(cls.generated_per_s * seconds), trace_items, min_items)
    began = time.perf_counter()
    inputs = generate(workload, seed, count, cls.warmup)
    generated = time.perf_counter()
    wl, setup_s, raw_setup_s = set_up(cls, inputs)
    timed = time.perf_counter()
    tally = Tally()

    if not trace:
        # Outputs are checked as they come and not kept, so peak memory does
        # not grow with the number of items a run gets through.
        raw, probes = drive(wl, lambda n, t: t >= seconds and n >= min_items, lambda *output: tally.add(wl, *output))
        times = at_reference_speed(raw, probes)
        passed = tally.attempted - tally.failed
        metrics = {
            "items_per_s": (passed / sum(times), "1/s"),
            **{name: (value, "ms") for name, value in timing_metrics(times).items()},
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        wall = timing_metrics(raw)
        print(
            f"wall clock: items_per_s {passed / sum(raw):.6g}, item_p50_ms {wall['item_p50_ms']:.6g}, "
            f"item_p95_ms {wall['item_p95_ms']:.6g}, setup_s {raw_setup_s:.6g}; "
            f"reference_work median {statistics.median(probes) * 1e6:.1f} us, reference {REFERENCE_S * 1e6:.0f} us",
            file=sys.stderr,
        )
    else:
        # Outputs are kept and checked once the tracer is removed, so that
        # the oracles' own calls into gordian leave no spans.
        outputs: list[tuple] = []
        untraced = drive(wl, lambda n, t: n >= trace_items, lambda *output: outputs.append(output))
        phi = wl.g.graph.phi
        before = phi.cache_info()
        tracer = spans.Tracer(wl.g)
        tracer.install()
        try:
            traced = drive(wl, lambda n, t: n >= trace_items, lambda *output: outputs.append(output), tracer)
        finally:
            tracer.uninstall()
        after = phi.cache_info()
        metrics = layer_metrics(tracer, untraced, traced, after.hits - before.hits, after.misses - before.misses)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
        print(f"span overhead per call: {tracer.inner_s * 1e9:.0f} ns inside, {tracer.outer_s * 1e9:.0f} ns outside",
              file=sys.stderr)
        for output in outputs:
            tally.add(wl, *output)

    for message in tally.messages:
        print(message, file=sys.stderr)
    print(
        f"{workload} seed {seed}: {tally.attempted} items, {tally.failed} failed; wall seconds: "
        f"inputs {generated - began:.1f}, set-up {timed - generated:.1f}, "
        f"runs {time.perf_counter() - timed:.1f} including oracles",
        file=sys.stderr,
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of gordian's certify, general and torus workloads.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
