"""Benchmark of the gburge library: one workload per run, closed loop.

    python3 bench/run.py --workload maps --seed 1 --seconds 30 --trace 0

One caller runs whole rounds of the workload's op kinds back to back until
--seconds have passed (see workloads.py), checks every output against
refs.py, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (round_vs_ref, setup_s,
peak_rss_mb); with --trace 1 the first round runs under the span tracer of
tracing.py and the metrics are the per-layer ones.  Each rated batch is
timed between runs of a reference computation (speed.py), which tracks the
speed of the machine.  The per-op rates and the raw batch times go to stderr
and to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3  # this process's own set-up plus two fresh interpreters
# setup_s is given in seconds at the machine speed at which
# speed.python_reference takes this long (its time on the reference machine
# when quiet); see speed_corrected().
REFERENCE_QUIET_S = 0.025


def import_program():
    """Import gburge from this checkout's src/, and nowhere else; put the
    benchmark's own modules on the path."""
    if not (SRC / "gburge" / "__init__.py").is_file():
        sys.exit(f"bench: no gburge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gburge

    if SRC.resolve() not in Path(gburge.__file__).resolve().parents:
        sys.exit(f"bench: gburge imported from {gburge.__file__}, not from {SRC}")
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))


def lower_quartile(xs):
    """First quartile (inclusive method); the statistic behind every rate."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


class Recorder:
    """Batch times, operation counts and problems of one run."""

    def __init__(self, workload):
        self.workload = workload
        # per op kind: (batch seconds, index in ref_s of the reference run just before it)
        self.batches = {op.name: [] for op in workload.ops}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.unexpected = []
        self.rounds = 0
        self.cpu_per_wall = []  # process CPU over wall, per threads=2 batch
        self.ref_s = []  # every reference run

    def clear_times(self):
        for times in self.batches.values():
            times.clear()
        self.cpu_per_wall.clear()
        self.ref_s.clear()

    def _reference(self):
        t0 = time.perf_counter()
        self.workload.reference()
        self.ref_s.append(time.perf_counter() - t0)

    def round(self, r, tracer=None):
        """Run round r: every op kind once, timed, with its checks after it,
        untimed.  The reference computation runs before each rated batch and
        once at the end of the round.  Returns the time spent in rated
        batches."""
        busy = 0.0
        for op in self.workload.ops:
            if op.metric is not None:
                self._reference()
            out = raised = None
            with tracer.span(op.name) if tracer else contextlib.nullcontext():
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    out = op.run(r)
                except Exception as exc:  # noqa: BLE001 - counted and reported below
                    raised = exc
                dt = time.perf_counter() - t0
                cpu = time.process_time() - c0
            self.attempted += op.units
            if raised is not None:
                self.failed += op.units
                if op.expect is None or not isinstance(raised, op.expect):
                    self.unexpected.append(f"{op.name}, round {r}: {type(raised).__name__}: {raised}")
                continue
            if op.metric is not None:
                self.batches[op.name].append((dt, len(self.ref_s) - 1))
                busy += dt
                if op.name == "zzstar_threads2":
                    self.cpu_per_wall.append(cpu / dt)
            with tracer.span("check") if tracer else contextlib.nullcontext():
                self.problems += [p for p in op.check(r, out) if p]
        self._reference()
        self.rounds += 1
        return busy

    def _rated(self):
        return [(op, self.batches[op.name]) for op in self.workload.ops
                if op.metric is not None and self.batches[op.name]]

    def rates(self):
        """Operations per second per op kind, from the lower quartile of its batch times."""
        return {op.metric: op.units / lower_quartile([b for b, _ in times]) for op, times in self._rated()}

    def round_s(self):
        """Seconds for one round of the rated op kinds: the sum of their
        lower-quartile batch times."""
        return sum(lower_quartile([b for b, _ in times]) for _, times in self._rated())

    def round_vs_ref(self):
        """One round of the rated op kinds in units of the reference
        computation: the sum over op kinds of the lower quartile of batch time
        over the mean time of the reference runs just before and just after
        the batch."""
        ref = self.ref_s
        return sum(
            lower_quartile([2.0 * b / (ref[i] + ref[i + 1]) for b, i in times])
            for _, times in self._rated()
        )

    def reference_s(self):
        """Lower quartile of the reference computation's time over the run."""
        return lower_quartile(self.ref_s)


def setup(name: str, seed: int):
    """Import the program, build the workload's inputs and warm up."""
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def speed_corrected(setup_s: float) -> float:
    """Set-up seconds scaled by the machine's current speed: times
    REFERENCE_QUIET_S over the median of three runs of the pure-Python
    reference made right after the set-up.  Set-up is mostly interpreter
    work (importing scipy.stats), and on the shared reference machine its
    plain time followed the reference's as it drifted up to 2x within
    minutes."""
    import speed

    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        speed.python_reference()
        runs.append(time.perf_counter() - t0)
    return setup_s * REFERENCE_QUIET_S / statistics.median(runs)


def setup_in_fresh_interpreter(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, workload, traced_busy, untraced_round_s, cpu_per_wall):
    calls, total, own = tracer.totals()
    regions = {op.name for op in workload.ops}

    def count(*names):
        return sum(c for (reg, _, n), c in calls.items() if reg in regions and n in names)

    def self_s(layer, region=None):
        return sum(
            s for (reg, lay, _), s in own.items()
            if lay == layer and (reg == region if region else reg in regions)
        )

    kernels = [f"localmaps.{k}" for k in
               ("a_at", "b_at", "c_at", "d_at", "inv_c_at", "inv_d_at", "e_at", "c_up_at", "d_up_at")]
    diag_maps = [f"correspondences.{k}" for k in
                 ("rho_at", "sigma_at", "tau_at", "tau_up_at", "inv_rho_at", "inv_tau_at")]
    ops = [f"values.ValueDomain.{k}" for k in ("oplus", "otimes", "odiv", "hsum")]
    normals = count("polymer.Stream.normal")
    gamma = count("polymer.sample_inv_gamma")
    growth = sum(
        t for (reg, _, n), t in total.items() if reg in regions and "growth_sequence" in n
    )
    return {
        "shapes.contains_calls": count("shapes.Shape.contains", "shapes.Shape.__contains__"),
        "shapes.growth_seq_s": growth,
        "values.op_calls": count(*ops),
        "values.self_s": self_s("values"),
        "localmaps.kernel_calls": count(*kernels),
        "localmaps.self_s": self_s("localmaps"),
        "correspondences.diag_map_calls": count(*diag_maps),
        "correspondences.self_s": self_s("correspondences"),
        "correspondences.tropical_limit_self_s": self_s("correspondences", "tropical_limit"),
        "arrays.arrays_built": count(
            "arrays.ShapedArray.__init__", "arrays.ShapedArray._wrap", "arrays.UpperArray.__init__"
        ),
        "arrays.self_s": self_s("arrays"),
        "calculus.self_s": self_s("calculus"),
        "polymer.uniform_draws": count("polymer.Stream.uniform"),
        "polymer.gamma_draws": gamma,
        "polymer.gamma_accept_ratio": gamma / normals if normals else 0.0,
        "polymer.sampler_self_s": self_s("polymer.sampler"),
        "polymer.estimator_self_s": self_s("polymer.estimator"),
        "polymer.ks_s": self_s("polymer.ks"),
        "polymer.threads2_cpu_per_wall": statistics.median(cpu_per_wall) if cpu_per_wall else 0.0,
        "cli.self_s": self_s("cli"),
        "whittaker.psi_self_s": self_s("whittaker", "psi3"),
        "whittaker.corollary_self_s": self_s("whittaker", "corollary2"),
        "whittaker.measure_check_self_s": self_s("whittaker", "measure"),
        "trace.overhead_ratio": traced_busy / untraced_round_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("maps", "montecarlo", "quadrature"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = setup(args.workload, args.seed)
    own_setup = speed_corrected(time.perf_counter() - _T0)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    rec = Recorder(workload)
    start = time.perf_counter()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_busy = rec.round(0, tracer)
        finally:
            tracer.uninstall()
        rec.clear_times()
    r = rec.rounds
    while True:  # whole rounds, at least one untraced
        rec.round(r)
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
    rec.problems += [p for p in workload.finish() if p]

    rates = rec.rates()
    timing = {"round_s": rec.round_s(), "reference_s": rec.reference_s(), "round_vs_ref": rec.round_vs_ref()}
    if args.trace:
        from workloads import RATE_METRICS

        metrics = layer_metrics(tracer, workload, traced_busy, timing["round_s"], rec.cpu_per_wall)
        metrics.update({m: rates.get(m, 0.0) for m in RATE_METRICS})
        metrics.update(round_s=timing["round_s"], reference_s=timing["reference_s"])
        wanted = spec["per_layer"]
    else:
        setups = [own_setup] + [
            setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        metrics = {
            "round_vs_ref": timing["round_vs_ref"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rec.rounds, "rates": rates, **timing,
        "batches_s_and_reference_index": rec.batches, "reference_s_in_order": rec.ref_s,
        "problems": rec.problems[:50], "unexpected_errors": rec.unexpected[:50], "result": result,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed})

    for name, value in sorted(rates.items()):
        print(f"{name:32s} {value:12.2f} 1/s", file=sys.stderr)
    for name, value in timing.items():
        print(f"{name:32s} {value:12.4f}", file=sys.stderr)
    print(f"rounds {rec.rounds}, attempted {rec.attempted}, failed {rec.failed}", file=sys.stderr)
    for p in rec.problems[:20] + rec.unexpected[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
