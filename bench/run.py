"""Benchmark of the dimermod CLI, one workload per process.

    python3 bench/run.py --workload polygons --seed 1 --seconds 20 --trace 0

One caller runs a closed loop: each operation is one dimermod CLI command,
called in-process through ``dimermod.cli.main(argv)`` with stdout captured,
and starts after the previous one returns.  The interpreter start-up and the
package import are paid once, in ``setup_s``.  A run repeats whole rounds of
the workload's fixed operation list until ``--seconds`` have passed; every
output is parsed and checked after its round, outside the timed region.

``setup_s`` is the median wall time of a fresh interpreter that imports
``dimermod.cli``, plus the median time to generate and write the inputs;
each is repeated three times.  ``ops_per_s`` and ``op_p50_ms`` are medians
over rounds of the round's throughput and of its median latency, so that a
slow stretch of the machine moves them less.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` untraced and traced rounds alternate, and the last line
reports the per-layer metrics of the traced rounds and the tracing overhead.  Spans and a result file go to ``bench/_results``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("polygons", "torus_graphs")
SETUP_REPEATS = 3
WARMUP_S = 1.5

LAYER_METRICS = (
    ("polygon.contains.calls", "count"),
    ("polygon.interior_lattice_points.ms", "ms"),
    ("polygon.find_building_block.ms", "ms"),
    ("intlin.smith_normal_form.calls", "count"),
    ("intlin.smith_normal_form.ms", "ms"),
    ("groups.cluster_modular_group.self_ms", "ms"),
    ("groups.torsion_lattice.self_ms", "ms"),
    ("groups.pic0_stack_presentation.self_ms", "ms"),
    ("groups.max_translation_polygon.self_ms", "ms"),
    ("torusgraph.check_minimality.ms", "ms"),
    ("torusgraph.newton_polygon.ms", "ms"),
    ("torusgraph.TorusGraph.calls", "count"),
    ("torusgraph.TorusGraph.ms", "ms"),
    ("spectral.kasteleyn_polynomial.ms", "ms"),
    ("spectral.LaurentPoly2.mul.calls", "count"),
    ("spectral.kasteleyn_signs.ms", "ms"),
    ("spectral.normalized_poly.ms", "ms"),
    ("spectral.discrete_abel_map.calls", "count"),
    ("spectral.discrete_abel_map.ms", "ms"),
    ("moves.run_sequence.self_ms", "ms"),
    ("moves.spider_move.self_ms", "ms"),
    ("moves.contract_vertex.self_ms", "ms"),
    ("moves.abel_shift.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
)


def rung_metrics():
    """The dominant layer metric of each ladder, once per rung."""
    from bench_inputs import GRAPH_RUNGS, POLYGON_RUNGS, SHUFFLE_KS, SPECTRA_RUNGS

    names = ["polygon.interior_lattice_points.ms.b%d" % s for s in POLYGON_RUNGS]
    names += ["torusgraph.check_minimality.ms.k%d" % k for k in GRAPH_RUNGS]
    names += ["spectral.kasteleyn_polynomial.ms.%s" % g for g in SPECTRA_RUNGS]
    names += ["torusgraph.TorusGraph.ms.bundled"] + ["torusgraph.TorusGraph.ms.shuffle_k%d" % k for k in SHUFFLE_KS]
    return [(n, "ms") for n in names]


TRACE_METRICS = (
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_cli():
    """Import dimermod.cli from the source tree beside the benchmark, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "dimermod", "cli.py")):
        sys.exit("bench: no dimermod sources under %s" % SRC)
    sys.path.insert(0, SRC)
    from dimermod import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported dimermod from %s, not from %s" % (cli.__file__, SRC))
    return cli


def import_seconds():
    """Wall time of a fresh interpreter that imports dimermod.cli."""
    code = "import sys; sys.path.insert(0, %r); import dimermod.cli" % SRC
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def call(cli, argv):
    """One operation: (exit code or None if it raised, seconds, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # an operation that crashes counts as failed
        rc = None
        print("bench: %s raised %s: %s" % (" ".join(argv), type(exc).__name__, exc), file=sys.stderr)
    return rc, time.perf_counter() - t0, buf.getvalue()


class Run:
    """Latencies, failures and check results of one process."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.correct = True
        self.round_walls = []
        self.latencies = []  # one list per round
        self.failed = 0

    def check(self, op, rc, text):
        """Check one output; returns False if the operation failed."""
        if rc != 0:
            return False
        try:
            op.check(json.loads(text))
        except Exception as exc:  # any checker error means a wrong output
            self.correct = False
            print("bench: wrong output of %s: %s" % (" ".join(op.argv), exc), file=sys.stderr)
        return True

    def warm_up(self, seconds):
        t0 = time.perf_counter()
        i = 0
        while i < len(self.ops) and (i == 0 or time.perf_counter() - t0 < seconds):
            rc, _, text = call(self.cli, self.ops[i].argv)
            self.check(self.ops[i], rc, text)
            i += 1

    def round(self, recorder=None):
        """Run the operation list once, timed, then check its outputs untimed."""
        gc.collect()
        results = []
        r0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = (len(self.round_walls), i)
            results.append(call(self.cli, op.argv))
        self.round_walls.append(time.perf_counter() - r0)
        self.latencies.append([dt for _, dt, _ in results])
        for op, (rc, _, text) in zip(self.ops, results):
            if not self.check(op, rc, text):
                self.failed += 1

    def measure(self, seconds):
        """Whole rounds until `seconds` have passed."""
        t0 = time.perf_counter()
        while not self.round_walls or time.perf_counter() - t0 < seconds:
            self.round()

    def attempted(self):
        return len(self.ops) * len(self.round_walls)

    def ops_per_s(self):
        """Median over rounds of operations per second of round wall time."""
        return statistics.median(len(self.ops) / w for w in self.round_walls)

    def op_p50_ms(self):
        """Median over rounds of the median operation latency."""
        return statistics.median(statistics.median(r) for r in self.latencies) * 1000


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    cli = load_cli()
    sys.path.insert(0, HERE)
    import bench_inputs

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    in_dir = os.path.join(HERE, "_inputs", args.workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = bench_inputs.make_inputs(args.workload, args.seed, in_dir)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    run = Run(cli, ops)
    run.warm_up(WARMUP_S)
    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "ops_per_round": len(ops), "inputs_s": setups, "import_s": imports}

    if args.trace:
        import bench_trace

        # Untraced and traced rounds alternate, so that both halves see the
        # same stretches of machine speed and their ratio is the overhead.
        traced = Run(cli, ops)
        recorder = bench_trace.Recorder()
        t0 = time.perf_counter()
        while not traced.round_walls or time.perf_counter() - t0 < args.seconds:
            run.round()
            recorder.install()
            try:
                traced.round(recorder)
            finally:
                recorder.uninstall()
        rounds = len(traced.round_walls)
        untraced = run.ops_per_s()
        recorder.write(stem + ".spans.jsonl")
        rung_of_op = {(r, i): op.rung for r in range(rounds) for i, op in enumerate(ops)}
        layers = recorder.summary(rung_of_op, rounds)
        units = dict(list(LAYER_METRICS) + rung_metrics() + list(TRACE_METRICS))
        metrics = {name: layers.get(name, 0.0) for name in units if not name.startswith("trace.")}
        metrics["trace.untraced_ops_per_s"] = untraced
        metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
        metrics["trace.overhead_pct"] = (untraced / traced.ops_per_s() - 1) * 100
        correct = run.correct and traced.correct
        attempted = run.attempted() + traced.attempted()
        failed = run.failed + traced.failed
        detail["layers_all"] = layers
    else:
        run.measure(args.seconds)
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": run.ops_per_s(),
            "op_p50_ms": run.op_p50_ms(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        correct, attempted, failed = run.correct, run.attempted(), run.failed
        by_rung = {}
        for lats in run.latencies:
            for op, dt in zip(ops, lats):
                by_rung.setdefault(op.rung, []).append(dt * 1000)
        detail["rung_p50_ms"] = {r: statistics.median(v) for r, v in by_rung.items()}
        detail["round_walls_s"] = run.round_walls
    line = result_line(correct, attempted, failed, metrics, units)
    detail["result"] = json.loads(line)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
