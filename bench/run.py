"""In-process CLI benchmark for ringkakeya.

    python3 bench/run.py --workload rank-tables --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  One process, one thread, closed loop: every operation is a call of
`ringkakeya.cli.main(argv)` that starts when the previous one has returned.
Each output is checked by `checks` and `workloads`, which do not use the
package.

A run sets up its inputs SETUP_REPEATS times, importing the package afresh
each time, then makes one warm-up pass over the workload's operations and
further passes until --seconds have gone by since the warm-up began.  All
times are scaled to a reference machine speed (see `calibrate`).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  wall_s        one pass over all operations, median over the passes
  largest_op_s  the workload's frontier operation, median over the passes
  small_ops_s   the workload's quick operations summed, median over the passes
  setup_s       import, input construction and verification; median of
                the SETUP_REPEATS set-ups
  peak_rss_mib  peak resident memory of the process
--trace 1 makes the passes of the first half of the run untraced and the
rest with the `tracing` wrappers installed, and reports the per-layer
metrics (medians over the traced passes, every call counted, scaled like
the end-to-end times) and the tracing overhead on wall_s.  Spans go to
bench/out/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calibrate import Clock, Timing
from checks import KnownFault, WrongOutput
from tracing import Tracer
from workloads import WORKLOADS, Result, read_set

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
SMALL_REPEATS = 3

END_TO_END = {"wall_s": "s", "largest_op_s": "s", "small_ops_s": "s",
              "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = [
    "gfp.rank_odd.s", "gfp.rank_odd.cells", "gfp.rank_gf2.s", "gfp.rank_gf2.cells",
    "gfp.matmul.s", "gfp.matmul.mults", "gfp.kron.s", "gfp.kron.cells",
    "gfp.stack.s", "gfp.stack.cells", "gfp.solve_row_factor.s",
    "gfp.rank_rational.s", "polys.eval_matrix.s", "polys.eval_matrix.cells",
    "polys.decoding_matrix.s", "cyclo.dft_matrix.s", "cyclo.cyclo_rank.s",
    "cyclo.cyclo_rank.cells", "cyclo.zero_pattern.s",
    "incidence.incidence_matrix_pk.s", "incidence.incidence_matrix_pk.cells",
    "incidence.mv_search.s", "incidence.mv_search.nodes", "kakeya.load.s",
    "kakeya.verify.s", "kakeya.verify.calls", "kakeya.line_matrix.s",
    "kakeya.min_kakeya_search.s", "bounds.certify_prime.s",
    "bounds.certify_two_primes.s", "bounds.certify_squarefree.s",
    "bounds.certify_prime_power.s", "rings.s", "cli.main.s",
]
TRACE_ONLY = {"trace.wall_s": "s", "trace.overhead_s": "s"}


class SetupError(Exception):
    pass


def call(cli, argv: list[str]) -> Result:
    """cli.main(argv) with its output captured; an exception it lets out
    becomes exit code -1 with the traceback on stderr, so the run goes on
    and the check reports it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = -1
    return Result(rc, out.getvalue(), err.getvalue())


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh and build the inputs: (cli module, sets)."""
    for name in [m for m in sys.modules
                 if m == "ringkakeya" or m.startswith("ringkakeya.")]:
        del sys.modules[name]
    cli = importlib.import_module("ringkakeya.cli")

    def setup_call(argv):
        res = call(cli, argv)
        if res.rc != 0:
            raise SetupError(f"{' '.join(argv)}: exit code {res.rc}: {res.err.strip()}")

    return cli, WORKLOADS[workload][0](setup_call, seed, workdir)


class Passes:
    """The timing of every call in every pass.

    A quick operation takes a few milliseconds, so one call of it is at the
    mercy of the machine; it is called SMALL_REPEATS times in a row and its
    pass time is the median of those calls.
    """

    def __init__(self, ops, clock: Clock):
        self.ops = ops
        self.clock = clock
        self.calls_per_pass = sum(self._calls(op) for op in ops)
        self.timings: list[dict[str, list[Timing]]] = []

    @staticmethod
    def _calls(op) -> int:
        return SMALL_REPEATS if op.group == "small" else 1

    def run(self, cli, wrong: list, tracer: Tracer | None) -> int:
        """One pass; returns the number of failed calls."""
        timings: dict[str, list[Timing]] = {}
        failed = 0
        for op in self.ops:
            for _ in range(self._calls(op)):
                first_span = len(tracer.spans) if tracer else 0
                res, t = self.clock.time(call, cli, op.argv)
                if tracer:
                    tracer.mark_call(len(self.timings), first_span, t)
                timings.setdefault(op.label, []).append(t)
                try:
                    op.check(res)
                except KnownFault:
                    failed += 1
                except WrongOutput as exc:
                    wrong.append(str(exc))
        self.timings.append(timings)
        return failed

    def op_seconds(self, i: int, label: str, scaled: bool = True) -> float:
        times = sorted(self.clock.scaled(t) if scaled else t.raw
                       for t in self.timings[i][label])
        return times[len(times) // 2]

    def median(self, passes: range, group: str | None = None) -> float:
        """Median over passes of the summed scaled seconds of a group."""
        labels = [op.label for op in self.ops if group in (None, op.group)]
        return statistics.median(sum(self.op_seconds(i, label) for label in labels)
                                 for i in passes)

    def table(self, scaled: bool) -> list[dict]:
        return [{label: self.op_seconds(i, label, scaled) for label in timings}
                for i, timings in enumerate(self.timings)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ringkakeya" / "__init__.py").is_file():
        print(f"no ringkakeya sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, reference, workdir)
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, reference: dict, workdir: Path) -> int:
    clock = Clock()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        (cli, sets), t = clock.time(setup, args.workload, args.seed, workdir)
        setup_s.append(t)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported {cli.__file__}, not the checkout's package")
    wrong = []
    for s in sets.values():
        try:
            read_set(s.path, s.label)
        except WrongOutput as exc:
            wrong.append(str(exc))
    ops = WORKLOADS[args.workload][1](sets, workdir, reference)
    if [op.group for op in ops].count("frontier") != 1:
        raise SetupError("a workload needs exactly one frontier operation")

    passes = Passes(ops, clock)
    tracer = Tracer() if args.trace else None
    traced_from = None
    failed = 0
    start = time.perf_counter()
    while True:
        done = len(passes.timings)
        if (tracer and traced_from is None and done >= 2
                and time.perf_counter() >= start + args.seconds / 2):
            tracer.install()
            traced_from = done
        failed += passes.run(cli, wrong, tracer if traced_from is not None else None)
        if (time.perf_counter() >= start + args.seconds and done >= 1
                and (traced_from is not None or not tracer)):
            break
    total = len(passes.timings)
    untraced = range(1, traced_from or total)

    if tracer:
        tracer.uninstall()
        metrics = tracer.layer_metrics(PER_LAYER, clock.factor)
        traced_wall = passes.median(range(traced_from, total))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - passes.median(untraced)
        units = {m: "s" if m.endswith(".s") else "count" for m in PER_LAYER}
        units |= TRACE_ONLY
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "wall_s": passes.median(untraced),
            "largest_op_s": passes.median(untraced, "frontier"),
            "small_ops_s": passes.median(untraced, "small"),
            "setup_s": statistics.median(clock.scaled(t) for t in setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for msg in dict.fromkeys(wrong):
        print(f"WRONG: {msg}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": total * passes.calls_per_pass,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": total, "traced_from": traced_from,
        "setup_s": [clock.scaled(t) for t in setup_s], "kernel_s": clock.kernels,
        "scaled_s": passes.table(scaled=True), "raw_s": passes.table(scaled=False),
        **result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
