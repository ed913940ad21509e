"""phasekit benchmark: drives ``phasekit.cli.main`` in-process.

    python3 perfbench/run.py --workload dirac_analysis --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  Each operation is one or two
``cli.main`` calls on YAML configs generated from ``--seed``; it is timed
from outside and its outputs are checked by ``oracle``.  Operations run
until their summed time, scaled to the reference host speed (``HostClock``),
reaches ``--seconds``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``), which also writes its spans and counts to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# typical time of reference_kernel() on the reference machine (see README);
# it only sets the scale of the reported seconds
REFERENCE_NOMINAL_S = 0.036
# share of each operation's time spent re-sampling the reference kernel
REFERENCE_SHARE = 0.03
# a fresh interpreter imports phasekit, then times the reference kernel on
# the same CPU right after
IMPORT_SNIPPET = """
import time
start = time.perf_counter()
import phasekit, phasekit.cli
took = time.perf_counter() - start
import run
clock = run.HostClock()
clock.sample(0.1)
print(took, clock.factor())
"""


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def reference_kernel():
    """Fixed pure-Python work of the kind phasekit does: rationals, dicts,
    tuples and small numpy arrays.  It never calls phasekit."""
    table = {}
    total = Fraction(0)
    for i in range(1, 4000):
        f = Fraction(i % 97 + 1, i % 89 + 1)
        total += f * f
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
    y = np.zeros(6)
    for _ in range(1000):
        y = y + 0.5 * y + 1.0
    return total, len(table), y


class HostClock:
    """How fast this host runs right now, next to the measured work.

    A shared host's speed drifts by tens of percent over minutes, and the
    program's operations drift with it.  Timing the reference kernel
    between operations, for a fixed share of their time, gives the factor
    that scales measured seconds to seconds on a host that runs the kernel
    in REFERENCE_NOMINAL_S.
    """

    def __init__(self):
        self.samples = []

    def sample(self, budget: float) -> None:
        """Time the kernel at least once and until ``budget`` is spent."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
            if spent >= budget:
                return

    def factor(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)


def setup_seconds() -> float:
    """Median time of importing phasekit and phasekit.cli in fresh
    interpreters, one after another, each scaled by its own host factor."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}"),
            capture_output=True, text=True, timeout=120, check=True)
        took, factor = map(float, done.stdout.split()[-2:])
        samples.append(took * factor)
    return statistics.median(samples)


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main() -> int:
    args = _args()
    if not (SRC / "phasekit" / "cli.py").is_file():
        print(f"error: no phasekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import phasekit
    import phasekit.cli as cli
    import workloads

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(phasekit)
    setup = None if tracer else setup_seconds()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    times, configs_done, failed, index = [], 0, 0, 0
    clock = HostClock()
    clock.sample(0.0)
    try:
        # stop on host-scaled time, so every run covers the same operations
        while sum(times) * clock.factor() < args.seconds:
            work = workdir / f"op{index}"
            op = make(args.seed, index, work)
            if tracer:
                tracer.op = index
            codes = []
            problems = []
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    for argv in op.calls:
                        codes.append(cli.main(argv))
            except (Exception, SystemExit):
                problems.append(traceback.format_exc(limit=3))
            times.append(time.perf_counter() - start)
            clock.sample(REFERENCE_SHARE * times[-1])
            if not problems:
                if codes != op.codes:
                    problems.append(f"exit codes {codes}, expected {op.codes}")
                try:
                    problems += op.check(codes)
                except Exception as exc:    # a broken output fails the op
                    problems.append(f"check raised {exc!r}")
            if problems:
                failed += 1
                print(f"op {index} failed: " + "; ".join(problems),
                      file=sys.stderr)
            else:
                configs_done += op.configs
            shutil.rmtree(work, ignore_errors=True)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factor = clock.factor()
    throughput = configs_done / (sum(times) * factor)
    op_p50 = statistics.median(times) * factor
    print(f"measured {sum(times):.3f} s over {index} operations; host "
          f"factor {factor:.4f} from {len(clock.samples)} reference samples; "
          f"unscaled throughput {throughput * factor:.5g}/s, "
          f"op p50 {op_p50 / factor:.5g} s", file=sys.stderr)
    if tracer:
        metrics = {name: {"value": tracer.metric(name), "unit": unit}
                   for name, unit in _per_layer_names()}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed,
            "operations": index, "traced_throughput_per_s": throughput,
            "host_factor": factor, "op_seconds": times,
        })
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": index,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
