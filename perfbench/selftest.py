"""Shows that every benchmark check passes real outputs and rejects wrong ones.

    python3 perfbench/selftest.py

Runs one cheap operation of each workload through ``phasekit.cli.main``,
confirms the checks accept the outputs, then breaks the outputs one way at
a time (a CSV value moved by 1e-5, a Dirac bracket with its sign flipped,
a sabotaged spec that exits 0) and confirms the checks reject each.  Takes
about ten seconds; exits 1 if any check behaves otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import phasekit.cli as cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(label: str, problems, should_pass: bool) -> None:
    ok = (not problems) == should_pass
    verdict = "passes" if not problems else f"rejects ({problems[0]})"
    print(f"{'ok' if ok else 'FAIL'}: {label} {verdict}")
    if not ok:
        failures.append(label)


def run(calls, expected) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in calls]
    if codes != expected:
        failures.append(f"exit codes {codes} != {expected}")


def perturb_csv(path: Path, column: str, row: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[at] = f"{float(cells[at]) + delta:.17g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def analysis(work: Path) -> None:
    op = workloads.dirac_analysis(0, 0, work)
    run(op.calls, op.codes)
    expect("analysis.json", op.check([0]), True)
    path = work / "out" / "analysis.json"
    summary = json.loads(path.read_text())
    brackets = summary["gauge"]["dirac_brackets"]
    brackets["{x1_tau, p_tau}"] = f"-({brackets['{x1_tau, p_tau}']})"
    path.write_text(json.dumps(summary))
    expect("Dirac bracket with its sign flipped", op.check([0]), False)


def scenarios(work: Path) -> None:
    sc = {"m": 1.0, "w0": 1.2, "w1": 0.0, "e0": 0.3, "e1": 0.0, "lam": 2.0,
          "initial": {"x1": 0.6, "p1": -0.2, "x2": -0.4, "p2": 0.5}}
    config = workloads._write(work / "s.yaml", workloads.scenario_config(sc))
    sim, inv = work / "simulate", work / "invariant"
    run([["simulate", config, "--out", str(sim)],
         ["invariant", config, "--out", str(inv)]], [0, 0])

    def problems():
        return oracle.check_simulate(sim, sc) + oracle.check_invariant(
            inv, sim, sc)

    expect("simulate and invariant CSVs", problems(), True)
    for name, column, folder in (("original.csv", "x1", sim),
                                 ("extended.csv", "p_tau", sim),
                                 ("invariant.csv", "I", inv)):
        path = folder / name
        clean = path.read_text()
        perturb_csv(path, column, 50, 1e-5)
        expect(f"{name} with {column} moved by 1e-5", problems(), False)
        path.write_text(clean)


def transforms(work: Path) -> None:
    valid = workloads.transform_check(0, 0, work / "valid")
    run(valid.calls, valid.codes)
    expect("valid spec", valid.check([0]), True)
    sabotaged = workloads.transform_check(0, 1, work / "sabotaged")
    run(sabotaged.calls, sabotaged.codes)
    expect("sabotaged spec exiting 1", sabotaged.check([1]), True)
    expect("sabotaged spec exiting 0", sabotaged.check([0]), False)
    path = work / "sabotaged" / "out" / "transform_check.json"
    summary = json.loads(path.read_text())
    summary["defect"] = 0.0
    path.write_text(json.dumps(summary))
    expect("sabotaged spec reporting no defect", sabotaged.check([1]), False)
    expect("valid spec exiting 1", valid.check([1]), False)


def main() -> int:
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        analysis(work / "analysis")
        scenarios(work / "scenario")
        transforms(work / "transform")
        closed = oracle.damped_solution(1.0, 2.0, 1.0, 0.0, 1.0,
                                        np.array([0.5]))[0][0]
        expect("critically damped closed form",
               [] if abs(closed - 1.5 * np.exp(-0.5)) < 1e-12 else
               [f"x(0.5) = {closed}"], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} check(s) misbehaved" if failures
          else "every check accepts real output and rejects broken output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
