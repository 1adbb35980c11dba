"""Benchmark of tpscaffold, run from the root of a source checkout.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0

Workloads (see ``ops.py`` and ``cliops.py`` for the decks):

* ``extract``   - scaffolds, minors and exhaustive TP checks on 8x8..24x24
                  and thin inputs; elimination and Bareiss do the work.
* ``construct`` - reconstruction, fast TP checks, borders and inserts on
                  4x4..9x9 inputs plus a fixed share of 13x13..16x16 ones;
                  lattice-path enumeration does the work.
* ``cli``       - one ``python -m tpscaffold`` subprocess per operation.

BENCHMARK.json gates ``construct`` and ``cli``; ``extract`` is run by hand.

One client drives the library from this process in a closed loop: the next
operation starts when the previous one has returned and been checked.
Checks run outside the timed region.  A run measures whole passes over a
deck until the measured time of the operations adds up to ``--seconds``.

A shared host's speed can drift by 20-40% over tens of seconds (seen on a
2-vCPU Xeon virtual machine), so every timed end-to-end figure is
rescaled to a reference speed: a fixed pure-Python
probe (``probe_ns``) runs before every operation and every set-up, and
each time is multiplied by ``REFERENCE_PROBE_NS`` over the median of the
probes around it.  The probe is the benchmark's own code, so a change to
the library moves the rescaled figures and the machine's drift does not.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and with every public function of the package
wrapped (``spans.py``), and prints the per-layer metrics; the ratio of the
two times is the tracing overhead.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("extract", "construct", "cli")
# Set-up repeats at least SETUP_REPS times and for at least SETUP_MIN_S.
SETUP_REPS = 9
SETUP_MIN_S = 3.0
PROBE_REPS = 5
# op_tail_ms is this percentile on every workload and every commit, so that
# commits compare the same percentile.  It is the highest percentile with at
# least TAIL_MIN_BEYOND verified samples beyond it in every gated run at the
# seed commit (40-51 on construct, 28-32 on cli); a run with fewer says so.
TAIL_PCT = 90
TAIL_MIN_BEYOND = 10
# Timed figures are rescaled to a machine on which probe_ns() takes 4 ms.
REFERENCE_PROBE_NS = 4_000_000
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout's git metadata, or "unknown" without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_seconds(code: str) -> float:
    """Run ``python -c code`` with the checkout's sources; return the float it
    prints."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout)


def child_wall(code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0


def probe_ns() -> int:
    """Nanoseconds one fixed piece of pure-Python work takes: Fraction and
    big-integer arithmetic and list building, as in the library.  The
    collector is off so the probe does not pay for the caller's heap."""
    was_on = gc.isenabled()
    gc.disable()
    t0 = perf_counter_ns()
    x, acc = Fraction(1), 0
    for i in range(1, 120):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
        acc += (i * 7919) ** 5 % 1009
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(12)] for i in range(12)]
    for k in range(11):
        for i in range(k + 1, 12):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    elapsed = perf_counter_ns() - t0
    if was_on:
        gc.enable()
    return elapsed


def rescale(times_ns: list, probes_ns: list) -> list:
    """``times_ns[i]`` ran between ``probes_ns[i]`` and ``probes_ns[i + 1]``;
    scale it to the reference speed by the median of the two probes before
    it and the two after it."""
    return [t * REFERENCE_PROBE_NS / statistics.median(probes_ns[max(0, i - 1) : i + 3])
            for i, t in enumerate(times_ns)]


IMPORT_CODE = (
    "import time; t = time.perf_counter(); import tpscaffold; "
    "print(time.perf_counter() - t)"
)


class Library:
    """Runs the deck operations of ``extract`` and ``construct``."""

    def __init__(self, workload: str, seed: int):
        import ops

        self.ops = ops
        self.make = ops.extract_deck if workload == "extract" else ops.construct_deck
        self.workload, self.seed = workload, seed

    def deck(self, pass_no: int) -> list:
        return self.make(random.Random(f"{self.workload}:{self.seed}:{pass_no}"),
                         random.Random(f"{self.workload}:layout"))

    def execute(self, op, tracer=None):
        call = op.call if tracer is None else lambda: tracer.span("op." + op.kind, op.call)
        result = exc = None
        t0 = perf_counter_ns()
        try:
            result = call()
        except Exception as error:  # classified below; a failure ends no run
            exc = error
        elapsed = perf_counter_ns() - t0
        outcome = self.ops.classify(op, result, exc)
        note = f"{op.kind} {op.shape[0]}x{op.shape[1]}"
        if op.large:
            note += " (13x13+ share)"
        if exc is not None:
            note += f": {type(exc).__name__}: {exc}"
        return elapsed, outcome, note, result


class Cli:
    """Runs ``cli`` operations as subprocesses, or through ``main`` in
    process for the traced run."""

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        import cliops
        import tpscaffold.cli

        self.cliops, self.cli_module = cliops, tpscaffold.cli
        self.seed, self.workdir, self.in_process = seed, workdir, in_process
        self.env = child_env()

    def deck(self, pass_no: int) -> list:
        return self.cliops.cli_deck(random.Random(f"cli:{self.seed}:{pass_no}"),
                                    random.Random("cli:layout"),
                                    self.workdir / f"pass{pass_no}")

    def execute(self, op, tracer=None):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            call = lambda: self.cli_module.main(op.argv)
            if tracer is not None:
                call = lambda untraced=call: tracer.span("op.cli", untraced)
            t0 = perf_counter_ns()
            with redirect_stdout(out), redirect_stderr(err):
                code = call()
            elapsed = perf_counter_ns() - t0
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            t0 = perf_counter_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "tpscaffold", *op.argv], env=self.env,
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return perf_counter_ns() - t0, "raised", f"{op.kind}: timed out", None
            elapsed = perf_counter_ns() - t0
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        outcome = self.cliops.classify(op, code, stdout, stderr)
        note = f"{' '.join(op.argv[:1] + [a for a in op.argv[1:] if a.startswith('-')])} -> {code}"
        if outcome != "ok":
            note += f" (expected {op.code}): {stderr.strip()[-200:]}"
        return elapsed, outcome, note, None


def run_passes(runner, budget_s: float, first_deck) -> tuple:
    """Whole passes until the measured time of the operations reaches
    ``budget_s``.  Returns one (rescaled ns, outcome, note, pass) per
    operation and the measured seconds."""
    raw, rest, probes = [], [], []
    pass_no = 0
    while sum(raw) < budget_s * 1e9:
        deck = first_deck if pass_no == 0 else runner.deck(pass_no)
        for op in deck:
            probes.append(probe_ns())
            elapsed, outcome, note, _ = runner.execute(op)
            raw.append(elapsed)
            rest.append((outcome, note, pass_no))
        pass_no += 1
    probes.append(probe_ns())
    samples = [(ns, *more) for ns, more in zip(rescale(raw, probes), rest)]
    return samples, sum(raw) / 1e9


def tail(values: list) -> float:
    """The TAIL_PCT percentile of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PCT - 1]


def counts(samples: list) -> dict:
    outcomes = Counter(sample[1] for sample in samples)
    return {
        "attempted": len(samples),
        "ok": outcomes["ok"],
        "raised": outcomes["raised"],
        "wrong": outcomes["wrong"],
        "failed": outcomes["raised"] + outcomes["wrong"],
    }


def report_failures(samples: list) -> None:
    failures = Counter(note for _, outcome, note, _ in samples if outcome != "ok")
    for note, n in sorted(failures.items()):
        print(f"failed x{n}: {note}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list, measured_s: float, setup_s: float, peak_kb: int) -> tuple:
    """Throughput is verified operations over the rescaled seconds of all
    operations, failed ones included; latencies are over verified ones."""
    c = counts(samples)
    ok_ns = [ns for ns, outcome, _, _ in samples if outcome == "ok"]
    total_s = sum(sample[0] for sample in samples) / 1e9
    tail_ns = tail(ok_ns) if len(ok_ns) > 1 else sum(ok_ns)
    beyond = sum(ns > tail_ns for ns in ok_ns)
    metrics = {
        "ok_ops_per_s": metric(len(ok_ns) / total_s, "1/s"),
        "op_p50_ms": metric(statistics.median(ok_ns) / 1e6 if ok_ns else 0.0, "ms"),
        "op_tail_ms": metric(tail_ns / 1e6, "ms"),
        "ok_ratio": metric(c["ok"] / c["attempted"], "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    lines = [
        f"ops: {c['attempted']} attempted, {c['ok']} verified, {c['failed']} failed "
        f"({c['raised']} raised, {c['wrong']} wrong) in {samples[-1][3] + 1} passes "
        f"over {measured_s:.3f} s measured, {total_s:.3f} s at the reference speed",
        f"failed_ratio = {c['failed'] / c['attempted']:.4f}",
        f"op_tail_ms is p{TAIL_PCT} over {len(ok_ns)} verified samples, {beyond} beyond it"
        + ("" if beyond >= TAIL_MIN_BEYOND else f" (fewer than {TAIL_MIN_BEYOND})"),
    ]
    return metrics, lines, c


def bits(value) -> int:
    """Largest numerator or denominator bit length in a result."""
    if hasattr(value, "entries"):
        return max((bits(v) for row in value.entries for v in row), default=0)
    if hasattr(value, "denominator"):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return 0


ELIMINATIONS = ("cauchon.gamma_scaffold", "cauchon.le_scaffold",
                "cauchon.gamma_intermediate", "cauchon.le_intermediate")
OUTPUTS = ("graph.matrix_from_scaffold", "bordering.border", "insertion.insert_row",
           "insertion.insert_column", "matrix.minor", "matrix.det")
INPUTS = ("matrix.parse_matrix", "matrix.parse_matrix_json")
SELF_TIMED = (
    "graph.matrix_from_scaffold", "cauchon.gamma_scaffold", "cauchon.le_scaffold",
    "cauchon.gamma_intermediate", "matrix.det", "matrix.minor", "matrix.is_totally_positive",
    "matrix.parse_matrix", "matrix.format_matrix", "insertion.scaffold_prefix_matrix",
    "insertion.build_insertion_system", "insertion.solve_strongly_positive",
    "insertion.verify_solution", "bordering.border", "cli.main",
)
COUNTED = ("graph.matrix_from_scaffold", "cauchon.gamma_scaffold", "cauchon.le_scaffold",
           "cauchon.gamma_intermediate", "matrix.det", "matrix.minor",
           "matrix.is_totally_positive")


def traced_run(runner, workload: str, seconds: float) -> tuple:
    """Whole passes until the untraced time reaches half the budget.  Every
    operation runs once untraced and once traced, in alternating order, so
    the machine's drift cancels out of the overhead ratio; the wrappers are
    installed only around the traced call."""
    from spans import LAYERS, Tracer

    tracer = Tracer(stash_names=ELIMINATIONS + OUTPUTS + INPUTS)
    samples = []
    top = {"input": 0, "scaffold": 0, "output": 0}
    paths = untraced_ns = pass_no = 0

    def traced(op) -> None:
        nonlocal paths
        tracer.install()
        try:
            elapsed, outcome, note, result = runner.execute(op, tracer)
        finally:
            tracer.uninstall()
        samples.append((elapsed, outcome, note, pass_no))
        for name, args, value in tracer.take_stash():
            key = "scaffold" if name in ELIMINATIONS else "input" if name in INPUTS else "output"
            top[key] = max(top[key], bits(value))
            if name == "graph.matrix_from_scaffold":
                m, n = args[0].rows, args[0].cols
                paths += comb(m + n, m) - 1  # every entry's lattice paths
        for matrix in getattr(op, "inputs", ()):
            top["input"] = max(top["input"], bits(matrix))
        if result is not None:
            top["output"] = max(top["output"], bits(result))

    while untraced_ns < seconds / 2 * 1e9:
        for idx, op in enumerate(runner.deck(pass_no)):
            if idx % 2:
                traced(op)
            untraced_ns += runner.execute(op)[0]
            if not idx % 2:
                traced(op)
        pass_no += 1

    summary = tracer.summarize()
    per, under = summary["per_name"], summary["under_root"]
    stat = lambda name, key: per.get(name, {}).get(key, 0)
    traced_ns = sum(s["total_ns"] for name, s in per.items() if name.startswith("op."))
    layer_self = {layer: sum(s["self_ns"] for name, s in per.items()
                             if name.startswith(layer + "."))
                  for layer in LAYERS}

    def beneath(kinds, names) -> int:
        return sum(under.get(f"op.{k}", {}).get(n, 0) for k in kinds for n in names)

    fast_checks = stat("op.fast_check", "calls")
    inserts = stat("op.insert_row", "calls") + stat("op.insert_column", "calls")
    ratio = lambda num, den: num / den if den else 0.0
    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = metric(stat(name, "calls"), "count")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = metric(stat(name, "self_ns") / 1e9, "s")
    m["graph.matrix_from_scaffold.raised"] = metric(stat("graph.matrix_from_scaffold", "raised"), "count")
    m["graph.paths_weighed"] = metric(paths, "paths.computed")
    m["graph.matrix_from_scaffold.calls_per_fast_check"] = metric(
        ratio(beneath(["fast_check"], ["graph.matrix_from_scaffold"]), fast_checks), "ratio")
    m["cauchon.eliminations_per_insert"] = metric(
        ratio(beneath(["insert_row", "insert_column"], ELIMINATIONS), inserts), "ratio")
    m["matrix.det.calls_per_insert"] = metric(
        ratio(beneath(["insert_row", "insert_column"], ["matrix.det"]), inserts), "ratio")
    m["ops.fast_checks"] = metric(fast_checks, "count")
    m["ops.inserts"] = metric(inserts, "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(layer_self[layer] / 1e9, "s")
    for key in ("input", "scaffold", "output"):
        m[f"bits.{key}_max"] = metric(top[key], "bits")
    m["tracing.op_s"] = metric(traced_ns / 1e9, "s")
    m["tracing.accounted_ratio"] = metric(ratio(sum(layer_self.values()), traced_ns), "ratio")
    m["tracing.overhead_ratio"] = metric(ratio(traced_ns, untraced_ns), "ratio")

    interpreter = import_cli = 0.0
    if workload == "cli":
        interpreter = statistics.median(child_wall("pass") for _ in range(PROBE_REPS))
        import_cli = statistics.median(
            child_wall("import tpscaffold.cli") for _ in range(PROBE_REPS)) - interpreter
    m["cli.interpreter_s"] = metric(interpreter, "s")
    m["cli.import_s"] = metric(import_cli, "s")

    lines = [
        f"traced {len(samples)} ops: {traced_ns / 1e9:.3f} s traced, "
        f"{untraced_ns / 1e9:.3f} s untraced; layer self times cover "
        f"{m['tracing.accounted_ratio']['value']:.4f} of the traced op time",
        "graph.paths_weighed is computed from the reconstructed shapes, not counted",
    ]
    return m, lines, samples


def set_up(make_runner) -> tuple:
    """(median rescaled set-up seconds, runner, first deck).  One set-up is
    importing tpscaffold in a fresh interpreter plus making the runner and
    the first pass's inputs in this process; the first repeat also pays
    this process's own imports, which the median discards."""
    times, probes = [], []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S * 1e9:
        probes.append(probe_ns())
        import_ns = child_seconds(IMPORT_CODE) * 1e9
        t0 = perf_counter_ns()
        runner = make_runner()
        deck = runner.deck(0)
        times.append(import_ns + perf_counter_ns() - t0)
    probes.append(probe_ns())
    return statistics.median(rescale(times, probes)) / 1e9, runner, deck


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tpscaffold" / "__init__.py").is_file():
        print(f"error: no tpscaffold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    env = environment(args.seed, args.workload)
    print("env: " + json.dumps(env))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.workload == "cli":
            make_runner = lambda: Cli(args.seed, Path(tmp), in_process=bool(args.trace))
        else:
            make_runner = lambda: Library(args.workload, args.seed)
        if args.trace:
            metrics, lines, samples = traced_run(make_runner(), args.workload, args.seconds)
        else:
            setup_s, runner, first_deck = set_up(make_runner)
            samples, measured_s = run_passes(runner, args.seconds, first_deck)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics, lines, _ = end_to_end(samples, measured_s, setup_s,
                                           resource.getrusage(who).ru_maxrss)

    c = counts(samples)
    report_failures(samples)
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": c["wrong"] == 0,
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
