"""Benchmark of the helly command line on four seeded workloads.

    python3 bench/run.py                          # every workload in turn
    python3 bench/run.py --workload small-mixed --seed 3 --seconds 30 --trace 0

One process runs one workload as a closed loop: one client, one command
in flight, no threads. The process repeats rounds until ``--seconds``
have passed. A round starts with set-up: a fresh import of helly from
``src/`` of this checkout, as a new CLI process would get, and the
workload's instances generated from ``--seed`` and written to files. It
then calls ``helly.cli.main(argv)`` in-process for each command of the
workload's fixed list. The first round is the warm-up: every answer of it
goes through ``checker`` right away, and later rounds must repeat it
exactly.

With ``--trace 0`` the metrics are the end-to-end ones, as medians over
the rounds after the warm-up. Their times are in reference-speed
seconds: each measured time is scaled by the speed of the machine at that
moment, as the ``reference`` kernel timed next to it shows. With
``--trace 1`` every second round records spans at helly's layer
boundaries (see ``tracing``); the metrics are the per-layer ones, as
(low) medians over the traced rounds. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# The sibling modules are found by path, also where the interpreter does
# not put the script's directory on sys.path (PYTHONSAFEPATH, -P).
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cmd_median_s": "s", "peak_rss_mib": "MiB"}
# Commands run between two samples of the reference kernel for about this
# long, or for one command if it takes longer.
REFERENCE_EVERY_S = 0.25


class Round(NamedTuple):
    setup_s: float  # at reference speed, as are run_s and times
    run_s: float
    times: list[float]  # one per command
    outputs: list[list]  # one [exit code, stdout, svg text] per command
    wall_s: float  # the commands' wall time, as measured
    reference_s: float  # the reference kernel's median time in the round
    peak_rss_mib: float  # the process's peak resident size so far


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_calls"):
        return "count"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_disk"):
        return "calls/disk"
    return "s"


def import_helly():
    """A fresh import of helly from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "helly" or m.startswith("helly.")]:
        del sys.modules[name]
    helly = importlib.import_module("helly")
    importlib.import_module("helly.cli")
    if Path(helly.__file__).resolve().parent != SRC / "helly":
        raise RuntimeError(f"helly was imported from {helly.__file__}, not from {SRC}")
    return helly


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _plain_call(name, fn, *args):
    return fn(*args)


def _scale(before: float, after: float) -> float:
    """The factor that puts a time measured between two reference samples
    at reference speed."""
    return reference.NOMINAL_S / ((before + after) / 2)


def setup(name: str, seed: int, work: Path, tracer: tracing.Tracer | None):
    """Import helly afresh, then generate and serialize the inputs, and
    write them to files. Returns the CLI entry point, the command list and
    the time taken up to the writing, at reference speed. The writing is
    left out of the time: none of it is helly's work, and on the disk of a
    shared 2-core virtual machine it swung between 0.07 s and 0.38 s from
    one small-mixed set-up to the next, whatever the machine's speed."""
    gc.collect()  # drop the previous round's modules, as a process exit would
    before = reference.sample()
    start = perf_counter()
    helly = import_helly()
    commands, files = workloads.generate(helly, name, seed, work, tracer.call if tracer else _plain_call)
    elapsed = perf_counter() - start
    after = reference.sample()
    work.mkdir(parents=True, exist_ok=True)
    files.write()
    main = helly.cli.main
    if tracer:
        tracer.install()
        main = tracer.wrap("cli.main", main)
    return main, commands, elapsed * _scale(before, after)


def run_round(main, commands) -> tuple[float, list[float], list[list], float, float]:
    """Run every command once, with a reference sample before the first
    command and after every ``REFERENCE_EVERY_S`` of commands. Returns the
    round's time and each command's time, both at reference speed, each
    command's [exit code, stdout, svg text], the commands' wall time, and
    the median reference sample."""
    times, outputs, samples = [], [], [reference.sample()]
    pending: list[float] = []  # wall times since the last sample
    wall = 0.0
    for i, cmd in enumerate(commands):
        out = io.StringIO()
        begin = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a fault in helly fails this command, not the run
            rc = f"raised {type(exc).__name__}: {exc}"
        pending.append(perf_counter() - begin)
        outputs.append([rc, out.getvalue()])
        if sum(pending) >= REFERENCE_EVERY_S or i == len(commands) - 1:
            samples.append(reference.sample())
            scale = _scale(samples[-2], samples[-1])
            times.extend(t * scale for t in pending)
            wall += sum(pending)
            pending = []
    for cmd, output in zip(commands, outputs):
        svg = Path(cmd.svg) if cmd.svg else None
        output.append(svg.read_text(encoding="utf-8") if svg and svg.exists() else None)
    return sum(times), times, outputs, wall, statistics.median(samples)


def check_answers(commands, outputs) -> tuple[set[int], list[str]]:
    """The indices of the commands whose answer fails its check, and why."""
    wrong, problems = set(), []
    for i, (cmd, (rc, out, svg)) in enumerate(zip(commands, outputs)):
        try:
            cmd.check(rc, out, svg)
        except Exception as exc:  # any malformed answer is a failed command
            wrong.add(i)
            problems.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
    return wrong, problems


def run_until(deadline: float, prepare, after_round=None, min_rounds: int = 2):
    """Whole rounds, each after its own set-up ``prepare(round_index)``,
    while the next one is expected to end by ``deadline``, and at least
    ``min_rounds``. The answers of the first round, the warm-up, are
    checked right after it. Returns the command list, the rounds, and
    ``check_answers`` of the first round."""
    rounds: list[Round] = []
    first = checked = None
    while True:
        begin = perf_counter()
        main, commands, setup_s = prepare(len(rounds))
        if first is None:
            first = commands
        elif [c.argv for c in commands] != [c.argv for c in first]:
            raise RuntimeError("set-up gave a different command list for the same seed")
        rounds.append(Round(setup_s, *run_round(main, commands), _peak_rss_mib()))
        if after_round:
            after_round()
        if checked is None:
            checked = check_answers(commands, rounds[0].outputs)
        now = perf_counter()
        expected_end = now + (now - begin)
        if len(rounds) >= min_rounds and expected_end > deadline:
            return first, rounds, checked


def count_failed(commands, rounds: list[Round], checked) -> tuple[int, int, list[str]]:
    """Commands attempted and failed over all rounds. A command whose first
    answer failed its check fails in every round; in a later round, one
    whose answer differs from its first fails too."""
    first = rounds[0].outputs
    wrong, problems = checked
    problems = list(problems)
    failed = 0
    for r, rnd in enumerate(rounds):
        for i, output in enumerate(rnd.outputs):
            if i in wrong or output != first[i]:
                failed += 1
                if i not in wrong:
                    problems.append(f"round {r}: {' '.join(commands[i].argv)}: answer changed")
    return len(commands) * len(rounds), failed, problems


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """The end-to-end metrics, over the rounds after the warm-up."""
    timed = rounds[1:]
    # Each command's median over the rounds comes first: a median over the
    # pooled times of a list that mixes a fast and a slow kind of command
    # would sit between the slowest fast one and the fastest slow one.
    per_command = [statistics.median(r.times[i] for r in timed) for i in range(len(timed[0].times))]
    return {
        "setup_s": statistics.median(r.setup_s for r in timed),
        "run_s": statistics.median(r.run_s for r in timed),
        "cmd_median_s": statistics.median(per_command),
        # Later rounds repeat the first one's work; what they add to the
        # peak is allocator drift, which grows with their number.
        "peak_rss_mib": rounds[0].peak_rss_mib,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # A directory of its own, which no other run writes to or removes.
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-{seed}-", dir=OUT))
    deadline = perf_counter() + seconds
    try:
        if not trace:
            commands, rounds, checked = run_until(deadline, lambda i: setup(name, seed, work, None))
            metrics = end_to_end(rounds)
            wall = statistics.median(r.wall_s for r in rounds[1:])
            kernel = statistics.median(r.reference_s for r in rounds[1:])
            print(f"wall clock: run_s {wall:.4f} s, reference kernel {kernel * 1000:.3f} ms", file=sys.stderr)
        else:
            # Untraced and traced rounds alternate after the warm-up, so
            # that a drift in the machine's speed does not show up as
            # tracing overhead. The spans hold wall times.
            tracer = tracing.Tracer()
            per_round, kept = [], []

            def collect():
                spans, counts = tracer.take()
                if spans:
                    per_round.append(tracing.summarize(spans, counts))
                    kept.append(spans)

            commands, rounds, checked = run_until(
                deadline, lambda i: setup(name, seed, work, tracer if i % 2 else None), collect, min_rounds=3
            )
            # median_low keeps a count whole when the traced rounds are even in number
            metrics = {m: statistics.median_low(r[m] for r in per_round) for m in per_round[0]}
            metrics["trace.overhead_s"] = statistics.median(r.run_s for r in rounds[1::2]) - statistics.median(
                r.run_s for r in rounds[2::2]
            )
            tracing.write(OUT / f"trace-{name}-seed{seed}.jsonl", kept)
        attempted, failed, problems = count_failed(commands, rounds, checked)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status = status or proc.returncode
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "helly" / "__init__.py").is_file():
        print(f"error: no helly sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
