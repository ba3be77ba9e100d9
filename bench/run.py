"""The amalgext benchmark: one workload per process, every metric by name.

    python3 bench/run.py --workload ext-s4 --seed 1 --seconds 25 --trace 0

Run it from the repository root.  The seed picks the generated inputs (see
gen.py) and, for ``fixtures-cli``, the command order.  Each operation is one
in-process call to ``amalgext.cli.run(argv)``: it parses the instance file,
builds a fresh instance and renders the report, as the command line does.
Operations run one after another in a closed loop, single-threaded, until
``--seconds`` have passed; a workload of several commands runs whole passes.

Every operation is checked against expected.json, recorded at the seed
commit: exit code 0, the report's sha256 and its Ext dimension lines.  Two
further checks hold for every seed: a trivial-coefficient ``ext`` report
carries the abelianization-oracle PASS line, and an ``les`` report says the
long exact sequence is exact.

``--trace 0`` prints the end-to-end metrics, with times rescaled to a quiet
host by timings of a reference loop (see HostSpeed).  ``--trace 1`` runs the first
half of the time untraced and the second half traced (tracing.py), prints
the per-layer metrics and notes the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gen import write_instances
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"
SETUP_SAMPLES = 10  # before the timed loop, and as many after it

FIXTURE_GREPS = {
    "d-infinity": "flip2",
    "psl2z": "std2",
    "psl2z-f5": "std2",
    "sl2z": "std2",
    "sl2z-f5": "std2",
}


@dataclass
class Command:
    argv: list[str]
    key: str  # argv with the instance path replaced by its file name


@dataclass
class Workload:
    name: str
    commands: list[Command]
    instances: list[tuple[str, int | None]]  # (path, characteristic or None) to set up


def _command(*argv: str) -> Command:
    argv = list(argv)
    return Command(argv, " ".join([argv[0], Path(argv[1]).name] + argv[2:]))


def fixture_commands() -> list[Command]:
    commands = []
    for name, grep in FIXTURE_GREPS.items():
        path = str(ROOT / "fixtures" / f"{name}.amg")
        commands += [
            _command("validate", path),
            _command("tree", path, "--radius", "3"),
            _command("chain", path, "--radius", "3"),
            _command("mv-check", path, "--radius", "3"),
            _command("mv-check", path, "--radius", "2", "--grep", grep),
            _command("ext", path, "--degree", "5"),
            _command("ext", path, "--degree", "3", "--v1", grep, "--v2", grep),
            _command("les", path, "--degree", "4", "--v1", "triv", "--v2", grep),
        ]
    return commands


def make_workload(name: str, seed: int) -> Workload:
    """The workload's commands over inputs generated from the seed."""
    if name == "fixtures-cli":
        commands = fixture_commands()
        random.Random(seed).shuffle(commands)
        files = sorted({c.argv[1] for c in commands})
        return Workload(name, commands, [(f, None) for f in files])
    paths = write_instances(seed, WORK / f"seed-{seed}")
    s4, gl2z = str(paths["s4-s3-s4"]), str(paths["gl2z"])
    if name == "ext-s4":
        return Workload(name, [_command("ext", s4, "--char", "2", "--degree", "3")], [(s4, 2)])
    if name == "les-gl2z":
        les = _command("les", gl2z, "--char", "3", "--degree", "8", "--v1", "triv", "--v2", "signs4")
        return Workload(name, [les], [(gl2z, 3)])
    if name == "mv-s4":
        return Workload(name, [_command("mv-check", s4, "--radius", "3")], [(s4, None)])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ext-s4", "les-gl2z", "mv-s4", "fixtures-cli")  # why: see BENCHMARK.json


# -- correctness -------------------------------------------------------------


def ext_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("ext_")]


def check(command: Command, code: int, text: str, expected: dict) -> list[str]:
    """Reasons the operation failed; empty when its output is correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    want = expected.get(command.key)
    if want is None:
        return problems + ["no recorded digest"]
    if hashlib.sha256(text.encode()).hexdigest() != want["sha256"]:
        problems.append("report digest differs from the recorded one")
    if ext_lines(text) != want["ext"]:
        problems.append(f"Ext dimensions {ext_lines(text)} differ from {want['ext']}")
    argv = command.argv
    if argv[0] == "ext" and _trivial_over_g(argv):
        if "degree 1 matches abelianization oracle: PASS" not in text.splitlines():
            problems.append("abelianization oracle line is not PASS")
    if argv[0] == "les" and "long exact sequence: PASS" not in text.splitlines():
        problems.append("long exact sequence is not verified")
    return problems


def _trivial_over_g(argv: list[str]) -> bool:
    def opt(name, default):
        return argv[argv.index(name) + 1] if name in argv else default

    return (opt("--over", "G") == "G" and opt("--v1", "triv") == "triv"
            and opt("--v2", "triv") == "triv" and int(opt("--degree", "3")) >= 1)


# -- measurement -------------------------------------------------------------


REF_LOOP = 10_000  # iterations of the reference loop
REF_QUIET_S = 0.0006  # the reference loop's time on this machine when the host is quiet
SAMPLE_EVERY_S = 0.05  # wall seconds between two timings of the reference loop


def reference_loop() -> None:
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7


class WallClock:
    """Plain wall seconds."""

    def mark(self):
        return time.perf_counter()

    def since(self, mark) -> float:
        return time.perf_counter() - mark


class HostSpeed(WallClock):
    """Wall seconds rescaled to a quiet host, from timings of a reference loop.

    The host is shared, and other tenants slow this process by up to 70 %
    for seconds at a time; a fixed pure-Python loop slows with it.  While
    `sampling()` is active a timer signal times the loop every
    SAMPLE_EVERY_S.  A span's seconds, less the time spent timing the loop,
    are multiplied by REF_QUIET_S over the median loop time from the last
    timing before the span to its end.  A change to amalgext leaves the loop
    as it is, so it shows in these seconds as it does in wall seconds.
    """

    def __init__(self):
        self.loops: list[float] = []  # seconds of each timing of the loop
        self.spent = 0.0  # seconds spent in the signal handler

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        self.loops.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # so that every span has a timing before it
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        return time.perf_counter(), self.spent, len(self.loops)

    def since(self, mark) -> float:
        start, spent, count = mark
        seconds = time.perf_counter() - start - (self.spent - spent)
        return seconds * REF_QUIET_S / statistics.median(self.loops[count - 1:])


@dataclass
class Phase:
    seconds: list[float] = field(default_factory=list)  # one per operation, by the run's clock
    wall_seconds: list[float] = field(default_factory=list)  # the same, in plain wall seconds
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall: float = 0.0  # the phase by the run's clock: operations and their checks

    @property
    def p50(self) -> float:
        return statistics.median(self.seconds)


def run_ops(cli, workload: Workload, seconds: float, expected: dict, clock: WallClock) -> Phase:
    """Whole passes over the workload's commands until `seconds` of wall time have passed.

    `cli.run` is looked up per call, so an installed tracer sees it.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        for command in workload.commands:
            t0 = time.perf_counter()
            mark = clock.mark()
            try:
                code, text = cli.run(command.argv)
            except Exception:  # a crash is one failed operation; the run goes on
                code, text = 1, traceback.format_exc()
            phase.seconds.append(clock.since(mark))
            phase.wall_seconds.append(time.perf_counter() - t0)
            problems = check(command, code, text, expected)
            if problems:
                phase.failed += 1
                phase.problems += [f"{command.key}: {p}" for p in problems]
            phase.wall += clock.since(mark)
        if time.perf_counter() - start >= seconds:
            return phase


def _own_modules() -> list[str]:
    return [name for name in sys.modules if name == "amalgext" or name.startswith("amalgext.")]


def setup_samples(workload: Workload, clock: WallClock) -> list[float]:
    """Seconds to import amalgext and parse and build the workload's inputs.

    Each sample drops amalgext's modules from sys.modules and imports them
    again, so their code is loaded and run anew.  What they import from
    outside the package (numpy, the standard library) stays loaded: the
    interpreter start and numpy import of a cold process are most of its
    time and vary most with host load, and no change to amalgext moves them.
    The modules the timed loop uses are put back afterwards.
    """
    loaded = {name: sys.modules[name] for name in _own_modules()}
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            for name in _own_modules():
                del sys.modules[name]
            gc.collect()  # the dropped modules hold reference cycles; free them untimed
            mark = clock.mark()
            importlib.import_module("amalgext.cli")
            parse = importlib.import_module("amalgext.instfile").parse
            for path, char in workload.instances:
                parse(path).build(char)
            samples.append(clock.since(mark))
    finally:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
        gc.collect()
    return samples


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    index = n - 11  # ordered[index] has exactly 10 samples above it
    return 100.0 * (index + 1) / n, ordered[index]


# -- reporting ---------------------------------------------------------------


def emit(workload: Workload, metrics: dict, phases: list[Phase], notes: list[str]) -> int:
    """Print the metrics and the result line; the exit code is 1 if an output was wrong."""
    attempted = sum(len(p.seconds) for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {workload.name}")
    for note in notes:
        print(note)
    print(f"error_rate = {failed / attempted!r} ({failed} failed of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in [p for phase in phases for p in phase.problems][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "amalgext" / "cli.py").is_file():
        print(f"error: no amalgext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import amalgext.cli as cli

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["reports"]
    WORK.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    for path, _ in workload.instances:  # warm the import and parse paths
        cli.run(["validate", path])

    if not args.trace:
        speed = HostSpeed()
        with speed.sampling():
            # samples on both sides of the loop, so that the median spans the run
            setup = setup_samples(workload, speed)
            phase = run_ops(cli, workload, args.seconds, expected, speed)
            setup += setup_samples(workload, speed)
        n = len(phase.seconds)
        loops = statistics.quantiles(speed.loops, n=4)
        notes = [f"operations: {n}, closed loop, one thread",
                 f"reference loop: {len(speed.loops)} timings, quartiles {loops[0]:.6f} "
                 f"{loops[1]:.6f} {loops[2]:.6f} s; times below are scaled to {REF_QUIET_S} s",
                 f"wall op_s_p50 = {statistics.median(phase.wall_seconds)!r} s (not scaled)"]
        tail_at = tail(phase.seconds)
        if tail_at:
            notes.append(f"op_s_tail = {tail_at[1]!r} s (p{tail_at[0]:.1f} of {n} operations)")
        else:
            notes.append(f"op_s_tail omitted: {n} operations, fewer than 11")
        metrics = {
            "op_s_p50": (phase.p50, "s"),
            "ops_per_s": (n / phase.wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return emit(workload, metrics, [phase], notes)

    # plain wall seconds: a timer signal would add its time to the spans
    plain = run_ops(cli, workload, args.seconds / 2, expected, WallClock())
    tracer = Tracer()
    with tracer.installed():
        traced = run_ops(cli, workload, args.seconds / 2, expected, WallClock())
    tracer.write(WORK / f"spans-{workload.name}-{args.seed}.tsv")
    metrics = tracer.layer_metrics()
    metrics["trace.op_s_p50"] = (traced.p50, "s")
    notes = [f"untraced: {len(plain.seconds)} operations, op_s_p50 {plain.p50!r} s",
             f"traced: {len(traced.seconds)} operations, op_s_p50 {traced.p50!r} s",
             f"tracing overhead = {traced.p50 - plain.p50!r} s (traced minus untraced op_s_p50)"]
    return emit(workload, metrics, [plain, traced], notes)

if __name__ == "__main__":
    sys.exit(main())
