"""End-to-end benchmark of the ncfact CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the CLI runs from its `src/` as
`python3 -m ncfact.cli ...`, each run in a fresh process.  A workload
(see workloads.py) is a closed loop: one client issues one CLI run at a time.
A pass is one sweep over the workload's runs, in an order the seed shuffles.
The first pass always runs to its end; after it, runs go on, pass after
pass, until the next run, if it took as long as the longest run of its slot
so far, would end after `--seconds`.  The last pass may so stop part way.

Every run is checked: it must exit 0, leave no traceback on stderr, report
no failing check, and print stdout whose sha256 equals the frozen digest in
digests.json (made by freeze.py).  A run that fails any of these counts in
`failed`.

A run's slot is its place in a pass: its round and its argv.  `--trace 0`
reports the end-to-end metrics over every run made:
  wall_s       wall time of a pass, spawn to exit of each run: the sum over
               slots of the slot's median
  cpu_s        user + sys time (os.wait4) of a pass, summed the same way
  peak_rss_mb  the largest, over slots, of the slot's median ru_maxrss
  setup_s      interpreter start plus `import ncfact.cli` in a fresh
               process: median of SETUP_SAMPLES samples, after one
               discarded warm-up, spread evenly over the run between CLI
               runs, so that they see the same host as the passes do
Medians per slot over the whole run, rather than the wall time of one pass,
use every run made, also those of a last pass cut short.

The three times are reported at a fixed host speed.  On a shared host the
same CLI run takes up to half again as long for minutes at a time, and CPU
time grows with wall time, so the slowdown is the host's, not the
scheduler's.  Right after each setup sample the benchmark times
REFERENCE_JOB, which never touches ncfact, and multiplies each time by
REFERENCE_S / (median reference time over the run).  A change to ncfact
moves the reported times as much as the measured ones; a slow spell of the
host moves both the CLI runs and the reference job, and cancels.  The
measured times are printed next to the reported ones.
`--trace 1` alternates whole untraced and traced passes.  Traced runs go
through tracer.py, which records spans around each layer; layers.py turns
them into the per-layer metrics (median over traced passes), and
trace.overhead_s is the measured wall_s of the traced passes minus that of
the untraced.  Per-layer times are measured times, not scaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric's
quartiles and sample count, the environment stamp and the fail ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from layers import LAYER_MAP, pass_metrics, run_totals
from workloads import GROUP_FACTS, WORKLOADS, Invocation, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 24
# A fresh-process job that does not touch ncfact: breadth-first search of
# the symmetric group S8 on permutations as bytes, the dict and
# bytes.translate work of ncfact's BFS over W.  It runs next to every setup
# sample, so the median of its times over a run gauges the host's speed
# then.  REFERENCE_S only sets the scale: about that median on the 2-vCPU
# Xeon VM the benchmark was written on, so reported times read close to
# measured ones there.
REFERENCE_S = 0.17
REFERENCE_JOB = """
pad = bytes(range(256))
gens = (bytes([1, 0, 2, 3, 4, 5, 6, 7]), bytes([1, 2, 3, 4, 5, 6, 7, 0]))
seen = {gens[0]: 0}
frontier = [gens[0]]
while frontier:
    grown = []
    for p in frontier:
        for g in gens:
            q = g.translate(p + pad[8:])
            if q not in seen:
                seen[q] = len(seen)
                grown.append(q)
    frontier = grown
if len(seen) != 40320:
    raise SystemExit(1)
"""
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


@dataclass
class RunResult:
    inv: Invocation
    round_: int
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    traced: bool
    spans: Optional[dict]


@dataclass
class PassResult:
    runs: List[RunResult]
    complete: bool

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A private directory under .perfbench_work/, removed on exit."""
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


def load_digests() -> Dict[str, str]:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def spawn(argv: Sequence[str], env: Dict[str, str], out_path: Path,
          err_path: Path):
    """Run argv to completion; returns (exit code, rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def failing_check(fmt: str, stdout: bytes) -> bool:
    """True when the rendered report contains a check that did not pass."""
    text = stdout.decode("utf-8", "replace")
    if fmt == "json":
        try:
            return any(not c["pass"] for c in json.loads(text)["checks"])
        except (ValueError, KeyError, TypeError):
            return True
    if fmt == "csv":
        return any(row and row[-1] == "false"
                   for row in csv.reader(io.StringIO(text)))
    return any(line.startswith("FAIL") or line.endswith("| FAIL |")
               for line in text.splitlines())


def trace_problem(run: RunResult) -> Optional[str]:
    """Sizes the traced run built must equal |W| and the Catalan number."""
    if run.spans is None:
        return "no spans written"
    order, catalan = GROUP_FACTS.get(run.inv.group, (None, None))
    for layer, _, end, _, counters in run.spans["spans"]:
        if end is None:
            return f"span {layer} never closed"
        size = counters.get("groups.length_table.elements", order)
        if size != order:
            return f"length table has {size} elements, |W| = {order}"
        if counters.get("ncp.size", catalan) != catalan:
            return f"|NC| = {counters['ncp.size']}, Catalan = {catalan}"
    return None


def run_problem(run: RunResult, digests: Dict[str, str]) -> Optional[str]:
    """Why a run counts as failed, or None when it passed every check."""
    if run.code != 0:
        return f"exit code {run.code}"
    if b"Traceback" in run.stderr:
        return "traceback on stderr"
    if failing_check(run.inv.fmt, run.stdout):
        return "a check did not pass"
    if hashlib.sha256(run.stdout).hexdigest() != digests.get(run.inv.key):
        return "stdout differs from its frozen digest"
    if run.traced:
        return trace_problem(run)
    return None


class Runner:
    """Spawns the CLI runs of a workload and keeps their scratch files."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.setup: List[float] = []
        self.reference: List[float] = []
        self.longest: Dict[tuple, float] = {}  # slot -> its longest run
        self._setup_every: Optional[float] = None
        self._next_setup = 0.0

    def sample_setup_every(self, interval: float) -> None:
        """From now on, take a setup and a reference sample every
        `interval` seconds."""
        self._setup_every = interval
        self._next_setup = time.perf_counter()

    def _between_runs(self) -> None:
        """Take the samples that are due, at most four in a row."""
        if self._setup_every is None or len(self.setup) >= SETUP_SAMPLES:
            return
        for _ in range(4):
            if time.perf_counter() < self._next_setup:
                break
            self.sample()
            self._next_setup += self._setup_every
        self._next_setup = max(self._next_setup, time.perf_counter())

    def top_up_setup(self) -> None:
        """Take the samples still missing at the end of a run."""
        while self._setup_every is not None and \
                len(self.setup) < SETUP_SAMPLES:
            self.sample()

    def run_pass(self, workload: Workload, rng: random.Random, traced: bool,
                 limit: Optional[int] = None,
                 deadline: Optional[float] = None) -> PassResult:
        """One pass; with a deadline, it stops before the first run that,
        at its longest so far, would end after the deadline."""
        cache = self.work / "cache.json"
        cache.unlink(missing_ok=True)
        out, err = self.work / "stdout", self.work / "stderr"
        spans_path = self.work / "spans.json"
        runs: List[RunResult] = []
        for index, round_ in enumerate(workload.rounds):
            order = list(round_[:limit])
            rng.shuffle(order)
            for inv in order:
                self._between_runs()
                slot = (index, inv.key)
                if deadline is not None and time.perf_counter() + \
                        self.longest.get(slot, 0.0) > deadline:
                    return PassResult(runs, False)
                args = list(inv.args)
                if inv.cached:
                    args += ["--cache", str(cache)]
                if traced:
                    spans_path.unlink(missing_ok=True)
                    argv = [sys.executable, str(HERE / "tracer.py")] + args
                else:
                    argv = [sys.executable, "-m", "ncfact.cli"] + args
                start = time.perf_counter()
                env = dict(self.env, PERFBENCH_SPANS=str(spans_path),
                           PERFBENCH_SPAWN=repr(start)) if traced else self.env
                code, usage = spawn(argv, env, out, err)
                elapsed = time.perf_counter() - start
                self.longest[slot] = max(self.longest.get(slot, 0.0), elapsed)
                spans = None
                if traced and spans_path.exists():
                    spans = json.loads(spans_path.read_text("utf-8"))
                runs.append(RunResult(
                    inv, index, code, elapsed,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    out.read_bytes(), err.read_bytes(), traced, spans))
        return PassResult(runs, True)

    def sample(self) -> None:
        """One setup sample and, right after it, one reference sample."""
        self.setup.append(self.setup_sample())
        self.reference.append(self.timed(
            [sys.executable, "-c", REFERENCE_JOB], "the reference job"))

    def setup_sample(self) -> float:
        """Wall time of interpreter start plus `import ncfact.cli`."""
        return self.timed([sys.executable, "-c", "import ncfact.cli"],
                          "`import ncfact.cli`")

    def timed(self, argv: Sequence[str], what: str) -> float:
        """Wall time of argv in a fresh process, which must exit 0."""
        start = time.perf_counter()
        code, _ = spawn(argv, self.env, self.work / "stdout",
                        self.work / "stderr")
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{what} failed: " +
                               (self.work / "stderr").read_text())
        return elapsed

    def backend(self) -> str:
        out = subprocess.run(
            [sys.executable, "-c",
             "import ncfact.kernels as k; print(k.BACKEND)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            check=True)
        return out.stdout.strip()


def src_line_counts() -> Dict[str, int]:
    counts = {"src_lines_python": 0, "src_lines_other": 0}
    for path in sorted((ROOT / "src").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        try:
            lines = len(path.read_text("utf-8").splitlines())
        except UnicodeDecodeError:
            continue  # built binaries are not source
        key = "src_lines_python" if path.suffix == ".py" else \
            "src_lines_other"
        counts[key] += lines
    return counts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp(runner: Runner) -> dict:
    stamp = {"backend": runner.backend(),
             "python": platform.python_version(),
             "nproc": os.cpu_count(), "cpu": cpu_model()}
    stamp.update(src_line_counts())
    return stamp


def slot_medians(passes: Sequence[PassResult], field: str) -> List[float]:
    """For every slot (round, argv) of the passes, the median of `field`
    ("wall_s", "cpu_s" or "rss_mb") over the slot's runs."""
    slots: Dict[tuple, List[float]] = {}
    for p in passes:
        for r in p.runs:
            slots.setdefault((r.round_, r.inv.key), []).append(
                getattr(r, field))
    return [statistics.median(v) for v in slots.values()]


def summary(values: Sequence[float]) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, limit: Optional[int] = None) -> dict:
    """Run passes for about `seconds`; returns their samples and runs."""
    runner = Runner(work)
    rng = random.Random(seed)
    runner.sample()  # warm-up: writes bytecode, fills caches
    runner.setup.clear()
    runner.reference.clear()
    if not trace:  # a traced run reports no setup_s
        # a little ahead of the run, so that few samples are left to the end
        runner.sample_setup_every(0.9 * max(seconds, 1) / SETUP_SAMPLES)
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    if trace:  # whole pass pairs, as many as fit
        longest = 0.0
        while True:
            step = time.perf_counter()
            plain.append(runner.run_pass(workload, rng, False, limit))
            traced.append(runner.run_pass(workload, rng, True, limit))
            longest = max(longest, time.perf_counter() - step)
            if time.perf_counter() + longest > deadline:
                break
    else:
        plain.append(runner.run_pass(workload, rng, False, limit))
        while plain[-1].complete:
            p = runner.run_pass(workload, rng, False, limit, deadline)
            if p.runs:
                plain.append(p)
            if not p.complete:
                break
        runner.top_up_setup()
    return {"setup": runner.setup, "reference": runner.reference,
            "plain": plain, "traced": traced,
            "stamp": environment_stamp(runner)}


def report(name: str, seed: int, trace: bool, result: dict,
           digests: Dict[str, str]) -> dict:
    """Print the per-metric lines and return the final JSON object."""
    plain, traced = result["plain"], result["traced"]
    runs = [r for p in plain + traced for r in p.runs]
    problems = [(r.inv.key, run_problem(r, digests)) for r in runs]
    failed = [(key, why) for key, why in problems if why is not None]
    print(f"perfbench workload={name} seed={seed} trace={int(trace)} "
          f"passes={len(plain)}+{len(traced)} "
          f"whole={sum(p.complete for p in plain + traced)} runs={len(runs)}")
    print("env " + json.dumps(result["stamp"], sort_keys=True))
    for key, why in failed[:10]:
        print(f"FAILED {key}: {why}")
    print(f"fail_ratio {len(failed)}/{len(runs)} = "
          f"{len(failed) / len(runs):.6g}")

    metrics = {}
    if trace:
        per_pass = [pass_metrics([run_totals(r.spans["spans"],
                                             r.spans["counts"], r.inv.cached)
                                  for r in p.runs if r.spans is not None])
                    for p in traced]
        overhead = sum(slot_medians(traced, "wall_s")) - \
            sum(slot_medians(plain, "wall_s"))
        for metric, (unit, _, moves, where) in LAYER_MAP.items():
            if metric == "trace.overhead_s":
                values = [overhead]
            else:
                values = [m[metric] for m in per_pass]
            metrics[metric] = {"value": statistics.median(values),
                               "unit": unit}
            print(f"{metric} {summary(values)} {unit} "
                  f"(moves {moves} on {where})")
    else:
        whole = [p for p in plain if p.complete]
        samples = {  # printed for their spread: whole passes, setup samples
            "wall_s": [p.wall_s for p in whole],
            "cpu_s": [p.cpu_s for p in whole],
            "peak_rss_mb": [p.peak_rss_mb for p in whole],
            "setup_s": result["setup"],
        }
        measured = {
            "wall_s": sum(slot_medians(plain, "wall_s")),
            "cpu_s": sum(slot_medians(plain, "cpu_s")),
            "peak_rss_mb": max(slot_medians(plain, "rss_mb")),
            "setup_s": statistics.median(result["setup"]),
        }
        scale = REFERENCE_S / statistics.median(result["reference"])
        print(f"reference {summary(result['reference'])} s "
              f"host_scale={scale:.6g}")
        for metric, unit in END_TO_END.items():
            value = measured[metric] * (scale if unit == "s" else 1.0)
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{metric} {summary(samples[metric])} {unit} "
                  f"measured={measured[metric]:.6g} reported={value:.6g}")
    return {"correct": not failed, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncfact" / "cli.py").is_file():
        print(f"perfbench: no ncfact sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    digests = load_digests()
    with scratch() as work:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    out = report(args.workload, args.seed, bool(args.trace), result, digests)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
