"""Run one benchmark workload against the partgrowth CLI in ./src.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload tables|series|boundary|all \
        --seed N --seconds S --trace 0|1

Each operation is one subcommand in a fresh interpreter
(python -m partgrowth.cli ... with PYTHONPATH=src), run one after another:
a closed loop with one client and one child at a time.  The runner times
each child from outside and reads its CPU time and peak resident set from
os.wait4 (in spawner.py).  Every output is then checked against
oracles.py; checking is not timed.  A run makes whole rounds of the workload's operations: the
whole number of rounds, at least one, whose measured time comes nearest
to --seconds, judged from the rounds so far.

--trace 0 reports the end-to-end metrics (medians over the rounds):
  wall_s       wall time of one round of operations
  cpu_s        user + system CPU time of one round's children
  peak_rss_mb  largest peak resident set of any one operation (MiB)
  setup_s      median time for a fresh interpreter to import
               partgrowth.cli and answer --help, sampled twice before
               every operation so the samples spread over the run
--trace 1 runs one round untraced and one traced (traced_child.py) and
reports the per-layer metrics of spans.py, with the tracing overhead.  It
writes every span, with its operation id, to .perfbench_spans.WORKLOAD.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass

import oracles
import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS_OUT = os.path.join(ROOT, ".perfbench_spans.{}.json")  # traced runs write here
HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CHILD = os.path.join(HERE, "traced_child.py")
SPAWNER = os.path.join(HERE, "spawner.py")
DEADLINE_S = 170          # for the whole run: a stuck run still ends within 180 s
SETUP_PER_OP = 2
MAX_UNATTRIBUTED_S = 0.05  # per traced op: time no span covers


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


class Spawner:
    """Runs children through spawner.py, which keeps their peak RSS their own."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen([sys.executable, SPAWNER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, tag):
        out = os.path.join(WORK, f"{tag}.out")
        request = {"argv": [sys.executable, *argv], "env": self.env,
                   "out": out, "err": os.path.join(WORK, f"{tag}.err")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        child = Child(**json.loads(self.proc.stdout.readline()))
        with open(out, encoding="utf-8") as fp:
            child.output = fp.read()
        return child

    def close(self):
        """Stop the spawner, and with it any child still running."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


@dataclass
class Child:
    """One finished child process: exit status, wall, CPU and peak RSS."""

    status: int
    wall: float
    cpu: float
    rss_mb: float
    output: str = ""


class Run:
    """Counts and failures of one benchmark run."""

    def __init__(self, spawner, name, seed):
        self.spawner = spawner
        self.name = name
        self.ctx = workloads.Context(seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def problem(self, what):
        print(f"[{self.name}] {what}", file=sys.stderr)
        self.correct = False

    def setup_sample(self):
        """Wall time of a fresh `python -m partgrowth.cli --help`."""
        child = self.spawner.run(["-m", "partgrowth.cli", "--help"], "setup")
        if child.status != 0 or not child.output.startswith("usage:"):
            self.problem(f"--help exited {child.status}")
        return child.wall

    def round(self, traced=False, setup_times=None):
        """Run every op once; returns (children, traces) in op order.

        With setup_times, SETUP_PER_OP set-up samples run before each op,
        so that they spread over the whole run.
        """
        children, traces = [], []
        for i, op in enumerate(workloads.WORKLOADS[self.name]):
            if setup_times is not None:
                setup_times.extend(self.setup_sample() for _ in range(SETUP_PER_OP))
            tag = f"{self.name}-{i}"
            if traced:
                trace_path = os.path.join(WORK, f"{tag}.trace.json")
                child = self.spawner.run([TRACED_CHILD, trace_path, *op.argv], tag)
                with open(trace_path, encoding="utf-8") as fp:
                    traces.append(json.load(fp))
            else:
                child = self.spawner.run(["-m", "partgrowth.cli", *op.argv], tag)
            children.append(child)
            self.attempted += 1
            wrong = op.verify(child.output, child.status, self.ctx)
            if wrong:
                self.failed += 1
                if op.fault is None:
                    self.problem(f"{' '.join(op.argv)}: exit {child.status}: {wrong}")
            elif op.fault:
                print(f"[{self.name}] known fault no longer shows: {' '.join(op.argv)}",
                      file=sys.stderr)
        return children, traces


def end_to_end(spawner, name, seed, seconds):
    run = Run(spawner, name, seed)
    run.setup_sample()  # fills the bytecode cache
    setup_times, walls, cpus, rss = [], [], [], []
    while True:
        children, _ = run.round(setup_times=setup_times)
        walls.append(sum(c.wall for c in children))
        cpus.append(sum(c.cpu for c in children))
        rss.append(max(c.rss_mb for c in children))
        # stop at the whole number of rounds that comes nearest to `seconds`
        if sum(walls) + statistics.mean(walls) / 2 >= seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return run, metrics


def per_layer(spawner, name, seed):
    run = Run(spawner, name, seed)
    plain, _ = run.round()
    children, traces = run.round(traced=True)
    totals, op_self = spans.layer_metrics(traces)
    unattributed = 0.0
    for op, trace, own in zip(workloads.WORKLOADS[name], traces, op_self):
        gap = trace["wall_s"] - own
        if not 0.0 <= gap <= MAX_UNATTRIBUTED_S:
            run.problem(f"{' '.join(op.argv)}: span self times sum to {own:.6f} s, "
                        f"traced wall {trace['wall_s']:.6f} s")
        unattributed += gap
    metrics = {key: (value, "s" if key in spans.TIME_METRICS else "count")
               for key, value in totals.items()}
    metrics["trace.overhead_s"] = (sum(c.wall for c in children)
                                   - sum(c.wall for c in plain), "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    ops = [{"op": f"{name}-{i}", "argv": list(op.argv), **trace}
           for i, (op, trace) in enumerate(zip(workloads.WORKLOADS[name], traces))]
    with open(SPANS_OUT.format(name), "w", encoding="utf-8") as fp:
        json.dump(ops, fp)
    return run, metrics


def run_workload(spawner, name, seed, seconds, trace):
    run, metrics = (per_layer(spawner, name, seed) if trace
                    else end_to_end(spawner, name, seed, seconds))
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "partgrowth", "cli.py")):
        print(f"error: no partgrowth sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * (3 if args.workload == "all" else 1))
    os.makedirs(WORK, exist_ok=True)
    spawner = Spawner()
    try:
        problems = oracles.self_test()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result = run_workload(spawner, name, args.seed, args.seconds, args.trace)
            if problems:
                print(f"oracle self test failed: {problems}", file=sys.stderr)
                result["correct"] = False
            results[name] = result
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for key, m in result["metrics"].items():
                print(f"  {key:36s} {m['value']:14.6f} {m['unit']}")
    except Timeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        spawner.close()
        for entry in os.scandir(WORK):
            os.unlink(entry.path)
        os.rmdir(WORK)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
