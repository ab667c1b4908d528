"""Benchmark of qfc: seeded closed-loop workloads, one client, no threads.

Run from the repository root:

    python3 bench/run.py --workload compose_mix --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass and the tracing overhead.  The run record
comes first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md describes the
workloads and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
RUN_PY = os.path.abspath(__file__)
WORKLOADS = ("compose_mix", "decide", "cli")
SETUP_PROBES = 5
# rounds in the traced pass: a fixed amount of work, so that the counts
# repeat exactly for a seed
TRACE_ROUNDS = 2
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Workload:
    """The seeded deck of one workload and how its operations are called."""

    def __init__(self, name, seed, inprocess=False):
        import workloads

        self.tmpdir = None
        if name == "compose_mix":
            self.deck = workloads.build_compose_mix(seed)
        elif name == "decide":
            self.deck = workloads.build_decide(seed)
        else:
            self.tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
            self.deck = workloads.build_cli(seed, ROOT, self.tmpdir)
        self.inprocess = inprocess and name == "cli"

    def ops(self, rounds=None):
        return [op for ops in self.deck[:rounds] for op in ops]

    def call(self, op):
        return op.inprocess() if self.inprocess else op.call()

    def warm_up(self):
        """One untimed call, then the deck leaves the collector's view so
        that collections during the run scan only what the library made."""
        try:
            self.call(self.deck[0][0])
        except Exception:
            pass
        gc.collect()
        gc.freeze()

    def close(self):
        if self.tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


class Tally:
    """Passes over a fixed list of operations: the latencies of each
    operation, one per pass, and the outcomes of their checks."""

    def __init__(self, work, ops):
        self.work = work
        self.ops = ops
        self.latencies = [[] for _ in ops]
        self.pass_seconds = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures other than the known-defect inputs

    def run_pass(self):
        results = []
        for lat, op in zip(self.latencies, self.ops):
            start = perf_counter()
            try:
                res, ok = self.work.call(op), True
            except Exception:
                res, ok = None, False
            lat.append(perf_counter() - start)
            results.append((op, res, ok))
        self.pass_seconds.append(sum(lat[-1] for lat in self.latencies))
        for op, res, ok in results:
            try:
                ok = ok and bool(op.check(res))
            except Exception:
                ok = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += not op.known_defect

    def run(self, seconds):
        """Whole passes while another pass of the mean length so far fits
        in `seconds` of timed operations; at least one."""
        self.run_pass()
        while sum(self.pass_seconds) + statistics.mean(self.pass_seconds) <= seconds:
            self.run_pass()

    def steady(self):
        """Each operation's slowest pass.  Other tenants of a shared machine
        speed it up in bursts of tens of seconds; the slowest of several
        passes is its usual speed, where the mean or the fastest would
        follow the bursts."""
        return [max(lat) for lat in self.latencies]


def probe_setup(args):
    """Seconds from starting a fresh workload process until it is ready
    for its first timed operation."""
    cmd = [sys.executable, RUN_PY, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed")
    return ready - start


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_start_metrics():
    """Bare interpreter start and the import time of qfc.cli, in ms."""
    starts = []
    for _ in range(5):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(perf_counter() - t)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    imports = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qfc.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        line = next(l for l in proc.stderr.splitlines() if l.rstrip().endswith("| qfc.cli"))
        imports.append(int(line.split("|")[1]) / 1000.0)
    return statistics.median(starts) * 1000.0, statistics.median(imports)


def end_to_end(args):
    work = Workload(args.workload, args.seed)
    try:
        work.warm_up()
        tally = Tally(work, work.ops())
        tally.run(args.seconds)
        rss = peak_rss_mb(children=args.workload == "cli")
    finally:
        work.close()
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    lat = tally.steady()
    n = len(lat)
    metrics = {
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
        "success_ratio": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    samples = dict.fromkeys(metrics, tally.attempted)
    samples.update(setup_s=SETUP_PROBES, peak_rss_mb=1)
    rows = [(k, v, UNITS[k], samples[k]) for k, v in metrics.items()]
    rows += [
        ("fail_ratio", tally.failed / tally.attempted, "ratio", tally.attempted),
        ("operations", n, "count", n),
        ("passes", len(tally.pass_seconds), "count", len(tally.pass_seconds)),
        ("latency_p90_beyond", n - -(-9 * n // 10), "count", n),
    ]
    return tally, {k: (v, UNITS[k]) for k, v in metrics.items()}, rows


def per_layer(args):
    import tracing
    import workloads

    work = Workload(args.workload, args.seed, inprocess=True)
    try:
        work.warm_up()
        ops = work.ops(TRACE_ROUNDS)
        plain, traced = Tally(work, ops), Tally(work, ops)
        tracers = []
        # untraced and traced passes alternate, so that both see the same
        # machine; the first traced pass gives the per-layer figures
        while not tracers or sum(plain.pass_seconds) < args.seconds / 2:
            plain.run_pass()
            tracers.append(tracing.Tracer())
            tracers[-1].install(callers=[workloads])
            try:
                traced.run_pass()
            finally:
                tracers[-1].uninstall()
            del tracers[1:]
    finally:
        work.close()
    tracer = tracers[0]
    tracer.write_spans(tracing.trace_path(ROOT, args.workload, args.seed))
    n = len(ops)
    metrics = tracer.layer_metrics(n)
    units = {k: ("ratio" if k.endswith("_ratio") else "ms/op" if k.endswith("ms")
                 else "calls/op") for k in metrics}
    if args.workload == "cli":
        start_ms, import_ms = cli_start_metrics()
        main_ms = statistics.median(plain.steady()) * 1000.0
    else:
        start_ms = import_ms = main_ms = 0.0
    for k, v in (("cli.interpreter_start_ms", start_ms), ("cli.import_ms", import_ms),
                 ("cli.main_ms", main_ms)):
        metrics[k], units[k] = v, "ms"
    metrics["trace.untraced_ops_per_s"] = n / statistics.median(plain.pass_seconds)
    metrics["trace.traced_ops_per_s"] = n / statistics.median(traced.pass_seconds)
    units["trace.untraced_ops_per_s"] = units["trace.traced_ops_per_s"] = "1/s"
    rows = [(k, v, units[k], n) for k, v in metrics.items()]
    return traced, {k: (v, units[k]) for k, v in metrics.items()}, rows


def run_one(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        work = Workload(args.workload, args.seed)
        try:
            work.warm_up()
            print("ready", flush=True)
        finally:
            work.close()
        return 0
    tally, metrics, rows = (per_layer if args.trace else end_to_end)(args)
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} commit={git_commit()}")
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} samples")
    for name, value, unit, n in rows:
        print(f"{name:44s} {value:14.6g} {unit:8s} {n}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; the last line merges their results
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfc", "__init__.py")):
        print("bench/run.py: run it from the repository root (src/qfc not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
