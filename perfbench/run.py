#!/usr/bin/env python3
"""fcdpm benchmark: three CLI workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare <result dir A> <result dir B>

A run builds the release `fcdpm` binary and the helper in
`perfbench/tool`, generates the workload's input from `--seed`, sets up
(several times, reporting the median as `setup_s`), then runs the timed
command as a child process, closed loop with `--jobs 2`, until
`--seconds` have passed. Every output is checked after the timed region.
With `--trace 1` the run instead measures the per-layer metrics: a short
untraced loop gives the end-to-end wall and CPU time, and the helper
replays the same input through each layer's public functions with a
span around every call.

The last line on stdout is the result as one JSON object. The full
result, with every sample and the host description, is also written to
`.bench_run/results/`. See perfbench/README.md for the workloads, the
metrics and the layer table.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_ROOT = os.path.join(ROOT, ".bench_run")
WORKERS = 2
SETUP_REPS = 7
MIN_ITERATIONS = 5
# Share of a traced run's seconds spent on the untraced loop that
# measures end-to-end wall and CPU time; the replays get the rest.
UNTRACED_SHARE = 0.3

FLEET_SEEDS = 50  # x 96 jobs per seed = 4800 jobs, the fleet example's size
FLEET_CRASH_AFTER = 4320  # nine tenths of the fleet, checkpointed then killed
SWEEP_SEEDS = 40  # x 180 jobs per seed + extras = 7242 jobs
REFERENCE_SEED = 0xDAC0_2007  # the paper's reference trace (Table 2)

CHECKOUT_MARKERS = ("Cargo.toml", "Cargo.lock", "crates/cli/Cargo.toml", "crates/grid/Cargo.toml")


def log(message):
    print(message, file=sys.stderr, flush=True)


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def base_seed(seed):
    """Trace seeds of one workload seed: a 32-bit block start."""
    return splitmix64(seed) & 0xFFFFFFFF


def fleet_spec(seed):
    """The fleet example's axes (examples/grid_fleet.json) over 50 seeds."""
    return {
        "name": f"perfbench fleet, seed {seed}",
        "seeds": {"Range": {"start": base_seed(seed), "count": FLEET_SEEDS}},
        "workloads": ["Experiment1", "Experiment2"],
        "policies": ["Conv", "Asap", "FcDpm", "WindowedAverage"],
        "faults": ["None", "Starvation", "Combined"],
        "capacities_mamin": [50.0, 100.0],
        "resilient": [False, True],
    }


def sweep_grid(seed):
    """Paper-reproduction sweep: 3 workloads x 3 storages x 4 predictors
    x 5 policies per seed, one multi-device job per seed, and the
    reference-seed FC-DPM/Conv pair that Table 2 pins."""
    seeds = [base_seed(seed) + i for i in range(SWEEP_SEEDS)]
    workloads = [{kind: s} for s in seeds for kind in ("Experiment1", "Experiment2", "Dvs")]
    extra = [{"policy": "WindowedAverage", "workload": {"MultiDevice": s}} for s in seeds]
    extra += [{"policy": p, "workload": {"Experiment1": REFERENCE_SEED}} for p in ("FcDpm", "Conv")]
    return {
        "policies": ["Conv", "Asap", "FcDpm", "WindowedAverage", {"Quantized": 12}],
        "workloads": workloads,
        "storages": ["Ideal", "SuperCapacitor", "Kibam"],
        "predictors": ["LastValue", {"Regression": 8}, "LearningTree", "Oracle"],
        "extra_jobs": extra,
    }


class Sample:
    """One timed child process, as `fcdpm-perfbench exec` reports it."""

    def __init__(self, wall_s, cpu_s, maxrss_kb, nvcsw, code):
        self.wall_s, self.cpu_s, self.code = wall_s, cpu_s, code
        self.rss_mb, self.nvcsw = maxrss_kb / 1024.0, nvcsw
        self.jobs = 0


def invoke(tool, cmd, log_path, env=None, no_core=False):
    """Runs `cmd` from the checkout root with its output in `log_path`.
    The helper spawns and reaps it, so the timings and peak RSS are the
    command's own (see perfbench/tool/src/launch.rs)."""
    preexec = (lambda: resource.setrlimit(resource.RLIMIT_CORE, (0, 0))) if no_core else None
    proc = subprocess.run([tool, "exec", log_path, "--", *cmd], cwd=ROOT, env=env, preexec_fn=preexec,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot time {cmd[0]}: {proc.stderr.strip()}")
    return Sample(**json.loads(proc.stdout))


def fsync_tree(path):
    """Makes `path` and everything under it durable, so the writeback of
    files an untimed step wrote or removed never lands in a timed
    region."""
    for name in [path, *glob.glob(os.path.join(path, "**", "*"), recursive=True)]:
        fd = os.open(name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def only_subdir(path):
    (name,) = os.listdir(path)
    return os.path.join(path, name)


def write_json(path, value):
    with open(path, "w") as f:
        json.dump(value, f)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --------------------------------------------------------------------- build


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "fcdpm-cli", "--bin", "fcdpm"],
        # No --locked: the helper's lock file follows the repository's
        # crate graph, which later changes may extend.
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join("perfbench", "tool", "Cargo.toml")],
    ):
        # Cargo's progress goes to stderr; stdout stays for the result.
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "fcdpm"), os.path.join(release, "fcdpm-perfbench")


def host_info(run_dir):
    def first_line(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or None
        except OSError:
            return None

    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    real, fs_type, best = os.path.realpath(run_dir), None, -1
    with open("/proc/self/mounts") as f:
        for line in f:
            fields = line.split()
            mount = fields[1]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > best:
                fs_type, best = fields[2], len(mount)
    # A source checkout need not be a git repository: identify the
    # source by content as well.
    digest = hashlib.sha256()
    for pattern in ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml", "vendor/**/*.rs"):
        for name in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            digest.update(os.path.relpath(name, ROOT).encode())
            digest.update(read_bytes(name))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "fs_type": fs_type,
        "rustc": first_line(["rustc", "--version"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": digest.hexdigest(),
        "build_profile": "release",
    }


# ----------------------------------------------------------------- workloads


class Workload:
    """One timed CLI command with its input, start state and checks.

    `write_input()` and `start_state()` build what the timed command
    starts from in `self.dir`; `prepare(i)` readies iteration `i`
    (untimed); `command(i)` is the timed command; `finish(i)` reads the
    outputs and returns (jobs, failed jobs, problem or None); `check()`
    verifies the reference output after the timed region.
    """

    def __init__(self, fcdpm, tool, seed, run_dir):
        self.fcdpm, self.tool, self.seed, self.dir = fcdpm, tool, seed, run_dir
        self.problems = []

    def iter_dir(self, i):
        return os.path.join(self.dir, f"iter-{i}")

    def start_state(self):
        pass

    def prepare(self, i):
        shutil.rmtree(self.iter_dir(i), ignore_errors=True)

    def setup(self, rep):
        """Everything before the timed command, including one untimed
        warm-up of it; returns its wall time."""
        start = time.perf_counter()
        self.write_input()
        self.start_state()
        warm = f"warm-{rep}"
        self.prepare(warm)
        sample = invoke(self.tool, self.command(warm), self.iter_dir(warm) + ".log")
        elapsed = time.perf_counter() - start
        if sample.code != 0:
            raise SystemExit(f"perfbench: warm-up failed, see {self.iter_dir(warm)}.log")
        shutil.rmtree(self.iter_dir(warm))
        return elapsed

    def check_tool(self, *args):
        proc = subprocess.run([self.tool, *args], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            return proc.stderr.strip() or proc.stdout.strip() or "check failed"
        log(proc.stdout.strip())
        return None


class FleetFresh(Workload):
    name = "fleet_fresh"
    jobs = FLEET_SEEDS * 96

    def spec_path(self):
        return os.path.join(self.dir, "fleet.json")

    def write_input(self):
        write_json(self.spec_path(), fleet_spec(self.seed))

    def grid_run(self, out):
        return [self.fcdpm, "grid", "run", self.spec_path(), "--jobs", str(WORKERS), "--out", out]

    def command(self, i):
        return self.grid_run(self.iter_dir(i))

    def finish(self, i):
        text = read_bytes(os.path.join(only_subdir(self.iter_dir(i)), "aggregate.json"))
        agg = json.loads(text)
        failed = agg["failed"] + agg["timed_out"] + agg["quarantined"]
        problem = None
        if i == 0:
            self.reference = text
        else:
            if text != self.reference:
                problem = f"iteration {i}: aggregate.json differs from iteration 0"
            shutil.rmtree(self.iter_dir(i))
        return agg["jobs"], failed, problem

    def check(self):
        aggregate = os.path.join(only_subdir(self.iter_dir(0)), "aggregate.json")
        return self.check_tool("check-fleet", self.spec_path(), aggregate)

    def trace_args(self):
        return ["trace-fleet", "--spec", self.spec_path(), "--expect", only_subdir(self.iter_dir(0))]


class FleetResume(FleetFresh):
    name = "fleet_resume"

    def snapshot(self):
        return os.path.join(self.dir, "crashed")

    def start_state(self):
        crashed = self.snapshot()
        shutil.rmtree(crashed, ignore_errors=True)
        env = dict(os.environ, FCDPM_GRID_CRASH_POINT=f"after-job:{FLEET_CRASH_AFTER}")
        sample = invoke(self.tool, self.grid_run(crashed), crashed + ".log", env=env, no_core=True)
        if sample.code == 0 or not glob.glob(os.path.join(crashed, "*", "*.partial.jsonl")):
            raise SystemExit("perfbench: the crash hook did not leave a partial checkpoint")

    def prepare(self, i):
        FleetFresh.prepare(self, i)
        shutil.copytree(self.snapshot(), self.iter_dir(i))

    def command(self, i):
        return [self.fcdpm, "grid", "resume", self.spec_path(), "--jobs", str(WORKERS), "--out", self.iter_dir(i)]

    def finish(self, i):
        with open(self.iter_dir(i) + ".log") as f:
            report = f.read()
        jobs, failed, problem = FleetFresh.finish(self, i)
        want = jobs - FLEET_CRASH_AFTER
        if f"recomputed: {want}\n" not in report and problem is None:
            problem = f"iteration {i}: resume did not recompute exactly {want} jobs"
        return jobs, failed, problem

    def check(self):
        # Resume must reproduce a fresh run's aggregate byte for byte.
        control = os.path.join(self.dir, "control")
        if invoke(self.tool, self.grid_run(control), control + ".log").code != 0:
            return "control run failed"
        aggregate = os.path.join(only_subdir(control), "aggregate.json")
        if read_bytes(aggregate) != self.reference:
            return "resumed aggregate.json differs from a fresh run's"
        return self.check_tool("check-fleet", self.spec_path(), aggregate)

    def trace_args(self):
        return FleetFresh.trace_args(self) + ["--snapshot", only_subdir(self.snapshot())]


MASKED = re.compile(rb'"(wall_ms|worker|workers|total_wall_ms)": \d+')
SUMMARY = re.compile(r"^(\d+) jobs: (\d+) completed, (\d+) failed, (\d+) timed out", re.M)


class SweepBatch(Workload):
    name = "sweep_batch"
    # workloads x storages x predictors x policies, plus the extra jobs
    jobs = SWEEP_SEEDS * 3 * 3 * 4 * 5 + SWEEP_SEEDS + 2

    def grid_path(self):
        return os.path.join(self.dir, "sweep.json")

    def manifest(self, i):
        return os.path.join(self.iter_dir(i), "sweep.manifest.json")

    def write_input(self):
        write_json(self.grid_path(), sweep_grid(self.seed))

    def command(self, i):
        return [self.fcdpm, "batch", self.grid_path(), "--jobs", str(WORKERS), "--out", self.iter_dir(i)]

    def finish(self, i):
        with open(self.iter_dir(i) + ".log") as f:
            summary = SUMMARY.search(f.read())
        if summary is None:
            return self.jobs, 0, f"iteration {i}: batch printed no summary"
        jobs, completed = int(summary.group(1)), int(summary.group(2))
        # Scheduling fields differ run to run; everything else must not.
        masked = hashlib.sha256(MASKED.sub(rb'"\1": 0', read_bytes(self.manifest(i)))).digest()
        problem = None
        if i == 0:
            self.reference = masked
        else:
            if masked != self.reference:
                problem = f"iteration {i}: manifest differs from iteration 0"
            shutil.rmtree(self.iter_dir(i))
        return jobs, jobs - completed, problem

    def check(self):
        return self.check_tool("check-sweep", self.grid_path(), self.manifest(0))

    def trace_args(self):
        return ["trace-sweep", "--grid", self.grid_path(), "--expect", self.manifest(0)]


WORKLOADS = {w.name: w for w in (FleetFresh, FleetResume, SweepBatch)}


# --------------------------------------------------------------------- runs


def timed_loop(workload, seconds):
    """Closed loop: the next command starts when the previous one ends.
    Returns the samples and (attempted, failed) job counts."""
    samples, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while len(samples) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        i = len(samples)
        workload.prepare(i)
        fsync_tree(workload.dir)
        sample = invoke(workload.tool, workload.command(i), workload.iter_dir(i) + ".log")
        try:
            if sample.code != 0:
                raise ValueError(f"exit code {sample.code}")
            jobs, bad, problem = workload.finish(i)
        except (OSError, ValueError, KeyError) as e:
            jobs, bad, problem = workload.jobs, 0, f"iteration {i}: {e}"
        if problem:
            workload.problems.append(problem)
            bad = jobs  # an iteration whose output is wrong counts as failed
        sample.jobs = jobs
        samples.append(sample)
        attempted += jobs
        failed += bad
    return samples, attempted, failed


def trace_run(workload, seconds, samples):
    spans = os.path.join(workload.dir, "spans.jsonl")
    cmd = [workload.tool, *workload.trace_args(), "--work", os.path.join(workload.dir, "trace"),
           "--workers", str(WORKERS), "--seconds", str(seconds), "--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: traced replay failed: {proc.stderr.strip()}")
    traced = json.loads(proc.stdout)
    workload.problems.extend(traced["problems"])
    m = traced["metrics"]
    wall = statistics.median(s.wall_s for s in samples)
    m["trace.untraced_wall_s"] = wall
    m["runner.pool.cpu_util"] = statistics.median(s.cpu_s / (WORKERS * s.wall_s) for s in samples)
    explained = m["trace.serial_self_s"] + m["runner.exec.busy_s"] / WORKERS
    m["grid.engine.unattributed_frac"] = 1.0 - explained / wall
    # Keep the latest traced run's spans for inspection.
    shutil.copy(spans, os.path.join(RUN_ROOT, "results", f"{workload.name}.spans.jsonl"))
    return m, traced["jobs"], traced["failed"]


def run(args):
    for marker in CHECKOUT_MARKERS:
        if not os.path.isfile(os.path.join(ROOT, marker)):
            raise SystemExit(f"perfbench: {marker} is missing; run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[kind]}

    fcdpm, tool = build()
    os.makedirs(os.path.join(RUN_ROOT, "results"), exist_ok=True)
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    host = host_info(run_dir)
    if host["fs_type"] in ("tmpfs", "ramfs"):
        log(f"perfbench: warning: {run_dir} is on {host['fs_type']}; fsync costs are not real here")
    workload = WORKLOADS[args.workload](fcdpm, tool, args.seed, run_dir)
    try:
        setup = [workload.setup(rep) for rep in range(SETUP_REPS)]
        if args.trace:
            untraced = max(1, round(args.seconds * UNTRACED_SHARE))
            samples, attempted, failed = timed_loop(workload, untraced)
            metrics, jobs, bad = trace_run(workload, args.seconds - untraced, samples)
            attempted += jobs
            failed += bad
        else:
            samples, attempted, failed = timed_loop(workload, args.seconds)
            metrics = {
                "jobs_per_s": statistics.median(s.jobs / s.wall_s for s in samples),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            }
        problem = workload.check()
        if problem:
            workload.problems.append(problem)
            failed = attempted  # the reference output is wrong, so every copy of it is
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        metrics["completed_frac"] = (attempted - failed) / attempted

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    result = {
        "correct": not workload.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=host, problems=workload.problems, iterations=len(samples),
                  samples={"wall_s": [s.wall_s for s in samples], "rss_mb": [s.rss_mb for s in samples],
                           "cpu_s": [s.cpu_s for s in samples], "nvcsw": [s.nvcsw for s in samples],
                           "setup_s": setup})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    write_json(os.path.join(RUN_ROOT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"), record)

    for problem in workload.problems:
        log(f"perfbench: output check failed: {problem}")
    print(f"# {args.workload} seed {args.seed}: {len(samples)} timed runs of `fcdpm` with --jobs {WORKERS}, "
          f"{attempted} jobs attempted, {failed} failed, nproc {host['nproc']}, fs {host['fs_type']}")
    for name, unit in wanted.items():
        print(f"{name:<42} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"{'failed_frac':<42} {failed / attempted if attempted else 0.0:>16.6g} frac")
    print(json.dumps(result))


# ------------------------------------------------------------------ compare


HOST_KEYS = ("nproc", "cpu_model", "fs_type", "rustc", "build_profile")


def load_results(directory):
    results = []
    for name in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(name) as f:
            results.append(json.load(f))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    """Section 8 of the choosing-metrics guide: a gain needs wins in at
    least 9/10 of the pairs (ties count for neither) and a median
    difference beyond the baseline's interquartile range; a loss is a
    median worse by more than the bound, unresolved when the baseline's
    own spread is wider than the bound and the sides overlap."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_base, q3 = quartiles(base)
    med_change = statistics.median(change)
    gain = sign * (med_change - med_base)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if (q3 - q1) > bound * abs(med_base) and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(med_base):
        return "worse", wins
    return "unchanged", wins


def compare(dir_a, dir_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    a, b = load_results(dir_a), load_results(dir_b)
    if not a or not b:
        raise SystemExit("perfbench: both result directories need result files")
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in a + b}
    if len(hosts) != 1:
        raise SystemExit(f"perfbench: results come from unlike hosts and are not compared: {sorted(hosts)}")
    workloads = sorted({r["workload"] for r in a + b})
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(f"\n{name} [{metric['unit']}, {metric['better']} is better, bound {metric['bound']}]")
        print(f"{'workload':<14} {'A median':>12} {'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} "
              f"{'wins':>7}  verdict")
        for workload in workloads:
            pick = lambda rs: {r["seed"]: r["metrics"][name]["value"] for r in rs
                               if r["workload"] == workload and not r["trace"]}
            va, vb = pick(a), pick(b)
            if not va or not vb:
                continue
            pairs = [(va[s], vb[s]) for s in sorted(set(va) & set(vb))]
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            word, wins = verdict(list(va.values()), list(vb.values()), pairs, metric["better"], metric["bound"])
            print(f"{workload:<14} {qa[1]:>12.6g} {qa[0]:>11.5g}..{qa[2]:<11.5g} {qb[1]:>12.6g} "
                  f"{qb[0]:>11.5g}..{qb[2]:<11.5g} {wins:>3}/{len(pairs):<3}  {word}")
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in workloads:
        pick = lambda rs: {r["seed"]: r["metrics"] for r in rs if r["workload"] == workload and r["trace"]}
        ta, tb = pick(a), pick(b)
        seeds = sorted(set(ta) & set(tb))
        if not seeds:
            continue
        print(f"\ncounts on {workload}, seeds {seeds} (A -> B, exact)")
        for name in counts:
            left = [ta[s][name]["value"] for s in seeds]
            right = [tb[s][name]["value"] for s in seeds]
            print(f"  {name:<40} {left} -> {right}{'' if left == right else '   changed'}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            raise SystemExit("usage: perfbench/run.py compare <result dir A> <result dir B>")
        compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    run(args)


if __name__ == "__main__":
    main()
