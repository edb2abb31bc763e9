"""Proof-ladder benchmark for the rackyd CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rack_ybe --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the benchmark runs whole passes over the workload's
invocations, one ``rackyd`` process at a time (a closed loop with one
client), until ``--seconds`` is spent, and reports the end-to-end metrics of
BENCHMARK.json: each is the median of its samples, and timings are taken at
a reference speed of the CPU (see ``end_to_end``).  With
``--trace 1`` it runs one untraced process pass and then a child that
alternates untraced and traced in-process passes (see tracer.py); it reports
the per-layer metrics.

Every invocation is gated: exit code, the verdict fields of its JSON report,
the artifact it must leave behind, on the default seed the sha256 of its
stdout, and the oracles that compare verdicts within a pass.  Each child runs
under a wall-clock timeout and an address-space limit set in the child only.
The last line of stdout is the JSON result; the exit code is 0 only when no
invocation failed.  ``--record-digests`` rewrites digests.json from the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 20          # set-ups before the first pass; SETUP_PER_PASS precede each pass
SETUP_PER_PASS = 5
MEM_LIMIT = 1 << 30          # RLIMIT_AS of every child, in bytes
CHILD_TIMEOUT = 60.0         # wall-clock limit of one rackyd process
HARD_LIMIT = 150.0           # nothing new starts this long after the run began
REF_SECONDS = 0.020          # time of reference_loop() at the speed timings are scaled to
DIGESTS = BENCH / "digests.json"


# ---------------------------------------------------------------------------
# guarded children

def pin_to_one_cpu():
    """Run this process and every child on the highest-numbered CPU it may
    use, so that reference_loop() times the CPU the measured work runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_loop():
    """Time a fixed pure-Python loop: how fast the CPU runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds, reference):
    """``seconds`` measured right after reference_loop() took ``reference``
    seconds, rescaled to a CPU on which that loop takes REF_SECONDS."""
    return seconds * REF_SECONDS / reference


def spawn(argv, cwd, stdout_path, timeout):
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS MB, timed out).

    The child gets ``RLIMIT_AS = MEM_LIMIT`` and is killed after ``timeout``
    seconds of wall time.  Wall time runs from fork to exit, and the peak RSS
    is the child's ``ru_maxrss`` as reported by ``os.wait4``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    mem_limit = MEM_LIMIT

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_limit, mem_limit))

    state = {"pid": None, "reaped": False, "killed": False}

    def on_alarm(signum, frame):
        if state["pid"] is not None and not state["reaped"]:
            state["killed"] = True
            os.kill(state["pid"], signal.SIGKILL)

    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=limit)
        state["pid"] = proc.pid
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["reaped"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, state["killed"]


def rackyd_argv(inv):
    return [sys.executable, "-m", "rackyd.cli", *inv.argv]


# ---------------------------------------------------------------------------
# the gate

def _field(report, path):
    for part in path.split("."):
        if not isinstance(report, dict) or part not in report:
            return None
        report = report[part]
    return report


def judge(inv, code, stdout, artifact_size, digests):
    """Return (report or None, failure reason or None) for one invocation."""
    if code != inv.code:
        return None, f"exit code {code}, expected {inv.code}"
    report = None
    if inv.rows is not None:
        rows = [line.split() for line in stdout.splitlines()]
        if len(rows) != inv.rows or any(
                len(r) != inv.rows or not all(v.lstrip("-").isdigit() for v in r) for r in rows):
            return None, f"expected a {inv.rows}x{inv.rows} integer layout"
    else:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return None, "stdout is not one JSON report"
        for path, want in inv.verdict.items():
            got = _field(report, path)
            if got != want:
                return report, f"{path} = {got!r}, expected {want!r}"
    if inv.artifact and artifact_size <= 0:
        return report, f"artifact {inv.artifact} missing or empty"
    if digests is not None:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if digests.get(inv.key) != digest:
            return report, "stdout differs from the recorded digest"
    return report, None


def judge_pass(plan, outcomes, digests):
    """Gate one pass.  ``outcomes[key] = (code, stdout, artifact size)``.

    Returns {key: failure reason or None}; an oracle that disagrees fails the
    second invocation it names.
    """
    reasons, reports = {}, {}
    for inv in plan.invocations:
        code, stdout, size = outcomes[inv.key]
        reports[inv.key], reasons[inv.key] = judge(inv, code, stdout, size, digests)
    for oracle in plan.oracles:
        a, b = reports.get(oracle.a), reports.get(oracle.b)
        if a is None or b is None or reasons[oracle.a] or reasons[oracle.b]:
            continue
        for left, right in oracle.fields:
            if _field(a, left) != _field(b, right):
                reasons[oracle.b] = (f"oracle: {oracle.a} {left} = {_field(a, left)!r} but "
                                     f"{oracle.b} {right} = {_field(b, right)!r}")
                break
    return reasons


# ---------------------------------------------------------------------------
# passes

class Run:
    """One benchmark run: a workload, a seed, a work directory and a clock."""

    def __init__(self, workload, seed, max_rungs=None):
        self.workload = workload
        self.seed = seed
        self.max_rungs = max_rungs
        self.start = time.perf_counter()
        self.workdir = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.failures = []      # (pass label, key, reason)
        self.attempted = 0
        self.reference = []     # every reference_loop() time of the run
        self.last_reference = None  # the loop timed right after the last invocation
        self.digests = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            with open(DIGESTS, encoding="utf-8") as fh:
                self.digests = json.load(fh).get(workload, {})

    def generate(self, into):
        """Generate the inputs into an empty directory; return (plan, seconds
        at reference speed)."""
        shutil.rmtree(into, ignore_errors=True)
        into.mkdir(parents=True)
        self.reference.append(reference_loop())
        t0 = time.perf_counter()
        plan = WORKLOADS[self.workload](self.seed, into, self.max_rungs)
        return plan, at_reference_speed(time.perf_counter() - t0, self.reference[-1])

    def setup(self, repeats=SETUP_REPEATS):
        """Generate the inputs ``repeats`` times; return the per-repeat times
        at reference speed."""
        times = []
        for _ in range(repeats):
            self.plan, took = self.generate(self.workdir)
            times.append(took)
        self.measure_start = time.perf_counter()
        return times

    def setup_sample(self):
        """Time one more set-up, into a scratch directory, between passes."""
        scratch = self.workdir / "setup-sample"
        took = self.generate(scratch)[1]
        shutil.rmtree(scratch)
        return took

    def remaining(self):
        return HARD_LIMIT - (time.perf_counter() - self.start)

    def record(self, label, reasons):
        self.attempted += len(reasons)
        for key, reason in reasons.items():
            if reason:
                self.failures.append((label, key, reason))

    def invoke(self, inv, n):
        """Run one invocation as its own process; return its outcome
        (code, stdout, artifact size) and timing (wall s, peak RSS MB,
        elapsed_ms reported by the CLI, wall s at reference speed).

        The reference loop is timed right before and right after the child,
        and the wall time is scaled by the mean of the two, since the CPU's
        speed can change while a child of a second or more runs.  The loop
        after one invocation serves as the loop before the next one of the
        same pass.
        """
        out = self.workdir / f"stdout.{n}"
        if self.last_reference is None:
            self.reference.append(reference_loop())
            self.last_reference = self.reference[-1]
        before = self.last_reference
        code, wall, rss, killed = spawn(rackyd_argv(inv), self.workdir, out,
                                        min(CHILD_TIMEOUT, self.remaining()))
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = Path(f"{out}.err").read_text(encoding="utf-8", errors="replace")
        art = self.workdir / inv.artifact if inv.artifact else None
        size = art.stat().st_size if art and art.is_file() else -1
        elapsed = next((float(line.split("=", 1)[1]) for line in stderr.splitlines()
                        if line.startswith("elapsed_ms=")), None)
        self.reference.append(reference_loop())
        self.last_reference = self.reference[-1]
        return (("timeout" if killed else code, stdout, size),
                (wall, rss, elapsed, at_reference_speed(wall, (before + self.last_reference) / 2)))

    def process_pass(self, label, top_repeats=1):
        """One untraced pass, one process per invocation; the top invocation
        runs ``top_repeats`` times in a row, and every run is gated.

        Returns ({key: (wall s, peak RSS MB, elapsed_ms, wall s at reference
        speed)} of the first run of each invocation, [wall s at reference
        speed of every run of the top invocation]).
        """
        for inv in self.plan.invocations:
            if inv.artifact:
                (self.workdir / inv.artifact).unlink(missing_ok=True)
        self.last_reference = None
        top = self.plan.top().key
        outcomes, timings, top_walls = {}, {}, []
        for n, inv in enumerate(self.plan.invocations):
            if self.remaining() <= 0:
                outcomes[inv.key] = (None, "", -1)
                continue
            outcomes[inv.key], timings[inv.key] = self.invoke(inv, n)
            if inv.key != top:
                continue
            top_walls.append(timings[inv.key][3])
            for repeat in range(2, top_repeats + 1):
                if self.remaining() <= 0:
                    break
                outcome, timing = self.invoke(inv, n)
                self.record(label, {f"{inv.key} (run {repeat})":
                                    judge(inv, *outcome, self.digests)[1]})
                top_walls.append(timing[3])
        self.stdout = {key: out for key, (_, out, _) in outcomes.items()}
        self.record(label, judge_pass(self.plan, outcomes, self.digests))
        return timings, top_walls

    def traced_passes(self, budget):
        """Run tracer.py in a guarded child; return its list of passes."""
        plan = [{"key": inv.key, "argv": inv.argv, "artifact": inv.artifact}
                for inv in self.plan.invocations]
        plan_path, out_path = self.workdir / "trace_plan.json", self.workdir / "trace_out.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        argv = [sys.executable, str(BENCH / "tracer.py"), plan_path.name, out_path.name,
                f"{budget:.3f}"]
        code, _, _, killed = spawn(argv, self.workdir, self.workdir / "tracer.stdout",
                                   max(self.remaining(), 1.0))
        if code != 0 or killed or not out_path.is_file():
            self.attempted += len(plan)
            self.failures.append(("trace", "tracer.py", "timeout" if killed else f"exit {code}"))
            return []
        with open(out_path, encoding="utf-8") as fh:
            passes = json.load(fh)["passes"]
        for n, p in enumerate(passes):
            outcomes = {r["key"]: (r["code"], r["stdout"], r["artifact_size"]) for r in p["results"]}
            label = f"{'traced' if p['traced'] else 'in-process'} pass {n // 2}"
            self.record(label, judge_pass(self.plan, outcomes, self.digests))
        return passes


# ---------------------------------------------------------------------------
# metrics

def summary(values):
    """The median of a list of samples as the value, with min, quartiles and
    count beside it."""
    values = sorted(values)
    if not values:
        return {"value": 0.0, "min": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "min": values[0], "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(run, setup_times, seconds):
    """Passes until ``seconds`` are spent; every metric is the median over the
    run's samples, and every timing sample is taken at reference speed.

    On a shared host the speed of a CPU moves between states that last from
    under a second to minutes and lie up to 1.5x apart, so raw medians of
    runs of the same code spread by 15-25 %.  Pinned to one CPU, the time
    of reference_loop() around an invocation follows that speed closely,
    and dividing by it takes the drift out.  The loop does not
    touch rackyd, so a change to the program moves a scaled time exactly as
    much as the raw one.  Memory is not scaled.  ``top_s`` pools every run
    of the top invocation (see ``Plan.top_repeats``); ``wall_s`` counts the
    first run of each invocation only.
    """
    passes, top_walls = [], []
    while True:
        setup_times += [run.setup_sample() for _ in range(SETUP_PER_PASS)]
        t0 = time.perf_counter()
        timings, walls = run.process_pass(f"pass {len(passes)}", run.plan.top_repeats)
        passes.append(timings)
        top_walls += walls
        took = time.perf_counter() - t0
        if time.perf_counter() - run.measure_start + took > seconds or run.remaining() <= 0:
            break
    top = run.plan.top().key
    done = [p for p in passes if len(p) == len(run.plan.invocations)]
    return {
        "setup_s": ("s", summary(setup_times)),
        "wall_s": ("s", summary([sum(t[3] for t in p.values()) for p in done])),
        "top_s": ("s", summary(top_walls)),
        "peak_rss_mb": ("MB", summary([max(t[1] for t in p.values()) for p in done])),
    }, {"top_invocation": top, "passes": len(passes),
        "reference_median_s": statistics.median(run.reference)}


SPAN_METRICS = {
    "cli.emit_s": ["cli.emit"],
    "jsonio.load_s": ["jsonio.load"],
    "racks.group_verify_s": ["racks.group_verify"],
    "racks.check_s": ["racks.check"],
    "group_hopf.hopf_axioms_s": ["group_hopf.hopf_axioms"],
    "group_hopf.action_axioms_s": ["group_hopf.action_axioms"],
    "yd.module_build_s": ["yd.module_build"],
    "yd.check_yd_s": ["yd.check_yd"],
    "yd.q_conditions_s": ["yd.q_conditions"],
    "yd.braiding_s": ["yd.braiding"],
    "yd.check_ybe_s": ["yd.check_ybe"],
    "yd.braided_leibniz_s": ["yd.braided_leibniz"],
    "linalg.mat_mul_s": ["linalg.mat_mul"],
    "linalg.kron_s": ["linalg.kron"],
    "linalg.matrix_eq_s": ["linalg.matrix_eq"],
    "linalg.rref_s": ["linalg.rref"],
    "leibniz.s": ["leibniz.core"],
    "envelope.build_s": ["envelope.build"],
    "envelope.inv_part_s": ["envelope.inv_part"],
    "envelope.checks_s": ["envelope.checks"],
}
CALL_METRICS = {
    "linalg.mat_mul_calls": "linalg.mat_mul",
    "linalg.rref_calls": "linalg.rref",
    "envelope.inv_part_calls": "envelope.inv_part",
}
COUNT_METRICS = ["yd.act_basis_calls", "group_hopf.products", "envelope.pbw_products",
                 "linalg.dense_entries"]
LAYERS = ["cli", "jsonio", "racks", "group_hopf", "yd", "linalg", "leibniz", "envelope"]


def self_times(spans):
    """Self time in ns of every span: its duration minus its children's."""
    own = [end - start for _, _, _, _, start, end in spans]
    base = spans[0][1] if spans else 0
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            own[parent - base] -= end - start
    return own


def layer_split(record):
    """Per-layer metrics of one traced pass, in seconds and counts."""
    spans = record["spans"]
    own = self_times(spans)
    by_name, calls = {}, {}
    for span, t in zip(spans, own):
        by_name[span[3]] = by_name.get(span[3], 0) + t
        calls[span[3]] = calls.get(span[3], 0) + 1
    out = {}
    for metric, names in SPAN_METRICS.items():
        out[metric] = ("s", sum(by_name.get(n, 0) for n in names) / 1e9)
    for metric, name in CALL_METRICS.items():
        out[metric] = ("count", calls.get(name, 0))
    for metric in COUNT_METRICS:
        out[metric] = ("count", record["counts"].get(metric, 0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", sum(t for n, t in by_name.items()
                                           if n.split(".")[0] == layer) / 1e9)
    roots = sum(end - start for _, _, parent, _, start, end in spans if parent < 0)
    out["trace.wall_s"] = ("s", record["wall_ns"] / 1e9)
    out["trace.uncovered_s"] = ("s", (record["wall_ns"] - roots) / 1e9)
    return out


def per_layer(run, seconds):
    timings, _ = run.process_pass("process pass")
    overhead = sum(w - e / 1000.0 for w, _, e, _ in timings.values() if e is not None)
    twins = run.plan.twins
    ratio = 0.0
    if twins and all(k in timings for k in twins):
        ratio = timings[twins[0]][3] / timings[twins[1]][3]
    budget = seconds - (time.perf_counter() - run.measure_start)
    passes = run.traced_passes(max(budget, 0.0))
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_ns"])
    untraced = [p["wall_ns"] for p in passes if not p["traced"]]
    metrics = {"cli.overhead_s": ("s", overhead), "scalars.qq_over_gfp": ("ratio", ratio)}
    extra = {"traced_passes": len(traced)}
    if traced:
        median_pass = traced[(len(traced) - 1) // 2]
        metrics.update(layer_split(median_pass))
        metrics["trace.overhead_frac"] = (
            "ratio", statistics.median(p["wall_ns"] for p in traced) / statistics.median(untraced) - 1)
        extra["spans"] = median_pass["spans"]
    return metrics, extra


# ---------------------------------------------------------------------------
# entry point

def environment():
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rackyd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()}


def run_benchmark(workload, seed, seconds, trace, max_rungs=None):
    """Run one workload; return the result dict (the JSON line plus context)."""
    run = Run(workload, seed, max_rungs)
    try:
        setup_times = run.setup()
        if trace:
            metrics, extra = per_layer(run, seconds)
        else:
            metrics, extra = end_to_end(run, setup_times, seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        **environment(), **extra, "metrics": metrics,
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures,
    }


def _value(entry):
    unit, value = entry
    return value["value"] if isinstance(value, dict) else value


def report(result):
    """Print the human-readable lines and the final JSON line."""
    print(f"rackyd perfbench: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} python={result['python']} nproc={result['nproc']} "
          f"commit={result['commit']} src_sha256={result['src_sha256'][:12]}")
    if "reference_median_s" in result:
        print(f"  timings at reference speed, where reference_loop() takes {REF_SECONDS} s; "
              f"in this run it took {result['reference_median_s']:.6g} s (median)")
    for name, (unit, value) in result["metrics"].items():
        if isinstance(value, dict):
            print(f"  {name:28s} {value['value']:.6g} {unit}  (median; min {value['min']:.6g}, "
                  f"q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, n={value['n']})")
        else:
            print(f"  {name:28s} {value:.6g} {unit}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':28s} {frac:.6g} ratio  ({result['failed']} of "
          f"{result['attempted']} invocations)")
    for label, key, reason in result["failures"]:
        print(f"FAILED {label} {key}: {reason}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] if result["attempted"] else 1,
        "metrics": {name: {"value": _value(entry), "unit": entry[0]}
                    for name, entry in result["metrics"].items()},
    }
    print(json.dumps(line))
    return line


def record_digests():
    """Rewrite digests.json from one pass per workload on the default seed."""
    table = {}
    for workload in WORKLOADS:
        run = Run(workload, DEFAULT_SEED)
        run.digests = None
        try:
            run.setup(repeats=1)
            run.process_pass("record")
            if run.failures:
                raise SystemExit(f"{workload}: gate fails, digests not recorded: {run.failures}")
            table[workload] = {key: hashlib.sha256(out.encode("utf-8")).hexdigest()
                               for key, out in run.stdout.items()}
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rackyd" / "cli.py").is_file():
        print(f"error: no rackyd sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    pin_to_one_cpu()
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    line = report(result)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
