#!/usr/bin/env python3
"""Time the frontier instances and write BENCH_frontier.json.

Run from anywhere:  python scripts/frontier.py

It imports rackyd from this checkout's src/ and times, in one process
unless a row says otherwise:

- kX of the dihedral quandle D21 (over its inner group) and of the S4 and S5
  conjugation quandles (over S4 and S5): ``braided-leibniz --rack-q`` on the
  module and ``check-ybe`` on its braiding, each a whole ``rackyd.cli.run``
  call with stdout captured (the module and braiding files are written
  first, untimed);
- kX of the S5 conjugation quandle, writing artifacts: ``linearize --json``
  from the augmented rack, ``braiding-matrix --json`` and
  ``braided-leibniz --rack-q --json`` from the module, each a whole
  ``rackyd.cli.run`` call that writes its artifact to a scratch file;
- kX of the S6 conjugation quandle (dimension 720): ``check-ybe`` alone;
- kX of the dihedral quandle D9: ``check-ybe`` and ``braided-leibniz
  --rack-q``, each as a whole ``python -B -m rackyd.cli`` process (the
  ``check-ybe`` one started by the launcher below, as on S6), which
  in-process rows cannot see; ``braided-leibniz`` has the longest import
  chain of the CLI.  Each command has two rows.  In the first the bytecode
  cache prefix (``PYTHONPYCACHEPREFIX``) is an empty directory, so every
  module a process imports, the standard library's too, is compiled from
  source, and ``-B`` keeps it empty.  Compiling takes most of such a process
  and spreads its runs by about 10 %, so the twin row, "bytecode present",
  reads a prefix that one untimed run of the command filled first: there a
  change of a few milliseconds per process shows;
- ``linearize --json`` as such a process, compiling its imports, on kX of
  D9, of the S5 transposition class (S5 acting by conjugation on its ten
  transpositions, the benchmark's ``s5transp`` instance) and of the S6
  conjugation quandle, and ``check-yd``, ``braiding-matrix --json``,
  ``q-conditions --rack-q`` and ``check-ybe`` as such processes on kX of the
  S6 conjugation quandle.  These rows and the D9 ``check-ybe`` process row
  also record the child's peak RSS
  (``peak_rss_mb``): each child is started by a small launcher, which times
  it and reads its ``ru_maxrss`` from ``wait4``;
- the braiding of kX of the S5 conjugation quandle twisted by the diagonal
  ``d[x] = x + 1`` (so it is no longer unit): ``check-ybe`` alone;
- sl2 ``env-build --json`` at degrees 10, 12 and 14 (a whole
  ``rackyd.cli.run`` call that writes the tetramodule's four structure maps
  to a scratch file; the tetramodule computes them only for the artifact);
- sl2 ``env-checks`` at degree 7 and ``theorem1-bracket`` at degree 18,
  the ``ENV_MAX_SIZE`` bound (each a whole ``rackyd.cli.run`` call);
- ``make-conjugation`` on the S6 group (its file written first, untimed)
  and ``make-dihedral 1000``, each a whole ``rackyd.cli.run`` call that
  prints the quandle's table in its report.

The process is pinned to one CPU, and every run is timed at reference speed
as ``perfbench/run.py`` times its invocations: ``reference_loop()`` is timed
right before and right after the run, and the run's time is scaled to a CPU
on which that loop takes ``REF_SECONDS``.  That takes out the drift of a
shared CPU's speed between runs.  Each row records its five runs and their
median in seconds at reference speed, and the file records the reference
time, the Python version, the platform, the CPU count, the git commit (null
outside a git checkout), a sha256 of ``src/rackyd/*.py`` and their total
line count (as ``wc -l`` counts it).
"""

import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rackyd import racks  # noqa: E402
from rackyd.cli import run  # noqa: E402

# perfbench/run.py's reference loop and scaling, so both benchmarks time at one speed
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench)

RUNS = 5
SOURCES = sorted((ROOT / "src" / "rackyd").glob("*.py"))


def cli(*argv):
    """One in-process CLI call; raises unless it exits 0."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"rackyd {' '.join(map(str, argv))} exited {code}")


def _env(cache):
    """The environment of a ``rackyd`` process with the bytecode cache prefix ``cache``."""
    return {**os.environ, "PYTHONPYCACHEPREFIX": str(cache),
            "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}


def process(cache, *argv, write=False):
    """One ``rackyd`` process that reads bytecode from the cache prefix ``cache``
    and writes none there unless ``write``; raises unless it exits 0."""
    env = _env(cache)
    if write:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [str(a) for a in argv]
    proc = subprocess.run([sys.executable, *([] if write else ["-B"]), "-m", "rackyd.cli", *argv],
                          env=env, capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"rackyd {' '.join(argv)} exited {proc.returncode}")


# A small parent for one child, so that the child's ru_maxrss, read by wait4,
# is its own peak: Linux folds the resident memory of the process a child is
# forked from into the child's ru_maxrss, so a child of this script would read
# at least this one's.  It prints the child's seconds, exit code and ru_maxrss.
LAUNCHER = """
import os, sys, time
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def launched(cache, peaks, *argv):
    """One ``rackyd`` process as in :func:`process`, started by the launcher;
    appends its peak RSS in MB to ``peaks`` and returns its seconds."""
    argv = [str(a) for a in argv]
    proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER,
                           sys.executable, "-B", "-m", "rackyd.cli", *argv],
                          env=_env(cache), capture_output=True, text=True, timeout=600)
    seconds, code, max_rss_kb = proc.stdout.split()
    if proc.returncode != 0 or code != "0":
        raise SystemExit(f"rackyd {' '.join(argv)} exited {code}")
    peaks.append(int(max_rss_kb) / 1024)
    return float(seconds)


def timed(call):
    """RUNS runs of ``call``, each scaled by the mean of the reference loops
    timed right before and right after it; the loop after one run serves as
    the loop before the next.  A call that returns a number has timed itself."""
    runs, before = [], perfbench.reference_loop()
    for _ in range(RUNS):
        t0 = time.perf_counter()
        took = call()
        if took is None:
            took = time.perf_counter() - t0
        after = perfbench.reference_loop()
        runs.append(perfbench.at_reference_speed(took, (before + after) / 2))
        before = after
    return {"runs_s": [round(t, 4) for t in runs], "median_s": round(statistics.median(runs), 4)}


def twist(braid, out):
    """Write ``(D (x) D) tau (D (x) D)^-1`` for a rack-form tau and the
    diagonal ``d[x] = x + 1``: column x + n*y, ``e_y (x) e_(x <| y)``, gets
    the coefficient ``d[x <| y] / d[x]``."""
    data = json.loads(braid.read_text())
    n = len(data["factor_basis"])
    data["columns"] = [{r: str(Fraction(int(r) // n + 1, f % n + 1)) for r in col}
                       for f, col in enumerate(data["columns"])]
    out.write_text(json.dumps(data))


WRITES = ("linearize --json", "braiding-matrix --json", "braided-leibniz --rack-q --json")
LINEARIZE_PROCESS = "linearize --json process"
CHECK_YD_PROCESS = "check-yd process"
BRAIDING_PROCESS = "braiding-matrix --json process"
RACK_Q_PROCESS = "q-conditions --rack-q process"
YBE_PROCESS = "check-ybe process"


def transpositions(group):
    """S_n acting by conjugation on its transpositions (the labels with one
    2-cycle), p the inclusion into S_n."""
    xs = [x for x, label in enumerate(group.elements) if label.count(" ") == 1]
    pos = {x: i for i, x in enumerate(xs)}
    action = [[pos[group.conj(x, h)] for h in range(group.size)] for x in xs]
    return racks.AugmentedRack([group.elements[x] for x in xs], group, action, xs)


def rack_rows(tmp):
    both = ("braided-leibniz --rack-q", "check-ybe")
    symmetric = racks.FiniteGroup.symmetric
    instances = [
        ("kX of D9", racks.inner_augmentation(racks.dihedral_quandle(9)),
         (YBE_PROCESS, "braided-leibniz --rack-q process",
          "check-ybe process, bytecode present",
          "braided-leibniz --rack-q process, bytecode present", LINEARIZE_PROCESS)),
        ("kX of the S5 transposition class", transpositions(symmetric(5)),
         (LINEARIZE_PROCESS,)),
        ("kX of D21", racks.inner_augmentation(racks.dihedral_quandle(21)), both),
        ("kX of the S4 conjugation quandle", racks.conjugation_augmented(symmetric(4)), both),
        ("kX of the S5 conjugation quandle", racks.conjugation_augmented(symmetric(5)),
         both + ("twisted check-ybe",) + WRITES),
        ("kX of the S6 conjugation quandle", racks.conjugation_augmented(symmetric(6)),
         ("check-ybe", LINEARIZE_PROCESS, CHECK_YD_PROCESS, BRAIDING_PROCESS, RACK_Q_PROCESS,
          YBE_PROCESS)),
    ]
    cache, warm = tmp / "empty_pycache", tmp / "warm_pycache"
    cache.mkdir()
    rows = []
    for name, aug, commands in instances:
        peaks = []
        stem = tmp / name.replace(" ", "_")
        aug_path, module, braid, twisted, written = (stem.with_suffix(s) for s in (
            ".aug.json", ".yd.json", ".tau.json", ".twisted.json", ".written.json"))
        aug_path.write_text(json.dumps(aug.to_json_dict()))
        cli("linearize", aug_path, "--json", module)
        cli("braiding-matrix", module, "--json", braid)
        if "twisted check-ybe" in commands:
            twist(braid, twisted)
        if "check-ybe process, bytecode present" in commands:
            process(warm, "check-ybe", braid, write=True)
            process(warm, "braided-leibniz", module, "--rack-q", write=True)
        for command, call in (
                ("braided-leibniz --rack-q", lambda: cli("braided-leibniz", module, "--rack-q")),
                ("check-ybe", lambda: cli("check-ybe", braid)),
                (YBE_PROCESS, lambda: launched(cache, peaks, "check-ybe", braid)),
                ("braided-leibniz --rack-q process",
                 lambda: process(cache, "braided-leibniz", module, "--rack-q")),
                ("check-ybe process, bytecode present", lambda: process(warm, "check-ybe", braid)),
                ("braided-leibniz --rack-q process, bytecode present",
                 lambda: process(warm, "braided-leibniz", module, "--rack-q")),
                ("twisted check-ybe", lambda: cli("check-ybe", twisted)),
                ("linearize --json", lambda: cli("linearize", aug_path, "--json", written)),
                ("braiding-matrix --json",
                 lambda: cli("braiding-matrix", module, "--json", written)),
                ("braided-leibniz --rack-q --json",
                 lambda: cli("braided-leibniz", module, "--rack-q", "--json", written)),
                (LINEARIZE_PROCESS,
                 lambda: launched(cache, peaks, "linearize", aug_path, "--json", written)),
                (CHECK_YD_PROCESS, lambda: launched(cache, peaks, "check-yd", module)),
                (BRAIDING_PROCESS,
                 lambda: launched(cache, peaks, "braiding-matrix", module, "--json", written)),
                (RACK_Q_PROCESS,
                 lambda: launched(cache, peaks, "q-conditions", module, "--rack-q"))):
            if command in commands:
                peaks.clear()
                rows.append({"instance": name, "dim": aug.size, "command": command,
                             **timed(call)})
                if peaks:
                    rows[-1]["peak_rss_mb"] = round(statistics.median(peaks), 2)
    return rows


def envelope_rows(tmp):
    sl2, written = str(ROOT / "fixtures" / "leibniz_sl2.json"), tmp / "env.json"
    rows = [{"instance": "sl2", "degree": degree, "command": "env-build --json",
             **timed(lambda: cli("env-build", sl2, "--degree", degree, "--json", written))}
            for degree in (10, 12, 14)]
    return rows + [
        {"instance": "sl2", "degree": 7, "command": "env-checks",
         **timed(lambda: cli("env-checks", sl2, "--degree", "7"))},
        {"instance": "sl2", "degree": 18, "command": "theorem1-bracket",
         **timed(lambda: cli("theorem1-bracket", sl2, "--degree", "18"))},
    ]


def make_rows(tmp):
    group = tmp / "s6.group.json"
    group.write_text(json.dumps(racks.FiniteGroup.symmetric(6).to_json_dict()))
    return [
        {"instance": "S6", "dim": 720, "command": "make-conjugation",
         **timed(lambda: cli("make-conjugation", group))},
        {"instance": "D1000", "dim": 1000, "command": "make-dihedral 1000",
         **timed(lambda: cli("make-dihedral", "1000"))},
    ]


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256():
    digest = hashlib.sha256()
    for path in SOURCES:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_lines():
    return sum(path.read_bytes().count(b"\n") for path in SOURCES)


def main():
    perfbench.pin_to_one_cpu()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        rows = rack_rows(tmp) + envelope_rows(tmp) + make_rows(tmp)
    bench = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_sha256(),
        "src_lines": source_lines(),
        "runs_per_row": RUNS,
        "reference_s": perfbench.REF_SECONDS,
        "rows": rows,
    }
    out = ROOT / "BENCH_frontier.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    for row in rows:
        print(f"{row['instance']:34} {row['command']:50} {row['median_s']:8.3f} s "
              f"at reference speed")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
