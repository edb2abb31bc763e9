"""A ``rackyd`` process ends as soon as its report is written.

``rackyd.cli.main`` runs the registered ``atexit`` handlers, flushes stdout
and stderr and leaves with ``os._exit``, skipping the interpreter's teardown
of its modules; a report that stdout does not take ends it with exit code 2
and one ``error:`` line.  Each test runs ``python -m rackyd.cli`` (or the
module through ``runpy``) as a child.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import rackyd
from rackyd.cli import run

SRC = pathlib.Path(rackyd.__file__).resolve().parent.parent
FIXTURES = SRC.parent / "fixtures"


def _env(buffered=False):
    """The child's environment.  An unbuffered stdout writes each ``print``
    through at once; a buffered one holds the report until it is flushed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _child(argv, script=None, buffered=False, **kwargs):
    """``python -m rackyd.cli argv``, or ``python -c script`` with ``argv`` as
    its arguments."""
    command = ["-m", "rackyd.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *command, *argv], env=_env(buffered),
                          timeout=120, **kwargs)


def _without_timing(stderr):
    return re.sub(r"elapsed_ms=[0-9.]+\n", "", stderr)


# runs rackyd.cli as ``python -m`` does, after registering a handler that
# prints "handler ran" to stderr
MAIN_AFTER_A_HANDLER = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('handler ran', file=sys.stderr))\n"
    "sys.argv[0] = 'rackyd'\n"
    "runpy.run_module('rackyd.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv, code", [
    (["check-rack", "rack_dihedral3.json"], 0),
    (["check-rack", "shelf_not_rack.json"], 1),
    (["check-rack", "missing.json"], 2),
], ids=["0", "1", "2"])
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_process_gives_the_exit_code_and_bytes_of_run(argv, code, buffered, capsys):
    argv = [argv[0], str(FIXTURES / argv[1])]
    assert run(argv) == code
    want = capsys.readouterr()
    proc = _child(argv, buffered=buffered, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout.encode() == want.out.encode()
    assert _without_timing(proc.stderr) == _without_timing(want.err)


def test_a_report_redirected_to_a_file_is_complete(tmp_path):
    out = tmp_path / "report.json"
    with out.open("wb") as fh:
        proc = _child(["hv-rmatrix"], buffered=True, stdout=fh)
    assert proc.returncode == 0
    text = out.read_text()
    assert text.endswith("}\n")
    assert json.loads(text)["command"] == ["rackyd", "hv-rmatrix"]


@pytest.mark.parametrize("argv, code", [
    (["check-rack", "rack_dihedral3.json"], 0),
    (["check-rack", "missing.json"], 2),
], ids=["0", "2"])
def test_a_handler_registered_before_main_runs_once(argv, code):
    proc = _child([argv[0], str(FIXTURES / argv[1])], MAIN_AFTER_A_HANDLER,
                  capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.splitlines().count("handler ran") == 1


def test_a_process_ends_without_finalizing_the_interpreter():
    # finalizing would clear __main__ and so collect the witness
    script = ("import os\n"
              "class Witness:\n"
              "    def __del__(self, write=os.write):\n"
              "        write(2, b'finalized\\n')\n"
              "witness = Witness()\n" + MAIN_AFTER_A_HANDLER)
    proc = _child(["check-rack", str(FIXTURES / "rack_dihedral3.json")], script,
                  capture_output=True, text=True)
    assert proc.returncode == 0
    assert _without_timing(proc.stderr) == "handler ran\n"


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


CANNOT_WRITE = "error: cannot write the report: [Errno 32] Broken pipe"


def test_a_closed_stdout_raises_in_the_report_print_when_unbuffered():
    # the write of the report itself fails, so run() says so and returns 2
    # before main() runs the handler; the flush in main() adds nothing
    write = _closed_pipe()
    try:
        proc = _child(["check-rack", str(FIXTURES / "rack_dihedral3.json")],
                      MAIN_AFTER_A_HANDLER, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert _without_timing(proc.stderr).splitlines() == [CANNOT_WRITE, "handler ran"]


def test_a_closed_stdout_falls_back_to_the_normal_exit_when_buffered():
    # the report waits in the buffer, so the flush in main() fails; main()
    # says so once and exits 2, and the handler, already run, does not run
    # again, nor does the shutdown flush the buffer a second time
    write = _closed_pipe()
    try:
        proc = _child(["check-rack", str(FIXTURES / "rack_dihedral3.json")],
                      MAIN_AFTER_A_HANDLER, buffered=True, stdout=write,
                      stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert _without_timing(proc.stderr).splitlines() == ["handler ran", CANNOT_WRITE]


def test_a_closed_stdout_fails_the_report_print_when_it_overflows_the_buffer():
    # as ``rackyd make-dihedral 200 | head -c 10``: a buffered stdout writes
    # a report larger than its buffer through at the print, so run() says so
    # and returns 2 before main() runs the handler
    write = _closed_pipe()
    try:
        proc = _child(["make-dihedral", "200"], MAIN_AFTER_A_HANDLER, buffered=True,
                      stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert _without_timing(proc.stderr).splitlines() == [CANNOT_WRITE, "handler ran"]


def test_a_process_started_without_a_stdout_says_so_and_exits_2():
    # with descriptor 1 closed at start, sys.stdout is None and print()
    # would drop the report without an error
    proc = _child(["check-rack", str(FIXTURES / "rack_dihedral3.json")], MAIN_AFTER_A_HANDLER,
                  stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert _without_timing(proc.stderr).splitlines() == [
        "error: cannot write the report: stdout is closed", "handler ran"]


def test_an_exception_in_a_handler_still_gives_a_traceback_and_exit_one():
    script = ("import rackyd.cli_racks\n"
              "def boom(args, field):\n"
              "    raise RuntimeError('boom')\n"
              "rackyd.cli_racks.cmd_check_rack = boom\n" + MAIN_AFTER_A_HANDLER)
    proc = _child(["check-rack", str(FIXTURES / "rack_dihedral3.json")], script,
                  capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("elapsed_ms=") and "Traceback (most recent call last):" in lines
    assert lines[-2:] == ["RuntimeError: boom", "handler ran"]


@pytest.mark.parametrize("argv", [["-h"], ["check-ybe", "-h"]], ids=" ".join)
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_help_that_stdout_does_not_take_exits_2_with_one_error_line(argv, buffered):
    # argparse drops an OSError of its help text's write; the help takes the
    # contract of a report: exit code 2 and one error line, on a closed pipe
    # and on a full device alike
    write = _closed_pipe()
    try:
        proc = _child(argv, buffered=buffered, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write the help: [Errno 32] Broken pipe"]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = _child(argv, buffered=buffered, stdout=full, stderr=subprocess.PIPE,
                          text=True)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: cannot write the help: [Errno 28] No space left on device"]
