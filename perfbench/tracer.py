"""In-process traced pass over one workload's invocations.

Run as a child of ``run.py``, from the workload directory, with ``src`` on
``PYTHONPATH``::

    python3 tracer.py PLAN.json OUT.json BUDGET_SECONDS

PLAN.json holds ``[{"key", "argv", "artifact"}, ...]``.  The child alternates
untraced and traced passes, each calling ``rackyd.cli.run`` once per
invocation, until the budget is spent (at least one of each).  Traced passes
run with timing wrappers around each module's public functions; the
wrappers are installed from here, on every rackyd namespace that holds the
name, and removed again for the untraced passes.  Spans and counters are
kept in memory and written to OUT.json when the child ends.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# (module, attribute or Class.attribute, span name).  Earlier entries win
# where two names are bound to one function: group_hopf's binding of
# check_hopf_axioms is the group-algebra check, yd's is everyone else's.
SPANS = [
    ("cli", "_write_json", "cli.emit"),
    ("cli", "_load_json", "cli.load_json"),
    ("jsonio", "yd_from_dict", "jsonio.load"),
    ("jsonio", "hopf_from_dict", "jsonio.load"),
    ("jsonio", "q_from_dict", "jsonio.load"),
    ("racks", "FiniteShelf.from_json_dict", "jsonio.load"),
    ("racks", "FiniteGroup.from_json_dict", "jsonio.load"),
    ("racks", "AugmentedRack.from_json_dict", "jsonio.load"),
    ("leibniz", "LeibnizAlgebra.from_json_dict", "jsonio.load"),
    ("linalg", "Matrix.from_json_dict", "jsonio.load"),
    ("yd", "BraidingMatrix.from_json_dict", "jsonio.load"),
    ("jsonio", "yd_to_dict", "jsonio.dump"),
    ("racks", "FiniteShelf.to_json_dict", "jsonio.dump"),
    ("racks", "AugmentedRack.to_json_dict", "jsonio.dump"),
    ("linalg", "Matrix.to_json_dict", "jsonio.dump"),
    ("yd", "BraidingMatrix.to_json_dict", "jsonio.dump"),
    ("racks", "FiniteGroup.__init__", "racks.group_verify"),
    ("racks", "check_shelf", "racks.check"),
    ("racks", "check_augmented", "racks.check"),
    ("racks", "inner_augmentation", "racks.check"),
    ("racks", "rack_braiding_ybe", "racks.check"),
    ("racks", "FiniteShelf.__init__", "racks.build"),
    ("racks", "AugmentedRack.__init__", "racks.build"),
    ("racks", "conjugation_rack", "racks.build"),
    ("racks", "rack_tensor_and_braiding", "racks.build"),
    ("group_hopf", "check_hopf_axioms", "group_hopf.hopf_axioms"),
    ("group_hopf", "GroupAlgebraDescriptor.check_action_axioms", "group_hopf.action_axioms"),
    ("group_hopf", "linearize_augmented", "group_hopf.linearize"),
    ("yd", "check_hopf_axioms", "yd.hopf_axioms"),
    ("yd", "YDModule.__init__", "yd.module_build"),
    ("yd", "check_yd", "yd.check_yd"),
    ("yd", "check_q_conditions", "yd.q_conditions"),
    ("yd", "braiding", "yd.braiding"),
    ("yd", "check_ybe", "yd.check_ybe"),
    ("yd", "braided_leibniz_from_q", "yd.braided_leibniz"),
    ("yd", "check_braided_leibniz", "yd.braided_leibniz"),
    ("yd", "flip_matrix", "yd.flip_matrix"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "Matrix.__eq__", "linalg.matrix_eq"),
    ("linalg", "Matrix.__sub__", "linalg.matrix_arith"),
    ("linalg", "Matrix.__add__", "linalg.matrix_arith"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "nullspace", "linalg.rref"),
    ("leibniz", "lie_quotient", "leibniz.core"),
    ("leibniz", "lie_map_object", "leibniz.core"),
    ("leibniz", "first_order_yd", "leibniz.core"),
    ("leibniz", "heisenberg_voros", "leibniz.build"),
    ("envelope", "build_env", "envelope.build"),
    ("envelope", "inv_part", "envelope.inv_part"),
    ("envelope", "phi_checks", "envelope.checks"),
    ("envelope", "f_tilde_checks", "envelope.checks"),
    ("envelope", "antipode_checks", "envelope.checks"),
    ("envelope", "enveloping_bracket", "envelope.bracket"),
    ("envelope", "EnvelopingDescriptor.check_action_axioms", "envelope.action_axioms"),
]

# hot methods get a call counter only, never a span
COUNTERS = [
    ("yd", "YDModule.act_basis", "yd.act_basis_calls"),
    ("group_hopf", "GroupAlgebraDescriptor.product", "group_hopf.products"),
    ("envelope", "TruncatedPBW.product", "envelope.pbw_products"),
    ("envelope", "TruncatedPBW.product_exact", "envelope.pbw_products"),
]


class Tracer:
    def __init__(self):
        self.spans = []     # [invocation, span id, parent id, name, start_ns, end_ns]
        self.stack = []
        self.counts = {}
        self.invocation = None
        self._installed = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [self.invocation, len(spans), stack[-1] if stack else -1, name, clock(), 0]
            spans.append(rec)
            stack.append(rec[1])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _matrix_init(self, fn):
        counts = self.counts
        counts.setdefault("linalg.dense_entries", 0)

        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            counts["linalg.dense_entries"] += self_.rows * self_.cols
        return wrapper

    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: sys.modules[f"rackyd.{name}"] for name in
                ("cli", "jsonio", "racks", "group_hopf", "yd", "linalg", "leibniz", "envelope")}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "rackyd" or n.startswith("rackyd.")]
        targets = [(entry, self.span) for entry in SPANS]
        targets += [(entry, self.counter) for entry in COUNTERS]
        for (mod, path, name), make in targets:
            owner = mods[mod]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._replace(owner, attr, classmethod(make(name, raw.__func__)))
                else:
                    self._replace(owner, attr, make(name, raw))
                continue
            original = owner.__dict__[path]
            wrapped = make(name, original)
            self._replace(owner, path, wrapped)
            for ns in namespaces:
                if ns is not owner and ns.__dict__.get(path) is original:
                    self._replace(ns, path, wrapped)
        matrix = mods["linalg"].Matrix
        self._replace(matrix, "__init__", self._matrix_init(matrix.__dict__["__init__"]))
        cli = mods["cli"]
        self._replace(cli, "json", _JsonProxy(cli.json, self.span("cli.emit", cli.json.dumps)))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


class _JsonProxy:
    """Stands in for the ``json`` module inside rackyd.cli, timing ``dumps``
    (the stdout report) and passing everything else through."""

    def __init__(self, real, dumps):
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def run_pass(plan, tracer, traced):
    from rackyd import cli

    for item in plan:
        if item["artifact"]:
            Path(item["artifact"]).unlink(missing_ok=True)
    first_span = len(tracer.spans)
    counts_before = dict(tracer.counts)
    if traced:
        tracer.install()
    run = tracer.span("cli.run", cli.run) if traced else cli.run
    results = []
    start = time.perf_counter_ns()
    try:
        for item in plan:
            tracer.invocation = item["key"]
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = run(list(item["argv"]))
                except Exception:  # an uncaught error is exit 1, as in a process
                    traceback.print_exc()
                    code = 1
            art = Path(item["artifact"]) if item["artifact"] else None
            results.append({
                "key": item["key"], "code": code, "stdout": out.getvalue(),
                "artifact_size": art.stat().st_size if art and art.is_file() else -1,
            })
        wall_ns = time.perf_counter_ns() - start
    finally:
        if traced:
            tracer.uninstall()
    record = {"traced": traced, "wall_ns": wall_ns, "results": results}
    if traced:
        record["spans"] = tracer.spans[first_span:]
        record["counts"] = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    return record


def main(argv):
    plan_path, out_path, budget = argv[0], argv[1], float(argv[2])
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import rackyd.cli  # noqa: F401  (import cost stays outside every pass)

    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(plan, tracer, traced=False))
        passes.append(run_pass(plan, tracer, traced=True))
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > budget:
            break
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
