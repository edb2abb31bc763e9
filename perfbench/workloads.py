"""Seeded inputs and expected verdicts for the three proof ladders.

Every input file is generated here, from the workload seed alone, without
importing rackyd: the program under test receives only the generated files.
The seed picks a relabelling of rack and group elements, so every seed does
the same work on different tables.  Lie algebras keep their basis order and
only get seeded labels, because reordering a PBW basis changes the amount of
straightening work.

An invocation lists the rackyd arguments (paths relative to the workload
directory, so stdout bytes do not depend on where the benchmark runs), the
expected exit code and the report fields that must hold.  Oracles compare
verdicts of two invocations of the same pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

@dataclass
class Invocation:
    key: str
    argv: list
    code: int
    verdict: dict = field(default_factory=dict)
    artifact: str | None = None     # file the invocation must leave behind
    rows: int | None = None         # --paper-layout: expected square size
    top: bool = False


@dataclass
class Oracle:
    """Field ``left`` of invocation ``a`` must equal field ``right`` of ``b``."""

    a: str
    b: str
    fields: list    # [(dotted path in a's report, dotted path in b's report)]


@dataclass
class Plan:
    invocations: list
    oracles: list
    twins: tuple | None = None      # keys of a QQ / GF(p) pair of the same check
    top_repeats: int = 1            # runs of the top invocation in one timed pass

    def top(self):
        tops = [inv for inv in self.invocations if inv.top]
        return tops[0] if tops else self.invocations[-1]


def _write(workdir: Path, name: str, payload) -> None:
    with open(workdir / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# permutation groups, in the right-action convention of rackyd:
# (ab)[x] = b[a[x]], and x . g = g[x]

def _compose(a, b):
    return tuple(b[x] for x in a)


def _conjugate(x, h):
    """h^-1 x h."""
    inverse = tuple(sorted(range(len(h)), key=h.__getitem__))
    return _compose(_compose(inverse, x), h)


def _cycle_label(perm):
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = perm[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "e"


def _closure(gens, degree):
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = _compose(a, g)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return sorted(seen)


def _group_table(perms, rng):
    """Shuffle the element order with ``rng``; return (perms, index, group JSON)."""
    perms = list(perms)
    rng.shuffle(perms)
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[_compose(a, b)] for b in perms] for a in perms]
    return perms, index, {"elements": [_cycle_label(p) for p in perms], "mul": mul}


def _symmetric(n, rng):
    from itertools import permutations
    return _group_table(permutations(range(n)), rng)


def _relabelled_dihedral(n, rng):
    """Dihedral quandle x <| y = 2y - x on Z/n, with seeded element order."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    op = [[0] * n for _ in range(n)]
    labels = [""] * n
    for x in range(n):
        labels[sigma[x]] = str(x)
        for y in range(n):
            op[sigma[x]][sigma[y]] = sigma[(2 * y - x) % n]
    return labels, op


def _inner_augmentation(labels, op, rng):
    """The rack over its inner group, with seeded group element order."""
    n = len(labels)
    cols = [tuple(op[x][y] for x in range(n)) for y in range(n)]
    perms, index, group = _group_table(_closure(cols, n), rng)
    action = [[g[x] for g in perms] for x in range(n)]
    p = [index[c] for c in cols]
    return {"rack_elements": labels, "group": group, "action": action, "p": p}


def _ker_eps(perms, index, group):
    """ker(counit) of kG: basis g - 1 (g != e), adjoint action, g-grading."""
    ident = tuple(range(len(perms[0])))
    others = [g for g in perms if g != ident]
    pos = {g: i for i, g in enumerate(others)}
    return {
        "hopf": {"kind": "group_algebra", "group": group},
        "basis": [f"{_cycle_label(g)}-1" for g in others],
        "action": [[{str(pos[_conjugate(g, h)]): "1"} for h in perms] for g in others],
        "coaction": [[[pos[g], index[g], "1"]] for g in others],
    }


def _conjugation_augmented(perms, index, group, support=None):
    """G acting by conjugation on X = G, or on the permutations that move
    exactly ``support`` points (a union of conjugacy classes); p is the
    inclusion X -> G."""
    xs = [p for p in perms if support is None or sum(p[i] != i for i in range(len(p))) == support]
    pos = {x: i for i, x in enumerate(xs)}
    return {
        "rack_elements": [_cycle_label(x) for x in xs],
        "group": group,
        "action": [[pos[_conjugate(x, h)] for h in perms] for x in xs],
        "p": [index[x] for x in xs],
    }


def _leibniz(labels, brackets):
    return {
        "dim": len(labels),
        "basis": labels,
        "brackets": [
            {"i": i, "j": j, "out": {str(k): str(c) for k, c in out.items()}}
            for (i, j), out in sorted(brackets.items())
        ],
    }


# [x,x] = [y,y] = [x,y] = z, [y,x] = -z: Leibniz, not Lie
HV_BRACKETS = {(0, 0): {2: 1}, (0, 1): {2: 1}, (1, 0): {2: -1}, (1, 1): {2: 1}}
# sl2 on (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
SL2_BRACKETS = {
    (0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 2},
    (0, 2): {0: -2}, (2, 1): {1: -2}, (1, 2): {1: 2},
}


def _seeded_labels(rng, stems):
    return [f"{s}{rng.randrange(1000)}_{k}" for k, s in enumerate(stems)]


# ---------------------------------------------------------------------------
# the three ladders; each builder writes its inputs and returns the plan

RACK_RUNGS = (5, 7, 9)


def build_rack_ybe(seed, workdir, max_rungs=None):
    rng = random.Random(seed)
    invs, oracles = [], []
    rungs = RACK_RUNGS[:max_rungs]
    for n in rungs:
        aug = _inner_augmentation(*_relabelled_dihedral(n, rng), rng)
        r = f"d{n}"
        _write(workdir, f"{r}.aug.json", aug)
        order = len(aug["group"]["elements"])
        invs += [
            Invocation(f"{r}/linearize", ["linearize", f"{r}.aug.json", "--json", f"{r}.yd.json"],
                       0, {"yd_ok": True, "dim": n, "group_order": order}, artifact=f"{r}.yd.json"),
            Invocation(f"{r}/check-yd", ["check-yd", f"{r}.yd.json"], 0, {"ok": True}),
            Invocation(f"{r}/braiding-matrix",
                       ["braiding-matrix", f"{r}.yd.json", "--json", f"{r}.braid.json"],
                       0, {"factor_dim": n, "size": n * n}, artifact=f"{r}.braid.json"),
            Invocation(f"{r}/check-ybe", ["check-ybe", f"{r}.braid.json"], 0, {"ok": True},
                       top=n == rungs[-1]),
            Invocation(f"{r}/braided-leibniz",
                       ["braided-leibniz", f"{r}.yd.json", "--rack-q", "--json", f"{r}.bracket.json"],
                       0, {"ok": True}, artifact=f"{r}.bracket.json"),
            Invocation(f"{r}/rack-braiding", ["rack-braiding", f"{r}.aug.json"], 0,
                       {"set_level_ybe": True, "tensor_size": n * n}),
        ]
        oracles += [
            Oracle(f"{r}/check-yd", f"{r}/check-ybe", [("ok", "ok")]),
            Oracle(f"{r}/rack-braiding", f"{r}/check-ybe", [("set_level_ybe", "ok")]),
        ]
    return Plan(invs, oracles, top_repeats=3)


def _kereps_rung(name, n, rng, workdir, with_bracket):
    perms, index, group = _symmetric(n, rng)
    _write(workdir, f"{name}.json", _ker_eps(perms, index, group))
    dim = len(perms) - 1
    invs = [
        Invocation(f"{name}/check-yd", ["check-yd", f"{name}.json"], 0, {"ok": True}),
        Invocation(f"{name}/q-conditions", ["q-conditions", f"{name}.json", "--rack-q"], 0,
                   {"ok": True}),
        Invocation(f"{name}/braiding-matrix",
                   ["braiding-matrix", f"{name}.json", "--json", f"{name}.braid.json"],
                   0, {"factor_dim": dim, "size": dim * dim}, artifact=f"{name}.braid.json"),
    ]
    if with_bracket:
        invs.append(Invocation(
            f"{name}/braided-leibniz",
            ["braided-leibniz", f"{name}.json", "--rack-q", "--json", f"{name}.bracket.json"],
            0, {"ok": True}, artifact=f"{name}.bracket.json"))
    return invs


def _conj_s4_rung(rng, workdir):
    perms, index, group = _symmetric(4, rng)
    _write(workdir, "s4conj.aug.json", _conjugation_augmented(perms, index, group))
    return [
        Invocation("s4conj/linearize",
                   ["linearize", "s4conj.aug.json", "--json", "s4conj.yd.json"],
                   0, {"yd_ok": True, "dim": 24, "group_order": 24}, artifact="s4conj.yd.json"),
        Invocation("s4conj/check-yd", ["check-yd", "s4conj.yd.json"], 0, {"ok": True}),
    ]


def _conj_s5_rung(rng, workdir):
    perms, index, group = _symmetric(5, rng)
    _write(workdir, "s5.group.json", group)
    _write(workdir, "s5transp.aug.json", _conjugation_augmented(perms, index, group, support=2))
    return [
        Invocation("s5conj/make-conjugation",
                   ["make-conjugation", "s5.group.json", "--json", "s5conj.rack.json"],
                   0, {"size": 120, "is_quandle": True}, artifact="s5conj.rack.json"),
        Invocation("s5conj/check-rack", ["check-rack", "s5conj.rack.json"], 0,
                   {"is_shelf": True, "is_rack": True, "is_quandle": True}),
        Invocation("s5transp/linearize",
                   ["linearize", "s5transp.aug.json", "--json", "s5transp.yd.json"],
                   0, {"yd_ok": True, "dim": 10, "group_order": 120},
                   artifact="s5transp.yd.json", top=True),
    ]


def build_group_descriptor(seed, workdir, max_rungs=None):
    rng = random.Random(seed)
    rungs = [
        lambda: _kereps_rung("s3kereps", 3, rng, workdir, with_bracket=True),
        lambda: _kereps_rung("s4kereps", 4, rng, workdir, with_bracket=False),
        lambda: _conj_s4_rung(rng, workdir),
        lambda: _conj_s5_rung(rng, workdir),
    ]
    invs = []
    for rung in rungs[:max_rungs]:
        invs += rung()
    return Plan(invs, [])


HV_DEGREE = 6
SL2_DEGREES = (2, 3, 4)

ENV_VERDICT = {
    "ok": True, "phi_bimodule.ok": True, "phi_coderivation.ok": True,
    "restriction_im_in_ker_eps.ok": True, "restriction_colinear.ok": True,
    "restriction_yd_morphism.ok": True, "antipode_square.ok": True,
}
BRACKET_VERDICT = {
    "braided_leibniz_ok": True, "recovers_input_brackets": True, "tau_is_flip": True,
}


def build_envelope_inv(seed, workdir, max_rungs=None):
    rng = random.Random(seed)
    _write(workdir, "hv.json", _leibniz(_seeded_labels(rng, "xyz"), HV_BRACKETS))
    _write(workdir, "sl2.json", _leibniz(_seeded_labels(rng, "efh"), SL2_BRACKETS))
    hv = [
        Invocation("hv/hv-rmatrix", ["hv-rmatrix", "--paper-layout"], 0, rows=16),
        Invocation("hv/first-order-yd", ["first-order-yd", "hv.json"], 0,
                   {"yd_ok": True, "dim": 4}),
        Invocation(f"hv/env-checks-d{HV_DEGREE}",
                   ["env-checks", "hv.json", "--degree", str(HV_DEGREE)], 0, ENV_VERDICT),
        Invocation(f"hv/theorem1-bracket-d{HV_DEGREE}",
                   ["theorem1-bracket", "hv.json", "--degree", str(HV_DEGREE)], 0,
                   BRACKET_VERDICT),
    ]
    rungs = [hv]
    for d in SL2_DEGREES:
        rungs.append([
            Invocation(f"sl2/env-checks-d{d}", ["env-checks", "sl2.json", "--degree", str(d)],
                       0, ENV_VERDICT),
            Invocation(f"sl2/theorem1-bracket-d{d}",
                       ["theorem1-bracket", "sl2.json", "--degree", str(d)], 0,
                       BRACKET_VERDICT, top=d == SL2_DEGREES[-1]),
        ])
    top = SL2_DEGREES[-1]
    rungs.append([
        Invocation(f"sl2/env-checks-d{top}-gfp",
                   ["env-checks", "sl2.json", "--degree", str(top), "--field", "gfp:10007"],
                   0, ENV_VERDICT),
    ])
    invs = [inv for rung in rungs[:max_rungs] for inv in rung]
    if max_rungs is not None:
        return Plan(invs, [], top_repeats=3)
    twins = (f"sl2/env-checks-d{top}", f"sl2/env-checks-d{top}-gfp")
    return Plan(invs, [Oracle(*twins, [(k, k) for k in ENV_VERDICT])], twins, top_repeats=3)


WORKLOADS = {
    "rack_ybe": build_rack_ybe,
    "group_descriptor": build_group_descriptor,
    "envelope_inv": build_envelope_inv,
}
