"""Corpus, seeded task lists, one cold pass, and the answer checks.

A workload is a fixed corpus plus a task list made from the seed.  The task
list is plain data (no ``twochar`` import), so the parent process can count
attempted operations and tests can compare lists.  ``run_pass`` executes
every task once in the current process, timing each; ``check_pass`` then
checks every answer outside the timed region.  A task fails when it raises
(``AssertionError`` included) or when its answer does not check; neither
stops the pass.

Checks never depend on the order of cohomology class indices: they compare
invariant factors and class counts, self-consistency of the solvers (a
coboundary witness really has that boundary, indices do not move under a
coboundary shift), and digests taken with columns in a canonical order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re

WORKLOADS = ("cohomology", "char-table", "verify-suites")
QUERIES_PER_PASS = 1000

# Group label -> (order, invariant factors of the Schur multiplier H²(G; ℂ^×)).
# Literature values: Karpilovsky, "The Schur Multiplier" (1987).
LITERATURE = {
    "Z2^3": (8, (2, 2, 2)),
    "Z4xZ2": (8, (2,)),
    "A4": (12, (2,)),
    "D6": (12, (2,)),
    "D8": (16, (2,)),
    "V4": (4, (2,)),
    "Z4": (4, ()),
    "S3": (6, ()),
    "Z6": (6, ()),
    "D4": (8, (2,)),
    "Q8": (8, ()),
}
BUNDLED = {"V4": "v4", "Z4": "z4", "S3": "s3", "Z6": "z6", "D4": "d4", "Q8": "q8"}

COHOMOLOGY_GROUPS = ("Z2^3", "Z4xZ2", "A4", "D6", "D8")
CHAR_TABLE_GROUPS = ("V4", "Z4", "S3", "Z6", "D4", "Q8", "Z4xZ2", "Z2^3")
ORACLE_GROUPS = ("V4", "Z4", "D4", "Q8")
CROSSED_MODULES = ("crossed_z2_z4", "crossed_inner_s3")

# label -> CLI arguments (``--seed`` is appended per run)
CLI_COMMANDS = (
    ("verify_shapiro", ("verify", "shapiro")),
    ("verify_oracle", ("verify", "oracle")),
    ("verify_burnside", ("verify", "burnside")),
    ("verify_crossed", ("verify", "crossed")),
    ("crossed_z2_z4_triples", ("crossed", "crossed_z2_z4", "triples")),
    ("crossed_inner_s3_triples", ("crossed", "crossed_inner_s3", "triples")),
    ("h2", ("h2", "d4")),
    ("burnside", ("burnside", "d4", "--format", "json")),
    ("char_table", ("char-table", "q8", "--verify")),
)
CLI_LABELS = tuple(label for label, _ in CLI_COMMANDS)

# The workload's largest instance, timed as ``largest_s``.
LARGEST = {
    "cohomology": ("schur", "D8"),
    "char-table": ("char_table", "Z2^3"),
    "verify-suites": ("cli", "verify_crossed"),
}

# (group, subgroup picker, module kind, degree): the transfer configurations
# of ``twochar verify shapiro``.
SHAPIRO_CONFIGS = tuple(
    (group, picker, kind, degree)
    for group, picker in (("S3", "order3"), ("S3", "order2"), ("D4", "cyclic4"), ("Z4", "order2"))
    for kind in ("trivial", "permutation")
    for degree in (1, 2)
)

# workload -> query kind -> its targets.  Every pass asks each kind equally
# often and cycles through its targets, so the mix is the same for every
# seed; the seed draws the order and the inputs.  (A seeded mix moves the
# latency median between the clusters of cheap and dear kinds.)
QUERY_TARGETS = {
    "cohomology": dict.fromkeys(
        ("is_coboundary", "h2_index", "schur_index", "cohomologous_over_Cx"), COHOMOLOGY_GROUPS
    ),
    "char-table": dict.fromkeys(("gk_rep", "gk_as_mark"), CHAR_TABLE_GROUPS),
    "verify-suites": {
        "shapiro": tuple(range(len(SHAPIRO_CONFIGS))),
        "interchange": CROSSED_MODULES,
        "oracle": ORACLE_GROUPS,
    },
}


class CorpusError(Exception):
    """A corpus group does not have its literature order."""


# ---------------------------------------------------------------------------
# Task lists (plain data)


def task_list(workload: str, seed: int) -> list[tuple]:
    """Every task of one pass, in order.  Same workload and seed, same list.

    Tasks come in blocks, one per group (one per CLI command on
    ``verify-suites``).  The block of the workload's largest instance runs
    first, so that instance finds every cache cold, as a CLI user does.  Each
    query follows the block of its group (on ``verify-suites`` the queries
    are dealt out evenly over the blocks), so query samples are spread over
    the whole pass: a few slow seconds of the host then touch only some of
    them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload}")
    if workload == "cohomology":
        blocks = {g: [(kind, g) for kind in ("schur", "h2")] for g in COHOMOLOGY_GROUPS}
    elif workload == "char-table":
        kinds = ("char_table", "mark_matrix", "determinant", "mul")
        blocks = {g: [(kind, g) for kind in kinds] for g in CHAR_TABLE_GROUPS}
    else:
        blocks = {label: [("cli", label)] for label in CLI_LABELS}
    labels = tuple(blocks)
    targets = QUERY_TARGETS[workload]
    share, extra = divmod(QUERIES_PER_PASS, len(targets))
    queries = [
        (kind, on[j % len(on)])
        for k, (kind, on) in enumerate(targets.items())
        for j in range(share + (k < extra))
    ]
    rng = random.Random(f"{workload}:{seed}")
    rng.shuffle(queries)
    for j, (kind, target) in enumerate(queries):
        block = target if workload != "verify-suites" else labels[j * len(labels) // len(queries)]
        blocks[block].append(("query", kind, target, rng.getrandbits(32)))
    first = LARGEST[workload][1]
    order = [first] + [label for label in labels if label != first]
    return [task for label in order for task in blocks[label]]


# ---------------------------------------------------------------------------
# Corpus


def _cyclic(n: int):
    from twochar.groups import from_cayley_table

    return from_cayley_table([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


def _direct_product(A, B, name: str):
    from twochar.groups import from_cayley_table

    b = B.order
    table = [
        [int(A.table[i // b, j // b]) * b + int(B.table[i % b, j % b]) for j in range(A.order * b)]
        for i in range(A.order * b)
    ]
    return from_cayley_table(table, name=name)


def _dihedral(n: int):
    """Symmetries of the regular n-gon (order 2n)."""
    from twochar.groups import from_permutation_generators

    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return from_permutation_generators(n, [rotation, reflection], name=f"D{n}")


def _build_group(label: str):
    from twochar.cli import load_group
    from twochar.groups import from_permutation_generators

    if label in BUNDLED:
        return load_group(BUNDLED[label], 64)
    if label == "Z2^3":
        return _direct_product(_direct_product(_cyclic(2), _cyclic(2), "V4"), _cyclic(2), label)
    if label == "Z4xZ2":
        return _direct_product(_cyclic(4), _cyclic(2), label)
    if label == "A4":
        return from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name=label)
    if label == "D6":
        return _dihedral(6)
    if label == "D8":
        return _dihedral(8)
    raise KeyError(label)


def build_corpus(workload: str) -> dict:
    """The workload's groups (and crossed modules), each order checked
    against the literature.  Schur multipliers are checked against
    ``LITERATURE`` on the pass's own answers: computing them here would fill
    the caches the pass is meant to find cold."""
    from importlib import resources

    from twochar.crossed import crossed_from_json

    labels = {
        "cohomology": COHOMOLOGY_GROUPS,
        "char-table": CHAR_TABLE_GROUPS,
        "verify-suites": tuple(sorted({g for g, *_ in SHAPIRO_CONFIGS} | set(ORACLE_GROUPS))),
    }[workload]
    corpus = {"groups": {}, "crossed": {}}
    for label in labels:
        G = _build_group(label)
        if G.order != LITERATURE[label][0]:
            raise CorpusError(f"{label} has order {G.order}, expected {LITERATURE[label][0]}")
        corpus["groups"][label] = G
    if workload == "verify-suites":
        data = resources.files("twochar").joinpath("data")
        for name in CROSSED_MODULES:
            doc = json.loads(data.joinpath(name + ".json").read_text())
            corpus["crossed"][name] = crossed_from_json(doc)
    return corpus


# ---------------------------------------------------------------------------
# Canonical forms for digests


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _canon_value(v, order: int) -> list[int]:
    """Power-basis coordinates at level lcm(|G|, level): equal values at
    different levels give the same list."""
    from twochar.cyclo import raise_cyclo_level

    return list(raise_cyclo_level(v, math.lcm(order, v.level)).coeffs)


def char_table_summary(table) -> dict:
    """Shape and a digest with columns sorted by (stabilizer, values), so a
    relabelling of class indices leaves it unchanged."""
    n = table.group.order
    columns = sorted(
        (list(col.subgroup.elements), [_canon_value(row[j], n) for row in table.entries])
        for j, col in enumerate(table.columns)
    )
    rows = [list(p) for p in table.pairs]
    return {"shape": [len(table.pairs), len(table.columns)], "digest": _digest([rows, columns])}


def products_summary(products) -> dict:
    """Multiset of (stabilizer of a, stabilizer of b, product terms without
    class indices)."""
    items = sorted(
        [
            list(a.subgroup.elements),
            list(b.subgroup.elements),
            sorted([list(p.subgroup.elements), str(c)] for p, c in u.coefficients.items()),
        ]
        for (a, b), u in products
    )
    return {"products": len(items), "digest": _digest(items)}


_INDEX_LABEL = re.compile(r"<\d+\|")
_PRETTY_INDEX = re.compile(r"⟨\d+\|")
_CSV_CELL = re.compile(r",(?![^{]*\})")  # commas outside a {subgroup} label


def _text_fields(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in ("seed", "command", "input") and not key.startswith("representative"):
            fields[key] = value
    return fields


def cli_fields(label: str, out: str) -> dict:
    """The parts of a command's stdout that do not depend on the seed or on
    the order of class indices."""
    if label == "burnside":
        doc = json.loads(out)
        products = sorted(
            sorted(_PRETTY_INDEX.sub("⟨|", term) for term in cell.split(" + "))
            for row in doc["products"]
            for cell in row
        )
        return {
            "basis": sorted(p["subgroup"] for p in doc["basis"]),
            "marks_shape": [len(doc["marks"]), len(doc["marks"][0]) if doc["marks"] else 0],
            "products": _digest(products),
            "determinant_abs": doc["determinant"].lstrip("-"),
        }
    if label == "char_table":
        head, _, csv = out.partition("\npair,")
        lines = ("pair," + csv).splitlines()
        header = [_INDEX_LABEL.sub("<|", h) for h in _CSV_CELL.split(lines[0])[1:]]
        rows = [_CSV_CELL.split(line) for line in lines[1:]]
        columns = sorted([header[j]] + [r[j + 1] for r in rows] for j in range(len(header)))
        fields = _text_fields(head)
        fields["shape"] = [len(rows), len(header)]
        fields["digest"] = _digest([[r[0] for r in rows], columns])
        return fields
    fields = _text_fields(out)
    if label == "h2":
        fields["representatives"] = sum(line.startswith("representative") for line in out.splitlines())
    if label.startswith("crossed_") and "class sizes" in fields:
        fields["class sizes"] = sorted(json.loads(fields["class sizes"]))
    if "mark determinants" in fields:
        # a relabelling of classes permutes mark rows and columns: ± only
        fields["mark determinants"] = re.sub(r": -", ": ", fields["mark determinants"])
    return fields


# ---------------------------------------------------------------------------
# One pass


class PassState:
    """What one pass computed, kept for the queries and the checks."""

    def __init__(self, workload: str, seed: int, corpus: dict):
        self.workload = workload
        self.seed = seed
        self.groups = corpus["groups"]
        self.crossed = corpus["crossed"]
        self.results: dict[tuple, object] = {}
        self.inputs: dict[int, object] = {}


def _cohomology_module(G):
    from twochar.cochains import GModule

    return GModule.trivial(G, G.order)


def _commuting_pairs(G):
    from twochar.groups import commuting_pair_classes

    return [pair for cls in commuting_pair_classes(G) for pair in cls.orbit]


def _query_input(state: PassState, task: tuple):
    """Seeded inputs of one query, made before its timer starts."""
    from twochar.cochains import GModule, random_cochain, random_cocycle, schur_classes
    from twochar.crossed import TwoMorphism
    from twochar.groups import subgroup_group
    from twochar.reps import random_rep2
    from twochar.shapiro import shapiro_context

    _, kind, target, qseed = task
    rng = random.Random(qseed)
    if state.workload == "cohomology":
        module = _cohomology_module(state.groups[target])
        if kind == "cohomologous_over_Cx":
            return (random_cocycle(module, rng), random_cocycle(module, rng)), rng
        return random_cocycle(module, rng), rng
    if state.workload == "char-table":
        G = state.groups[target]
        pairs = _commuting_pairs(G)
        return (random_rep2(G, rng), pairs[rng.randrange(len(pairs))]), rng
    if kind == "shapiro":
        group, picker, mod_kind, degree = SHAPIRO_CONFIGS[target]
        G = state.groups[group]
        Q = _pick_subgroup(G, picker)
        qgrp, _, _ = subgroup_group(Q)
        if mod_kind == "trivial":
            module = GModule.trivial(qgrp, 6)
        else:
            module = GModule.permutation(qgrp, qgrp.table, 4)
        ctx = shapiro_context(G, Q, module)
        return (ctx, random_cochain(module, degree, rng)), rng
    if kind == "interchange":
        K = state.crossed[target]
        g1, g2 = (rng.randrange(K.G.order) for _ in range(2))
        h1, h2, h3, h4 = (rng.randrange(K.H.order) for _ in range(4))
        e1 = TwoMorphism(K, g1, h1)
        f1 = TwoMorphism(K, e1.target, h2)
        e2 = TwoMorphism(K, g2, h3)
        f2 = TwoMorphism(K, e2.target, h4)
        return (e1, f1, e2, f2), rng
    G = state.groups[target]
    reps = schur_classes(G).representatives
    pairs = _commuting_pairs(G)
    return (reps[rng.randrange(len(reps))], pairs[rng.randrange(len(pairs))]), rng


def _pick_subgroup(G, picker: str):
    from twochar.groups import all_subgroups

    for P in all_subgroups(G):
        if picker == "order3" and P.order == 3:
            return P
        if picker == "order2" and P.order == 2:
            return P
        if picker == "cyclic4" and P.order == 4 and max(G.order_of(g) for g in P.elements) == 4:
            return P
    raise KeyError(picker)


def _run_query(state: PassState, task: tuple, inp):
    from twochar import cochains, characters, crossed, shapiro
    from twochar.burnside import from_rep2

    kind, target = task[1], task[2]
    if state.workload == "cohomology":
        if kind == "is_coboundary":
            return cochains.is_coboundary(inp)
        if kind == "h2_index":
            return state.results[("h2", target)].index_of(inp)
        if kind == "schur_index":
            return state.results[("schur", target)].index_of(inp)
        return cochains.cohomologous_over_Cx(*inp)
    if state.workload == "char-table":
        r, (a, b) = inp
        if kind == "gk_rep":
            return characters.gk_rep(r, a, b)
        return characters.gk_as_mark(a, b, from_rep2(r))
    if kind == "shapiro":
        ctx, mu = inp
        return shapiro.phi(ctx, shapiro.psi(ctx, mu))
    if kind == "interchange":
        e1, f1, e2, f2 = inp
        lhs = crossed.horizontal_compose(crossed.vertical_compose(f1, e1), crossed.vertical_compose(f2, e2))
        rhs = crossed.vertical_compose(crossed.horizontal_compose(f1, f2), crossed.horizontal_compose(e1, e2))
        return lhs, rhs
    mu, (a, b) = inp
    return characters.oracle_twisted_regular(mu, a, b)


def _run_task(state: PassState, task: tuple):
    from twochar import burnside, characters, cochains

    kind = task[0]
    if kind == "cli":
        from twochar.cli import main

        argv = dict(CLI_COMMANDS)[task[1]] + ("--seed", str(state.seed))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()
    G = state.groups[task[1]]
    if kind == "schur":
        return cochains.schur_classes(G)
    if kind == "h2":
        return cochains.h2(G, _cohomology_module(G))
    if kind == "char_table":
        return characters.char_table(G, verify=True)
    if kind == "mark_matrix":
        return burnside.mark_matrix(G)
    if kind == "determinant":
        return burnside.determinant(state.results[("mark_matrix", task[1])][2])
    if kind == "mul":
        pairs = burnside.basis(G)
        return [
            ((a, b), burnside.mul(burnside.basis_element(G, a), burnside.basis_element(G, b)))
            for a in pairs
            for b in pairs
        ]
    raise KeyError(kind)


def run_pass(state: PassState, tasks: list[tuple], clock, quiet) -> dict:
    """Run every task once; never stop on a failure.  Returns the timings
    and the failures raised (answers are kept on ``state``).  The pass's
    interval and the start of each task and query are ``clock()`` readings,
    so that the caller can scale the times by the host's speed; each query
    runs inside ``quiet()``."""
    failures = []
    latencies_ms = []
    query_t = []
    task_s = {}
    task_t = {}
    start = clock()
    for i, task in enumerate(tasks):
        try:
            if task[0] == "query":
                inp, rng = _query_input(state, task)
                state.inputs[i] = (inp, rng)
                with quiet():
                    t0 = clock()
                    value = _run_query(state, task, inp)
                    latencies_ms.append((clock() - t0) * 1e3)
                query_t.append(t0)
            else:
                t0 = clock()
                value = _run_task(state, task)
                task_s[task[:2]] = clock() - t0
                task_t[task[:2]] = t0
            state.results[task[:2] if task[0] != "query" else i] = value
        except Exception as exc:  # every failure is counted, none stops the pass
            failures.append(_failure(i, task, exc))
    end = clock()
    return {
        "start": start,
        "end": end,
        "pass_s": end - start,
        "latencies_ms": latencies_ms,
        "query_t": query_t,
        "task_s": task_s,
        "task_t": task_t,
        "failures": failures,
    }


def _failure(i: int, task: tuple, exc: BaseException) -> dict:
    return {"task": i, "what": list(task[:3]), "error": f"{type(exc).__name__}: {exc}"[:300]}


# ---------------------------------------------------------------------------
# Checks (outside the timed region)


def _check_query(state: PassState, task: tuple, value, inp, rng) -> str | None:
    from twochar import cochains
    from twochar.characters import gk_linear
    from twochar.cyclo import CycloInt
    from twochar.groups import commuting_pair_classes

    kind, target = task[1], task[2]
    if state.workload == "cohomology":
        G = state.groups[target]
        module = _cohomology_module(G)
        H = state.results[("h2", target)]
        S = state.results[("schur", target)]
        if kind == "is_coboundary":
            trivial = H.index_of(inp) == 0
            if value is None:
                return None if not trivial else "no witness for a cocycle of class 0"
            if cochains.differential(value) != inp:
                return "witness w has dw != c"
            return None if trivial else "witness for a cocycle of nonzero class"
        if kind == "cohomologous_over_Cx":
            expected = S.index_of(inp[0]) == S.index_of(inp[1])
            return None if value == expected else f"got {value}, Schur indices say {expected}"
        classes = H if kind == "h2_index" else S
        if not 0 <= value < len(classes):
            return f"index {value} out of range"
        shift = cochains.differential(cochains.random_cochain(module, 1, rng))
        moved = classes.index_of(inp + shift)
        return None if moved == value else f"index moved under a coboundary: {value} -> {moved}"
    if state.workload == "char-table":
        r, (a, b) = inp
        table = state.results[("char_table", target)]
        G = state.groups[target]
        row = next(k for k, cls in enumerate(commuting_pair_classes(G)) if (a, b) in cls.orbit)
        expected = CycloInt.zero()
        for o in r.orbits:
            expected = expected + table.entries[row][table.columns.index(o)]
        return None if value == expected else f"value {value} != table sum {expected}"
    if kind == "shapiro":
        return None if value == inp[1] else "phi(psi(mu)) != mu"
    if kind == "interchange":
        return None if value[0] == value[1] else f"interchange law fails: {value}"
    mu, (a, b) = inp
    expected = gk_linear(mu, a, b)
    return None if value == expected else f"oracle {value} != formula {expected}"


def _check_task(state: PassState, task: tuple, value, pinned: dict) -> str | None:
    kind, label = task[0], task[1]
    if kind == "cli":
        code, out, err = value
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        got = cli_fields(label, out)
        want = pinned["cli"][label]
        return None if got == want else f"fields {got} != pinned {want}"
    if kind == "schur":
        want = LITERATURE[label][1]
        got = value.invariant_factors
        if got != want or len(value) != math.prod(want):
            return f"Schur multiplier {got} ({len(value)} classes), literature {want}"
        return None
    if kind == "h2":
        want = tuple(pinned["h2"][label])
        got = value.invariant_factors
        return None if got == want and len(value) == math.prod(want) else f"H² {got}, pinned {want}"
    if kind == "char_table":
        problem = _check_multiplier(label, state.groups[label])
        if problem is not None:
            return problem
        got = char_table_summary(value)
        return None if got == pinned["char_table"][label] else f"table {got} != pinned"
    if kind == "mark_matrix":
        _, cols, rows = value
        shape = [len(rows), len(cols)]
        want = pinned["mark_matrix"][label]
        return None if shape == want else f"mark matrix shape {shape}, pinned {want}"
    if kind == "determinant":
        if value.is_zero():
            return "mark determinant is zero"
        got = str(value * value)
        want = pinned["determinant_squared"][label]
        return None if got == want else f"det² {got}, pinned {want}"
    got = products_summary(value)
    return None if got == pinned["mul"][label] else f"products {got} != pinned"


def _check_multiplier(label: str, G) -> str | None:
    from twochar.groups import full_subgroup
    from twochar.reps import linear_classes

    got = linear_classes(full_subgroup(G)).invariant_factors
    want = LITERATURE[label][1]
    return None if got == want else f"Schur multiplier {got}, literature {want}"


def check_pass(state: PassState, tasks: list[tuple], outcome: dict, pinned: dict) -> list[dict]:
    """Check every answer the pass produced; return the failures, raised
    and wrong alike.  On ``verify-suites``, whose tasks compute no
    multiplier of their own, the Schur multiplier of every corpus group is
    checked here too; a wrong one is a failure with ``task`` None."""
    failures = list(outcome["failures"])
    failed = {f["task"] for f in failures}
    for i, task in enumerate(tasks):
        if i in failed:
            continue
        try:
            if task[0] == "query":
                inp, rng = state.inputs[i]
                problem = _check_query(state, task, state.results[i], inp, rng)
            else:
                problem = _check_task(state, task, state.results[task[:2]], pinned)
        except Exception as exc:
            failures.append(_failure(i, task, exc))
            continue
        if problem is not None:
            failures.append({"task": i, "what": list(task[:3]), "error": problem[:300]})
    if state.workload == "verify-suites":
        for label, G in state.groups.items():
            try:
                problem = _check_multiplier(label, G)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append({"task": None, "what": ["multiplier", label], "error": problem[:300]})
    return failures


def pins_from_pass(state: PassState) -> dict:
    """The pinned values as this pass computed them (``child.py --print-pins``);
    review every change before copying it into ``pinned.json``."""
    out: dict = {}
    for key, value in state.results.items():
        if not isinstance(key, tuple):
            continue  # query answers are checked for consistency, not pinned
        kind, label = key
        if kind == "cli":
            out.setdefault("cli", {})[label] = cli_fields(label, value[1])
        elif kind == "h2":
            out.setdefault("h2", {})[label] = list(value.invariant_factors)
        elif kind == "char_table":
            out.setdefault("char_table", {})[label] = char_table_summary(value)
        elif kind == "mark_matrix":
            out.setdefault("mark_matrix", {})[label] = [len(value[2]), len(value[1])]
        elif kind == "determinant":
            out.setdefault("determinant_squared", {})[label] = str(value * value)
        elif kind == "mul":
            out.setdefault("mul", {})[label] = products_summary(value)
    return out


# ---------------------------------------------------------------------------
# Answers, byte for byte


def _answer_bytes(kind: str, value) -> bytes:
    from twochar.burnside import pretty_element
    from twochar.cochains import Cochain

    if kind in ("schur", "h2"):
        return repr(value.invariant_factors).encode() + b"".join(r.values.tobytes() for r in value.representatives)
    if kind == "char_table":
        return repr((value.pairs, value.columns, value.entries)).encode()
    if kind == "mark_matrix":
        return repr([[str(v) for v in row] for row in value[2]]).encode()
    if kind == "mul":
        return repr([(a, b, pretty_element(u)) for (a, b), u in value]).encode()
    if isinstance(value, Cochain):  # coboundary witness, Shapiro round trip
        return value.values.tobytes()
    return repr(value).encode()


def answers_digest(state: PassState, tasks: list[tuple]) -> str:
    """sha256 over every answer in task order (index order included), for
    comparing passes of the same seed."""
    h = hashlib.sha256()
    for i, task in enumerate(tasks):
        key = i if task[0] == "query" else task[:2]
        h.update(repr(task).encode())
        h.update(_answer_bytes(task[0], state.results[key]) if key in state.results else b"<failed>")
    return h.hexdigest()
