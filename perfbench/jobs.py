"""Seeded job generation for the three workloads.

A job is plain JSON data: a program text (by index into a text table),
an argument, a machine, and the metering options.  The same seed gives
the same texts, jobs and order.  Inputs come from small fixed menus so
a job's expected outcome (see ``oracle.py``) can be cached by content
across runs.

The in-process workloads are sequences of *rounds* of a fixed
composition, each shuffled by the seed, so every job class is spread
over the whole run instead of sitting in one phase of host speed, and
runs of different seeds measure the same mix.  A run ends at the first
round boundary after ``--seconds``; the sequences are long enough that
a much faster program still does not run out.
"""

from __future__ import annotations

import random

from repro.programs import (
    SEPARATORS,
    SEPARATORS_BY_NAME,
    load_corpus,
    theorem26_program,
)

#: The four gen-3 frame disciplines plus safe-for-space closures.
CORPUS_MACHINES = ("tail", "gc", "bigloo", "stack", "sfs")
#: The six reference machines of Figure 6.
REFERENCE_MACHINES = ("tail", "gc", "stack", "evlis", "free", "sfs")
#: Machines of the served corpus: 23 programs x 3 machines = 69 artifact
#: keys against the service's default cache capacity of 64.
SERVE_MACHINES = ("tail", "gc", "sfs")

CORPUS_ROUNDS = 60
SPACE_ROUNDS = 40
CORPUS_PK_KS = tuple(range(8, 40))
SPACE_NS = (12, 16, 20, 24)
SPACE_PK_KS = tuple(range(6, 19))
SERVE_PK_KS = tuple(range(4, 41))
#: Budgeted separator cells for serve-mix: (separator, ns, machines,
#: budget).  The budgets sit between the machines' consumptions, so
#: some jobs fit and the others must be quota-killed or deferred.
SERVE_SEPARATORS = (
    ("stack-vs-gc", (24, 32, 48), ("tail", "gc", "stack"), 1200),
    ("gc-vs-tail", (8, 16, 64, 96), ("tail", "gc"), 200),
)
SERVE_TENANTS = ("alice", "bob", "carol", "dave")


#: Input menus where a neighbour of the default input fails (takl on
#: even inputs) or costs several times the default (nqueens 5 and 7).
_INPUT_MENUS = {"takl": ["3", "5", "7"], "nqueens": ["3", "6"]}


def _input_menu(name: str, default: str):
    """The default input and its two neighbours."""
    if name in _INPUT_MENUS:
        return _INPUT_MENUS[name]
    value = int(default)
    step = 1 if value <= 20 else 5
    return [str(value - step), default, str(value + step)]


class _Texts:
    """Interning table of program texts; jobs refer to texts by index."""

    def __init__(self):
        self.texts = []
        self._index = {}

    def add(self, text: str) -> int:
        index = self._index.get(text)
        if index is None:
            index = self._index[text] = len(self.texts)
            self.texts.append(text)
        return index


def _job(texts, text, argument, machine, *, kind, name, meter=None,
         linked=False, fixed_precision=False, **extra):
    job = {
        "text": texts.add(text),
        "argument": argument,
        "machine": machine,
        "meter": meter,
        "linked": linked,
        "fixed_precision": fixed_precision,
        "kind": kind,
        "name": name,
    }
    job.update(extra)
    return job


def _cycle(rng, values):
    """Endless seeded draws that exhaust a shuffled copy of *values*
    before repeating any."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _rounds(rng, rounds):
    jobs = []
    for batch in rounds:
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


def corpus_answers(seed: int) -> dict:
    """Unmetered ``runner.run`` from source text.  Each round runs every
    corpus program once plus one Theorem 26 P_k job.  A program's
    machine rotates through the five machines from round to round and
    its input through a three-entry menu every five rounds, from seeded
    offsets, so every round costs about the same.  The P_k texts never
    repeat: ``loop`` is renamed per job."""
    rng = random.Random(seed)
    texts = _Texts()
    corpus = load_corpus()
    menus = [_input_menu(p.name, p.default_input) for p in corpus]
    offsets = [(rng.randrange(len(CORPUS_MACHINES)), rng.randrange(len(menu)))
               for menu in menus]
    ks = _cycle(rng, CORPUS_PK_KS)
    rounds = []
    for index in range(CORPUS_ROUNDS):
        batch = []
        for program, menu, (machine_offset, input_offset) in zip(
                corpus, menus, offsets):
            machine = CORPUS_MACHINES[(machine_offset + index)
                                      % len(CORPUS_MACHINES)]
            argument = menu[(input_offset + index // len(CORPUS_MACHINES))
                            % len(menu)]
            batch.append(_job(texts, program.source, argument, machine,
                              kind="corpus", name=program.name))
        k = next(ks)
        text = theorem26_program(k).replace("loop", f"loop{index}")
        batch.append(_job(texts, text, str(k), rng.choice(CORPUS_MACHINES),
                          kind="pk", name=f"P_{k}"))
        rounds.append(batch)
    return {"texts": texts.texts, "jobs": _rounds(rng, rounds),
            "round_jobs": len(rounds[0])}


def space_hierarchy(seed: int) -> dict:
    """Exact-metered delta-engine runs.  Each round runs the four
    Theorem 25 separators at four N on the six reference machines under
    flat and linked accounting, plus Theorem 26 P_k at four seeded k on
    tail/linked and sfs/flat."""
    rng = random.Random(seed)
    texts = _Texts()
    pool = []
    for separator in SEPARATORS:
        for n in SPACE_NS:
            for machine in REFERENCE_MACHINES:
                for linked in (False, True):
                    pool.append(_job(
                        texts, separator.source, str(n), machine,
                        kind="separator", meter="exact", linked=linked,
                        name=f"{separator.name}/{n}",
                    ))
    ks = _cycle(rng, SPACE_PK_KS)
    rounds = []
    for _ in range(SPACE_ROUNDS):
        batch = list(pool)
        for _ in range(4):
            k = next(ks)
            for machine, linked in (("tail", True), ("sfs", False)):
                batch.append(_job(
                    texts, theorem26_program(k), str(k), machine,
                    kind="pk", meter="exact", linked=linked,
                    fixed_precision=True, name=f"P_{k}",
                ))
        rounds.append(batch)
    return {"texts": texts.texts, "jobs": _rounds(rng, rounds),
            "round_jobs": len(rounds[0])}


#: serve-mix composition per 100 submits.  Corpus jobs are drawn from
#: a shuffled multiset holding each of the 69 (program, machine)
#: artifact keys equally often (a seeded few once more, to fill the
#: count), so every run has the same mix of program sizes, which
#: decides the latency tail, while reuse distances stay random (a
#: fixed cycle over 69 keys would defeat the 64-entry LRU cache on
#: every access).
#: Separator jobs cycle through their budgeted cells.  Batches are few:
#: every member settles when the whole batch does, so batch members
#: stay well under a tenth of the jobs and do not decide the p90.
SERVE_MIX = (("corpus", 77), ("pk", 8), ("separator", 11), ("batch", 2),
             ("rejected", 2))


def serve_mix(seed: int, rate: float, seconds: float) -> dict:
    """Open-loop submits to ``repro serve``: ``rate * seconds`` arrivals,
    one in each ``1 / rate`` slot at a seeded offset within it, so
    every run offers the same load with the same small bursts.  An
    arrival is a
    corpus job under service defaults (sampled meter, fixed precision),
    a P_k job (a fresh text, so an artifact-cache miss), a budgeted
    separator job, a ``{"jobs": [...]}`` batch of two or three corpus
    jobs, or ``string-ops``, which the server's section 12
    compound-constant check rejects with a 400."""
    rng = random.Random(seed)
    texts = _Texts()
    corpus = [p for p in load_corpus() if p.name != "string-ops"]
    string_ops = next(p for p in load_corpus() if p.name == "string-ops")
    separator_cells = _cycle(rng, [
        (name, n, machine, budget)
        for name, ns, machines, budget in SERVE_SEPARATORS
        for n in ns for machine in machines
    ])
    pk_ks = _cycle(rng, SERVE_PK_KS)
    tenants = _cycle(rng, SERVE_TENANTS)

    def corpus_job(tenant):
        program, machine = next(corpus_keys)
        return _job(texts, program.source, program.default_input, machine,
                    kind="corpus", name=program.name, meter="sampled",
                    fixed_precision=True, tenant=tenant)

    count = round(rate * seconds)
    kinds = [kind for kind, share in SERVE_MIX
             for _ in range(round(count * share / 100))]
    kinds = (kinds + ["corpus"] * count)[:count]
    rng.shuffle(kinds)
    sizes = [2 + index % 2 for index in range(kinds.count("batch"))]
    batch_sizes = iter(sizes)
    keys = [(p, m) for p in corpus for m in SERVE_MACHINES]
    draws = kinds.count("corpus") + sum(sizes)
    corpus_keys = keys * (draws // len(keys)) + rng.sample(
        keys, draws % len(keys))
    rng.shuffle(corpus_keys)
    corpus_keys = iter(corpus_keys)
    dues = [(slot + rng.random()) / rate for slot in range(count)]
    arrivals = []
    for due, kind in zip(dues, kinds):
        tenant = next(tenants)
        if kind == "corpus":
            members = [corpus_job(tenant)]
        elif kind == "pk":
            k = next(pk_ks)
            members = [_job(texts, theorem26_program(k), str(k), "tail",
                            kind="pk", name=f"P_{k}", meter="sampled",
                            fixed_precision=True, tenant=tenant)]
        elif kind == "separator":
            name, n, machine, budget = next(separator_cells)
            members = [_job(texts, SEPARATORS_BY_NAME[name].source, str(n),
                            machine, kind="separator", name=name,
                            meter="sampled", fixed_precision=True,
                            budget=budget, tenant=tenant)]
        elif kind == "batch":
            members = [corpus_job(tenant) for _ in range(next(batch_sizes))]
        else:
            members = [_job(texts, string_ops.source,
                            string_ops.default_input, "tail",
                            kind="rejected", name="string-ops",
                            meter="sampled", fixed_precision=True,
                            tenant=tenant)]
        arrivals.append({"due": due, "jobs": members,
                         "batch": kind == "batch"})
    jobs = [job for arrival in arrivals for job in arrival["jobs"]]
    return {"texts": texts.texts, "jobs": jobs, "arrivals": arrivals}
