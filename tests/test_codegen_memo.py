"""The gen-3 compile memo (``repro.compiler.pycodegen._instantiate``).

Generated functions share one module code object per distinct source
text, while every build binds its own constants through the
``_cN=_K[N]`` keyword defaults.  These tests hold the memo to that
contract: programs of one shape share bytecode but never constants,
every run still matches the preserved seed stepper on answer and step
count, a repeated lockstep pass is served from the memo with
seed-equal fingerprints, and the memo never grows past its bound.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

import repro.compiler.pycodegen as pycodegen
import repro.machine.machine as machine_mod
from repro.harness.runner import run
from repro.machine.variants import ALL_MACHINES, make_machine

from test_prepass_lockstep import GEN3_LIMITS, GEN3_PROGRAMS, _batched_lockstep

GEN3_MACHINES = tuple(
    name for name in sorted(ALL_MACHINES) if make_machine(name)._gen3
)

#: Two programs of one shape: B renames every identifier of A and
#: quotes a different symbol, so the generated sources are identical
#: and only the constants (``_K``) differ.  ``add1`` is a nested beta
#: call, so both builders (``build_fn`` and ``build_beta_fn``) run.
SHAPE_A = """
(define (add1 x) (+ x 1))
(define (walk n acc)
  (if (zero? n) (cons 'left acc)
      (walk (- n 1) (cons (add1 n) acc))))
(define (f n) (car (walk n '())))
"""
SHAPE_B = """
(define (inc y) (+ y 1))
(define (stroll m xs)
  (if (zero? m) (cons 'right xs)
      (stroll (- m 1) (cons (inc m) xs))))
(define (g m) (car (stroll m '())))
"""
ARGUMENT = "20"


@pytest.fixture
def builds(monkeypatch):
    """Record every function the two builders return, in build order."""
    built = []
    build_fn = machine_mod.build_fn
    build_beta_fn = machine_mod.build_beta_fn

    def spy_fn(code, machine):
        fn = build_fn(code, machine)
        built.append(fn)
        return fn

    def spy_beta(*args):
        fn = build_beta_fn(*args)
        built.append(fn)
        return fn

    monkeypatch.setattr(machine_mod, "build_fn", spy_fn)
    monkeypatch.setattr(machine_mod, "build_beta_fn", spy_beta)
    return built


@pytest.fixture
def compiles(monkeypatch):
    """Count the ``compile()`` calls the memo makes (its misses)."""
    count = [0]

    def counting(*args):
        count[0] += 1
        return compile(*args)

    monkeypatch.setattr(pycodegen, "compile", counting, raising=False)
    return count


def _constants(fn):
    """The constants one generated function binds, by keyword name."""
    return dict(fn.__kwdefaults__ or {})


def _build(builds, source, machine_name):
    start = len(builds)
    result = run(source, ARGUMENT, machine_name)
    return result, [fn for fn in builds[start:] if fn is not None]


@pytest.mark.parametrize("machine_name", GEN3_MACHINES)
def test_same_shape_shares_code_but_not_constants(machine_name, builds):
    a, fns_a = _build(builds, SHAPE_A, machine_name)
    b, fns_b = _build(builds, SHAPE_B, machine_name)
    assert fns_a and len(fns_a) == len(fns_b)
    for fn_a, fn_b in zip(fns_a, fns_b):
        assert fn_a.__code__ is fn_b.__code__
        assert fn_a is not fn_b
    # Each build answers with its own quoted constant and matches the
    # seed stepper on answer and step count.
    assert (a.answer, b.answer) == ("left", "right")
    for source, result in ((SHAPE_A, a), (SHAPE_B, b)):
        seed = run(source, ARGUMENT, machine_name, stepper="seed")
        assert (result.answer, result.steps) == (seed.answer, seed.steps)


@pytest.mark.parametrize("machine_name", GEN3_MACHINES)
def test_memo_hit_binds_only_its_own_constants(machine_name, builds):
    _a, fns_a = _build(builds, SHAPE_A, machine_name)
    before = [_constants(fn) for fn in fns_a]
    _b, fns_b = _build(builds, SHAPE_B, machine_name)
    for fn_a, fn_b, kept in zip(fns_a, fns_b, before):
        consts_b = _constants(fn_b)
        # Every default is this build's own ``_K`` entry, by identity.
        own = fn_b.__globals__["_K"]
        assert own is not fn_a.__globals__["_K"]
        assert len(consts_b) == len(own)
        for name, value in consts_b.items():
            assert value is own[int(name[2:])], name
        # None of A's identifiers leaks into B's strings ...
        texts_b = [v for v in consts_b.values() if isinstance(v, str)]
        for word in ("walk", "acc", "add1", "left"):
            assert not any(word in text for text in texts_b), word
        # ... and building B left A's bindings untouched.
        after = _constants(fn_a)
        assert after.keys() == kept.keys()
        assert all(after[k] is kept[k] for k in kept)


def test_lockstep_twice_is_served_from_the_memo(builds, compiles):
    """The gen-3 batched lockstep cases, twice in one process: both
    passes are seed-equal at every batch boundary, and the second pass
    builds every function again without compiling anything."""
    cases = [
        (machine_name, name)
        for machine_name in GEN3_MACHINES
        for name in sorted(GEN3_PROGRAMS)
    ]
    counts = []
    for _ in range(2):
        start_builds, start_compiles = len(builds), compiles[0]
        for machine_name, name in cases:
            _batched_lockstep(
                machine_name, GEN3_PROGRAMS[name],
                limits=GEN3_LIMITS, stepper="gen3",
            )
        counts.append((len(builds) - start_builds,
                       compiles[0] - start_compiles))
    (first_builds, _), (second_builds, second_compiles) = counts
    assert first_builds > 0
    assert second_builds == first_builds
    assert second_compiles == 0


def test_memo_never_grows_past_its_bound(builds, compiles, monkeypatch):
    bound = 3
    monkeypatch.setattr(pycodegen, "CODE_MEMO_SIZE", bound)
    monkeypatch.setattr(pycodegen, "_CODE_MEMO", OrderedDict())
    sizes = []
    build_fn = machine_mod.build_fn

    def sized(code, machine):
        fn = build_fn(code, machine)
        sizes.append(len(pycodegen._CODE_MEMO))
        return fn

    monkeypatch.setattr(machine_mod, "build_fn", sized)
    for machine_name in GEN3_MACHINES:
        result = run(SHAPE_A, ARGUMENT, machine_name)
        seed = run(SHAPE_A, ARGUMENT, machine_name, stepper="seed")
        assert (result.answer, result.steps) == (seed.answer, seed.steps)
    assert len(sizes) > bound
    assert max(sizes) == bound
    # Every distinct source past the bound was compiled afresh.
    assert compiles[0] > bound


def test_memo_evicts_least_recently_used(compiles, monkeypatch):
    monkeypatch.setattr(pycodegen, "CODE_MEMO_SIZE", 2)
    monkeypatch.setattr(pycodegen, "_CODE_MEMO", OrderedDict())

    def build(tag, value):
        src = f"def _t(*, _c0=_K[0]):\n    return ({tag!r}, _c0)\n"
        return pycodegen._instantiate(src, "<memo-test>", [value], "_t")

    assert build("one", 1)() == ("one", 1)
    assert build("two", 2)() == ("two", 2)
    assert build("one", 3)() == ("one", 3)  # hit: "one" is now newest
    assert compiles[0] == 2
    assert build("three", 4)() == ("three", 4)  # evicts "two"
    assert len(pycodegen._CODE_MEMO) == 2
    assert build("one", 5)() == ("one", 5)
    assert compiles[0] == 3
    assert build("two", 6)() == ("two", 6)
    assert compiles[0] == 4


def test_memo_under_threads(monkeypatch):
    """Builds racing on the shared memo from more threads than cores,
    with a tiny switch interval: every function binds its own
    constant, and the memo stays within its bound."""
    import sys
    import threading

    monkeypatch.setattr(pycodegen, "CODE_MEMO_SIZE", 3)
    monkeypatch.setattr(pycodegen, "_CODE_MEMO", OrderedDict())
    errors = []

    def worker(seed):
        try:
            for i in range(300):
                tag = (seed + i) % 5
                src = f"def _t(*, _c0=_K[0]):\n    return ({tag}, _c0)\n"
                fn = pycodegen._instantiate(src, "<race>", [(seed, i)], "_t")
                if fn() != (tag, (seed, i)):
                    errors.append((seed, i, fn()))
                if len(pycodegen._CODE_MEMO) > 3:
                    errors.append(("size", len(pycodegen._CODE_MEMO)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(pycodegen._CODE_MEMO) <= 3
