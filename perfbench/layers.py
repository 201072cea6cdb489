"""Wall time charged to the repo's layers, from outside ``src/``.

:class:`LayerTracer` replaces each layer's public entry point, where
its caller looks it up, with a wrapper that records a span.  Spans
nest on one stack, so a layer's *self* time is its span's duration
minus the time its child spans cover, and the self times of all spans
under one ``harness.run`` span add up to that span's duration.
Patches are installed per job and removed after it, so untraced runs
in the same process pay nothing.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: (module, attribute path, layer).  The attribute is patched where the
#: caller looks it up: ``read_all`` in the expander, the prepass, lowering
#: and codegen entry points in ``repro.machine.machine``, the meter's
#: methods on its class.
ENTRY_POINTS = (
    ("repro.syntax.expander", "read_all", "reader"),
    ("repro.space.consumption", "expand_program", "syntax.expand"),
    ("repro.space.consumption", "expand_expression", "syntax.expand"),
    ("repro.harness.runner", "validate", "syntax.validate"),
    ("repro.machine.machine", "annotate", "compiler.prepass"),
    ("repro.machine.machine", "register_program", "compiler.lower"),
    ("repro.machine.machine", "build_fn", "compiler.codegen"),
    ("repro.machine.machine", "build_beta_fn", "compiler.codegen"),
    # Unmetered runs step inside run_to_final's fused loop: its self
    # time (after codegen, lowering and collection) is stepping.
    ("repro.harness.runner", "run_to_final", "machine.step"),
    ("repro.machine.machine", "Machine.step", "machine.step"),
    # The exact meter's run loop: its self time (after stepping,
    # root sync, measuring and collecting) is the meter's own plumbing.
    ("repro.harness.runner", "run_metered", "space.loop"),
    ("repro.space.meter", "DeltaMeter.transition", "space.root_sync"),
    ("repro.space.meter", "DeltaMeter.measure", "space.measure"),
    ("repro.space.meter", "DeltaMeter.collect", "space.collect"),
    ("repro.space.meter", "DeltaMeter.collect_final", "space.collect"),
    ("repro.machine.machine", "Machine.compact", "space.collect"),
)

LAYERS = sorted({layer for _, _, layer in ENTRY_POINTS} | {"harness.run"})


class LayerTracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = [0.0]
        self._patches = []
        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owner_path, attribute = path.split(".")
            for name in owner_path:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute]
            self._patches.append(
                (owner, attribute, original, self.wrap(layer, original))
            )

    def wrap(self, layer, fn):
        self_s, calls, stack = self.self_s, self.calls, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                stack[-1] += elapsed

        return span

    def install(self) -> None:
        for owner, attribute, _original, wrapped in self._patches:
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapped in self._patches:
            setattr(owner, attribute, original)
