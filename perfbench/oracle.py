"""Expected outcomes from the preserved oracles, cached by job content.

Every job's expected answer, step count and (for metered jobs)
sup-space and consumption come from ``repro.harness.runner.run`` with
the seed stepper (``stepper="seed"``) and, when metered, the reference
engine (``engine="reference"``).  Sampled-meter jobs are checked
against the exact meter: the two report identical numbers.

The oracles are slow, so they run before the timed window and their
results are kept in ``.perfbench_cache/`` at the root of the checkout,
in a file named after a hash of ``src/``: a changed program tree gets
fresh oracles.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.harness.runner import run

CACHE_DIR = ".perfbench_cache"


def source_fingerprint(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith((".py", ".scm")):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def job_key(texts, job) -> str:
    metered = job["meter"] is not None
    content = [texts[job["text"]], job["argument"], job["machine"], metered,
               job["linked"], job["fixed_precision"]]
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def expected(text, job) -> dict:
    metered = job["meter"] is not None
    try:
        result = run(
            text,
            job["argument"],
            machine=job["machine"],
            meter="exact" if metered else False,
            linked=job["linked"],
            fixed_precision=job["fixed_precision"],
            engine="reference",
            stepper="seed",
        )
    except Exception as error:  # noqa: BLE001 - an expected outcome too
        return {"error": type(error).__name__}
    return {
        "answer": result.answer,
        "steps": result.steps,
        "sup_space": result.sup_space,
        "consumption": result.consumption,
    }


class OracleCache:
    """Expected outcomes by job key, persisted under the checkout."""

    def __init__(self, root: str):
        self.path = os.path.join(
            root, CACHE_DIR, f"oracle-{source_fingerprint(root)}.json"
        )
        self.entries = {}
        if os.path.exists(self.path):
            with open(self.path) as handle:
                self.entries = json.load(handle)
        self.computed = 0

    def fill(self, texts, jobs) -> dict:
        """Return ``{key: outcome}`` for *jobs*, computing the misses."""
        outcomes = {}
        for job in jobs:
            key = job_key(texts, job)
            if key not in self.entries:
                self.entries[key] = expected(texts[job["text"]], job)
                self.computed += 1
            outcomes[key] = self.entries[key]
        if self.computed:
            self._save()
        return outcomes

    def _save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        scratch = f"{self.path}.{os.getpid()}.tmp"
        with open(scratch, "w") as handle:
            json.dump(self.entries, handle)
        os.replace(scratch, self.path)


def matches(outcome: dict, record: dict, metered: bool) -> bool:
    """True when a run's record carries the oracle's outcome."""
    if "error" in outcome or "error" in record:
        return False
    fields = ("answer", "steps", "sup_space", "consumption") if metered \
        else ("answer", "steps")
    return all(record.get(field) == outcome[field] for field in fields)
