"""The serve-mix workload: a live ``repro serve`` driven by an open loop.

The server runs as a child process (``python -m repro serve --port 0
--workers 2``) in its own session, with the service's other defaults
and its spool in a temporary directory under the checkout.  One
client thread sends each arrival at its scheduled time over one
connection at a time, whatever the server's state.  After the last
arrival a second connection polls ``GET /jobs`` until every job has
settled.  Receipts carry the server's ``time.time()`` stamps, taken
on this host, so a job's latency runs from its scheduled send time to
its terminal receipt.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import time

from inproc import kernel_ms

TERMINAL = ("result", "quota", "error", "deferred")
BOOT_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 30.0
WORKERS = 2
#: Time the calibration kernel before every this many arrivals, this
#: many seconds before the arrival is due: most jobs have settled by
#: then, so the kernel reads the host's speed rather than the load the
#: workload itself puts on it.
CALIBRATE_EVERY = 2
CALIBRATE_LEAD_S = 0.03
CALIBRATE_REPEATS = 3


class BootFailed(RuntimeError):
    pass


def _http(port, method, path, payload=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=HTTP_TIMEOUT_S
    )
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except FileNotFoundError:
        return None
    return None


def descendants(pid):
    """Every live process below *pid*, found through ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
        state = stat[stat.rindex(")") + 2:].split()[0]
    except OSError:
        return False
    return state != "Z"


def read_line(stream, deadline) -> bytes:
    """One line from a child's unbuffered pipe, or what arrived before
    *deadline* (``perf_counter`` time) or end of file."""
    line = b""
    with selectors.DefaultSelector() as selector:
        selector.register(stream, selectors.EVENT_READ)
        while not line.endswith(b"\n"):
            if not selector.select(max(0.0, deadline - time.perf_counter())):
                break
            chunk = os.read(stream.fileno(), 1)
            if not chunk:
                break
            line += chunk
    return line


class Server:
    """One ``repro serve`` child process and the workers it forks."""

    def __init__(self, root, spool_dir):
        self.root = root
        self.spool_dir = spool_dir
        self.proc = None
        self.port = None
        self.seen = set()

    def boot(self) -> float:
        """Spawn and wait until ``/healthz`` answers; returns seconds."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--spool-dir", self.spool_dir],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        deadline = start + BOOT_TIMEOUT_S
        line = read_line(self.proc.stdout, deadline)
        if not line.endswith(b"\n"):
            raise BootFailed(f"no announce line before the timeout: {line!r}")
        try:
            self.port = int(line.split(b"http://127.0.0.1:")[1].split(b" ")[0])
        except (IndexError, ValueError):
            raise BootFailed(f"unexpected announce line {line!r}")
        while True:
            try:
                status, body = _http(self.port, "GET", "/healthz")
                if status == 200 and body.get("status") == "ok":
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BootFailed("/healthz did not answer before the timeout")
            time.sleep(0.005)
        took = time.perf_counter() - start
        self.seen.update(descendants(self.proc.pid))
        return took

    def rss_mb(self):
        """(server VmHWM, summed worker VmHWM) in MB."""
        workers = descendants(self.proc.pid)
        self.seen.update(workers)
        server = _status_kb(self.proc.pid, "VmHWM") or 0
        worker = sum(_status_kb(pid, "VmHWM") or 0 for pid in workers)
        return server / 1024.0, worker / 1024.0

    def stop(self) -> list:
        """Interrupt, wait, kill the session if needed; return the pids
        that outlived the server (killed here)."""
        if self.proc is None:
            return []
        self.seen.update(descendants(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        survivors = []
        deadline = time.perf_counter() + 5.0
        for pid in sorted(self.seen):
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                survivors.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc = None
        return survivors


def _spec(texts, job):
    spec = {
        "program": texts[job["text"]],
        "argument": job["argument"],
        "machine": job["machine"],
        "tenant": job["tenant"],
    }
    if "budget" in job:
        spec["budget"] = job["budget"]
    return spec


def drive(server, texts, arrivals):
    """Send every arrival at its due time, then drain.  Returns the
    per-job observations and run-wide facts."""
    clock = time.time
    observations = []
    sends = []
    calibration = []
    t0 = clock() + 0.2
    for number, arrival in enumerate(arrivals):
        due = t0 + arrival["due"]
        pause = due - clock()
        if number % CALIBRATE_EVERY == 0 and pause > CALIBRATE_LEAD_S:
            time.sleep(pause - CALIBRATE_LEAD_S)
            calibration.append(kernel_ms(CALIBRATE_REPEATS))
            pause = due - clock()
        if pause > 0:
            time.sleep(pause)
        sent = clock()
        members = [_spec(texts, job) for job in arrival["jobs"]]
        payload = {"jobs": members} if arrival["batch"] else members[0]
        try:
            status, body = _http(server.port, "POST", "/submit", payload)
        except OSError as error:
            status, body = None, {"reason": f"{type(error).__name__}: {error}"}
        answered = clock()
        sends.append({"late_s": sent - due, "submit_s": answered - sent,
                      "status": status})
        if status == 202:
            entries = body["jobs"] if arrival["batch"] else [body]
            ids = [entry["job"] for entry in entries]
        else:
            ids = [None] * len(arrival["jobs"])
        for job, job_id in zip(arrival["jobs"], ids):
            observations.append({"job": job, "id": job_id,
                                 "arrival": number, "due": due,
                                 "sent": sent, "answered": answered,
                                 "status": status})
    last_sent = clock()

    wanted = {obs["id"] for obs in observations if obs["id"] is not None}
    deadline = last_sent + DRAIN_TIMEOUT_S
    while True:
        status, body = _http(server.port, "GET", "/jobs")
        snapshots = {snap["job"]: snap for snap in body["jobs"]
                     if snap["job"] in wanted}
        if len(snapshots) == len(wanted) and all(
                snap["status"] not in ("queued", "running")
                for snap in snapshots.values()):
            break
        if clock() > deadline:
            break
        time.sleep(0.5)
    for obs in observations:
        obs["records"] = snapshots.get(obs["id"], {}).get("records", [])
    status, metrics = _http(server.port, "GET", "/metrics")
    return {
        "observations": observations,
        "sends": sends,
        "t0": t0,
        "calibration_ms": calibration,
        "metrics": metrics,
    }
