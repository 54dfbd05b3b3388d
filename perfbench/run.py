#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer timings of ALIC.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campaign-dt --seed 1 --seconds 25 --trace 0

It builds alic_campaign, alic_serve and the benchmark's own driver from
source into .bench_build/, runs one workload in .bench_work/, checks every
output, and prints as its last stdout line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a separate run
that times calls into the library from perfbench/driver.cpp.  A failed
check still prints the result line (with "correct": false) and exits 1.

    python3 perfbench/run.py --steadiness --workload campaign-dt --runs 5

runs the benchmark as two sets of five seeds each and prints, per
end-to-end metric, each set's median and quartiles and whether the
spreads and the medians agree within the metric's bound.  See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_work"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Kernel groups whose per-kernel campaign cost at ALIC_SCALE=bench agrees
# within about 20 % (measured on a 4-core x86 host).  A campaign run
# cycles over its whole group, one kernel per repetition, and its set-up
# builds the whole group, so the seed changes the order and the inputs
# but not the amount of work.  (adi, dgemv3 and gemver take about 40 %
# longer to build than these.)
DT_KERNELS = ["correlation", "mm"]
GP_KERNELS = ["atax", "bicgkernel", "correlation", "lu"]
SERVE_KERNELS = GP_KERNELS + ["mm"]  # the GP session's kernel from GP_KERNELS

MIN_REPS = 2         # measured repetitions per run, at least
SETUP_PER_REP = 5    # set-ups per repetition; setup_s is their median
RESTORE_REPS = 50    # ledger re-reads per campaign; restore_s is the median
SERVE_DT_SESSIONS = 4  # two connections, two light sessions each
SERVE_GP_SESSIONS = 1  # one connection, one heavy session
SERVE_ROUNDS = {"dt": 200, "gp": 170}  # suggest+observe rounds per session
SERVE_RESTARTS = 3   # graceful restarts at each midpoint; restore_s is the median


class BenchError(Exception):
    """A run that cannot produce a result (build or program failure)."""


# ----------------------------------------------------------------------------
# Statistics


def tail_percentile(samples, want=99.0):
    """Value at the highest percentile <= want with >= 10 samples beyond it.

    Nearest-rank percentiles: the value at percentile p is the
    ceil(p/100 * n)-th smallest sample.  Returns (value, percentile,
    sample count, samples beyond it)."""
    xs = sorted(samples)
    n = len(xs)
    wanted_rank = math.ceil(want / 100.0 * n)
    rank = min(wanted_rank, n - 10)
    if rank < 1:
        raise ValueError(f"{n} samples leave no percentile with 10 beyond it")
    pct = want if rank == wanted_rank else 100.0 * rank / n
    return xs[rank - 1], pct, n, n - rank


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children may overlap when they ran on
    other threads).  spans: dict id -> (kind, parent, t0, t1)."""
    children = {}
    for sid, (_, parent, t0, t1) in spans.items():
        children.setdefault(parent, []).append((t0, t1))
    result = {}
    for sid, (_, _, t0, t1) in spans.items():
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        result[sid] = (t1 - t0) - covered
    return result


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def verify_digest(reference, workload, kernels, path):
    """True when the aggregate at path matches the kept reference digest."""
    want = reference.get(workload, {}).get(",".join(kernels))
    return want is not None and sha256_file(path) == want


def host_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def proc_cpu_s(pid):
    """User plus system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------------
# Build and process helpers


def build():
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "perfbench_driver", "alic_campaign", "alic_serve"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=850) != 0:
                raise BenchError(f"build failed; see {log_path}")
    return {
        "driver": os.path.join(BUILD_DIR, "perfbench_driver"),
        "campaign": os.path.join(BUILD_DIR, "alic", "alic_campaign"),
        "serve": os.path.join(BUILD_DIR, "alic", "alic_serve"),
    }


def child_env():
    env = dict(os.environ, ALIC_SCALE="bench")
    env.pop("ALIC_FAILPOINTS", None)
    return env


def run_timed(argv, out_path, timeout=170):
    """Runs argv to completion; returns (wall_s, cpu_s, exit code, bytes the
    process passed to write())."""
    with open(out_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # Wait without reaping, so /proc/<pid>/io is still readable.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.monotonic() - t0
            timer.cancel()
            try:
                with open(f"/proc/{proc.pid}/io") as f:
                    io = dict(line.split(": ") for line in f.read().split("\n")
                              if ": " in line)
                wchar = int(io.get("wchar", 0))
            except OSError:
                wchar = 0
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{argv[0]} timed out after {timeout} s")
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, wchar


def run_json(argv, out_path):
    wall, _, code, _ = run_timed(argv, out_path)
    with open(out_path) as f:
        lines = f.read().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{' '.join(argv[:2])} failed with exit code {code}")
    return json.loads(lines[-1]), wall


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------------
# Result accounting


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.notes = []  # human-readable lines printed before the JSON

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def put(self, name, value, unit, samples=None):
        self.metrics[name] = {"value": value, "unit": unit}
        note = f"{name:34s} {value:14.6f} {unit}"
        if samples is not None:
            note += f"  ({samples})"
        self.notes.append(note)


# ----------------------------------------------------------------------------
# Campaign workloads


def campaign_inputs(workload, seed):
    """The workload's kernel group in a seeded order (one single-kernel
    campaign per repetition, cycling over it, so every run does the same
    work whatever the seed), model, scorers, threads and --shuffle."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "campaign-dt":
        kernels = list(DT_KERNELS)
        model, scorers, threads = "dynatree", "alm,alc", 0
    else:
        kernels = list(GP_KERNELS)
        model, scorers, threads = "gp", "alc", 1
    rng.shuffle(kernels)
    return kernels, model, scorers, threads, rng.randrange(1, 2**31)


def campaign_argv(bins, kernels, model, scorers, threads, shuffle, state):
    return [bins["campaign"], f"--benchmarks={','.join(kernels)}",
            f"--models={model}", f"--scorers={scorers}", "--seeds=1",
            "--no-noise", f"--threads={threads}", f"--shuffle={shuffle}",
            f"--state-dir={state}", f"--out={state}/aggregate.json"]


def parse_campaign_stdout(path):
    tasks = steals = 0
    with open(path) as f:
        text = f.read()
    m = re.search(r"(\d+) task\(s\) executed .*?(\d+) steal\(s\)", text)
    if m:
        tasks, steals = int(m.group(1)), int(m.group(2))
    return tasks, steals


def campaign_setup(bins, work, kernels):
    """Builds the datasets of kernels (the whole group, whichever kernel
    the next repetition runs) into an empty cache; returns (cache,
    seconds)."""
    cache = fresh_dir(os.path.join(work, "datasets"))
    _, wall = run_json([bins["driver"], "datasets", f"--cache={cache}",
                        f"--kernels={','.join(kernels)}"],
                       os.path.join(work, "datasets.out"))
    return cache, wall


def campaign_rep(bins, work, warm, inputs, kernel, rep, reference, workload,
                 res, threads=None):
    """A campaign on one kernel from an empty ledger, then RESTORE_REPS
    re-runs on the complete ledger."""
    _, model, scorers, default_threads, shuffle = inputs
    kernels = [kernel]
    threads = default_threads if threads is None else threads
    state = fresh_dir(os.path.join(work, f"state{rep}"))
    shutil.copytree(warm, os.path.join(state, "datasets"))
    argv = campaign_argv(bins, kernels, model, scorers, threads, shuffle, state)
    out = os.path.join(state, "campaign.out")
    wall, cpu, code, wchar = run_timed(argv, out)
    ledger = os.path.join(state, "cells.jsonl")
    cells = 0
    if os.path.exists(ledger):
        with open(ledger) as f:
            cells = len(f.read().splitlines())
    # Quarantined cells (exit 74) are missing from the ledger.
    expected = len(kernels) * len(scorers.split(",")) * 3  # three plans
    res.attempted += expected
    res.failed += max(0, expected - cells)
    res.check(code == 0, f"alic_campaign exited {code}")
    aggregate = os.path.join(state, "aggregate.json")
    res.check(code == 0 and verify_digest(reference, workload, kernels,
                                          aggregate),
              f"aggregate of {kernels} differs from the reference digest")
    restores = []
    for _ in range(RESTORE_REPS):
        os.remove(aggregate)
        r_wall, _, r_code, _ = run_timed(argv, os.path.join(state, "restore.out"))
        res.op(r_code == 0 and verify_digest(reference, workload, kernels,
                                             aggregate),
               f"re-run on the complete ledger exited {r_code} or wrote an "
               "aggregate that differs from the reference digest")
        restores.append(r_wall)
    tasks, steals = parse_campaign_stdout(out)
    return {"wall": wall, "cpu": cpu, "restores": restores, "state": state,
            "ledger": ledger, "wchar": wchar, "tasks": tasks,
            "steals": steals, "cells": cells, "kernels": kernels}


def run_campaign(bins, workload, seed, seconds, trace, work, res):
    inputs = campaign_inputs(workload, seed)
    kernels, model, scorers, threads, _ = inputs
    reference = load_reference()
    res.notes.append(f"# {workload}: kernels={','.join(kernels)} "
                     f"model={model} scorers={scorers} threads={threads}")
    setups, reps = [], []
    t0 = time.monotonic()
    # The traced run needs one untraced reference repetition; a timed run
    # makes whole cycles over the group, so each kernel weighs the same.
    while not (trace and reps) and (
            len(reps) < MIN_REPS or time.monotonic() - t0 < seconds or
            len(reps) % len(kernels)):
        # Set-up samples are spread over the run, like the repetitions.
        for _ in range(SETUP_PER_REP):
            warm, setup = campaign_setup(bins, work, kernels)
            setups.append(setup)
        kernel = kernels[len(reps) % len(kernels)]
        reps.append(campaign_rep(bins, work, warm, inputs, kernel, len(reps),
                                 reference, workload, res))
    wall = statistics.median(r["wall"] for r in reps)
    cpu = statistics.median(r["cpu"] for r in reps)
    restores = [t for r in reps for t in r["restores"]]
    if not trace:
        res.put("setup_s", statistics.median(setups), "s", f"{len(setups)} set-ups")
        res.put("wall_s", wall, "s", f"{len(reps)} campaigns")
        res.put("cpu_s", cpu, "s", f"{len(reps)} campaigns")
        res.put("restore_s", statistics.median(restores), "s",
                f"{len(restores)} re-runs")
        return
    trace_campaign(bins, work, warm, inputs, reps[0], reference, workload,
                   res)


def trace_campaign(bins, work, warm, inputs, rep, reference, workload, res):
    group, model, scorers, threads, _ = inputs
    kernels = rep["kernels"]
    if threads:  # campaign-gp: an inline run cross-checks the reference too
        campaign_rep(bins, work, warm, inputs, kernels[0], "inline",
                     reference, workload, res, threads=0)
    lines = os.path.join(work, "traced.jsonl")
    plain = os.path.join(work, "plain.jsonl")
    spans_path = os.path.join(work, "spans.txt")
    cells, _ = run_json([bins["driver"], "cells", f"--cache={warm}",
                         f"--kernels={','.join(kernels)}", f"--model={model}",
                         f"--scorers={scorers}", f"--threads={threads}",
                         f"--lines={lines}", f"--plain-lines={plain}",
                         f"--spans={spans_path}"],
                        os.path.join(work, "cells.out"))
    with open(rep["ledger"]) as f:
        ledger = {json.loads(l)["cell"]: l for l in f.read().splitlines()}
    for path, what in ((lines, "traced"), (plain, "runLearning")):
        with open(path) as f:
            got = f.read().splitlines()
        res.check(len(got) == len(ledger) and
                  all(ledger.get(json.loads(l)["cell"]) == l for l in got),
                  f"{what} cells differ from the campaign ledger")

    spans = {}
    with open(spans_path) as f:
        for line in f:
            kind, sid, parent, t0, t1, rows = line.split()
            spans[int(sid)] = (kind, int(parent), int(t0), int(t1), int(rows))
    selfs = self_times({k: v[:4] for k, v in spans.items()})
    total = {}
    calls = {}
    rows = {}
    for sid, (kind, _, t0, t1, n) in spans.items():
        total[kind] = total.get(kind, 0) + (t1 - t0)
        calls[kind] = calls.get(kind, 0) + 1
        rows[kind] = rows.get(kind, 0) + n
    s = lambda ns: ns * 1e-9
    step_self = sum(selfs[sid] for sid, v in spans.items() if v[0] == "step")

    stats = {"iterations": 0, "observations": 0, "revisits": 0}
    for line in ledger.values():
        cell = json.loads(line)
        for key in stats:
            stats[key] += cell[key]

    res.put("model.update_s", s(total.get("update", 0)), "s")
    res.put("model.update_calls", calls.get("update", 0), "count")
    res.put("model.fit_s", s(total.get("fit", 0)), "s")
    res.put("model.fit_calls", calls.get("fit", 0), "count")
    res.put("model.predict_batch_s",
            s(total.get("predict_batch", 0) + total.get("predict", 0)), "s")
    res.put("model.predict_rows",
            rows.get("predict_batch", 0) + rows.get("predict", 0), "count")
    res.put("model.alc_s", s(total.get("alc", 0)), "s")
    res.put("model.alm_s", s(total.get("alm", 0)), "s")
    res.put("model.alc_rows", rows.get("alc", 0), "count")
    res.put("model.alm_rows", rows.get("alm", 0), "count")
    res.put("core.step_s", s(total.get("step", 0)), "s")
    res.put("core.step_calls", calls.get("step", 0), "count")
    res.put("core.self_s", s(step_self), "s")
    res.put("core.iterations", stats["iterations"], "count")
    res.put("core.observations", stats["observations"], "count")
    res.put("core.revisits", stats["revisits"], "count")
    res.put("measure.oracle_s", s(total.get("oracle", 0)), "s")
    res.put("measure.oracle_calls", calls.get("oracle", 0), "count")
    # Harness cost, measured rather than taken as a difference of two
    # runs: a re-run on the complete ledger (process start, dataset load,
    # ledger read, aggregation) plus the campaign's durable appends.
    res.put("exp.campaign.overhead_s", statistics.median(rep["restores"]) +
            ledger_append_s(rep["ledger"], os.path.join(work, "append.jsonl")),
            "s")
    res.put("exp.campaign.cells", rep["cells"], "count")
    res.put("exp.ledger.bytes", os.path.getsize(rep["ledger"]), "B")
    res.put("exp.campaign.write_bytes", rep["wchar"], "B")
    res.put("support.scheduler.tasks", rep["tasks"], "count")
    res.put("support.scheduler.steals", rep["steals"], "count")
    res.put("support.scheduler.cpus_used", rep["cpu"] / rep["wall"], "cpus")
    res.put("trace.overhead_s",
            cells["traced_cell_s"] - cells["plain_cell_s"], "s")
    dataset_layer(bins, work, group, res)


def ledger_append_s(ledger, path, passes=5):
    """Median time of writing every line of ledger to a new file the way a
    campaign appends to its ledger: one write and one fsync per line."""
    with open(ledger, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    times = []
    for _ in range(passes):
        if os.path.exists(path):
            os.remove(path)
        t0 = time.monotonic()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            for line in lines:
                os.write(fd, line)
                os.fsync(fd)
        finally:
            os.close(fd)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def dataset_layer(bins, work, kernels, res):
    cache = fresh_dir(os.path.join(work, "datasets-layer"))
    argv = [bins["driver"], "datasets", f"--cache={cache}",
            f"--kernels={','.join(kernels)}"]
    built, _ = run_json(argv, os.path.join(work, "datasets.out"))
    loaded, _ = run_json(argv, os.path.join(work, "datasets.out"))
    res.put("exp.dataset.build_s", built["seconds"], "s")
    res.put("exp.dataset.load_s", loaded["seconds"], "s")


# ----------------------------------------------------------------------------
# serve-mixed


class Session:
    """One tuning session driven closed-loop: suggest, observe, repeat."""

    def __init__(self, sid, cls, spec, rounds, cost_seed):
        self.sid, self.cls, self.spec, self.rounds = sid, cls, spec, rounds
        self.costs = random.Random(cost_seed)
        self.base = 0.2 + self.costs.random()
        self.round = 0
        self.pending = None  # ticket and cost count awaiting observe

    def next_request(self, stop_round):
        if self.pending is not None:
            ticket, count = self.pending
            costs = [round(self.base * math.exp(self.costs.gauss(0, 0.05)), 9)
                     for _ in range(count)]
            return {"op": "observe", "session": self.sid, "ticket": ticket,
                    "costs": costs}
        if self.round >= min(self.rounds, stop_round):
            return None
        return {"op": "suggest", "session": self.sid}

    def on_reply(self, request, reply):
        if request["op"] == "suggest":
            if reply.get("phase") == "done":
                self.round = self.rounds
                return
            self.pending = (reply["ticket"], len(reply["configs"]) *
                            reply["observations_per_config"])
        elif request["op"] == "observe":
            self.pending = None
            self.round += 1


class Conn:
    """One client connection cycling over its sessions, one request at a
    time (closed loop, zero think time)."""

    def __init__(self, name, sessions):
        self.name, self.sessions = name, sessions
        self.turn = 0
        self.sock = None
        self.buf = b""
        self.inflight = None

    def connect(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def close(self):
        if self.sock:
            self.sock.close()
            self.sock = None

    def next_request(self, stop_round):
        for _ in range(len(self.sessions)):
            sess = self.sessions[self.turn]
            req = sess.next_request(stop_round)
            if req is not None:
                if req["op"] == "observe":
                    self.turn = (self.turn + 1) % len(self.sessions)
                return sess, req
            self.turn = (self.turn + 1) % len(self.sessions)
        return None


def exchange(conns, script, log, res, timeout=120):
    """Runs each connection's script concurrently.  script(conn) returns
    the next (session, request) pair, None when the connection is done.
    Each reply is logged as (connection, request line, reply line,
    latency_s, session class, op)."""
    sel = selectors.DefaultSelector()
    live = 0

    def send(conn):
        item = script(conn)
        if item is None:
            return False
        sess, req = item
        line = json.dumps(req, separators=(",", ":"))
        conn.inflight = (sess, req, line, time.monotonic())
        conn.sock.sendall(line.encode() + b"\n")
        return True

    for conn in conns:
        if send(conn):
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            live += 1
    deadline = time.monotonic() + timeout
    while live:
        events = sel.select(timeout=max(0.0, deadline - time.monotonic()))
        if not events:
            raise BenchError("serve: no reply before the deadline")
        for key, _ in events:
            conn = key.data
            data = conn.sock.recv(1 << 16)
            now = time.monotonic()
            if not data:
                res.op(False, f"serve: {conn.name} disconnected")
                sel.unregister(conn.sock)
                live -= 1
                continue
            conn.buf += data
            while b"\n" in conn.buf:
                raw, conn.buf = conn.buf.split(b"\n", 1)
                sess, req, line, sent = conn.inflight
                reply_text = raw.decode()
                reply = json.loads(reply_text)
                res.op(reply.get("ok") is True,
                       f"serve: error reply {reply_text[:120]}")
                log.append((conn.name, line, reply_text, now - sent,
                            sess.cls if sess else "admin", req["op"]))
                if sess is not None and reply.get("ok"):
                    sess.on_reply(req, reply)
                if not send(conn):
                    sel.unregister(conn.sock)
                    live -= 1
    sel.close()


class Daemon:
    live = []  # started and not yet waited for

    def __init__(self, bins, sock_path, state, log_path):
        self.sock_path = sock_path
        self.t0 = time.monotonic()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [bins["serve"], f"--socket={sock_path}", f"--state-dir={state}",
             "--threads=1", "--checkpoint-every=1"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env())
        Daemon.live.append(self)
        ready = self.proc.stdout.readline().decode()
        if not ready.startswith("READY"):
            self.stop()
            raise BenchError(f"alic_serve did not start ({ready!r})")

    def cpu(self):
        return proc_cpu_s(self.proc.pid)

    def stop(self, graceful=True):
        """Graceful drain through the wire's shutdown op (the same drain
        SIGTERM starts, without its lost-wakeup race: see README.md);
        returns the exit code."""
        if graceful and self.proc.poll() is None:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.settimeout(30)
                    s.connect(self.sock_path)
                    s.sendall(b'{"op":"shutdown"}\n')
                    s.recv(1 << 10)
            except OSError:
                pass  # the exit code tells what happened
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        Daemon.live.remove(self)
        return code


def drain(daemon, res):
    code = daemon.stop()
    res.op(code == 0, f"alic_serve exited {code} after shutdown")


def serve_inputs(seed):
    """Session specs and cost-stream seeds.  Every seed opens one session
    on each of SERVE_KERNELS, so every seed builds the same datasets; the
    seed picks which kernel the GP session gets and the order of the rest."""
    rng = random.Random(f"serve-mixed:{seed}")
    gp_kernels = rng.sample(GP_KERNELS, SERVE_GP_SESSIONS)
    dt_kernels = rng.sample([k for k in SERVE_KERNELS
                             if k not in gp_kernels], SERVE_DT_SESSIONS)
    sessions = []
    for cls, model, kernels in (("dt", "dynatree", dt_kernels),
                                ("gp", "gp", gp_kernels)):
        for i, kernel in enumerate(kernels):
            sessions.append((cls, f"{cls}{i}", {
                "benchmark": kernel, "model": model, "scorer": "alc",
                "plan": "seq:35", "seed": rng.randrange(1, 2**31)},
                rng.randrange(2**31)))
    return sessions


def make_conns(inputs):
    sessions = [Session(sid, cls, spec, SERVE_ROUNDS[cls], cost_seed)
                for cls, sid, spec, cost_seed in inputs]
    dts = [s for s in sessions if s.cls == "dt"]
    half = len(dts) // 2
    return [Conn("light-a", dts[:half]), Conn("light-b", dts[half:]),
            Conn("heavy", [s for s in sessions if s.cls == "gp"])], sessions


def cold_start(bins, work, state, conns, log, res):
    """Starts the daemon on an empty state dir and opens every session;
    returns the daemon and the time from exec until all opens answered."""
    sock = os.path.join(work, "s.sock")
    daemon = Daemon(bins, sock, state, os.path.join(work, "daemon.log"))
    for conn in conns:
        conn.connect(sock)
    opens = {c.name: [(s, {"op": "open", "session": s.sid, "spec": s.spec})
                      for s in c.sessions] for c in conns}
    exchange(conns, lambda c: opens[c.name].pop(0) if opens[c.name] else None,
             log, res)
    return daemon, time.monotonic() - daemon.t0


def serve_setup(bins, work, inputs, res):
    """A cold start alone, for more set-up samples per run."""
    conns, _ = make_conns(inputs)
    state = fresh_dir(os.path.join(work, "setup-state"))
    daemon, setup = cold_start(bins, work, state, conns, [], res)
    for conn in conns:
        conn.close()
    drain(daemon, res)
    return setup


def serve_rep(bins, work, inputs, rep, res):
    """One serve-mixed repetition: cold start, first half of the load,
    SERVE_RESTARTS graceful restarts from the midpoint state, second half,
    drain."""
    state = fresh_dir(os.path.join(work, f"state{rep}"))
    sock = os.path.join(work, "s.sock")
    daemon_log = os.path.join(work, "daemon.log")
    conns, sessions = make_conns(inputs)
    log = []
    total_rounds = max(s.rounds for s in sessions)
    mid = total_rounds // 2
    daemon, setup = cold_start(bins, work, state, conns, log, res)

    def run_half(stop_round):
        cpu0, t0 = daemon.cpu(), time.monotonic()
        exchange(conns, lambda c: c.next_request(stop_round), log, res)
        return time.monotonic() - t0, daemon.cpu() - cpu0

    wall1, cpu1 = run_half(mid)
    for conn in conns:
        conn.close()
    drain(daemon, res)
    midpoint = os.path.join(work, f"midpoint{rep}")
    shutil.rmtree(midpoint, ignore_errors=True)
    shutil.copytree(state, midpoint)

    restores = []
    for i in range(SERVE_RESTARTS):
        if i:
            drain(daemon, res)
        daemon = Daemon(bins, sock, state, daemon_log)
        admin = Conn("admin", [])
        admin.connect(sock)
        infos = [(None, {"op": "info", "session": s.sid}) for s in sessions]
        exchange([admin], lambda c: infos.pop(0) if infos else None, log,
                 res)
        restores.append(time.monotonic() - daemon.t0)
        admin.close()
    for conn in conns:
        conn.connect(sock)
    wall2, cpu2 = run_half(total_rounds)
    for conn in conns:
        conn.close()
    drain(daemon, res)
    for s in sessions:
        res.check(s.round == s.rounds and s.pending is None,
                  f"session {s.sid} stopped at round {s.round}")
    return {"setup": setup, "wall": wall1 + wall2, "cpu": cpu1 + cpu2,
            "restores": restores, "log": log, "midpoint": midpoint,
            "state": state}


def replay(bins, work, rep, res):
    """Replays rep's request stream in-process without the restart; the
    replies must equal the socket replies byte for byte."""
    requests = os.path.join(work, "requests.ndjson")
    with open(requests, "w") as f:
        for entry in rep["log"]:
            f.write(entry[1] + "\n")
    state = fresh_dir(os.path.join(work, "replay-state"))
    shutil.copytree(os.path.join(rep["state"], "datasets"),
                    os.path.join(state, "datasets"))
    replies = os.path.join(work, "replies.ndjson")
    times = os.path.join(work, "times.txt")
    out, _ = run_json([bins["driver"], "serve-replay", f"--state-dir={state}",
                       "--threads=1", f"--requests={requests}",
                       f"--replies={replies}", f"--times={times}"],
                      os.path.join(work, "replay.out"))
    with open(replies) as f:
        got = f.read().splitlines()
    want = [entry[2] for entry in rep["log"]]
    res.check(got == want, "in-process replay replies differ from the "
                           "socket replies across the restart")
    with open(times) as f:
        service = [int(t) * 1e-9 for t in f.read().split()]
    return out, service


def latency_metrics(res, prefix, log, cls_op_pairs, values=None):
    for name, cls, ops in cls_op_pairs:
        xs = [(values[i] if values else e[3]) * 1e3
              for i, e in enumerate(log) if e[4] == cls and e[5] in ops]
        p99, pct, n, beyond = tail_percentile(xs)
        res.put(f"{prefix}{name}_p50_ms", statistics.median(xs), "ms",
                f"n={n}")
        res.put(f"{prefix}{name}_p99_ms", p99, "ms",
                f"n={n}, nearest-rank p{pct:.2f}, {beyond} beyond")


def per_conn(rep):
    """The reply lines of one repetition, per connection."""
    streams = {}
    for entry in rep["log"]:
        streams.setdefault(entry[0], []).append(entry[2])
    return streams


LATENCY_CLASSES = [("dt_suggest", "dt", ("suggest",)),
                   ("dt_observe", "dt", ("observe",)),
                   ("gp_suggest", "gp", ("suggest",))]


def run_serve(bins, seed, seconds, trace, work, res):
    inputs = serve_inputs(seed)
    res.notes.append("# serve-mixed: " + " ".join(
        f"{sid}={spec['benchmark']}" for _, sid, spec, _ in inputs))
    reps = []
    t0 = time.monotonic()
    setups = []
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        if not trace:
            setups += [serve_setup(bins, work, inputs, res)
                       for _ in range(SETUP_PER_REP - 1)]
        reps.append(serve_rep(bins, work, inputs, len(reps), res))
        setups.append(reps[-1]["setup"])
        if trace:
            break
    for rep in reps[1:]:
        res.check(per_conn(rep) == per_conn(reps[0]),
                  "serve replies differ between repetitions of one input")
    out, service = replay(bins, work, reps[0], res)
    if not trace:
        res.put("setup_s", statistics.median(setups), "s",
                f"{len(setups)} cold starts")
        res.put("wall_s", statistics.median(r["wall"] for r in reps), "s",
                f"{len(reps)} loads")
        res.put("cpu_s", statistics.median(r["cpu"] for r in reps), "s",
                f"{len(reps)} loads")
        restores = [t for r in reps for t in r["restores"]]
        res.put("restore_s", statistics.median(restores), "s",
                f"{len(restores)} restarts")
        pooled = [e for r in reps for e in r["log"]]
        latency_metrics(res, "", pooled, LATENCY_CLASSES)
        return
    rep = reps[0]
    log = rep["log"]
    latency_metrics(res, "", log, LATENCY_CLASSES)
    latency_metrics(res, "serve.wire.", log, LATENCY_CLASSES, service)
    # Time a light request spent waiting in the daemon rather than being
    # served: its socket latency minus the in-process service time of the
    # same request (same session and ticket), floored at zero.
    queue = [max(0.0, e[3] - service[i]) for i, e in enumerate(log)]
    latency_metrics(res, "serve.queue.", log,
                    [("dt", "dt", ("suggest", "observe"))], queue)
    restored, _ = run_json([bins["driver"], "restore",
                            f"--state-dir={rep['midpoint']}", "--threads=1"],
                           os.path.join(work, "restore.out"))
    res.put("serve.engine.restore_s", restored["restore_s"], "s")
    res.put("serve.snapshot.write_bytes", out["snapshot_write_bytes"], "B")
    res.put("serve.snapshot.bytes", out["snapshot_bytes"], "B")
    res.put("support.scheduler.cpus_used", rep["cpu"] / rep["wall"], "cpus")
    # The replay loop's own cost around the timed dispatches.
    res.put("trace.overhead_s", out["loop_s"] - sum(service), "s")
    kernels = sorted({spec["benchmark"] for _, _, spec, _ in inputs})
    dataset_layer(bins, work, kernels, res)


# ----------------------------------------------------------------------------
# Entry points


def spec():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    bench = spec()
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}")
    bins = build()
    work = fresh_dir(os.path.join(WORK_ROOT, args.workload))
    res = Result()
    steal0 = host_steal_ticks()
    if args.workload == "serve-mixed":
        run_serve(bins, args.seed, args.seconds, args.trace, work, res)
    else:
        run_campaign(bins, args.workload, args.seed, args.seconds, args.trace,
                     work, res)
    steal = (host_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        res.put("host.steal_s", steal, "s")
        for m in wanted:  # layers this workload bypasses
            if m["name"] not in res.metrics:
                res.put(m["name"], 0, m["unit"])
    else:
        res.notes.append(f"# diagnostics: host.steal_s={steal:.3f}")
    metrics = {}
    for m in wanted:
        got = res.metrics.get(m["name"])
        if got is None or not NAME_RE.match(m["name"]):
            raise BenchError(f"metric {m['name']} missing or misnamed")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for note in res.notes:
        print(note)
    for err in res.errors:
        print(f"FAIL: {err}")
    correct = not res.errors
    print(json.dumps({"correct": correct, "attempted": max(1, res.attempted),
                      "failed": res.failed, "metrics": metrics}))
    if correct:  # a failed run keeps its files for inspection
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


def compare_sets(first, second, bound):
    """Agreement of two sets of samples of one metric.  Returns each set's
    (q1, median, q3, spread) with spread = IQR / median, the shift of the
    second median against the first, and whether both spreads and the
    shift, either way, are within bound."""
    rows = []
    for samples in (first, second):
        q1, med, q3 = statistics.quantiles(samples, n=4)
        rows.append((q1, med, q3, (q3 - q1) / med))
    shift = (rows[1][1] - rows[0][1]) / rows[0][1]
    ok = all(row[3] <= bound for row in rows) and abs(shift) <= bound
    return rows, shift, ok


def steadiness(args):
    """Two sets of the same code, args.runs seeds each; set s runs seeds
    1000 * s + i, so the second set sees inputs the first did not."""
    bench = spec()
    metrics = bench["end_to_end"]
    sets = []
    for s in range(2):
        samples = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = 1000 * s + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=400)
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:])
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal = [l for l in lines if l.startswith("# diagnostics")]
            for m in metrics:
                samples[m["name"]].append(result["metrics"][m["name"]]["value"])
            cpus = result["metrics"]["cpu_s"]["value"] / \
                result["metrics"]["wall_s"]["value"]
            values = " ".join(f"{m['name']}={samples[m['name']][-1]:.6g}"
                              for m in metrics)
            print(f"set {s} seed {seed}: {time.monotonic() - t0:.1f}s "
                  f"{values} support.scheduler.cpus_used={cpus:.2f} "
                  f"{steal[0][2:] if steal else ''}", flush=True)
        sets.append(samples)
    ok = True
    print(f"{'metric':14s} {'set':>3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        rows, shift, agree = compare_sets(sets[0][name], sets[1][name], bound)
        ok = ok and agree
        for s, (q1, med, q3, spread) in enumerate(rows):
            flag = "" if spread <= bound / 3 else "  SPREAD>bound/3"
            if spread > bound:
                flag = "  SPREAD>bound"
            print(f"{name:14s} {s:3d} {q1:12.6f} {med:12.6f} {q3:12.6f} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        within = "within" if abs(shift) <= bound else "OUTSIDE"
        print(f"{name:14s} median shift {shift:+.4f} {within} bound")
    return 0 if ok else 1


def make_reference():
    """Regenerates perfbench/reference.json: the digest of the campaign
    aggregate of every kernel in the groups.  Run on code whose outputs
    are trusted;
    the traced run cross-checks each digest against an in-process run."""
    bins = build()
    work = fresh_dir(os.path.join(WORK_ROOT, "reference"))
    reference = {}
    for workload, group in (("campaign-dt", DT_KERNELS),
                            ("campaign-gp", GP_KERNELS)):
        reference[workload] = {}
        for kernel in group:
            _, model, scorers, threads, _ = campaign_inputs(workload, 0)
            state = fresh_dir(os.path.join(work, f"{workload}-{kernel}"))
            argv = campaign_argv(bins, [kernel], model, scorers, threads, 1,
                                 state)
            _, _, code, _ = run_timed(argv, os.path.join(state, "out"),
                                      timeout=600)
            if code != 0:
                raise BenchError(f"reference campaign {kernel} exited {code}")
            reference[workload][kernel] = sha256_file(
                os.path.join(state, "aggregate.json"))
            print(workload, kernel, reference[workload][kernel], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of seeds and compare them")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate perfbench/reference.json")
    args = parser.parse_args()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("cli")):
        print("run.py: run from the root of an ALIC source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.make_reference:
            return make_reference()
        if not args.workload:
            parser.error("--workload is required")
        if args.steadiness:
            return steadiness(args)
        return run_once(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        for daemon in list(Daemon.live):
            daemon.proc.kill()
            daemon.stop(graceful=False)


if __name__ == "__main__":
    sys.exit(main())
