#!/usr/bin/env python3
"""The serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run

1. builds `certainty` and the replay tools (perfbench/replay) with dune;
2. generates the workload's request lines from the seed
   (perfbench/workloads.py; text only, no engine code);
3. builds the reference answers with Service.handle in a fresh process
   (refs.exe), in warm-up order;
4. starts the serving processes (on two-connection workloads each
   `certainty serve` on one CPU; servers.py says why, and trace.exe
   then runs the same way) and waits for `health`, SETUPS times
   over (setup_s is the median), keeps the last set-up and sends it one
   untimed warm-up pass over the distinct requests;
5. drives the connection streams closed-loop over Unix sockets for S
   seconds, byte-checking every response against its reference.

With --trace 1 the end-to-end phase runs for half of S, `update_routed`
repeats it against one `certainty serve` without the router, and
trace.exe replays the same streams in process with spans around each
layer call; the per-layer metrics come from its span file.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it labels the result
(revision, cores, OCaml runtime, server flags, seed, sample counts);
a readable table goes to stderr. perfbench/LAYERS.md maps each
per-layer metric to the end-to-end metric it should move.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import servers  # noqa: E402
import workloads  # noqa: E402

BUILD = "_build/default/"
CLI = BUILD + "bin/certainty_cli.exe"
REPLAY = BUILD + "perfbench/replay/"
RUN_ROOT = ".perfbench"
SETUPS = 9
RESPONSE_TIMEOUT_S = 60
OPS = ["certain", "measure", "conditional", "analyze", "approx", "update"]
GENERATION = re.compile(rb'"generation":\d+')

END_TO_END = [
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
]

# Layer span (trace.ml) -> per-layer metric: the median, over the
# replayed requests that made the call, of its time per request.
SPAN_METRICS = {
    "server.wire.parse": "server.wire.parse_us",
    "server.wire.render": "server.wire.render_us",
    "server.session.get": "server.session.get_us",
    "server.session.update": "server.session.update_us",
    "constraints.chase": "constraints.chase.us",
    "logic.parser.query": "logic.parser.query_us",
    "analysis.report.precheck": "analysis.report.precheck_us",
    "analysis.report.analyze": "analysis.report.analyze_us",
    "zeroone.support_poly": "zeroone.support_poly.us",
    "zeroone.measure": "zeroone.measure.us",
    "zeroone.conditional.report": "zeroone.conditional.report_us",
    "incomplete.certain.certain": "incomplete.certain.certain_us",
    "incomplete.certain.possible": "incomplete.certain.possible_us",
    "incomplete.naive": "incomplete.naive.us",
    "incomplete.support.sweep": "incomplete.support.sweep_us",
    "zeroone.conditional.sweep": "zeroone.conditional.sweep_us",
    "analysis.decomp": "analysis.decomp.us",
    "approx_measure.estimator": "approx_measure.estimator.us",
    "zeroone.approx.grade": "zeroone.approx.grade_us",
}
# Obs.Metrics counter deltas across the traced replay.
COUNTERS = {
    "server.session.loads": "serve_session_loads",
    "server.session.evictions": "serve_session_evictions",
    "constraints.chase.steps": "chase_steps",
    "exec.cache.hits": "cache_hits",
    "exec.cache.misses": "cache_misses",
    "incomplete.kernel.refreshes": "kernel_refreshes",
    "exec.pool.tasks": "pool_tasks_completed",
    "analysis.decomp.components": "decomp_components",
    "approx_measure.samples": "approx_samples",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-pct * len(s) // 100) - 1))
    return s[k]


# ---------------------------------------------------------------------------
# Closed-loop load
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = detail


class Run:
    """Latencies of one closed-loop phase."""

    def __init__(self):
        self.samples = []  # (label, ns) of correct responses
        self.t0 = self.t1 = time.perf_counter_ns()

    def wall_s(self):
        return (self.t1 - self.t0) / 1e9


def drive(path, w, expected, iters, tally, seconds=None):
    """Send each iterator's requests over its own connection, the next one
    when the previous answer arrives, until the iterators end or
    `seconds` have passed. Every response is checked against
    `expected`; a missing, wrong or failed answer is tallied as failed."""
    sel = selectors.DefaultSelector()
    run = Run()
    stop_at = None if seconds is None else run.t0 + int(seconds * 1e9)
    lines = [l.encode() + b"\n" for l in w.warmup]

    class Conn:
        def __init__(self, it):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(path)
            self.it, self.buf, self.idx, self.sent = it, b"", None, 0

        def send_next(self, now):
            if stop_at is not None and now >= stop_at:
                return False
            self.idx = next(self.it, None)
            if self.idx is None:
                return False
            self.sent = time.perf_counter_ns()
            self.sock.sendall(lines[self.idx])
            return True

    live = 0
    for it in iters:
        c = Conn(it)
        if c.send_next(run.t0):
            sel.register(c.sock, selectors.EVENT_READ, c)
            live += 1
        else:
            c.sock.close()
    while live:
        events = sel.select(timeout=RESPONSE_TIMEOUT_S)
        if not events:
            for key in list(sel.get_map().values()):
                tally.check(False, "no response within %ds" % RESPONSE_TIMEOUT_S)
                key.fileobj.close()
            break
        for key, _ in events:
            c = key.data
            try:
                chunk = c.sock.recv(1 << 20)
            except OSError:
                chunk = b""
            if chunk:
                c.buf += chunk
                nl = c.buf.find(b"\n")
                if nl < 0:
                    continue
                now = time.perf_counter_ns()
                got, c.buf = c.buf[:nl], c.buf[nl + 1:]
                want = expected[c.idx]
                if w.labels[c.idx] == "update":
                    got = GENERATION.sub(b'"generation":_', got)
                ok = got == want
                tally.check(ok, (w.warmup[c.idx][:200], want[:300], got[:300]))
                if ok:
                    run.samples.append((w.labels[c.idx], now - c.sent))
                run.t1 = now
                if c.send_next(now):
                    continue
            else:
                tally.check(False, "connection closed by the server")
            sel.unregister(c.sock)
            c.sock.close()
            live -= 1
    sel.close()
    return run


def warm_up(path, w, expected, tally):
    """One pass over the distinct requests, in reference order, on one
    connection: the servers intern constant names in the same order the
    references did."""
    drive(path, w, expected, [iter(range(len(w.warmup)))], tally)


def measure(path, w, expected, seconds, tally):
    return drive(path, w, expected, [w.streams(c) for c in range(w.conns)],
                 tally, seconds)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def build(targets):
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(["dune", "build", "--root", ".", "--cache=disabled"]
                   + ["./" + t for t in targets], check=True,
                   stdout=sys.stderr, env=env)


def references(w, run_dir):
    """Return (expected responses, warm-up file, runtime label)."""
    warm = os.path.join(run_dir, "warmup.txt")
    with open(warm, "w") as f:
        f.write("\n".join(w.warmup) + "\n")
    out = subprocess.run([REPLAY + "refs.exe", warm], check=True,
                         stdout=subprocess.PIPE).stdout.split(b"\n")[:-1]
    env, out = json.loads(out[0]), out[1:]
    if len(out) != len(w.warmup):
        raise RuntimeError("refs.exe answered %d of %d requests"
                           % (len(out), len(w.warmup)))
    return [GENERATION.sub(b'"generation":_', r) if lab == "update" else r
            for r, lab in zip(out, w.labels)], warm, env


def set_up(run_dir, tag, routed, pinned):
    """Spawn a fleet and wait until it answers health; return (fleet,
    seconds)."""
    fleet = servers.Fleet(CLI, run_dir, routed, pinned, tag)
    t0 = time.perf_counter()
    try:
        fleet.start()
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - t0


def end_to_end(w, run_dir, expected, seconds, tally, setups, routed, tag):
    """Set up `setups` times (keeping the last fleet), warm the last one
    up, untimed, then measure. The load runs on the CPUs no pinned
    server uses, where there are any."""
    times = []
    fleet = None
    cpus = os.sched_getaffinity(0)
    try:
        for i in range(setups):
            if fleet is not None:
                fleet.stop()
            fleet, dt = set_up(run_dir, "%s%d" % (tag, i), routed, w.pinned)
            times.append(dt)
        spare = fleet.spare_cpus()
        if spare:
            os.sched_setaffinity(0, spare)
        warm_up(fleet.address, w, expected, tally)
        run = measure(fleet.address, w, expected, seconds, tally)
        rss = fleet.rss_mb()
        flags = [" ".join(args) + ("" if cpu is None else " [cpu %d]" % cpu)
                 for _, args, cpu in fleet.commands()]
    finally:
        os.sched_setaffinity(0, cpus)
        if fleet is not None:
            fleet.stop()
    return run, times, rss, flags


def span_layers(path):
    """Per replayed request: its own duration and the total time of each
    layer span directly inside it. Spans nest per domain, so each
    domain's events are matched with a stack."""
    stacks, requests = {}, {}
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            stack = stacks.setdefault(ev["dom"], [])
            if ev["ev"] == "b":
                stack.append((ev["id"], ev["name"], ev["t"], {}))
                continue
            sid, name, t0, children = stack.pop()
            assert sid == ev["id"], "span %s closed out of order" % sid
            if name == "replay.request":
                requests[int(ev["a_seq"])] = (ev["t"] - t0, children)
            elif stack and name.startswith("layer."):
                parent = stack[-1][3]
                layer = name[len("layer."):]
                parent[layer] = parent.get(layer, 0) + ev["t"] - t0
    return requests


def traced_replay(w, run_dir, warm, expected, budget, tally):
    order = w.replay_order(20000)
    stream = os.path.join(run_dir, "stream.txt")
    with open(stream, "w") as f:
        f.write("\n".join(map(str, order)) + "\n")
    files = {k: os.path.join(run_dir, k) for k in
             ("spans.jsonl", "responses.txt", "summary.json")}
    subprocess.run(
        [REPLAY + "trace.exe", "--warmup", warm, "--stream", stream,
         "--period", str(w.period), "--budget", "%.3f" % budget,
         "--spans", files["spans.jsonl"], "--responses", files["responses.txt"],
         "--summary", files["summary.json"]], check=True, stdout=sys.stderr,
        preexec_fn=servers.child_setup(servers.one_cpu(0) if w.pinned
                                       else None))
    with open(files["summary.json"]) as f:
        summary = json.load(f)
    with open(files["responses.txt"], "rb") as f:
        got = f.read().split(b"\n")[:-1]
    for i, resp in enumerate(got):
        idx = order[i]
        if w.labels[idx] == "update":
            resp = GENERATION.sub(b'"generation":_', resp)
        tally.check(resp == expected[idx], ("replay", w.warmup[idx][:200]))
    check = subprocess.run([CLI, "trace-check", files["spans.jsonl"]],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    summary["trace_check"] = (check.returncode, check.stdout.decode().strip())
    summary["spans"] = span_layers(files["spans.jsonl"])
    return summary


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def e2e_metrics(w, run, setup_times, rss):
    lat = [ns for _, ns in run.samples]
    return {
        "requests_per_s": len(lat) / run.wall_s(),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": percentile(lat, w.tail) / 1e6,
        "setup_s": statistics.median(setup_times),
        "server_rss_mb": rss,
    }


def layer_metrics(run, direct, summary):
    m = {}
    reqs = [ch for _, ch in summary["spans"].values()]
    handle_ns = summary["handle_ns"]
    for span, name in SPAN_METRICS.items():
        per_req = [ch[span] for ch in reqs if span in ch]
        m[name] = statistics.median(per_req) / 1e3 if per_req else 0.0
    for layer, key in (("incomplete.support", "sweep_valuations"),
                       ("zeroone.conditional", "cond_sweep_valuations")):
        swept = sum(ch.get(layer + ".sweep", 0) for ch in reqs)
        m[layer + ".ns_per_valuation"] = (
            swept / summary[key] if summary[key] else 0.0)
    for name, key in COUNTERS.items():
        m[name] = summary["counters"].get(key, 0)
    lookups = m["exec.cache.hits"] + m["exec.cache.misses"]
    m["exec.cache.hit_ratio"] = m["exec.cache.hits"] / lookups if lookups else 0.0
    # Pass B alone: a replay.request span's time outside its direct
    # layer children.
    total = [d for d, _ in summary["spans"].values()]
    covered = [sum(ch.values()) for _, ch in summary["spans"].values()]
    m["server.service.self_us"] = statistics.median(
        d - c for d, c in zip(total, covered)) / 1e3
    m["server.service.handle_us"] = statistics.median(handle_ns) / 1e3
    m["trace.coverage"] = sum(covered) / sum(total)
    m["trace.overhead_frac"] = (
        summary["traced_ns"] - summary["untraced_ns"]) / summary["untraced_ns"]
    m["trace.requests"] = summary["requests"]
    m["trace.mirror_mismatches"] = summary["mirror_mismatches"]
    socket_p50 = statistics.median(ns for _, ns in run.samples)
    m["server.daemon.overhead_us"] = (
        socket_p50 - statistics.median(handle_ns)) / 1e3
    m["shard.router.hop_us"] = (
        (socket_p50 - statistics.median(ns for _, ns in direct.samples)) / 1e3
        if direct else 0.0)
    for op in OPS:
        lat = [ns for lab, ns in run.samples if lab == op]
        m["op.%s.p50_ms" % op] = statistics.median(lat) / 1e6 if lat else 0.0
    return m


def unit(name):
    if name.endswith("_us") or name.endswith(".us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_valuation"):
        return "ns"
    if name in ("exec.cache.hit_ratio", "trace.coverage", "trace.overhead_frac"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def revision():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        log("run.py: run me from the root of a certainty checkout "
            "(dune-project, lib/ and bin/ are missing here)")
        return 2

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    os.makedirs(RUN_ROOT, exist_ok=True)
    servers.refuse_stale(RUN_ROOT)
    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    os.makedirs(run_dir)
    try:
        return bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, run_dir):
    targets = ["bin/certainty_cli.exe", "perfbench/replay/refs.exe"]
    if args.trace:
        targets.append("perfbench/replay/trace.exe")
    build(targets)
    w = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    expected, warm, env = references(w, run_dir)
    if args.trace:
        run, _, _, flags = end_to_end(w, run_dir, expected, args.seconds * 0.5,
                                      tally, 1, w.routed, "e2e")
        direct = None
        if w.routed:
            direct, _, _, _ = end_to_end(w, run_dir, expected,
                                         args.seconds * 0.25, tally, 1, False,
                                         "direct")
        summary = traced_replay(w, run_dir, warm, expected,
                                args.seconds * 0.15, tally)
        metrics = layer_metrics(run, direct, summary)
        spans_ok = (summary["trace_check"][0] == 0
                    and summary["span_error"] is None)
        if not spans_ok:
            log("FATAL: span file rejected:", summary["trace_check"],
                summary["span_error"])
        # A mirror that drifted from Service.handle times other code.
        if summary["mirror_mismatches"]:
            log("FATAL: the traced mirror differs from Service.handle on",
                summary["mirror_mismatches"], "requests, e.g.",
                summary["first_mismatch"][:300])
        trace_ok = spans_ok and summary["mirror_mismatches"] == 0
        units = {k: unit(k) for k in metrics}
    else:
        run, setup_times, rss, flags = end_to_end(
            w, run_dir, expected, args.seconds, tally, SETUPS, w.routed, "e2e")
        metrics = e2e_metrics(w, run, setup_times, rss)
        units = dict(END_TO_END)
        trace_ok = True
    per_op = {}
    for lab, _ in run.samples:
        per_op[lab] = per_op.get(lab, 0) + 1
    label = dict(
        workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        rev=revision(), nproc=len(os.sched_getaffinity(0)),
        recommended_domain_count=env["recommended_domain_count"],
        ocaml_version=env["ocaml_version"], server_commands=flags,
        connections=w.conns, samples=len(run.samples), samples_per_op=per_op,
        tail_percentile="p%d" % w.tail, setups=SETUPS,
        failed_frac=tally.failed / max(1, tally.attempted))
    log("%-36s %14s  %s" % ("metric", "value", "unit"))
    for k, v in metrics.items():
        log("%-36s %14.4f  %s" % (k, v, units[k]))
    log("%-36s %14.6f  %s" % ("failed_frac", label["failed_frac"], "ratio"))
    log("samples %d %s, tail p%d" % (len(run.samples), per_op, w.tail))
    if tally.failed:
        log("FAILED %d of %d checks; first: %r" % (
            tally.failed, tally.attempted, tally.first_failure))
    print(json.dumps({"label": label}))
    print(json.dumps({
        "correct": tally.failed == 0 and trace_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
