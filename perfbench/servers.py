"""Lifecycle of the serving processes the benchmark drives.

A Fleet is one set-up: a single `certainty serve`, or two `certainty
serve` shards behind `certainty router --replicas 2`. Every socket lives
in the run's own directory and a fleet refuses to start over an existing
socket file: `certainty serve` unlinks and rebinds whatever path it is
given, so a server leaked by an earlier run would otherwise keep
answering, or keep taking load, beside this one. `stop()` drains each
process with SIGTERM, kills it if the drain overruns, reaps it and
unlinks its socket; callers run it on every exit path. Children also get
SIGTERM from the kernel if the benchmark itself dies.

A pinned fleet runs each `certainty serve` on one CPU of its own (shards
on different CPUs; the router is not pinned). There
`Domain.recommended_domain_count` is 1, so `Exec.Pool` spawns no worker
domains and every fold runs all of its chunks on the thread of the
request that started it. With worker domains, a thread that waits for
its own fold runs whatever chunks are queued, another request's
included. On domain 0 such a chunk shares the per-domain compiled kernel
(`Support.domain_kernel`, which carries mutable scratch) with the thread
that queued it, which may be running the same kernel at that moment, and
a count comes out wrong: one `interactive` run of 13 000 requests got
one wrong answer although every session is owned by one connection. A
workload that keeps two requests in flight is therefore pinned.
"""

import ctypes
import json
import os
import signal
import socket
import subprocess
import time

import workloads

SERVE_FLAGS = ["--workers", "4", "--max-queue", "64",
               "--max-sessions", str(workloads.MAX_SESSIONS)]
ROUTER_FLAGS = ["--replicas", "2"]
READY_TIMEOUT_S = 60
DRAIN_TIMEOUT_S = 30
PR_SET_PDEATHSIG = 1


class StaleSocket(RuntimeError):
    pass


def ask(path, line, timeout=5.0):
    """Send one request line to the socket at `path`; return the parsed
    response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("%s hung up" % path)
            buf += chunk
    return json.loads(buf)


def health(path):
    try:
        return ask(path, '{"op":"health"}', timeout=1.0)
    except (OSError, ValueError):
        return None


def refuse_stale(root):
    """Refuse to run while a server from an earlier run still answers on
    a socket under `root`; remove the dead socket files such a run left."""
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".sock"):
                path = os.path.join(dirpath, f)
                if health(path) is not None:
                    raise StaleSocket("a server still answers on %s" % path)
                os.unlink(path)


def one_cpu(i, cpus=None):
    """The CPU the i-th pinned process gets: the CPUs in `cpus` (by
    default those this process may run on), in turn."""
    cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
    return cpus[i % len(cpus)]


def child_setup(cpu):
    """A preexec_fn: the child dies with the benchmark and, unless `cpu`
    is None, runs on that CPU alone."""
    def setup():
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    return setup


class Proc:
    def __init__(self, name, popen, path, log):
        self.name, self.popen, self.path, self.log = name, popen, path, log


class Fleet:
    def __init__(self, cli, run_dir, routed, pinned, tag):
        self.cli, self.run_dir, self.tag = cli, run_dir, tag
        self.routed, self.pinned = routed, pinned
        self.cpus = set(os.sched_getaffinity(0))
        self.procs = []

    def commands(self):
        """(name, argv, CPU or None) of every process, in start order."""
        if not self.routed:
            return [("serve", ["serve", "--socket", self._sock("serve")]
                     + SERVE_FLAGS, self._cpu(0))]
        shards = ["shard0", "shard1"]
        cmds = [(s, ["serve", "--socket", self._sock(s), "--shard-id", s]
                 + SERVE_FLAGS, self._cpu(i)) for i, s in enumerate(shards)]
        router = ["router", "--socket", self._sock("router")]
        for s in shards:
            router += ["--shard", self._sock(s)]
        return cmds + [("router", router + ROUTER_FLAGS, None)]

    def _cpu(self, i):
        return one_cpu(i, self.cpus) if self.pinned else None

    def spare_cpus(self):
        """The CPUs no pinned process of this fleet runs on: where the
        load generator runs, so that it never takes a server's CPU.
        Empty when the fleet is not pinned or uses every CPU."""
        if not self.pinned:
            return set()
        return self.cpus - {cpu for _, _, cpu in self.commands()}

    def _sock(self, name):
        return os.path.join(self.run_dir, "%s-%s.sock" % (self.tag, name))

    @property
    def address(self):
        return self.procs[-1].path

    def start(self):
        """Spawn every process and block until each answers health as
        serving. The router is spawned once its shards serve: it probes
        them only every 0.25 s, so a router racing its shards would make
        set-up time jump by a probe interval."""
        cmds = self.commands()
        deadline = time.monotonic() + READY_TIMEOUT_S
        shards = [c for c in cmds if c[0] != "router"]
        router = [c for c in cmds if c[0] == "router"]
        for stage in (shards, router):
            for name, args, cpu in stage:
                self._spawn(name, args, cpu)
            self._wait_ready(self.procs[-len(stage):], deadline)

    def _spawn(self, name, args, cpu):
        path = self._sock(name)
        if os.path.exists(path):
            raise StaleSocket("refusing to start over existing %s" % path)
        log = open(os.path.join(self.run_dir, "%s-%s.log" % (self.tag, name)),
                   "ab")
        popen = subprocess.Popen(
            [self.cli] + args, stdin=subprocess.DEVNULL, stdout=log,
            stderr=log, preexec_fn=child_setup(cpu))
        self.procs.append(Proc(name, popen, path, log))

    @staticmethod
    def _wait_ready(procs, deadline):
        """Block until each process answers health as serving, and a
        router sees both shards up."""
        for p in procs:
            while True:
                if p.popen.poll() is not None:
                    raise RuntimeError("%s exited with code %d before serving"
                                       % (p.name, p.popen.returncode))
                h = health(p.path)
                if (h is not None and h.get("status") == "serving"
                        and (p.name != "router" or h.get("shards_up") == 2)):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError("%s did not answer health" % p.name)
                time.sleep(0.0005)

    def rss_mb(self):
        """Peak resident memory (VmHWM) summed over the fleet, in MiB."""
        kb = 0
        for p in self.procs:
            with open("/proc/%d/status" % p.popen.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        return kb / 1024.0

    def stop(self):
        """SIGTERM-drain (router first), kill on overrun, reap, unlink."""
        for p in reversed(self.procs):
            if p.popen.poll() is None:
                p.popen.send_signal(signal.SIGTERM)
                try:
                    p.popen.wait(timeout=DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    p.popen.kill()
                    p.popen.wait()
            p.log.close()
            if os.path.exists(p.path):
                os.unlink(p.path)
        self.procs = []
