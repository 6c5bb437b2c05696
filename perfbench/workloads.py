"""Seeded, text-only request generators for the serving benchmark.

Every workload is plain request text: the generator never parses what it
emits and never runs engine code, so the program under test sees only
the generated lines. A workload is

* ``warmup``: its distinct requests, in the order the references are
  built and the warm-up pass sends them;
* one infinite index stream per connection into ``warmup``; request
  ``i`` of a stream expects the reference answer of ``warmup[i]``.

Stateless workloads repeat lines freely. The stateful one
(``update_routed``) lists each session's whole update cycle in
``warmup``, so one line text can appear twice with two expected
answers: before and after its session's insert.
"""

import json
import random

# Tail percentile per workload: each leaves at least ten samples beyond
# it at the benchmark's run length (see LAYERS.md).
TAIL = {"interactive": 99, "sweep": 90, "update_routed": 99}

# The servers' session cap: `certainty serve`'s default, which the
# reference and replay stores (Server.Session.create ()) also use.
MAX_SESSIONS = 16


def req(op, **fields):
    return json.dumps(dict(op=op, **fields), separators=(",", ":"))


class Workload:
    def __init__(self, name, conns, routed, warmup, labels, streams, period):
        self.name = name
        self.conns = conns
        self.routed = routed
        self.warmup = warmup
        self.labels = labels  # op per warm-up line; "error" for typed errors
        self.streams = streams  # conn -> infinite iterator of warm-up indices
        self.period = period  # stream requests that return state to the start
        self.tail = TAIL[name]

    @property
    def pinned(self):
        """Whether each `certainty serve` runs on one CPU: needed as soon
        as two requests can be in flight (servers.py says why)."""
        return self.conns > 1

    def replay_order(self, limit):
        """Round-robin interleave of the connection streams, a whole
        number of periods long."""
        periods = max(1, limit // self.period)
        its = [self.streams(c) for c in range(self.conns)]
        out = []
        while len(out) < periods * self.period:
            for it in its:
                out.append(next(it))
        return out[: periods * self.period]


# ---------------------------------------------------------------------------
# interactive: many small mixed reads over 24 sessions, Zipf popularity
# ---------------------------------------------------------------------------

INTERACTIVE_SESSIONS = 24
INTERACTIVE_MIX = [  # (kind, weight)
    ("certain", 24),
    ("measure", 18),
    ("analyze", 16),
    ("conditional", 18),
    ("approx", 16),
    ("analysis_error", 4),
    ("malformed", 4),
]


def _interactive_session(rng, i):
    # Every session has the same shape; the seed only renames constants,
    # so Zipf popularity moves load between sessions of equal cost.
    c = ["s%dc%d" % (i, j) for j in range(5)]
    rng.shuffle(c)
    base = dict(
        schema="R(a,b); S(a,b); U(u)",
        db="R = { ('%s', ~1), ('%s', ~2), ('%s', '%s'), ('%s', ~1) }; "
           "S = { ('%s', ~2), ('%s', '%s') }; U = { ('%s'), ('%s'), ('%s') }"
           % (c[0], c[1], c[1], c[2], c[3], c[0], c[3], c[4], c[0], c[1],
              c[2]))
    lines = {
        "certain": req("certain", query="Q(x,y) := R(x,y) & !S(x,y)", **base),
        "measure": req(
            "measure", query="Q(x,y) := R(x,y) & !S(x,y)",
            tuple="('%s', ~1)" % c[0], ks="2,3", **base),
        "analyze": req(
            "analyze", query="Q(x) := exists y. R(x,y) & !S(x,y)",
            scheme="sql", **base),
        "conditional": req(
            "conditional", constraints="fd R : a -> b",
            query="Q() := exists x. exists y. R(x,y) & S(x,y)", **base),
        "approx": req(
            "approx", query="Q() := exists x. R(x,x) | S(x,x)", k=8,
            eps="1/4", delta="1/4", seed=rng.randrange(1000), **base),
        # Unsafe: x occurs only under negation (ANL error, no evaluation).
        "analysis_error": req("certain", query="Q(x) := !R(x,x)", **base),
    }
    good = lines["certain"]
    lines["malformed"] = good[: rng.randrange(20, len(good) - 5)]
    return [lines[k] for k, _ in INTERACTIVE_MIX]


def interactive(seed):
    rng = random.Random("interactive-%d" % seed)
    kinds = [k for k, _ in INTERACTIVE_MIX]
    warmup, labels = [], []
    for i in range(INTERACTIVE_SESSIONS):
        warmup += _interactive_session(rng, i)
        labels += [k if k in ("certain", "measure", "analyze", "conditional",
                              "approx") else "error" for k in kinds]
    # Each connection owns half of the sessions, so no two requests in
    # flight ever share one. Concurrent requests on the same session and
    # sentence share a per-domain compiled kernel's scratch (Exec.Dls is
    # per domain, and the daemon's worker threads share domain 0) and
    # can return a wrong count. Ownership is not enough on its own: the
    # server is also pinned to one CPU (Workload.pinned, servers.py).
    order = list(range(INTERACTIVE_SESSIONS))
    rng.shuffle(order)
    owned = [order[c::2] for c in range(2)]  # by popularity rank
    zipf = [1.0 / (r + 1) for r in range(len(owned[0]))]
    weights = [w for _, w in INTERACTIVE_MIX]

    def streams(conn):
        r = random.Random("interactive-%d-conn-%d" % (seed, conn))
        while True:
            s = r.choices(owned[conn], zipf)[0]
            k = r.choices(range(len(kinds)), weights)[0]
            yield s * len(kinds) + k

    return Workload("interactive", 2, False, warmup, labels, streams, 1)


# ---------------------------------------------------------------------------
# sweep: heavy exact requests over a few cached sessions, one connection
# ---------------------------------------------------------------------------


def sweep(seed):
    rng = random.Random("sweep-%d" % seed)
    c = ["w%d" % j for j in range(48)]
    rng.shuffle(c)
    lines = []
    # Monolithic µ^k series: four nulls chained through one relation, so
    # no decomposition applies.
    mono = dict(
        schema="R(a,b); S(a,b)",
        db="R = { ('%s', ~1), (~1, ~2), (~2, ~3), (~3, ~4) }; "
           "S = { ('%s', ~4), (~2, '%s') }" % (c[0], c[1], c[2]))
    lines.append(req("measure", query="Q() := exists x. R(x,x) | S(x,x)",
                     ks="20", **mono))
    # Two independent two-null blocks: the decomposition planner
    # factorizes k^4 into 2·k^2, which makes k in the hundreds
    # affordable. (The symbolic support polynomial every measure also
    # computes grows too fast for more nulls per request.)
    a, d = c[3:5], c[5:7]
    dec = dict(
        schema="R1(a,b); R2(a,b); S1(a,b); S2(a,b)",
        db="R1 = { ('%s', ~1), ('%s', ~2) }; R2 = { ('%s', ~2) }; "
           "S1 = { ('%s', ~3), ('%s', ~4) }; S2 = { ('%s', ~4) }"
           % (a[0], a[1], a[0], d[0], d[1], d[0]))
    lines.append(req(
        "measure", query="Q() := (exists x. R1(x, x)) & (exists y. S1(y, y))",
        ks="150,250", **dec))
    # Conditional series at one large k under an FD.
    cond = dict(
        schema="T(a,b); U(u)",
        db="T = { ('%s', ~1), ('%s', ~2), (~3, '%s') }; U = { ('%s'), ('%s') }"
           % (c[9], c[9], c[10], c[11], c[12]))
    lines.append(req("conditional", constraints="fd T : a -> b",
                     query="Q() := exists x. T(x,x) | U(x) & T(x,x)",
                     ks="20", **cond))
    # Certain answers over a larger active domain.
    big = dict(
        schema="R(a,b); S(a,b)",
        db="R = { %s, ('%s', ~1), (~2, '%s') }; S = { %s }" % (
            ", ".join("('%s', '%s')" % (c[13 + j], c[14 + j])
                      for j in range(12)),
            c[20], c[22],
            ", ".join("('%s', '%s')" % (c[14 + j], c[13 + j])
                      for j in range(0, 12, 3))))
    lines.append(req("certain", query="Q(x,y) := R(x,y) & !S(x,y)", **big))
    # (ε,δ) estimate at tight ε.
    lines.append(req("approx", query="Q() := exists x. R(x,x) | S(x,x)", k=30,
                     eps="1/150", delta="1/20", seed=rng.randrange(1000),
                     **mono))
    labels = [json.loads(l)["op"] for l in lines]

    def streams(conn):
        r = random.Random("sweep-%d-conn-%d" % (seed, conn))
        order = list(range(len(lines)))
        while True:
            r.shuffle(order)
            yield from order

    return Workload("sweep", 1, False, lines, labels, streams, len(lines))


# ---------------------------------------------------------------------------
# update_routed: write-beside-read sessions behind the router
# ---------------------------------------------------------------------------

ROUTED_SESSIONS_PER_CONN = 3
ROUTED_ROWS = 2000
# A ternary R over 14 constants: the conditional's symbolic report
# evaluates the FD sentence over adom^3 once per valuation class, which
# a binary R needing ~50 constants for 2000 rows would make take seconds.
ROUTED_CONSTS = 14


def _routed_session(rng, i):
    # The rows are a fixed function of the session number and the seed
    # only names the constants: request costs depend on which rows exist
    # (the conditional's valuation classes by more than 2x), and constant
    # codes follow first occurrence in the text, so every seed gets the
    # same coded instances and the same costs.
    shape = random.Random("update_routed-shape-%d" % i)
    names = list(range(ROUTED_CONSTS))
    rng.shuffle(names)
    g = ["s%dg%d" % (i, n) for n in names]
    # (g5, g0, g7) is the probe, inserted and deleted by the cycle.
    # Every R(g5, g0, _) and R(g3, g2, _) is held out of the base rows:
    # with S(g0, g5) the probe alone makes g0 a certain answer and the
    # conditional query true, and S(g2, g3) never does the same.
    triples = [(a, b, c) for a in range(ROUTED_CONSTS)
               for b in range(ROUTED_CONSTS) for c in range(ROUTED_CONSTS)
               if (a, b) not in ((5, 0), (3, 2))]
    rows = shape.sample(triples, ROUTED_ROWS)
    r = ", ".join("('%s', '%s', '%s')" % (g[a], g[b], g[c]) for a, b, c in rows)
    db = "R = { %s }; S = { ('%s', ~1), ('%s', '%s'), ('%s', '%s') }" % (
        r, g[0], g[0], g[5], g[2], g[3])
    base = dict(schema="R(a,b,c); S(a,b)", db=db)
    join = "exists y. exists z. S(x, y) & R(y, x, z)"
    reads = [
        req("certain", query="Q(x) := " + join, **base),
        req("conditional", constraints="fd S : a -> b",
            query="Q() := exists x. " + join, **base),
        req("analyze", query="Q(x) := exists y. S(x,y) & !R(y,x,x)",
            constraints="fd S : a -> b", **base),
    ]
    upd = dict(relation="R", tuple="('%s', '%s', '%s')" % (g[5], g[0], g[7]),
               **base)
    return (reads + [req("update", action="insert", **upd)] + reads
            + [req("update", action="delete", **upd)])


def update_routed(seed):
    rng = random.Random("update_routed-%d" % seed)
    n = 2 * ROUTED_SESSIONS_PER_CONN
    assert n <= MAX_SESSIONS  # every shard holds every session (2 replicas)
    warmup = []
    for i in range(n):
        warmup += _routed_session(rng, i)
    cycle = len(warmup) // n
    labels = [json.loads(l)["op"] for l in warmup]

    def streams(conn):
        # Each connection owns its sessions and walks their cycles in
        # turn, so every session's state is fixed by its own position.
        mine = [conn * ROUTED_SESSIONS_PER_CONN + s
                for s in range(ROUTED_SESSIONS_PER_CONN)]
        step = 0
        while True:
            for s in mine:
                yield s * cycle + step % cycle
            step += 1

    return Workload("update_routed", 2, True, warmup, labels, streams,
                    n * cycle)


WORKLOADS = {"interactive": interactive, "sweep": sweep,
             "update_routed": update_routed}
