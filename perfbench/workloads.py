"""The four workloads.  Each fills a :class:`Run` with samples, answers and,
when traced, a span ledger; ``run.py`` turns that into metrics."""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import gate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"

# Shapes at full scale and at the self-test's tiny scale.  service-mixed's
# large graph has the "sparse" shape.
SCALES = {
    "full": {
        "sparse": ("powerlaw", 1500, 10, 0.3),
        "dense": [("gnp", 140, 0.2), ("gnp", 74, 0.35)],
        "batch_min": 30,
        "small_n": (40, 60),
        "rate": 10.0,
        "tracked": ("powerlaw", 2000, 8, 0.3),
        "setups": 3,
    },
    "tiny": {
        "sparse": ("powerlaw", 200, 4, 0.3),
        "dense": [("gnp", 40, 0.3), ("gnp", 30, 0.4)],
        "batch_min": 4,
        "small_n": (12, 16),
        "rate": 40.0,
        "tracked": ("powerlaw", 150, 4, 0.3),
        "setups": 2,
    },
}
REPEAT_FRACTION = 0.1   # share of service-mixed requests that repeat an earlier query
# k of the fresh service-mixed requests.  At k=2 and k=3 a few G(55-60, .3)
# instances take 5-10 times the median solve.  With k=2 and k=3 on 70-80% of
# the requests they reached down to the tail percentile, whose spread over five seeds
# was 0.24-0.45 of its median; kept to a quarter, they stay above it.
K_WEIGHTS = {1: 0.75, 2: 0.2, 3: 0.05}
# delta-stream takes a fixed number of steps per second of --seconds, not a
# time window: the service keeps every successor, so its memory grows with
# the steps taken, and a faster commit must not pay for its speed in
# peak_rss_mb.  With each step's reference solve, 2 steps take about a second.
DELTA_STEPS_PER_S = 2
MEASURE_CAP_S = 120.0   # a run stops measuring after this long whatever its sample count
REPLY_TIMEOUT_S = 60.0


class Run:
    """What one run measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str,
                 limit: Optional[int] = None) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        # At most this many timed operations, for the workloads that make
        # them one after another; service-mixed keeps its schedule.
        self.limit = limit
        self.shape = SCALES[scale]
        self.rng = random.Random(seed)
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.setup_s: List[float] = []
        self.samples: List[float] = []      # seconds per timed operation
        self.ops = 0                        # operations made in the timed window
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: Dict[str, str] = {}  # what failed -> why
        self.info: Dict[str, float] = {}    # reply- and counter-derived per-layer values
        self.ledger: Optional[tracing.Ledger] = None
        self.workdir = os.path.join(WORK, workload)

    def subseed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def judge(self, what: str, reason: Optional[str]) -> None:
        """Count one checked answer; ``reason`` says why it is wrong."""
        self.attempted += 1
        if reason is not None:
            self.fail(what, reason)

    def fail(self, what: str, reason: str) -> None:
        self.failures.setdefault(what, reason)

    def measuring(self, start: float, count: int, minimum: int) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (self.limit is not None and count >= self.limit):
            return False
        return elapsed < self.seconds or count < minimum


def import_seconds() -> float:
    """Time ``import repro`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=gate.program_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip())


# Run by the children of busy_cpus(): spin at the lowest scheduling
# priority until the parent exits or the time cap passes.
_SPIN = """
import os, sys, time
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
parent, end = os.getppid(), time.monotonic() + float(sys.argv[1])
while os.getppid() == parent and time.monotonic() < end:
    for _ in range(100000):
        pass
"""


@contextlib.contextmanager
def busy_cpus():
    """Keep every CPU busy with lowest-priority spinners while the body runs.

    A service request wakes idle CPUs several times on its way through the
    load generator and the server.  On a virtual machine an idle CPU goes
    back to the host, and waking it waits on the host's other tenants: on
    one seed of service-mixed, the median small-solve latency ranged over
    13.9-22.5 ms in three runs without spinners and 14.4-15.9 ms in three
    runs with them.  A SCHED_IDLE spinner takes no time from the
    benchmark's own processes, which preempt it when they wake.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN, str(3 * MEASURE_CAP_S)])
        for _ in os.sched_getaffinity(0)
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def _own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Batch workloads: file to answer in this process
# ---------------------------------------------------------------------- #
def batch(run: Run, shapes: Sequence[Tuple], k: int) -> None:
    if not run.trace:
        import_seconds()  # compile and cache bytecode once, untimed
        run.setup_s = [import_seconds() for _ in range(7)]
    import repro.graphs.io as graph_io
    from repro.core import KDCSolver

    tracer = None
    if run.trace:
        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(run.workdir, exist_ok=True)

    def solve_file(path: str):
        return KDCSolver().solve(graph_io.load_graph(path), k)

    stats = []
    # Each instance's reference solve runs right after it, between two timed
    # solves: the solves then spread over the whole run, so a run meets more
    # of the shared host's slow and fast spells than back-to-back solves would.
    with gate.Reference(1) as reference:
        start = time.perf_counter()
        while run.measuring(start, len(run.samples), run.shape["batch_min"]):
            spec = shapes[len(stats) % len(shapes)] + (run.subseed(),)
            edges = gate.spec_edges(spec)
            path = os.path.join(run.workdir, f"instance-{len(stats)}.edges")
            inputs.write_edge_list(edges, path)
            began = time.perf_counter()
            if tracer is not None:
                result = tracer.span("bench.instance", solve_file, path)
            else:
                result = solve_file(path)
            run.samples.append(time.perf_counter() - began)
            os.remove(path)
            stats.append(dict(result.stats.as_dict(), size=result.size))
            reason = gate.check_answer(inputs.adjacency(edges), result.clique, k, result.optimal,
                                       reference.size(edges, k))
            run.judge(f"instance {len(stats) - 1}", reason)
    run.peak_rss_mb = _own_peak_rss_mb()
    run.ops = len(run.samples)
    if tracer is not None:
        tracer.dump(os.path.join(run.workdir, "spans.json"))
        run.ledger = tracing.Ledger(tracer.spans, root="bench.instance")
    _search_counters(run, stats)


def _search_counters(run: Run, stats: Sequence[Dict]) -> None:
    """Search counters per timed operation from the solver statistics of
    every solve in the window (``as_dict`` form plus ``size``)."""
    ops = max(run.ops, 1)

    def total(field: str) -> float:
        return float(sum(s.get(field) or 0 for s in stats))

    anchors = total("subproblems") + total("subproblems_pruned")
    searched = total("subproblems")
    nodes = total("nodes")
    run.info.update({
        "core.heuristics.lb_gap": statistics.median(
            [s["size"] - s["initial_solution_size"] for s in stats]) if stats else 0.0,
        "core.reductions.removed_edges": total("preprocess_removed_edges") / ops,
        "core.decompose.subproblems": searched / ops,
        "core.decompose.pruned_ratio": total("subproblems_pruned") / anchors if anchors else 0.0,
        "core.decompose.improving_ratio": total("improvements") / searched if searched else 0.0,
        "core.fastpath.nodes": nodes / ops,
        "core.fastpath.bound_prune_ratio": total("prunes_by_bound") / nodes if nodes else 0.0,
        "core.fastpath.recolor_full": total("recolor_full") / ops,
        "core.fastpath.trail_pushes": total("trail_pushes") / ops,
    })


def sparse_cold(run: Run) -> None:
    batch(run, [run.shape["sparse"]], k=3)


def dense_search(run: Run) -> None:
    batch(run, run.shape["dense"], k=3)


# ---------------------------------------------------------------------- #
# Service workloads: a real `repro serve` process
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` child process (through the tracing launcher when traced)."""

    def __init__(self, run: Run, extra: Sequence[str] = ()) -> None:
        self.spans_path = os.path.abspath(os.path.join(run.workdir, "spans.json"))
        if run.trace:
            argv = [sys.executable, os.path.join(HERE, "serve.py"), self.spans_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--port", "0", *extra]
        self.proc = subprocess.Popen(
            argv, env=gate.program_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.port = None
        for line in self.proc.stdout:
            if "listening on" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start")

    def connect(self) -> "Connection":
        return Connection(self.port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self, conn: "Connection") -> None:
        conn.send({"op": "shutdown"})
        conn.recv()
        conn.close()
        self.stop()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.stop()

    def stop(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Connection:
    """A minimal JSON-lines client; requests may be pipelined."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        # Pipelined requests must not wait on Nagle's algorithm, and replies
        # must not wait on this end's delayed ACKs: both would add ~40 ms
        # stalls that belong to the load generator, not to the service.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, payload: Dict) -> None:
        self.send_line(encode(payload))

    def send_line(self, line: bytes) -> None:
        self.sock.sendall(line)

    def recv(self) -> Dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if hasattr(socket, "TCP_QUICKACK"):
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return json.loads(line)

    def call(self, payload: Dict) -> Dict:
        self.send(payload)
        return self.recv()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def encode(payload: Dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def add_graph_line(edges: Sequence[inputs.Edge], name: Optional[str] = None) -> bytes:
    payload = {"op": "add-graph", "edges": [list(e) for e in edges]}
    if name is not None:
        payload["name"] = name
    return encode(payload)


def _add_graph(conn: Connection, line: bytes) -> str:
    conn.send_line(line)
    reply = conn.recv()
    if not reply.get("ok"):
        raise RuntimeError(f"add-graph failed: {reply}")
    return reply["digest"]


def _judge_reply(run: Run, what: str, reply: Dict, adj, k: int, reference: Optional[int]) -> None:
    if not reply.get("ok"):
        run.judge(what, f"{reply.get('kind')}: {reply.get('error')}")
        return
    run.judge(what, gate.check_answer(adj, reply["clique"], k, reply["optimal"], reference))


def _setups(run: Run, extra: Sequence[str], prepare) -> Tuple[Server, Connection, object]:
    """Set up ``run.shape['setups']`` times (once when traced) and keep the last.

    One set-up starts a server, waits for its ping and runs
    ``prepare(connection)``, whose result is returned with the server.
    """
    count = 1 if run.trace else run.shape["setups"]
    for i in range(count):
        shutil.rmtree(run.workdir, ignore_errors=True)
        os.makedirs(run.workdir)
        began = time.perf_counter()
        server = Server(run, extra)
        try:
            conn = server.connect()
            if not conn.call({"op": "ping"}).get("pong"):
                raise RuntimeError("server did not answer ping")
            state = prepare(conn)
        except BaseException:
            server.kill()
            raise
        run.setup_s.append(time.perf_counter() - began)
        if i + 1 < count:
            server.shutdown(conn)
    return server, conn, state


def _counters(conn: Connection) -> Dict[str, float]:
    return conn.call({"op": "stats"})["stats"]


def _finish_service(run: Run, server: Server, conn: Connection, window: Tuple[float, float],
                    before: Dict[str, float]) -> Dict[str, float]:
    """Stop the service and return its counters' growth since ``before``;
    when traced, keep the spans that started inside ``window`` (both
    processes read CLOCK_MONOTONIC)."""
    after = _counters(conn)
    run.peak_rss_mb = server.peak_rss_mb()
    server.shutdown(conn)
    if run.trace:
        run.ledger = tracing.Ledger(tracing.load(server.spans_path), root="service.server.request",
                                    window=window)
    return {key: value - before.get(key, 0) for key, value in after.items()}


def service_mixed(run: Run) -> None:
    shape = run.shape
    rate = shape["rate"]
    total = max(1, int(rate * run.seconds))
    lo, hi = shape["small_n"]
    # One graph per request, so every k can draw fresh (graph, k) pairs.
    pool = [("gnp", run.rng.randint(lo, hi), 0.3, run.subseed()) for _ in range(total)]
    pool_edges = [gate.spec_edges(spec) for spec in pool]

    pool_lines = [add_graph_line(edges) for edges in pool_edges]

    def register(conn: Connection) -> List[str]:
        return [_add_graph(conn, line) for line in pool_lines]

    with busy_cpus():
        server, conn, digests = _setups(run, (), register)
        try:
            _mixed_traffic(run, server, conn, pool, pool_edges, digests, rate, total)
        finally:
            server.kill()


def _mixed_traffic(run, server, conn, pool, pool_edges, digests, rate, total) -> None:
    before = _counters(conn)
    unused = {k: iter(run.rng.sample(range(len(pool)), len(pool))) for k in K_WEIGHTS}
    plan: List[Tuple[int, int]] = []
    lag_requests = int(rate)  # a repeat targets a query sent at least a second earlier
    for j in range(total):
        if j > lag_requests and run.rng.random() < REPEAT_FRACTION:
            plan.append(plan[run.rng.randrange(j - lag_requests)])
        else:
            k = run.rng.choices(list(K_WEIGHTS), weights=list(K_WEIGHTS.values()))[0]
            plan.append((next(unused[k]), k))
    big_edges = gate.spec_edges(run.shape["sparse"] + (run.subseed(),))
    # Encode every payload up front: the load generator must not hold its
    # own interpreter lock serialising a request while another is due.
    big_line = add_graph_line(big_edges)
    solve_lines = [encode({"op": "solve", "digest": digests[g], "k": k}) for g, k in plan]

    sent = [0.0] * total
    received: List[Tuple[float, Dict]] = []
    big: Dict[str, object] = {}  # connection B's times and its solve reply
    t0 = time.perf_counter() + 0.05
    due = [t0 + j / rate for j in range(total)]

    def sender():
        for j in range(total):
            delay = due[j] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[j] = time.perf_counter()
            conn.send_line(solve_lines[j])

    def receiver():
        for _ in range(total):
            reply = conn.recv()
            received.append((time.perf_counter(), reply))

    def heavy():
        # One large graph from a quarter of the way into the stream: a
        # faster prepare shortens the stretch in which small requests
        # contend with it.
        other = server.connect()
        try:
            time.sleep(max(0.0, t0 + run.seconds / 4 - time.perf_counter()))
            began = time.perf_counter()
            digest = _add_graph(other, big_line)
            added = time.perf_counter()
            reply = other.call({"op": "solve", "digest": digest, "k": 3})
            big.update(began=began, added=added, answered=time.perf_counter(), reply=reply)
        finally:
            other.close()

    threads = [threading.Thread(target=f, daemon=True) for f in (sender, receiver, heavy)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=run.seconds + MEASURE_CAP_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("service-mixed traffic did not finish")
    finished = max([at for at, _ in received] + [big.get("answered", t0)])
    run.ops = total + 2  # the small solves plus the large graph's add-graph and solve
    counters = _finish_service(run, server, conn, (t0, finished), before)

    # Correctness: every distinct query and the large graph against KDBB.
    queried = sorted(set(plan))
    with gate.Reference(run.workers) as pool_reference:
        refs = pool_reference.sizes([(pool_edges[g], k) for g, k in queried] + [(big_edges, 3)])
    reference = dict(zip(queried, refs))
    adjs: Dict[int, Dict] = {}
    # A small request is contended when it was in flight while connection B
    # had the large graph in flight, or when it queued behind one that was.
    busy_from, busy_to = (big["began"], big["answered"]) if big else (math.inf, math.inf)
    latencies, contended, queue_ms, overhead_ms, stats = [], [], [], [], []
    contended_until = 0.0
    for j, ((at, reply), (g, k)) in enumerate(zip(received, plan)):
        adj = adjs.setdefault(g, inputs.adjacency(pool_edges[g]))
        _judge_reply(run, f"request {j}", reply, adj, k, reference[(g, k)])
        if due[j] < contended_until or (busy_from < at and due[j] < busy_to):
            contended.append((at - due[j]) * 1000.0)
            contended_until = at
        else:
            latencies.append(at - due[j])
        if reply.get("ok"):
            st = reply["stats"]
            stats.append(dict(st, size=reply["size"]))
            queue_ms.append(st["queue_ms"])
            overhead_ms.append((at - sent[j]) * 1000.0 - st["queue_ms"] - st["prepare_ms"] - st["solve_ms"])
    if big:
        _judge_reply(run, "large graph", big["reply"], inputs.adjacency(big_edges), 3, refs[-1])
        if big["reply"].get("ok"):
            stats.append(dict(big["reply"]["stats"], size=big["reply"]["size"]))
    else:
        run.judge("large graph", "no reply")
    for j in range(len(received), total):
        run.judge(f"request {j}", "no reply")
    run.samples = latencies
    lag_ms = [(s - d) * 1000.0 for s, d in zip(sent, due)]
    offered_s = max(due[-1] - t0 + 1.0 / rate, 1e-9)
    completed_s = max(at for at, _ in received) - t0 if received else offered_s
    run.info.update({
        "service.server.big_answer_s": big["answered"] - big["began"] if big else 0.0,
        "service.server.add_graph_s": big["added"] - big["began"] if big else 0.0,
        "service.server.overhead_ms_p50": tracing.median_or_zero(overhead_ms),
        "service.server.contended_ms_p50": tracing.median_or_zero(contended),
        "service.server.contended_ms_p95": percentile(contended, 0.95) if contended else 0.0,
        "service.server.contended_requests": float(len(contended)),
        "service.scheduler.queue_ms_p50": tracing.median_or_zero(queue_ms),
        "service.scheduler.queue_ms_p99": percentile(queue_ms, 0.99) if queue_ms else 0.0,
        "gen.lag_ms_p99": percentile(lag_ms, 0.99),
        "gen.offered_rps": total / offered_s,
        "gen.completed_rps": len(received) / max(completed_s, 1e-9),
    })
    run.info["gen.behind"] = float(run.info["gen.lag_ms_p99"] > 0.5 * 1000.0 / rate)
    _service_counters(run, counters)
    _search_counters(run, stats)


def _service_counters(run: Run, counters: Dict, mutated_solves: int = 0) -> None:
    """Per-layer figures from the service's counters over the timed window."""
    ops = max(run.ops, 1)
    requests = max(counters.get("requests", 0), 1)
    run.info.update({
        "service.scheduler.cache_hit_ratio": counters.get("cache_hits", 0) / requests,
        "service.scheduler.coalesced": counters.get("coalesced", 0) / ops,
        "service.scheduler.shed": counters.get("shed", 0) / ops,
        "service.scheduler.deadline_expired": counters.get("deadline_expired", 0) / ops,
        "service.store.prepares": counters.get("prepares", 0) / ops,
        "service.store.prepared_hits": counters.get("prepared_hits", 0) / ops,
    })
    reused = counters.get("anchors_reused", 0)
    resolved = counters.get("anchors_resolved", 0)
    run.info["dynamic.incremental.resolved_fraction"] = (
        resolved / (reused + resolved) if reused + resolved else 0.0
    )
    if mutated_solves:
        run.info["dynamic.incremental.hit_ratio"] = counters.get("incremental_hits", 0) / mutated_solves


def delta_stream(run: Run, k: int = 2) -> None:
    base_edges = gate.spec_edges(run.shape["tracked"] + (run.subseed(),))
    churn_seed = run.subseed()
    state_dir = os.path.abspath(os.path.join(run.workdir, "state"))

    def seed_epoch(conn: Connection) -> Tuple[str, Dict]:
        digest = _add_graph(conn, add_graph_line(base_edges, name="tracked"))
        return digest, conn.call({"op": "solve", "digest": digest, "k": k})

    # Each successor's reference solve from scratch runs between two steps,
    # as in the batch workloads.
    with busy_cpus(), gate.Reference(1) as reference:
        server, conn, (digest, first) = _setups(run, ["--state-dir", state_dir], seed_epoch)
        try:
            _judge_reply(run, "first solve", first, inputs.adjacency(base_edges), k,
                         reference.size(base_edges, k))
            before = _counters(conn)
            churn = inputs.Churn(base_edges, churn_seed)
            replies = []
            steps = max(1, round(run.seconds * DELTA_STEPS_PER_S))
            started = time.perf_counter()
            for _ in range(steps if run.limit is None else min(steps, run.limit)):
                adds, removes = churn.step()
                began = time.perf_counter()
                mutated = conn.call({"op": "mutate", "graph": digest, "adds": adds, "removes": removes})
                if not mutated.get("ok"):
                    raise RuntimeError(f"mutate failed: {mutated}")
                digest = mutated["digest"]
                reply = conn.call({"op": "solve", "digest": digest, "k": k})
                run.samples.append(time.perf_counter() - began)
                _judge_reply(run, f"step {len(replies)}", reply, churn.adj, k, reference.size(churn.edges, k))
                replies.append(reply)
            run.ops = len(replies)
            counters = _finish_service(run, server, conn, (started, time.perf_counter()), before)
        finally:
            server.kill()
    state_bytes = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(state_dir) for f in files
    )

    _service_counters(run, counters, mutated_solves=len(replies))
    run.info["service.persistence.state_bytes"] = float(state_bytes)
    stats = [dict(r["stats"], size=r["size"]) for r in replies if r.get("ok")]
    run.info["service.scheduler.queue_ms_p50"] = tracing.median_or_zero([s["queue_ms"] for s in stats])
    run.info["service.scheduler.queue_ms_p99"] = percentile([s["queue_ms"] for s in stats], 0.99) if stats else 0.0
    _search_counters(run, stats)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


WORKLOADS = {
    "sparse-cold": sparse_cold,
    "dense-search": dense_search,
    "service-mixed": service_mixed,
    "delta-stream": delta_stream,
}
