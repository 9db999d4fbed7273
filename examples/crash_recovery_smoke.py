"""Crash-recovery smoke for the durable solver service.

Run with::

    PYTHONPATH=src python examples/crash_recovery_smoke.py

The script is the assertion (CI runs it and any failure exits non-zero).
It drives one full crash/recover cycle against a real ``repro serve
--state-dir`` daemon:

1. **warm cache survives SIGKILL** — start the daemon, register a graph,
   answer two queries, then ``kill -9`` the process (no drain, no
   shutdown).  A restarted daemon on the same state directory must report
   the restored graph/artifact/result counts and answer the same queries
   as cache hits with identical sizes;
2. **a killed solve resumes** — the restarted daemon is started with a
   scripted fault (via the ``REPRO_FAULTS`` environment variable the chaos
   harness reads) that SIGKILLs the process mid-decomposed-solve, with
   exactly 30 completed subproblems durable in the checkpoint journal.  A
   third daemon resumes the solve: the answer must be *bit-identical* to an
   uninterrupted daemon's solve of the same graph (a fourth daemon on an
   empty state directory), match the size of an in-process sequential
   reference, and its stats must show the journaled subproblems were
   restored rather than re-searched;
3. **a mutate chain survives SIGKILL** — on a fresh state directory, add a
   named graph and mutate it more times than the store's snapshot interval,
   solve the chain tip, then ``kill -9`` the daemon.  Successors are durable
   by their delta WAL record alone, so ``graphs/`` holds fewer snapshots
   than there are graphs; a restarted daemon must still count every graph,
   answer the tip from the results WAL, and resolve the name to the tip.

The bit-identity baseline is a daemon, not the in-process reference: a
graph rebuilt from the wire can order its adjacency differently, which is
allowed to steer tie-breaks toward a different (equally optimal) clique.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from repro.core import KDCSolver, SolverConfig, is_k_defective_clique
from repro.graphs import gnp_random_graph
from repro.service import Client
from repro.service.store import SNAPSHOT_INTERVAL


def start_daemon(state_dir, extra_env=None):
    """Start ``repro serve --state-dir`` and return (process, restore line, host, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--state-dir", state_dir],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    restore = proc.stdout.readline().strip()
    assert restore.startswith("state restored from"), restore
    listening = proc.stdout.readline().strip()
    assert "listening on" in listening, listening
    host, port = listening.rsplit(" ", 1)[1].rsplit(":", 1)
    print(f"  daemon pid={proc.pid}: {restore}")
    return proc, restore, host, int(port)


def absent_pairs(graph, count):
    """The first ``count`` vertex pairs of ``graph`` that are not edges."""
    vertices = sorted(graph.vertex_set())
    pairs = ((u, v) for u in vertices for v in vertices if u < v and not graph.has_edge(u, v))
    return [next(pairs) for _ in range(count)]


def mutate_chain_survives_kill() -> None:
    """Phase 5: a chain longer than the snapshot interval survives kill -9."""
    base = gnp_random_graph(60, 0.15, seed=8)
    steps = SNAPSHOT_INTERVAL + 8
    with tempfile.TemporaryDirectory() as state_dir:
        proc, _restore, host, port = start_daemon(state_dir)
        try:
            with Client.connect(host, port) as client:
                tip = client.add_graph(base, name="chain")
                for edge in absent_pairs(base, steps):
                    tip = client.mutate("chain", adds=[edge], name="chain")["digest"]
                answer = client.solve(tip, 1)
                assert answer["optimal"]
            print(f"  {steps} mutations applied; tip solved (size {answer['size']})")
        finally:
            proc.kill()
            proc.wait(timeout=30)
        graphs = 1 + steps
        snapshots = [f for f in os.listdir(os.path.join(state_dir, "graphs")) if f.endswith(".pkl")]
        assert len(snapshots) < graphs, f"{len(snapshots)} snapshots for {graphs} graphs"
        print(f"  daemon killed (exit {proc.returncode}); {len(snapshots)} snapshot(s) "
              f"for {graphs} graphs")

        proc, restore, host, port = start_daemon(state_dir)
        try:
            assert f"{graphs} graph(s)" in restore, f"restart must count every graph: {restore}"
            with Client.connect(host, port) as client:
                hit = client.solve(tip, 1)
                assert hit["stats"]["cache_hit"], "the tip must answer from the results WAL"
                assert hit["size"] == answer["size"]
                edge = absent_pairs(base, steps + 1)[-1]
                grown = client.mutate("chain", adds=[edge], name="chain")
                assert grown["parent"] == tip, "the name must resolve to the restored tip"
                print(f"  restored tip answered from cache (size {hit['size']}); chain extends")
                assert client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


def main() -> None:
    small = gnp_random_graph(60, 0.15, seed=8)
    # Dense enough that RR5/RR6 preprocessing keeps all 150 vertices, so the
    # default config decomposes it into per-vertex ego subproblems — the
    # shape that checkpoints.
    hard = gnp_random_graph(150, 0.2, seed=7)
    reference = KDCSolver(SolverConfig()).solve(hard, 2)
    assert reference.optimal and reference.stats.subproblems > 30, (
        "the resume scenario needs a decomposed reference solve with >30 anchors"
    )

    with tempfile.TemporaryDirectory() as state_dir:
        print("=== phase 1: warm cache survives kill -9 ===")
        proc, restore, host, port = start_daemon(state_dir)
        try:
            assert restore.endswith("0 graph(s), 0 prepared artifact(s), 0 cached result(s)"), (
                f"first start must be cold: {restore}"
            )
            with Client.connect(host, port) as client:
                digest = client.add_graph(small, name="gnp60")
                cold1 = client.solve(digest, 1)
                cold2 = client.solve(digest, 2)
                assert cold1["optimal"] and cold2["optimal"]
                assert not cold1["stats"]["cache_hit"]
            print(f"  answered k=1 (size {cold1['size']}) and k=2 (size {cold2['size']})")
        finally:
            proc.kill()  # SIGKILL: no drain, no graceful anything
            proc.wait(timeout=30)
        print(f"  daemon killed (exit {proc.returncode})")

        print("=== phase 2: restart restores the cache, then dies mid-solve ===")
        # The chaos harness reads REPRO_FAULTS from the environment: SIGKILL
        # the daemon at the 31st checkpoint append of the decomposed solve,
        # i.e. with exactly 30 completed subproblems durable in the journal.
        fault = json.dumps([{
            "point": "checkpoint.append", "action": "kill", "value": True,
            "match": {"count": 30}, "times": 1,
        }])
        proc, restore, host, port = start_daemon(state_dir, {"REPRO_FAULTS": fault})
        try:
            assert "1 graph(s)" in restore and "2 cached result(s)" in restore, (
                f"warm restart must restore the killed daemon's state: {restore}"
            )
            died_mid_solve = False
            try:
                with Client.connect(host, port) as client:
                    hit = client.solve(digest, 1)
                    assert hit["stats"]["cache_hit"], "restored result must answer from cache"
                    assert hit["size"] == cold1["size"]
                    print(f"  k=1 answered from the restored cache (size {hit['size']})")

                    hard_digest = client.add_graph(hard, name="gnp150")
                    try:
                        client.solve(hard_digest, 2)
                    except AssertionError:
                        raise
                    except Exception as exc:
                        died_mid_solve = True
                        print(f"  daemon died mid-solve as scripted ({type(exc).__name__})")
            except AssertionError:
                raise
            except Exception:
                # tearing down the connection to a SIGKILLed daemon may
                # itself raise; only the solve call's failure is asserted
                pass
            assert died_mid_solve, "the scripted SIGKILL never fired"
            code = proc.wait(timeout=60)
            assert code == -9, f"daemon should die by SIGKILL, got {code}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        print("=== phase 3: restart resumes the killed solve ===")
        proc, restore, host, port = start_daemon(state_dir)
        try:
            with Client.connect(host, port) as client:
                resumed = client.solve(hard_digest, 2)
                stats = resumed["stats"]
                assert resumed["optimal"]
                assert resumed["size"] == reference.size, (
                    f"resumed size {resumed['size']} != reference {reference.size}"
                )
                assert is_k_defective_clique(hard, resumed["clique"], 2)
                assert stats["subproblems_restored"] == 30, (
                    f"expected 30 journaled subproblems, got {stats['subproblems_restored']}"
                )
                print(
                    f"  resumed: size {resumed['size']} "
                    f"({stats['subproblems_restored']} subproblem(s) restored, "
                    f"{stats['subproblems']} searched)"
                )
                assert client.shutdown()
            code = proc.wait(timeout=30)
            assert code == 0, f"daemon exited with {code}"
        finally:
            if proc.poll() is None:
                proc.kill()

        print("=== phase 4: the resume was bit-identical to an uninterrupted daemon ===")
        with tempfile.TemporaryDirectory() as fresh_dir:
            proc, _restore, host, port = start_daemon(fresh_dir)
            try:
                with Client.connect(host, port) as client:
                    digest2 = client.add_graph(hard, name="gnp150")
                    assert digest2 == hard_digest
                    clean = client.solve(digest2, 2)
                    assert clean["optimal"]
                    assert clean["clique"] == resumed["clique"], (
                        f"resumed solve must be bit-identical to the uninterrupted one "
                        f"(resumed {resumed['clique']}, uninterrupted {clean['clique']})"
                    )
                    assert clean["stats"]["subproblems_restored"] == 0
                    assert client.shutdown()
                assert proc.wait(timeout=30) == 0
                print(f"  uninterrupted daemon agrees: {clean['clique']}")
            finally:
                if proc.poll() is None:
                    proc.kill()

    print("=== phase 5: a mutate chain survives kill -9 ===")
    mutate_chain_survives_kill()
    print("crash-recovery smoke: OK")


if __name__ == "__main__":
    main()
