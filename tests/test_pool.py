"""The process's campaign pool: one process per chunk beyond the caller's,
at most `workers` - 1, while the caller solves the first chunk itself.  The
pool is reused across calls, replaced for another chunk count, dropped after
a worker dies or an interrupt, kept in step with its pipes after a refusal,
handed chunks that each split into batches under the cap, and gone when the
interpreter exits, with serial bits throughout.

Each test runs at most two pool processes."""
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hjhomog import homog, pde
from hjhomog.env import DomainError, Environment, EnvSpec, sample_environment
from hjhomog.families import build
from hjhomog.pde import SolveConfig, sl_plan
from hjhomog.rng import derive_seeds

GAME = ("saddle-game", {"base_speed": 1.0, "coupling": 0.25})
DT = DX = 0.25
T = 2.0
BOX = homog.solve_box_for(build(*GAME, 1).f_pairs, "semi-lagrangian", T, DT, DX)
SPEC = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
               box_lo=BOX[0], box_hi=BOX[1], seed=0)
CFG = SolveConfig(scheme="semi-lagrangian", dt=DT, dx=DX, T=T, box_lo=BOX[0], box_hi=BOX[1],
                  record_times=(1.0, T))
SEEDS = derive_seeds(11, np.arange(7))
ORIGIN = np.zeros((1, 1))
OFF_NODES = np.array([[0.1], [-0.3]])


def campaign(workers, probes=ORIGIN, seeds=SEEDS):
    return homog._solve_batches(GAME, SPEC, seeds, np.zeros(1), CFG, probes, workers)


def worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_consecutive_pooled_campaigns_equal_the_serial_bits():
    serial = campaign(1).tobytes()
    pids = []
    for workers in (2, 2, 3, 2, 1):
        assert campaign(workers).tobytes() == serial
        pids.append(worker_pids())
    assert len(pids[0]) == 1 and pids[1] == pids[0]       # reused
    assert len(pids[2]) == 2 and not set(pids[2]) & set(pids[1])
    assert len(pids[3]) == 1 and not set(pids[3]) & set(pids[2])
    assert pids[4] == pids[3]                              # a serial call leaves it be


def test_a_refusal_in_a_worker_reaches_the_caller_and_the_pool_survives():
    campaign(2)
    pids = worker_pids()
    with pytest.raises(DomainError, match="outside active box"):
        campaign(2, probes=np.full((1, 1), 1e3))
    assert campaign(2).tobytes() == campaign(1).tobytes()
    assert worker_pids() == pids


def test_a_killed_worker_fails_its_call_and_the_next_call_starts_a_fresh_pool():
    serial = campaign(1).tobytes()
    campaign(2)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        campaign(2)
    assert campaign(2).tobytes() == serial
    assert len(worker_pids()) == 1 and victim.pid not in worker_pids()


def test_a_refusal_in_every_chunk_reaches_the_caller_and_the_pipes_stay_in_step():
    campaign(3)
    pids = worker_pids()
    with pytest.raises(DomainError, match="outside active box"):
        campaign(3, probes=np.full((1, 1), 1e3))
    # a reply left in a pipe would answer this call in place of its own chunk
    assert campaign(3, probes=OFF_NODES).tobytes() == campaign(1, probes=OFF_NODES).tobytes()
    assert worker_pids() == pids


def test_a_refusal_in_the_callers_chunk_alone_waits_for_the_workers_replies():
    campaign(3)
    pids = worker_pids()
    # the workers are already running, so only the caller's march refuses
    with mock.patch.object(homog, "solve_sl_batch", side_effect=DomainError("refused")), \
            pytest.raises(DomainError, match="refused"):
        campaign(3)
    assert campaign(3, probes=OFF_NODES).tobytes() == campaign(1, probes=OFF_NODES).tobytes()
    assert worker_pids() == pids


def test_an_interrupt_in_the_callers_chunk_drops_the_pool():
    campaign(2)
    pids = worker_pids()
    with mock.patch.object(homog, "solve_sl_batch", side_effect=KeyboardInterrupt), \
            pytest.raises(KeyboardInterrupt):
        campaign(2)
    assert homog._POOL is None and worker_pids() == []
    assert campaign(2).tobytes() == campaign(1).tobytes()
    assert len(worker_pids()) == 1 and not set(worker_pids()) & set(pids)


def test_fewer_seeds_than_workers_give_the_serial_bits():
    seeds = SEEDS[:2]
    assert campaign(3, seeds=seeds).tobytes() == campaign(1, seeds=seeds).tobytes()


def test_the_pool_holds_one_process_per_chunk_beyond_the_callers():
    # two seeds make two chunks at 3 workers: one pool process, not two
    homog._shutdown_pool()
    seeds = SEEDS[:2]
    assert campaign(3, seeds=seeds).tobytes() == campaign(1, seeds=seeds).tobytes()
    assert len(worker_pids()) == 1
    # one seed makes one chunk, which the caller solves with no pool at all
    homog._shutdown_pool()
    seed = SEEDS[:1]
    assert campaign(2, seeds=seed).tobytes() == campaign(1, seeds=seed).tobytes()
    assert homog._POOL is None and worker_pids() == []


def test_the_workers_exit_when_the_callers_ends_of_their_pipes_close():
    # as when the caller is killed before it can stop them
    campaign(3)
    _, procs, conns = homog._POOL
    try:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=10)
        assert not [proc for proc in procs if proc.is_alive()]
    finally:
        homog._shutdown_pool()


EXIT_AFTER_A_POOLED_CALL = """
import multiprocessing, sys
sys.path.insert(0, sys.argv[1])
from test_pool import campaign
campaign(2)
print(*(p.pid for p in multiprocessing.active_children()))
"""


def test_an_interpreter_with_a_live_pool_exits_and_takes_its_workers_along():
    src = str(Path(homog.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", EXIT_AFTER_A_POOLED_CALL,
                          str(Path(__file__).parent)], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class InProcessWorker:
    """Stands in for a pool process and its pipe: each task is pickled, as
    for a worker process, and solved in this process when its reply is
    read, where a spy sees its batches."""

    def send(self, task):
        self.task = pickle.dumps(task)

    def recv(self):
        return homog._solve_batches(*pickle.loads(self.task))


def test_pooled_chunks_split_into_batches_under_the_cap():
    # at the default BATCH_COST_BYTES one batch holds all of a chunk's realizations
    cap = 2 * sl_plan(build(*GAME, 1), CFG).cost_bytes
    batches = []

    def sample(spec, seeds):
        batches.append(len(seeds))
        return sample_environment(spec, seeds)

    with mock.patch.object(homog, "_pool", return_value=[InProcessWorker()]), \
            mock.patch.object(homog, "sample_environment", side_effect=sample), \
            mock.patch.object(pde, "BATCH_COST_BYTES", cap):
        got = campaign(2)
    assert batches == [2, 2, 2, 1]          # the caller's 4 seeds, then the worker's 3
    assert got.tobytes() == campaign(1).tobytes()

    # at the default cap, on a box wide enough that a chunk's stacked table
    # is over it, no environment hashes more realizations than a batch holds
    wide = replace(CFG, box_lo=(-1600.0,), box_hi=(1600.0,))
    spec = replace(SPEC, box_lo=wide.box_lo, box_hi=wide.box_hi)
    cost = sl_plan(build(*GAME, 1), wide).cost_bytes
    assert 3 * cost > pde.BATCH_COST_BYTES
    hashed = []
    values = Environment.values

    def spy(env, pts):
        hashed.append(len(env.seeds))
        return values(env, pts)

    def solve(workers):
        return homog._solve_batches(GAME, spec, SEEDS, np.zeros(1), wide, ORIGIN, workers)

    with mock.patch.object(homog, "_pool", return_value=[InProcessWorker()]), \
            mock.patch.object(Environment, "values", spy):
        got = solve(2)
    assert sum(hashed) == len(SEEDS) and len(hashed) > 2
    assert max(hashed) <= pde.BATCH_COST_BYTES // cost
    # the same bits as one serial batch, under a cap patched up
    with mock.patch.object(pde, "BATCH_COST_BYTES", len(SEEDS) * cost), \
            mock.patch.object(Environment, "values", spy):
        hashed.clear()
        assert solve(1).tobytes() == got.tobytes()
    assert hashed == [len(SEEDS)]
