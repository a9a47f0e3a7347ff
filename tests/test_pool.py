"""The process's campaign pool: reused across calls, replaced for another
worker count, dropped after a worker dies, and handed chunks that each split
into batches under the cap, with serial bits throughout.

Each test runs at most three worker processes."""
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest

from hjhomog import homog
from hjhomog.env import DomainError, EnvSpec, sample_environment
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


def campaign(workers, probes=ORIGIN):
    return homog._solve_batches(GAME, SPEC, SEEDS, np.zeros(1), CFG, probes, workers)


def worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def test_consecutive_pooled_campaigns_equal_the_serial_bits():
    serial = campaign(1).tobytes()
    pids = []
    for workers in (2, 2, 3, 2, 1):
        assert campaign(workers).tobytes() == serial
        pids.append(worker_pids())
    assert len(pids[0]) == 2 and pids[1] == pids[0]       # reused
    assert len(pids[2]) == 3 and not set(pids[2]) & set(pids[1])
    assert len(pids[3]) == 2 and not set(pids[3]) & set(pids[2])
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
    assert len(worker_pids()) == 2 and victim.pid not in worker_pids()


class InProcessPool:
    """Stands in for the campaign pool: each task is pickled, as for a worker
    process, and run in this process, where a spy sees its batches."""

    def map(self, fn, *iterables):
        return map(pickle.loads(pickle.dumps(fn)), *iterables)


def test_pooled_chunks_split_into_batches_under_the_cap():
    # at the default BATCH_COST_BYTES one batch holds all of a chunk's realizations
    cap = 2 * sl_plan(build(*GAME, 1), CFG).cost_bytes
    batches = []

    def sample(spec, seeds):
        batches.append(len(seeds))
        return sample_environment(spec, seeds)

    with mock.patch.object(homog, "_pool", return_value=InProcessPool()), \
            mock.patch.object(homog, "sample_environment", side_effect=sample), \
            mock.patch.object(homog, "BATCH_COST_BYTES", cap):
        got = campaign(2)
    assert batches == [2, 2, 2, 1]          # chunks of 4 and 3 seeds
    assert got.tobytes() == campaign(1).tobytes()
