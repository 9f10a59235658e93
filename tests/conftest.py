"""Shared toy fixtures for gradient checks and training tests.

The toy fusion model and its gate-safe check point live in the package's
check suite (cvradar.traincli.checks) so the CLI verification commands and
the tests exercise the identical construction. The lane fixtures pin the
second-core rule (ctensor.tape._second_core) and count what reaches the
lane worker.
"""

import os
import queue

import pytest

from cvradar.ctensor import tape
from cvradar.traincli.checks import toy_branch_config, toy_fusenet_instance

TOY_CONFIG = toy_branch_config()

__all__ = ["TOY_CONFIG", "toy_branch_config", "toy_fusenet_instance"]


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable CPUs and one BLAS thread, whatever the host: the rule gives
    the second core. Returns a setter for the BLAS thread count the probe reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def blas_threads(n):
        monkeypatch.setattr(tape, "_blas_threads", lambda: n)

    blas_threads(1)
    return blas_threads


@pytest.fixture
def lane_submissions(monkeypatch):
    """The jobs put on the lane worker's queue, in order; a fresh worker runs them."""
    submitted = []

    class Counting(queue.SimpleQueue):
        def put(self, job, *args):
            submitted.append(job)
            super().put(job, *args)

    jobs = tape._start_worker(Counting(), "test-lane")
    monkeypatch.setattr(tape, "_WORKER", jobs)
    yield submitted
    jobs.put(None)  # the worker thread ends
