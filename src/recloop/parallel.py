"""Splitting a metric kernel's rows over the CPUs this process may use."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_split(kernel, cost, workers: int, scratch) -> None:
    """Call ``kernel(lo, hi, scratch())`` on one contiguous range [lo, hi) of
    rows per worker, the ranges holding about equal shares of the cost:
    ``cost[i]`` is the cost of the rows before row i, rising strictly, and
    ``cost[-1]`` that of all rows.

    Each range must write only its own rows' slice of the output, so the
    split changes no result. Scratch is made here, on the caller's thread:
    arrays a worker thread allocates and frees stay in its malloc arena. One
    worker or one row runs inline; otherwise there are at least two ranges,
    run on a thread pool that ends with the call.
    """
    rows = len(cost) - 1
    if workers == 1 or rows == 1:
        kernel(0, rows, scratch())
        return
    cuts = np.unique(np.searchsorted(cost, np.linspace(0, cost[-1], workers + 1)))
    jobs = [(int(lo), int(hi), scratch()) for lo, hi in zip(cuts[:-1], cuts[1:])]
    with ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(kernel, *job) for job in jobs]
    for future in futures:
        future.result()
