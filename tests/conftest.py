"""Shared pytest plumbing.

The acceptance suite appends one verdict line per criterion to VERDICTS;
printing them from the terminal-summary hook keeps them visible under
pytest's default output capture.

BLAS is pinned to one thread, as bench/run.py does, before any test module
imports numpy: the sphere generator runs its trials on two threads, and a
second BLAS thread per trial only contends with them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.line(line)
