"""Shared benchmark fixtures: datasets and workloads, built once.

Scales: data set 1 always runs at the paper's size (10,987 x 27). Data
set 2 defaults to 20% of the paper's 100,000 objects because building a
100k-object index in pure Python takes minutes; set ``REPRO_FULL_SCALE=1``
to run the paper's size. Query counts default to 50 per batch (the paper
uses 100/500).
"""

import os

import pytest

from repro.data.workload import identification_workload
from repro.eval.figures import dataset1, dataset2


def query_count(default: int = 50) -> int:
    return int(os.environ.get("REPRO_QUERIES", str(default)))


@pytest.fixture(scope="session")
def ds1():
    return dataset1()


@pytest.fixture(scope="session")
def ds1_workload(ds1):
    return identification_workload(ds1, query_count(), seed=7)


@pytest.fixture(scope="session")
def ds2():
    return dataset2()


@pytest.fixture(scope="session")
def ds2_workload(ds2):
    return identification_workload(ds2, query_count(), seed=11)
