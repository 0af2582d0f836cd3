"""Shared fixtures: the expensive tables and records are built once per session."""

import pytest

from alpha4 import build_spf_table, sieve, special


@pytest.fixture(scope="session")
def spf_million():
    return build_spf_table(10**6 + 3)


@pytest.fixture(scope="session")
def desk_params():
    return sieve.make_scale_params(10**6)


@pytest.fixture(scope="session")
def desk_records(desk_params):
    return special.enumerate_S(desk_params)


@pytest.fixture(scope="session")
def shared_ctx(desk_params, desk_records):
    # pre-seeded so the acceptance checks reuse the session records
    return {"params": desk_params, "records": desk_records}
