"""Malformed read queries get a ``400 Bad Request``, not a wrong answer.

A negative ``top`` must not slice from the end (``/rankings?top=-1``
would quietly drop the last site), and a ``top`` or ``table`` that
does not parse must get a response rather than a closed connection.
Both endpoints parse ``top`` and ``table`` in one place and answer 400
with a JSON ``error`` body.
"""

import json
from urllib.error import HTTPError

import pytest

from repro.serve.client import fetch_json, replay_log
from repro.serve.server import ServeConfig, start_server_thread
from tests.serve.test_server import write_v2_log


@pytest.fixture(scope="module")
def db_daemon(all_profiles, tmp_path_factory):
    result = all_profiles["db"]
    log = write_v2_log(
        tmp_path_factory.mktemp("queries") / "db.dlog2",
        result.records,
        end_time=result.end_time,
    )
    handle = start_server_thread(
        ServeConfig(port=0, http_port=0, workers=2, inline=True, quiet=True)
    )
    host, port = handle.ingest_addr
    assert replay_log(log, host, port, mode="raw")["ok"]
    yield handle
    handle.stop()


@pytest.mark.parametrize(
    "path",
    [
        "/rankings?top=-1",
        "/timeline?top=-2",
        "/rankings?top=abc",
        "/timeline?top=abc",
        "/rankings?table=bogus",
    ],
)
def test_malformed_query_is_bad_request(db_daemon, path):
    with pytest.raises(HTTPError) as info:
        fetch_json(db_daemon.http_addr, path)
    assert info.value.code == 400
    body = json.loads(info.value.read().decode("utf-8"))
    assert set(body) == {"error"} and body["error"]
    # The daemon keeps serving well-formed reads afterwards.
    assert fetch_json(db_daemon.http_addr, "/healthz")["ok"] is True


def test_well_formed_top_still_counts_sites(db_daemon):
    sites = fetch_json(db_daemon.http_addr, "/rankings?top=all")["sites"]
    assert len(sites) > 3
    assert len(fetch_json(db_daemon.http_addr, "/rankings?top=0")["sites"]) == len(sites)
    assert len(fetch_json(db_daemon.http_addr, "/rankings?top=3")["sites"]) == 3
    timeline = fetch_json(db_daemon.http_addr, "/timeline?top=all")
    assert timeline["site_count"] == len(timeline["sites"]) == len(sites)
    assert len(fetch_json(db_daemon.http_addr, "/timeline?top=2")["sites"]) == 2
