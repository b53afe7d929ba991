"""Behaviour lock: the offline path reproduces the committed reports byte for byte.

tests/fixtures/offline_lock/generate.py rebuilds a small simgen corpus, runs
`evaluate --finetune-per-participant` and `train --report` on it, and wrote
the reports committed next to it. This test reruns that recipe in a
temporary directory, so a change to training, fine-tuning, frame ingest or
scoring that moves any byte of a report fails here.
"""

import pytest

from conftest import FIXTURES, load_fixture_script

OFFLINE_LOCK = FIXTURES / "offline_lock"


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    generate = load_fixture_script("offline_lock")
    return generate.build(tmp_path_factory.mktemp("offline_lock"))


@pytest.mark.parametrize("name", ["report.json", "train.json"])
def test_offline_reports_are_locked(rebuilt, name):
    assert rebuilt[name] == (OFFLINE_LOCK / name).read_bytes()
