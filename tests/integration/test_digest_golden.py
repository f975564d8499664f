"""Golden-pinned ``repro.digest/2`` activation digests (DESIGN.md §11).

A persistent verdict cache is only sound if the digest function is
*reproducible*: the same app + trace + advice must produce bit-identical
digests on every machine and in every process, forever -- otherwise a
cache written yesterday silently never hits today (a performance bug),
or worse, hits on the wrong group (a soundness bug).  These goldens
freeze the digest of every cacheable group in a fixed workload per app,
so any accidental change to canonicalisation, value encoding, rid
tokenisation, or the app fingerprint shows up as a diff against the
committed file instead of as a mystery cache-miss regression.

An *intentional* digest change must bump ``DIGEST_SPEC`` (old caches
then load as empty -- cold, never wrong) and regenerate with::

    KAROUSOS_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_digest_golden.py
"""

import json
import os

import pytest

from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier.dedup import group_digest
from repro.verifier.dedup.digest import DIGEST_SPEC
from repro.verifier.preprocess import preprocess
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

pytestmark = pytest.mark.tier1

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

RUNS = {
    "motd": (motd_app, lambda: motd_workload(25, mix="mixed", seed=11), None),
    "stacks": (
        stackdump_app,
        lambda: stacks_workload(25, mix="mixed", seed=12),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "wiki": (
        wiki_app,
        lambda: wiki_workload(25, seed=13),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "feed": (
        feed_app,
        lambda: feed_workload(25, mix="mixed", seed=14),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
}


def golden_path(app_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"digests_{app_name}.json")


def compute_digests(app_name: str):
    """group tag -> {key, output_digest, members} for the app's fixed
    workload; uncacheable groups pin as None (they too must stay put)."""
    app_fn, workload_fn, store_fn = RUNS[app_name]
    run = run_server(
        app_fn(),
        workload_fn(),
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(5),
        concurrency=4,
    )
    state = preprocess(app_fn(), run.trace, run.advice)
    out = {"spec": DIGEST_SPEC, "groups": {}}
    for tag, rids in sorted(run.advice.groups().items()):
        digest = group_digest(state, rids)
        out["groups"][tag] = (
            None
            if digest is None
            else {
                "key": digest.key,
                "output_digest": digest.output_digest,
                "members": len(rids),
            }
        )
    return out


@pytest.fixture(scope="module", params=sorted(RUNS), ids=str)
def app_digests(request):
    return request.param, compute_digests(request.param)


def test_digests_match_golden(app_digests):
    app_name, digests = app_digests
    path = golden_path(app_name)
    if os.environ.get("KAROUSOS_REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digests == golden, (
        f"activation digests for {app_name} drifted from {path}; an "
        "intentional digest change must bump DIGEST_SPEC and regenerate "
        "with KAROUSOS_REGEN_GOLDEN=1"
    )


def test_workloads_are_substantially_cacheable(app_digests):
    """The digest sweep must not silently degrade: most groups in each
    curated workload digest successfully (None = uncacheable)."""
    app_name, digests = app_digests
    groups = digests["groups"]
    assert groups, app_name
    cacheable = sum(1 for v in groups.values() if v is not None)
    assert cacheable >= len(groups) * 0.8, (app_name, cacheable, len(groups))
