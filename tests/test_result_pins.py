"""Every registered SLS system's exact result, pinned on both engines.

The digest is perfbench's ``result_digest`` of the ``SimResult``: a hash
of its JSON form, so any changed counter, latency or migration changes
it.  Config B shortens the page-management epoch so the policies of
Pond+PM, RecNMP, TPP and PIFS-Rec migrate often; TPP then makes fewer
swaps than its cap and leaves its epochs through the threshold ``break``.
Config C is config B on RMC1, where embedding spreading moves pages
between CXL nodes in every one of them; on RMC2 it moves 8 pages for
Pond+PM and TPP and none for RecNMP and PIFS-Rec.
"""

import hashlib
import json

import pytest

from repro import Simulation
from repro.config import replace_page_mgmt

CONFIG_A = {
    "pond": "5ceb11e94107b3b0",
    "pond+pm": "0eb92ec825ad27fa",
    "beacon": "90427ee45a2b59f4",
    "recnmp": "ed54e7b4187342b7",
    "tpp": "e06bfd704d24970c",
    "pifs-rec": "46a9845b5ff23e4f",
    "pifs-rec-nopm": "51d7a3f908235c71",
}
CONFIG_B = {
    "pond+pm": "77e19c3fd1368674",
    "recnmp": "7ef87e01ba9cdb1b",
    "tpp": "3c036aee23a885e3",
    "pifs-rec": "98678db2d617bc67",
}
CONFIG_C = {
    "pond+pm": "12c1432ffe205dfd",
    "recnmp": "567351fde5a8dd73",
    "tpp": "72f3cf5c49f31710",
    "pifs-rec": "95cea2b116acef64",
}
PINS = [(system, False, digest) for system, digest in CONFIG_A.items()] + [
    (system, True, digest) for system, digest in CONFIG_B.items()
]


def result_digest(sim) -> str:
    text = json.dumps(sim.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(system, model, short_epoch, engine) -> str:
    simulation = Simulation(system).model(model).batch_size(32).num_batches(2).engine(engine)
    if short_epoch:
        simulation = simulation.configure(
            lambda config: replace_page_mgmt(config, migration_epoch_accesses=256)
        )
    return result_digest(simulation.run().sim)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("system, short_epoch, digest", PINS)
def test_result_digest_is_pinned(system, short_epoch, digest, engine):
    assert run_digest(system, "RMC2", short_epoch, engine) == digest


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("system, digest", CONFIG_C.items())
def test_rmc1_short_epoch_digest_is_pinned(system, digest, engine):
    assert run_digest(system, "RMC1", True, engine) == digest
