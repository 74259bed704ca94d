"""Properties of the key network over small random chains.

Every pool conserves keys (generated - delivered == current volume), in
memory and in `pools.csv`; every finished request holds the same keys at
both ends, leaves no reservation behind in any pool and completes no
earlier than a request's round trip over its path allows; a (config,
seed) pair writes the same bytes when it is run again; and the
relay-only messages (REJECT, CIPHERTEXT, DONE) are handled only at the
request end they travel to, arriving from a neighbour of that end.
"""

import csv
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from qnetsim import scenarios
from qnetsim.netmodel.channel import ClassicalFiberChannel, classical_delay_ps
from qnetsim.protocols.qkd_network import QKDRMP, KeyDistributionNetwork

OUTPUTS = ("results.csv", "pools.csv", "trace.log")


@st.composite
def chains(draw):
    n_repeaters = draw(st.integers(1, 6))
    branches = draw(st.lists(st.integers(0, n_repeaters - 1), max_size=2))
    return {"scenario": "keypool",
            "n_repeaters": n_repeaters,
            "extra_endnodes": [[f"E{i}", r] for i, r in enumerate(branches)],
            "capacity": draw(st.integers(10, 60)),
            "keygen_rate": float(draw(st.integers(100, 5000))),
            "num_requests": draw(st.integers(1, 20)),
            "key_num": 5,
            "end_time_ps": 50_000_000_000}  # 0.05 s; links keep the 1 km default


def _run(config, seed, out_dir):
    built = []

    class Recorded(KeyDistributionNetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(scenarios, "KeyDistributionNetwork", Recorded):
        metrics = scenarios.run_scenario(config, seed, out_dir)
    (kdn,) = built
    return kdn, metrics["requests"]


@settings(max_examples=25, deadline=None)
@given(chains(), st.integers(0, 2**32 - 1))
def test_pools_conserve_keys_and_requests_agree(config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        kdn, requests = _run(config, seed, first)
        for pool in kdn.pools.values():
            assert pool.generated - pool.delivered == pool.v_current
        with open(first / "pools.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(kdn.pools)
        for row in rows:
            assert int(row["generated"]) - int(row["delivered"]) == int(row["final_Vc"])
        hop_ps = classical_delay_ps(1.0)
        for request in requests:
            if request.state == "done":
                assert request.src_keys == request.dst_keys
                assert len(request.src_keys) == request.key_num
                assert request.completed_ps >= request.issued_ps
                # REQUEST out to the destination and DONE back to the source
                hops = len(request.path) - 1
                assert request.completed_ps - request.issued_ps >= 2 * hops * hop_ps
                assert not any(request.id in pool._reservations
                               for pool in kdn.pools.values())
        _run(config, seed, second)
        for name in OUTPUTS:
            assert (first / name).read_bytes() == (second / name).read_bytes()


# the request end that reads each relay-only message type
RELAY_ENDS = {"REJECT": "src", "CIPHERTEXT": "dst", "DONE": "src"}


@settings(max_examples=25, deadline=None)
@given(chains(), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_relay_only_messages_are_handled_only_at_their_end(config, key_num, seed):
    # key_num beyond a pool's capacity gets the request rejected
    handled = []
    handle_classical = QKDRMP.handle_classical

    def recording(rmp, msg, src):
        handled.append((rmp.node, msg, src))
        handle_classical(rmp, msg, src)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(QKDRMP, "handle_classical", recording):
        kdn, requests = _run({**config, "key_num": key_num}, seed, Path(tmp))
    seen = Counter()
    for node, msg, src in handled:
        request, kind = msg["request"], msg["type"]
        if kind in RELAY_ENDS:
            assert node.name == getattr(request, RELAY_ENDS[kind])
            kdn.network.channel_between(src, node, ClassicalFiberChannel)  # a neighbour
            seen[request.id, kind] += 1
    for request in requests:
        if request.state == "rejected":
            assert seen[request.id, "REJECT"] == 1
        if request.state == "done":
            assert seen[request.id, "DONE"] == 1
            assert seen[request.id, "CIPHERTEXT"] == len(request.path) - 2
