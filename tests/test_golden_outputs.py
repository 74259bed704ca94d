"""Golden outputs: a fixed (config, seed) must keep writing the same bytes.

The digests pin `results.csv`, `pools.csv` and `trace.log` of five
key-pool scenarios.  A change that only makes the simulator faster must
leave every digest as it is; a change that moves an event, a sequence
number or a random draw changes at least one of them, and must say so
and update the digests on purpose.  A change that only drops events
which touch no state (one keygen clock in place of one timer per pool,
no ACK messages) keeps `results.csv` and `pools.csv` and re-pins
`trace.log` alone.
"""

import hashlib

import pytest

from qnetsim.scenarios import run_scenario

# ROADMAP acceptance config: A-R1-R2-B with C and D attached; ~20k of
# its ~22k events are keygen instants, one for all six pools.
KEYPOOL_ACCEPTANCE = {"scenario": "keypool", "capacity": 100, "num_requests": 200,
                      "keygen_rate": 50_000.0, "end_time_ps": 400_000_000_000}

# A 16-repeater chain with three endnodes hung off it: mostly hop-by-hop
# protocol messages, with requests queued on empty pools.
CHAIN16 = {"scenario": "keypool", "capacity": 40, "num_requests": 40,
           "keygen_rate": 200.0, "end_time_ps": 400_000_000_000,
           "n_repeaters": 16, "extra_endnodes": [["E0", 2], ["E1", 8], ["E2", 13]]}

# A saturated 64-repeater chain with ten endnodes hung off it at even
# spacing: long paths, so most events are messages that a repeater only
# forwards.
CHAIN64 = {"scenario": "keypool", "capacity": 40, "num_requests": 60,
           "keygen_rate": 100.0, "end_time_ps": 400_000_000_000,
           "n_repeaters": 64,
           "extra_endnodes": [[f"E{i}", (2 * i + 1) * 64 // 20] for i in range(10)]}

# The acceptance config on 4 km links: a classical hop takes 20 us, exactly
# one keygen interval, so a key added at one instant sends messages that
# arrive at the next keygen instant, next to its ticks in the event list.
KEYPOOL_HOP_EQUALS_INTERVAL = {**KEYPOOL_ACCEPTANCE, "distance_km": 4.0}
# The same with pools of 20 keys: requests wait for keys, and the messages
# that a new key's wake-ups send do arrive between two pools' keys.
KEYPOOL_HOP_EQUALS_INTERVAL_SMALL = {**KEYPOOL_HOP_EQUALS_INTERVAL, "capacity": 20}

GOLDEN = [
    (KEYPOOL_ACCEPTANCE, 2212, {
        "results.csv": "40acb97ae9758e0dea14a27bac7c7fdedb9e69fc10571dd4086dd7f28e0db809",
        "pools.csv": "a82ae68f943ca6f53255197dd3d9b29bbdd5df294cc3f24442bc980947c2bd48",
        "trace.log": "37d4d13fb435681111560c02067b65000a23b9760495b7e08db7d28be3864849",
    }),
    (CHAIN16, 1201, {
        "results.csv": "7ba1d1eb79c845f6a09ce660b70f53fbc904e3ab8c629d0cddefc3c47e0b022e",
        "pools.csv": "9505c5589fb8dbc9ae03c9e2ee3f69576ed3a82f4ed4069199cc763f7a780c10",
        "trace.log": "8d828a65666e40b993b480e37d0e08cc934c49111c231239f06add7db74f4e8d",
    }),
    (CHAIN64, 6401, {
        "results.csv": "54ed1f79e9d8789e2cb773e66e56f96a3464052f20110ab7fdf703d1f7c867c9",
        "pools.csv": "f2c85b8897c3ed5f97d5ee25e2c01db1a52f6027ba7b8ccb9a4e362fb3f94ec6",
        "trace.log": "6b0594abb826f1d06b5d3e397e8632969102a054d562e83ae079d7afcd51ee31",
    }),
    (KEYPOOL_HOP_EQUALS_INTERVAL, 4004, {
        "results.csv": "e9fab525edcddd72a34b172cd4308e7f142971245003320585a72e10ffdb5459",
        "pools.csv": "e895182d675e3572bc72ed6f4ba0abfcb28a0ecfc7664a327f43f13957d2ffc2",
        "trace.log": "9aeee41650445c505ba7f5f294fd8d1d37b0e00b14777d9e4ec372c45024b754",
    }),
    (KEYPOOL_HOP_EQUALS_INTERVAL_SMALL, 4004, {
        "results.csv": "a7e19ba76dea71d1cfee823b75ceec2764ef0bcb19144258d8bf53afbcd776bd",
        "pools.csv": "6ecb95e9eb59d5d8997706fe34e68c13fa9b24711f6c4e05a36f1e0572aa2532",
        "trace.log": "64b05b83f2b8865b1f847643b3cb79c4fdb013e7cc78f18f8ad4126f9dee70e5",
    }),
]


@pytest.mark.parametrize("config,seed,digests", GOLDEN,
                         ids=["keypool-acceptance", "chain16", "chain64",
                              "keypool-hop-equals-interval",
                              "keypool-hop-equals-interval-small"])
def test_scenario_outputs_match_golden_digests(tmp_path, config, seed, digests):
    run_scenario(config, seed, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
