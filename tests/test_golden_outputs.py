"""Golden outputs: a fixed (config, seed) must keep writing the same bytes.

The digests pin `results.csv`, `pools.csv` and `trace.log` of three
key-pool scenarios.  A change that only makes the simulator faster must
leave every digest as it is; a change that moves an event, a sequence
number or a random draw changes at least one of them, and must say so
and update the digests on purpose.
"""

import hashlib

import pytest

from qnetsim.scenarios import run_scenario

# ROADMAP acceptance config: A-R1-R2-B with C and D attached; ~100k of
# its ~103k events are keygen ticks.
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

GOLDEN = [
    (KEYPOOL_ACCEPTANCE, 2212, {
        "results.csv": "40acb97ae9758e0dea14a27bac7c7fdedb9e69fc10571dd4086dd7f28e0db809",
        "pools.csv": "a82ae68f943ca6f53255197dd3d9b29bbdd5df294cc3f24442bc980947c2bd48",
        "trace.log": "b48622ad7407cfef20203b7b1bcf1a31f4f359f0fe4dd81448d67ff6de3a5760",
    }),
    (CHAIN16, 1201, {
        "results.csv": "7ba1d1eb79c845f6a09ce660b70f53fbc904e3ab8c629d0cddefc3c47e0b022e",
        "pools.csv": "9505c5589fb8dbc9ae03c9e2ee3f69576ed3a82f4ed4069199cc763f7a780c10",
        "trace.log": "d4d9ce104a048541687297105101e84c07912ce764ec6995bb1c2cc41d8cf194",
    }),
    (CHAIN64, 6401, {
        "results.csv": "54ed1f79e9d8789e2cb773e66e56f96a3464052f20110ab7fdf703d1f7c867c9",
        "pools.csv": "f2c85b8897c3ed5f97d5ee25e2c01db1a52f6027ba7b8ccb9a4e362fb3f94ec6",
        "trace.log": "17a887ab0bbbab914e6f9faf2d0f2d4513db86f69b72e06cd74ee503a1854d01",
    }),
]


@pytest.mark.parametrize("config,seed,digests", GOLDEN,
                         ids=["keypool-acceptance", "chain16", "chain64"])
def test_scenario_outputs_match_golden_digests(tmp_path, config, seed, digests):
    run_scenario(config, seed, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
