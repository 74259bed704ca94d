"""Golden outputs: a fixed (config, seed) must keep writing the same bytes.

The digests pin `results.csv`, `pools.csv` and `trace.log` of five
key-pool scenarios, `results.csv` and `pools.csv` of three more, and
`results.csv` of the default chsh, bb84 and satellite configs at two
seeds each.  A change that only makes the simulator faster must leave
every digest as it is; a change that moves an event, a sequence number
or a random draw changes at least one of them, and must say so and
update the digests on purpose.  A change that only drops events which
touch no state (one keygen clock in place of one timer per pool, no ACK
messages, no keygen instant that serves nothing, whose keys the pools
count when next read, no wake-up of a resource manager that can serve
nothing), or that moves events within
their picosecond only where no other event there touches their pools
(relay-only REJECT/CIPHERTEXT/DONE messages, and REQUEST, which the
repeaters on its path only read, delivered as one event at their end
instead of hop by hop), keeps `results.csv` and `pools.csv` and re-pins
`trace.log` alone.
"""

import hashlib

import pytest

from qnetsim.scenarios import run_scenario

# ROADMAP acceptance config: A-R1-R2-B with C and D attached; none of its
# 20,000 keygen instants serves a request, so none runs as an event.
KEYPOOL_ACCEPTANCE = {"scenario": "keypool", "capacity": 100, "num_requests": 200,
                      "keygen_rate": 50_000.0, "end_time_ps": 400_000_000_000}

# A 16-repeater chain with three endnodes hung off it: mostly hop-by-hop
# protocol messages, with requests queued on empty pools.
CHAIN16 = {"scenario": "keypool", "capacity": 40, "num_requests": 40,
           "keygen_rate": 200.0, "end_time_ps": 400_000_000_000,
           "n_repeaters": 16, "extra_endnodes": [["E0", 2], ["E1", 8], ["E2", 13]]}

# A saturated 64-repeater chain with ten endnodes hung off it at even
# spacing: long paths, so most events are REQUEST and ACCEPT hops, which
# every repeater on the path reads.
CHAIN64 = {"scenario": "keypool", "capacity": 40, "num_requests": 60,
           "keygen_rate": 100.0, "end_time_ps": 400_000_000_000,
           "n_repeaters": 64,
           "extra_endnodes": [[f"E{i}", (2 * i + 1) * 64 // 20] for i in range(10)]}

# The acceptance config on 4 km links: a classical hop takes 20 us, exactly
# one keygen interval, so a key added at one instant sends messages that
# arrive on the picosecond of the next keygen instant.
KEYPOOL_HOP_EQUALS_INTERVAL = {**KEYPOOL_ACCEPTANCE, "distance_km": 4.0}
# The same with pools of 20 keys: requests wait for keys, so new keys wake
# resource managers whose messages arrive on a later keygen instant.
KEYPOOL_HOP_EQUALS_INTERVAL_SMALL = {**KEYPOOL_HOP_EQUALS_INTERVAL, "capacity": 20}
# The acceptance config with a hop of half an interval (2 km) and of two
# intervals (8 km): a message sent at one keygen instant arrives between two
# instants, or with the clock of the instant after next already armed.
KEYPOOL_HOP_HALF_INTERVAL = {**KEYPOOL_ACCEPTANCE, "distance_km": 2.0}
KEYPOOL_HOP_TWO_INTERVALS = {**KEYPOOL_ACCEPTANCE, "distance_km": 8.0}
# CHAIN16 with pools of 12 keys: a request of 10 keys drains a pool to
# replenishing, so repeaters with three pools queue requests behind others.
CHAIN16_SMALL = {**CHAIN16, "capacity": 12}

GOLDEN = [
    (KEYPOOL_ACCEPTANCE, 2212, {
        "results.csv": "40acb97ae9758e0dea14a27bac7c7fdedb9e69fc10571dd4086dd7f28e0db809",
        "pools.csv": "a82ae68f943ca6f53255197dd3d9b29bbdd5df294cc3f24442bc980947c2bd48",
        "trace.log": "51e341c97dadb5c5696a3828cd32442873890b223f73533a1b6634c8d8f07b63",
    }),
    (CHAIN16, 1201, {
        "results.csv": "7ba1d1eb79c845f6a09ce660b70f53fbc904e3ab8c629d0cddefc3c47e0b022e",
        "pools.csv": "9505c5589fb8dbc9ae03c9e2ee3f69576ed3a82f4ed4069199cc763f7a780c10",
        "trace.log": "0a8b3de521c7b422bfca4ba3cb65e7d514bc7baf413950eceb32d70a4221cc54",
    }),
    (CHAIN64, 6401, {
        "results.csv": "54ed1f79e9d8789e2cb773e66e56f96a3464052f20110ab7fdf703d1f7c867c9",
        "pools.csv": "f2c85b8897c3ed5f97d5ee25e2c01db1a52f6027ba7b8ccb9a4e362fb3f94ec6",
        "trace.log": "080b7e36c8d2b4029430092c92757acf68231fdd5a1a7aacc2cbc3adcb432a46",
    }),
    (KEYPOOL_HOP_EQUALS_INTERVAL, 4004, {
        "results.csv": "e9fab525edcddd72a34b172cd4308e7f142971245003320585a72e10ffdb5459",
        "pools.csv": "e895182d675e3572bc72ed6f4ba0abfcb28a0ecfc7664a327f43f13957d2ffc2",
        "trace.log": "12c037b65dbb4b6279557b120bf5a440c8ad155b94ab1b2a187ec0ac637329fc",
    }),
    (KEYPOOL_HOP_EQUALS_INTERVAL_SMALL, 4004, {
        "results.csv": "a7e19ba76dea71d1cfee823b75ceec2764ef0bcb19144258d8bf53afbcd776bd",
        "pools.csv": "6ecb95e9eb59d5d8997706fe34e68c13fa9b24711f6c4e05a36f1e0572aa2532",
        "trace.log": "e4263d21754e38e91f99ccd1697c75cba48be776bdbe92e250d67929f5b19e96",
    }),
    (KEYPOOL_HOP_HALF_INTERVAL, 2002, {
        "results.csv": "3a283ed39a84d911e34125555cd64146de502ee9d95047afcdf1620c180ed6fe",
        "pools.csv": "d0656629a3a7dc5cb9b9cd535ad26f123a0ee6c779c62e24c017c9f17a023688",
    }),
    (KEYPOOL_HOP_TWO_INTERVALS, 8008, {
        "results.csv": "d169869189d9d5975b9be620c7fa583f870b7d909af7433494911dd8c5f701b6",
        "pools.csv": "a32f2fb691cd8d14bd2f1317e8d620c384b8593d22ab4cb078559a95e1dc5070",
    }),
    (CHAIN16_SMALL, 1212, {
        "results.csv": "bf1988b3e84fdc0d598fa194143041e52fa6dd693d88e8d86f3bea2c3288583a",
        "pools.csv": "0f8123b4dc3edcf65b90b76ac389d55478c65e2af4cbd3874024a934e4e585d4",
    }),
    ({"scenario": "chsh"}, 11, {
        "results.csv": "05407ef313797da1a2b1f357c1eb367581023d29f03ac7738d852ef5f43313af",
    }),
    ({"scenario": "chsh"}, 2024, {
        "results.csv": "214c46afbe11522a758af93fa683caa83c8f310688efe2c7f3daa9aaf5a8f4b2",
    }),
    ({"scenario": "bb84"}, 11, {
        "results.csv": "1126a6683f435cc53227203a4ecb600526e77498502ecfdd1780269517150ee2",
    }),
    ({"scenario": "bb84"}, 2024, {
        "results.csv": "baba591ae582455b2352de9d3f6cfb296be8197dd93b80736b94f7dafb5eb19f",
    }),
    ({"scenario": "satellite"}, 11, {
        "results.csv": "4b8231af9f0302c1af8824ba2348d47ac10f007d4db2c46562e8144254b6672d",
    }),
    ({"scenario": "satellite"}, 2024, {
        "results.csv": "db3b3d52de315d53061d96f90db34efff02dc70441b3946de32fbfcb8a522789",
    }),
]


@pytest.mark.parametrize("config,seed,digests", GOLDEN,
                         ids=["keypool-acceptance", "chain16", "chain64",
                              "keypool-hop-equals-interval",
                              "keypool-hop-equals-interval-small",
                              "keypool-hop-half-interval", "keypool-hop-two-intervals",
                              "chain16-small",
                              "chsh-11", "chsh-2024", "bb84-11", "bb84-2024",
                              "satellite-11", "satellite-2024"])
def test_scenario_outputs_match_golden_digests(tmp_path, config, seed, digests):
    run_scenario(config, seed, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
