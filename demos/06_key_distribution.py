"""End-to-end key distribution through trusted repeaters.

A chain A - R1 - R2 - B (plus endnodes C and D hanging off the
repeaters) holds a battery-like key pool on every quantum link.  An
end-to-end request is relayed hop by hop: each repeater XORs its two
segment keys into a ciphertext, and the destination unwinds the chain to
recover the source's segment key.  Pools that drain below their
interruption threshold stop serving until regeneration refills them.
"""

from qnetsim.des import SimEnv
from qnetsim.protocols import (KeyDistributionNetwork, KeyRequest,
                               build_chain_network)


def main():
    env = SimEnv("kdn", seed=3)
    network, endnodes = build_chain_network(
        env, n_repeaters=2, extra_endnodes=[("C", 0), ("D", 1)],
        distance_km=1.0)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=40,
                                 key_length=32, keygen_rate=200.0)
    env.init()  # routes are found when first asked, not here
    kdn.start()
    print(f"endnodes: {endnodes}; "
          f"route A->B: {' -> '.join(network.route('A', 'B'))}")

    requests = [
        KeyRequest(id=0, src="A", dst="B", key_num=10),
        KeyRequest(id=1, src="C", dst="D", key_num=10),
        KeyRequest(id=2, src="A", dst="D", key_num=10),
    ]
    for i, request in enumerate(requests):
        kdn.schedule_request(i * 10_000_000, request)

    env.run(end_time=200_000_000_000)  # 0.2 s of virtual time

    print("\nrequest outcomes:")
    for r in requests:
        done = r.state == "done"
        agree = done and r.src_keys == r.dst_keys
        ms = (r.completed_ps or 0) / 1e9
        print(f"  {r.src}->{r.dst}: {r.state:8} "
              + (f"completed at {ms:.3f} ms, keys agree: {agree}" if done else ""))

    print("\npool states after the run:")
    for link, pool in sorted(kdn.pools.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(link)
        print(f"  {a}-{b}: generated={pool.generated} delivered={pool.delivered} "
              f"V_c={pool.v_current}/{pool.v_max} [{pool.status}]")


if __name__ == "__main__":
    main()
