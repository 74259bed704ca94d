"""Protocols: key pools, BB84, CHSH, teleportation, key distribution."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnetsim.des import SimEnv
from qnetsim.netmodel import (ClassicalFiberChannel, Link, Network, Node,
                              PhotonSource, PolarizationDetector,
                              QuantumFiberChannel)
from qnetsim.protocols import (CLASSICAL_OPTIMAL_WIN_RATE,
                               QUANTUM_OPTIMAL_WIN_RATE, KeyPool, KeyRequest,
                               KeyDistributionNetwork, QubitManager,
                               bb84_generate, bell_pair, build_chain_network,
                               chsh_play, chsh_quantum_probs, chsh_referee,
                               decoy_bb84_generate, entanglement_swap, teleport)
from qnetsim.protocols.chsh import classical_win_rate_exhaustive
from qnetsim.protocols.qkd_network import QKDNode, xor_keys
from qnetsim.protocols.teleport import bell_measure


# ---- key pool -------------------------------------------------------------

def test_pool_default_thresholds():
    pool = KeyPool(40)
    assert pool.v_interrupt == 10
    assert pool.v_recover == 40


def test_pool_threshold_validation():
    with pytest.raises(ValueError):
        KeyPool(10, v_interrupt=8, v_recover=5)
    with pytest.raises(ValueError):
        KeyPool(0)


def test_pool_interrupt_and_recover_cycle():
    pool = KeyPool(20, v_interrupt=5, v_recover=20).fill()
    assert pool.status == "serving"
    assert pool.deliver(16) is not None  # 4 left < 5
    assert pool.status == "replenishing"
    assert pool.deliver(1) is None  # backpressure while replenishing
    for _ in range(15):
        pool.add_key()
    assert pool.status == "replenishing"  # 19 < V_r
    pool.add_key()
    assert pool.status == "serving"


def test_pool_rejects_oversized_request():
    pool = KeyPool(10).fill()
    with pytest.raises(ValueError):
        pool.deliver(11)


def test_pool_add_beyond_capacity_refused():
    pool = KeyPool(3).fill()
    assert pool.add_key() is False
    assert pool.v_current == 3


def test_pool_take_for_serves_both_segment_ends_identically():
    pool = KeyPool(20).fill()
    first = pool.take_for("req1", 5)
    second = pool.take_for("req1", 5)
    assert first == second  # the peer reads the same reserved keys
    third = pool.take_for("req1", 5)
    assert third is not None and third != first  # reservation was cleared
    # a reservation that drove the pool to replenishing still serves its id
    pool = KeyPool(20).fill()
    reserved = pool.take_for("req2", 16)  # 4 left < V_i
    assert pool.status == "replenishing"
    assert pool.can_take_for("req2", 16)
    assert not pool.can_take_for("other", 1)
    assert pool.take_for("req2", 16) == reserved  # the second end reads them
    assert not pool.can_take_for("req2", 16)


def test_pool_keys_have_requested_length():
    pool = KeyPool(5, key_length=16).fill()
    assert all(len(k) == 16 and set(k) <= {"0", "1"} for k in pool.keys)


# ---- XOR relay ------------------------------------------------------------

def test_xor_keys_identity():
    rng = np.random.default_rng(0)
    a = "".join(map(str, rng.integers(0, 2, 64)))
    b = "".join(map(str, rng.integers(0, 2, 64)))
    assert xor_keys(xor_keys(a, b), b) == a
    assert xor_keys(a, a) == "0" * 64


@given(st.integers(0, 80).flatmap(lambda n: st.tuples(
    st.text("01", min_size=n, max_size=n), st.text("01", min_size=n, max_size=n))))
def test_xor_keys_matches_per_character_reference(pair):
    a, b = pair
    assert xor_keys(a, b) == "".join("1" if x != y else "0" for x, y in zip(a, b))


def test_xor_keys_rejects_length_mismatch():
    with pytest.raises(ValueError):
        xor_keys("01", "011")


@pytest.mark.parametrize("key_length", [0, 1, 32, 257])
def test_new_key_matches_per_bit_reference(key_length):
    pool = KeyPool(4, key_length=key_length, rng=np.random.default_rng(11))
    reference = np.random.default_rng(11)
    for _ in range(5):
        expected = "".join(map(str, reference.integers(0, 2, key_length)))
        assert pool._new_key() == expected


def test_trusted_repeater_unwind():
    """dst recovers the src segment key from the ciphertext chain."""
    rng = np.random.default_rng(1)
    keys = ["".join(map(str, rng.integers(0, 2, 32))) for _ in range(3)]
    ciphertexts = [xor_keys(keys[i], keys[i + 1]) for i in range(2)]
    recovered = keys[-1]
    for c in reversed(ciphertexts):
        recovered = xor_keys(recovered, c)
    assert recovered == keys[0]


# ---- BB84 -----------------------------------------------------------------

def _qkd_pair(env, distance_km, source_kw, det_kw):
    net = Network("n", env=env)
    alice, bob = Node("alice", env=env), Node("bob", env=env)
    alice.install_device(PhotonSource("alice.src", env=env, **source_kw))
    bob.install_device(PolarizationDetector("bob.det", env=env, **det_kw))
    net.install_node(alice)
    net.install_node(bob)
    link = Link("l", ends=(alice, bob), env=env)
    net.install_link(link)
    link.install_channel(QuantumFiberChannel("q", alice, bob, distance_km, env=env))
    return alice, bob


def test_bb84_detection_rate_matches_loss():
    env = SimEnv("b", seed=3)
    alice, bob = _qkd_pair(env, 50.0, {"exact_photon_number": 1},
                           {"efficiency": 1.0})
    env.init()
    result = bb84_generate(alice, bob, 100_000, rng=env.rng_for("bb84"))
    assert abs(result.detection_rate - 0.1) < 0.005
    # sifting keeps about half of the detections
    assert abs(result.sifted_length / result.detections - 0.5) < 0.05
    assert result.qber == 0.0


def test_bb84_sifted_keys_agree_when_noiseless():
    env = SimEnv("b", seed=4)
    alice, bob = _qkd_pair(env, 10.0, {"exact_photon_number": 1},
                           {"efficiency": 1.0})
    env.init()
    result = bb84_generate(alice, bob, 20_000, rng=env.rng_for("bb84"))
    assert np.array_equal(result.sifted_alice, result.sifted_bob)


def test_bb84_dark_counts_cause_errors():
    env = SimEnv("b", seed=5)
    alice, bob = _qkd_pair(env, 100.0, {"exact_photon_number": 1,
                                        "frequency": 1e6},
                           {"efficiency": 0.5, "dark_count_rate": 20_000.0})
    env.init()
    result = bb84_generate(alice, bob, 100_000, rng=env.rng_for("bb84"))
    assert result.qber > 0.0


def test_bb84_rejects_nonpositive_pulses():
    env = SimEnv("b", seed=0)
    alice, bob = _qkd_pair(env, 1.0, {}, {})
    env.init()
    with pytest.raises(ValueError):
        bb84_generate(alice, bob, 0)


def test_decoy_bb84_gains_increase_with_intensity():
    env = SimEnv("d", seed=6)
    alice, bob = _qkd_pair(env, 25.0, {"mean_photon_num": 0.5},
                           {"efficiency": 0.8})
    env.init()
    result = decoy_bb84_generate(
        alice, bob, 200_000,
        intensities={"signal": 0.5, "decoy": 0.1, "vacuum": 0.0},
        probabilities={"signal": 0.7, "decoy": 0.2, "vacuum": 0.1},
        rng=env.rng_for("decoy"))
    gains = {k: v["gain"] for k, v in result.per_intensity.items()}
    assert gains["signal"] > gains["decoy"] > gains["vacuum"]
    assert result.per_intensity["vacuum"]["detections"] == 0  # no darks here


def test_decoy_probabilities_must_normalize():
    env = SimEnv("d", seed=0)
    alice, bob = _qkd_pair(env, 1.0, {}, {})
    env.init()
    with pytest.raises(ValueError):
        decoy_bb84_generate(alice, bob, 10, {"s": 0.5}, {"s": 0.7})


# ---- CHSH -----------------------------------------------------------------

def test_referee_rule():
    assert chsh_referee(0, 0, 0, 0)
    assert chsh_referee(1, 1, 0, 1)
    assert not chsh_referee(1, 1, 0, 0)


def test_classical_exhaustive_is_exactly_three_quarters():
    assert classical_win_rate_exhaustive() == 0.75
    assert CLASSICAL_OPTIMAL_WIN_RATE == 0.75


def test_quantum_probs_win_mass_is_cos2_pi8():
    for x in (0, 1):
        for y in (0, 1):
            dist = chsh_quantum_probs(x, y)
            win = sum(p for (a, b), p in dist.items() if chsh_referee(x, y, a, b))
            assert win == pytest.approx(QUANTUM_OPTIMAL_WIN_RATE, abs=1e-12)


def test_quantum_play_beats_classical_bound():
    result = chsh_play("quantum-optimal", 40_000,
                       rng=np.random.default_rng(8))
    assert abs(result.win_rate - QUANTUM_OPTIMAL_WIN_RATE) < 0.01
    assert result.win_rate > 0.8


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        chsh_play("psychic", 10, rng=np.random.default_rng(0))


# ---- teleportation and swapping ------------------------------------------

def test_bell_measure_on_phi_plus_gives_00():
    m = QubitManager(rng=np.random.default_rng(0))
    a, b = bell_pair(m)
    z, x = bell_measure(m, a, b)
    assert (z, x) == (0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_entanglement_swap_produces_phi_plus(seed):
    m = QubitManager(rng=np.random.default_rng(seed))
    left = bell_pair(m)
    right = bell_pair(m)
    ol, outer_right, _herald = entanglement_swap(m, left, right)
    state = m.qubit_state([ol, outer_right])
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(np.vdot(phi_plus, state.amps)) ** 2 == pytest.approx(1.0)


def _teleport_net(env, lossy=False):
    net = Network("n", env=env)
    nodes = {n: Node(n, env=env) for n in ("charlie", "alice", "bob")}
    for node in nodes.values():
        net.install_node(node)
    loss = 300.0 if lossy else 0.0
    for i, (a, b) in enumerate((("charlie", "alice"), ("charlie", "bob"),
                                ("alice", "bob"))):
        link = Link(f"l{i}", ends=(nodes[a], nodes[b]), env=env)
        net.install_link(link)
        link.install_channel(QuantumFiberChannel(
            f"q{i}", nodes[a], nodes[b], 1.0, loss_db_per_km=loss, env=env))
        link.install_channel(ClassicalFiberChannel(
            f"c{i}", nodes[a], nodes[b], 1.0, env=env))
    return nodes


@pytest.mark.parametrize("seed", range(5))
def test_teleport_delivers_prepared_state(seed):
    env = SimEnv("t", seed=seed)
    nodes = _teleport_net(env)
    theta = 0.3 + seed

    def prep(m, q):
        m.apply("ry", [q], params=(theta,))

    result = teleport(nodes["charlie"], nodes["alice"], nodes["bob"], prep)
    env.init()
    env.run()
    assert result.completed and not result.stalled
    target = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    assert abs(np.vdot(target, result.bob_state().amps)) ** 2 == \
        pytest.approx(1.0, abs=1e-10)


def test_teleport_stalls_on_lost_qubit():
    env = SimEnv("t", seed=1)
    nodes = _teleport_net(env, lossy=True)  # 300 dB: photons never arrive
    result = teleport(nodes["charlie"], nodes["alice"], nodes["bob"],
                      lambda m, q: None, timeout_ps=10**9)
    env.init()
    env.run()
    assert result.stalled and not result.completed


# ---- end-to-end key distribution -----------------------------------------

def _run_kdn(seed=0, capacity=40, n_requests=3, key_num=5):
    env = SimEnv("kdn", seed=seed)
    network, endnodes = build_chain_network(env, n_repeaters=2,
                                            distance_km=1.0)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=capacity,
                                 keygen_rate=200.0)
    env.init()
    kdn.start()
    rng = env.rng_for("wl")
    requests = []
    for rid in range(n_requests):
        src, dst = rng.choice(endnodes, 2, replace=False)
        req = KeyRequest(id=rid, src=str(src), dst=str(dst), key_num=key_num)
        requests.append(req)
        kdn.schedule_request(int(rng.integers(0, 10**10)), req)
    env.run(end_time=2 * 10**11)
    return requests


def test_end_to_end_requests_complete_and_keys_agree():
    requests = _run_kdn()
    assert all(r.state == "done" for r in requests)
    for r in requests:
        assert r.src_keys == r.dst_keys
        assert len(r.src_keys) == r.key_num
        assert r.completed_ps >= r.issued_ps


def test_request_lifecycle_is_monotone():
    req = KeyRequest(id=0, src="A", dst="B")
    req.advance("accepted")
    req.advance("serving")
    req.advance("accepted")  # stale transition is ignored
    assert req.state == "serving"
    req.advance("done")
    assert req.state == "done"


def test_request_hops_map_each_path_node_to_its_neighbours():
    env = SimEnv("kdn", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=3,
                                            extra_endnodes=[("C", 1)])
    network.install_node(QKDNode("Z", env=env))  # no link reaches it
    kdn = KeyDistributionNetwork(network, endnodes + ["Z"])
    env.init()
    kdn.start()
    along, branch, lost = (KeyRequest(id=0, src="A", dst="B"),
                           KeyRequest(id=1, src="C", dst="A"),
                           KeyRequest(id=2, src="A", dst="Z"))
    for request in (along, branch, lost):
        kdn.issue_request(request)
    assert along.hops == {"A": (None, "R1"), "R1": ("A", "R2"), "R2": ("R1", "R3"),
                          "R3": ("R2", "B"), "B": ("R3", None)}
    assert branch.hops == {"C": (None, "R2"), "R2": ("C", "R1"), "R1": ("R2", "A"),
                           "A": ("R1", None)}
    assert lost.state == "unreachable" and lost.hops == {}
    env.run(end_time=10**11)
    assert along.state == branch.state == "done"


def test_request_to_its_own_source_is_refused():
    env = SimEnv("kdn", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=1)
    kdn = KeyDistributionNetwork(network, endnodes)
    env.init()
    with pytest.raises(ValueError, match="source and destination are both 'A'"):
        kdn.issue_request(KeyRequest(id=0, src="A", dst="A"))


def test_request_from_a_repeater_is_refused():
    env = SimEnv("kdn", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=1)
    kdn = KeyDistributionNetwork(network, endnodes)
    env.init()
    request = KeyRequest(id=0, src="R1", dst="B")
    with pytest.raises(ValueError, match="request 0: source 'R1' is not an endnode"):
        kdn.issue_request(request)
    assert request.state == "issued" and env.fel == []


def test_accept_retraces_the_path_where_the_route_back_differs():
    # a six-cycle: A->B runs A-P-Z-B, but the route back runs B-C-Q-A
    env = SimEnv("kdn", seed=0)
    network = Network("ring", env=env)
    nodes = {name: QKDNode(name, env=env) for name in "APZBQC"}
    for node in nodes.values():
        network.install_node(node)
    for a, b in ("AP", "PZ", "ZB", "AQ", "QC", "CB"):
        link = Link(a + b, ends=(nodes[a], nodes[b]), env=env)
        network.install_link(link)
        for s, r in ((a, b), (b, a)):
            link.install_channel(ClassicalFiberChannel(f"c:{s}{r}", nodes[s],
                                                       nodes[r], 1.0, env=env))
        link.install_channel(QuantumFiberChannel(f"q:{a}{b}", nodes[a], nodes[b],
                                                 1.0, env=env))
    kdn = KeyDistributionNetwork(network, ["A", "B"])
    env.init()
    kdn.start()
    request = KeyRequest(id=0, src="A", dst="B")
    kdn.issue_request(request)
    env.run(end_time=10**11)
    assert network.route("B", "A") == ["B", "C", "Q", "A"]
    assert request.path == ["A", "P", "Z", "B"]
    assert request.state == "done" and request.src_keys == request.dst_keys


def test_oversized_request_is_rejected():
    env = SimEnv("kdn", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=1,
                                            distance_km=1.0)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=10,
                                 keygen_rate=100.0)
    env.init()
    kdn.start()
    req = KeyRequest(id=0, src=endnodes[0], dst=endnodes[1], key_num=50)
    kdn.schedule_request(0, req)
    env.run(end_time=10**11)
    assert req.state == "rejected"


def test_relay_only_messages_are_one_event_at_their_end(monkeypatch):
    from qnetsim.protocols.qkd_network import QKDRMP

    handled = []
    handle_classical = QKDRMP.handle_classical
    monkeypatch.setattr(QKDRMP, "handle_classical", lambda rmp, msg, src: handled.append(
        (rmp.node.name, msg["type"], src.name)) or handle_classical(rmp, msg, src))
    env = SimEnv("kdn", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=4, distance_km=1.0)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=40, keygen_rate=100.0)
    env.init()
    kdn.start()  # pools start full, so every repeater serves on ACCEPT
    request = KeyRequest(id=0, src="A", dst="B", key_num=10)
    kdn.issue_request(request)
    env.run(end_time=10**9)
    for repeater in ("R1", "R2", "R3", "R4"):
        assert [(node, kind) for node, kind, _ in handled if node == repeater] == [
            (repeater, "REQUEST"), (repeater, "ACCEPT")]
        assert sum(line[3] == f"{repeater}.receive_classical_msg"
                   for line in env.trace) == 2
    # each arrives from the last hop of its path
    assert sorted(entry for entry in handled if entry[1] == "CIPHERTEXT") == [
        ("B", "CIPHERTEXT", "R4")] * 4
    assert [entry for entry in handled if entry[1] == "DONE"] == [("A", "DONE", "R1")]
    assert sorted(request.ciphertexts) == ["R1", "R2", "R3", "R4"]
    # REQUEST and ACCEPT take 5 hops each, R1's ciphertext 4 and DONE 5, at
    # 5 us a hop: the time that hop-by-hop forwarding gave
    assert request.state == "done" and request.completed_ps == 90_000_000
    assert request.src_keys == request.dst_keys


# ---- the keygen clock and block-drawn pool keys --------------------------

def _keygen_network(distance_km=1.0, keygen_rate=1000.0, capacity=10, **chain):
    env = SimEnv("kg", seed=0)
    network, endnodes = build_chain_network(env, distance_km=distance_km, **chain)
    kdn = KeyDistributionNetwork(network, endnodes, pool_capacity=capacity,
                                 keygen_rate=keygen_rate)
    env.init()
    kdn.start()
    return env, kdn


def test_keygen_clock_is_the_one_pending_keygen_event():
    env, kdn = _keygen_network(n_repeaters=1)  # two pools, 1 ms interval
    (clock,) = kdn.clocks
    assert [event for *_, event in env.fel] == [clock.event]
    env.run(end_time=5 * 10**9 + 1)
    assert env.trace == [(k * 10**9, 0, k - 1, "kdnet.keygen") for k in range(1, 6)]
    assert [event for *_, event in env.fel] == [clock.event]
    assert (clock.event.time, clock.event.seq) == (6 * 10**9, 5)


def test_pool_generated_is_fill_plus_instants_with_room():
    env, kdn = _keygen_network(keygen_rate=20_000.0, capacity=12, n_repeaters=2,
                               extra_endnodes=[("C", 0)])
    (clock,) = kdn.clocks
    room = dict.fromkeys(kdn.pools, 0)
    keygen = clock.keygen

    def counting_keygen():  # looks at the pools before the clock adds keys
        for key, pool in kdn.pools.items():
            room[key] += pool.v_current < pool.v_max
        keygen()

    clock.keygen = counting_keygen
    rng = env.rng_for("wl")
    for rid in range(30):
        src, dst = rng.choice(["A", "B", "C"], 2, replace=False)
        kdn.schedule_request(int(rng.integers(0, 10**10)),
                             KeyRequest(id=rid, src=str(src), dst=str(dst), key_num=5))
    env.run(end_time=2 * 10**10)
    assert all(room.values())  # every pool was drained and refilled
    for key, pool in kdn.pools.items():
        assert pool.generated == pool.v_max + room[key]
        assert pool.generated - pool.delivered == pool.v_current


def test_hop_delay_equal_to_interval_gives_each_pool_a_clock():
    # 4 km of fiber is 20 us, the interval of 50,000 keys/s
    env, kdn = _keygen_network(distance_km=4.0, keygen_rate=50_000.0, n_repeaters=1)
    names = [clock.name for clock in kdn.clocks]
    assert names == ["A~R1", "R1~B"]
    assert [[(a.name, b.name, pool.name) for a, b, pool in clock.generators]
            for clock in kdn.clocks] == [[("A", "R1", "A~R1")], [("R1", "B", "R1~B")]]
    env.run(end_time=2 * 20 * 10**6)
    assert [line[3] for line in env.trace] == [f"{name}.keygen" for name in names] * 2
    _env, kdn = _keygen_network(distance_km=4.0, keygen_rate=40_000.0, n_repeaters=1)
    assert [clock.name for clock in kdn.clocks] == ["kdnet"]


def test_added_keys_wake_only_waiting_resource_managers(monkeypatch):
    from qnetsim.protocols.qkd_network import QKDRMP

    calls = []
    pool_recovered = QKDRMP.pool_recovered
    monkeypatch.setattr(QKDRMP, "pool_recovered",
                        lambda rmp: calls.append(rmp.node.name) or pool_recovered(rmp))
    env, kdn = _keygen_network(n_repeaters=1)
    for pool in kdn.pools.values():
        pool.deliver(5)  # room for keys, but nothing waits for them
    env.run(end_time=10 * 10**9)
    assert all(pool.generated == 15 for pool in kdn.pools.values())
    assert calls == []


def test_keygen_rate_must_give_a_positive_interval():
    env = SimEnv("kg", seed=0)
    network, endnodes = build_chain_network(env, n_repeaters=1)
    for rate in (0.0, -5.0, 1e13, float("nan")):
        with pytest.raises(ValueError, match="keygen_rate"):
            KeyDistributionNetwork(network, endnodes, keygen_rate=rate)


def _reference_keys(seed, key_length, count):
    rng = np.random.default_rng(seed)
    return ["".join(map(str, rng.integers(0, 2, key_length))) for _ in range(count)]


@pytest.mark.parametrize("key_length", [0, 1, 7, 32])
def test_pool_keys_across_block_boundaries_match_single_draws(key_length):
    pool = KeyPool(200, key_length=key_length, rng=np.random.default_rng(5))
    pool.fill(150)  # crosses two 64-key blocks
    pool.add_key()
    assert list(pool.keys) == _reference_keys(5, key_length, 151)


def test_fill_on_partly_full_pool_draws_one_key_per_slot():
    pool = KeyPool(10, key_length=8, rng=np.random.default_rng(3)).fill(6)
    pool.fill()  # ten draws for four free slots: six keys are dropped
    expected = _reference_keys(3, 8, 17)
    assert list(pool.keys) == expected[:10]
    assert pool.generated == 10
    assert pool.deliver(1) == expected[:1]
    pool.add_key()  # the seventeenth draw of the stream
    assert pool.keys[-1] == expected[16]
