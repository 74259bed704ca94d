"""Network model: channels, devices, routing, topology, mobility."""

import json

from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnetsim.des import SimEnv
from qnetsim.netmodel import (FIBER_LOSS_DB_PER_KM, ClassicalFiberChannel,
                              FreeSpaceChannel, Link, Mobility, Network, Node,
                              PhotonSource, PolarizationDetector,
                              QuantumFiberChannel, TopologyError,
                              classical_delay_ps, load_topology_from,
                              survival_probability, triangular_trajectory)


@pytest.fixture
def env():
    return SimEnv("net", seed=5)


# ---- channel physics ------------------------------------------------------

def test_propagation_delay_is_5us_per_km():
    assert classical_delay_ps(1.0) == 5_000_000
    assert classical_delay_ps(50.0) == 250_000_000


def test_survival_probability_oracle():
    # 50 km at 0.2 dB/km = 10 dB -> 10% survival
    assert survival_probability(50 * FIBER_LOSS_DB_PER_KM) == pytest.approx(0.1)
    assert survival_probability(0.0) == 1.0
    assert survival_probability(30.0) == pytest.approx(1e-3)


def test_quantum_channel_loss_statistics(env):
    a, b = Node("a", env), Node("b", env)
    ch = QuantumFiberChannel("q", a, b, 50.0, env=env)
    received = []
    b.receive_quantum_msg = lambda q, src: received.append(q)
    env.init()
    for i in range(20000):
        ch.transmit(i, src=a)
    env.run()
    assert abs(len(received) / 20000 - 0.1) < 0.01


def test_classical_channel_delivers_after_delay(env):
    a, b = Node("a", env), Node("b", env)
    ch = ClassicalFiberChannel("c", a, b, 2.0, env=env)
    arrivals = []
    b.receive_classical_msg = lambda msg, src: arrivals.append((env.now, msg, src))
    env.init()
    ch.transmit("hello", src=a)
    env.run()
    assert arrivals == [(10_000_000, "hello", a)]


def test_plain_node_drops_what_channels_deliver(env):
    a, b = Node("a", env), Node("b", env)
    classical = ClassicalFiberChannel("c", a, b, 1.0, env=env)
    quantum = QuantumFiberChannel("q", a, b, 0.0, env=env)  # lossless
    env.init()
    classical.transmit("hello", src=a)
    quantum.transmit("qubit", src=a)
    env.run()
    assert sorted(handler for *_, handler in env.trace) == [
        "b.receive_classical_msg", "b.receive_quantum_msg"]


def test_channel_rejects_wrong_sender(env):
    a, b, c = Node("a", env), Node("b", env), Node("c", env)
    ch = ClassicalFiberChannel("c", a, b, 1.0, env=env)
    env.init()
    with pytest.raises(ValueError):
        ch.transmit("x", src=c)


def test_free_space_loss_interpolation(env):
    a, b = Node("a", env), Node("b", env)
    ch = FreeSpaceChannel("f", a, b, loss_table=[(100, 10), (200, 30)], env=env)
    assert ch.loss_db(150) == pytest.approx(20.0)
    assert ch.survival_probability(100) == pytest.approx(0.1)


def test_free_space_and_mobility_losses_agree(env):
    table = [(500.0, 13.0), (800.0, 15.5), (1100.0, 18.0), (1400.0, 20.5)]
    ch = FreeSpaceChannel("f", Node("a", env), Node("b", env), loss_table=table,
                          env=env)
    mob = Mobility(triangular_trajectory(0, 100, 500, 1400), (0, 100), table)
    for distance in np.linspace(0.0, 2000.0, 401):
        assert mob.loss_db(distance) == ch.loss_db(distance)


@pytest.mark.parametrize("table", [[(1400.0, 20.0), (500.0, 13.0)],
                                   [(500.0, 13.0), (500.0, 14.0)],
                                   [(500.0, 13.0), (float("nan"), 14.0)]])
def test_loss_tables_need_increasing_distances(env, table):
    # np.interp would quietly give wrong losses for these
    with pytest.raises(ValueError, match="increasing distances"):
        FreeSpaceChannel("f", Node("a", env), Node("b", env), loss_table=table, env=env)
    with pytest.raises(ValueError, match="increasing distances"):
        Mobility(triangular_trajectory(0, 100, 500, 1400), (0, 100), table)
    doc = {"nodes": [{"name": "a"}, {"name": "b"}],
           "links": [{"ends": ["a", "b"],
                      "channels": [{"kind": "free-space", "sender": "a", "receiver": "b",
                                    "loss_table": [list(row) for row in table]}]}]}
    with pytest.raises(ValueError, match="increasing distances"):
        load_topology_from(doc, env=SimEnv("topo"))


# ---- devices --------------------------------------------------------------

def test_photon_source_poisson_statistics(env):
    src = PhotonSource("s", mean_photon_num=0.5, env=env)
    counts = src.photon_counts(200_000, np.random.default_rng(1))
    assert abs(counts.mean() - 0.5) < 0.01
    assert abs(counts.var() - 0.5) < 0.02  # Poisson: variance == mean


def test_photon_source_exact_number(env):
    src = PhotonSource("s", exact_photon_number=1, env=env)
    assert (src.photon_counts(100, np.random.default_rng(0)) == 1).all()


def test_photon_source_pulse_interval(env):
    assert PhotonSource("s", frequency=1e6, env=env).pulse_interval_ps == 1_000_000


def test_detector_efficiency_and_dark_counts(env):
    det = PolarizationDetector("d", efficiency=0.5, dark_count_rate=1000.0, env=env)
    rng = np.random.default_rng(2)
    # single photons at 50% efficiency, negligible darks in a 1us window
    clicks = det.detect(np.ones(100_000, dtype=np.int64), 1e-6, rng)
    expected = 0.5 + 0.5 * det.dark_click_probability(1e-6)
    assert abs(clicks.mean() - expected) < 0.01
    # no photons: only dark counts
    darks = det.detect(np.zeros(100_000, dtype=np.int64), 1e-3, rng)
    assert abs(darks.mean() - det.dark_click_probability(1e-3)) < 0.01


def test_detector_validates_efficiency(env):
    with pytest.raises(ValueError):
        PolarizationDetector("d", efficiency=1.5, env=env)


@pytest.mark.parametrize("cls,kwargs", [
    (PhotonSource, {"frequency": 0}),
    (PhotonSource, {"frequency": float("inf")}),
    (PhotonSource, {"mean_photon_num": float("nan")}),
    (PhotonSource, {"exact_photon_number": -1}),
    (PhotonSource, {"exact_photon_number": 1.5}),
    (PhotonSource, {"exact_photon_number": True}),
    (PolarizationDetector, {"dark_count_rate": -1}),
    (PolarizationDetector, {"dark_count_rate": float("nan")}),
])
def test_devices_reject_parameters_they_cannot_simulate(env, cls, kwargs):
    with pytest.raises(ValueError):
        cls("d", env=env, **kwargs)


# ---- routing --------------------------------------------------------------

def _mesh(env, edges, names):
    net = Network("n", env=env)
    nodes = {n: Node(n, env=env) for n in names}
    for node in nodes.values():
        net.install_node(node)
    for i, (a, b) in enumerate(edges):
        link = Link(f"l{i}", ends=(nodes[a], nodes[b]), env=env)
        net.install_link(link)
        for s, r in ((a, b), (b, a)):
            link.install_channel(ClassicalFiberChannel(
                f"c{i}:{s}->{r}", nodes[s], nodes[r], 1.0, env=env))
    return net


def test_routing_matches_networkx_hop_counts(env):
    names = list("ABCDEFG")
    rng = np.random.default_rng(9)
    edges = [(names[i], names[j]) for i in range(7) for j in range(i + 1, 7)
             if rng.random() < 0.4]
    edges += [("A", "B"), ("B", "C")]  # keep it mostly connected
    net = _mesh(env, edges, names)
    env.init()
    g = nx.Graph(edges)
    for src in names:
        for dst in names:
            if src == dst or src not in g or dst not in g:
                continue
            path = net.route(src, dst)
            if not nx.has_path(g, src, dst):
                assert path is None
            else:
                assert path is not None
                assert len(path) - 1 == nx.shortest_path_length(g, src, dst)


def test_routing_tie_breaks_lexicographically(env):
    # A-B-D and A-C-D both have two hops; next hop from A must be B
    net = _mesh(env, [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")], "ABCD")
    env.init()
    assert net.route("A", "D") == ["A", "B", "D"]


def test_unreachable_returns_none(env):
    net = _mesh(env, [("A", "B")], "ABC")
    env.init()
    assert net.route("A", "C") is None


def test_route_to_self(env):
    net = _mesh(env, [("A", "B")], "AB")
    env.init()
    assert net.route("A", "A") == ["A"]


def test_duplicate_node_name_rejected(env):
    net = Network("n", env=env)
    net.install_node(Node("A", env=env))
    with pytest.raises(ValueError):
        net.install_node(Node("A", env=env))


def _bfs_hops_from(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=3 * n, unique=True))))
def test_routes_match_brute_force_bfs(graph):
    """Directed random graphs: every next hop starts a shortest path, and
    among those it is the lexicographically smallest neighbour; a node
    that cannot reach dst, or is dst, has none."""
    n, arcs = graph
    names = [f"n{i}" for i in range(n)]
    env = SimEnv("routes")
    net = Network("n", env=env)
    nodes = [Node(name, env=env) for name in names]
    for node in nodes:
        net.install_node(node)
    for i, (a, b) in enumerate(arcs):
        link = Link(f"l{i}", ends=(nodes[a], nodes[b]), env=env)
        net.install_link(link)
        link.install_channel(ClassicalFiberChannel(
            f"c{i}", nodes[a], nodes[b], 1.0, env=env))
    env.init()
    adj = {name: sorted({names[b] for a, b in arcs if names[a] == name})
           for name in names}
    hops = {name: _bfs_hops_from(adj, name) for name in names}
    for src in names:
        for dst in names:
            d = hops[src].get(dst)
            expected = None if d in (None, 0) else min(
                v for v in adj[src] if hops[v].get(dst) == d - 1)
            assert net.next_hop(src, dst) == expected


# ---- lookups --------------------------------------------------------------

def _pair(env):
    net = Network("n", env=env)
    a, b = Node("A", env=env), Node("B", env=env)
    net.install_node(a)
    net.install_node(b)
    link = Link("A-B", ends=(a, b), env=env)
    net.install_link(link)
    chans = {}
    for s, r in ((a, b), (b, a)):
        chans[(s.name, r.name, "c")] = ClassicalFiberChannel(
            f"c:{s.name}->{r.name}", s, r, 1.0, env=env)
        link.install_channel(chans[(s.name, r.name, "c")])
    chans[("A", "B", "q")] = QuantumFiberChannel("q:A->B", a, b, 1.0, env=env)
    link.install_channel(chans[("A", "B", "q")])
    return net, a, b, link, chans


def test_node_lookup_by_name_and_unknown_name(env):
    net, a, b, _link, _chans = _pair(env)
    assert net.node("A") is a and net.node("B") is b
    with pytest.raises(KeyError, match="no node named 'Z'"):
        net.node("Z")


def test_entities_of_another_environment_are_not_installed(env):
    net, a, b, link, _chans = _pair(env)
    other = SimEnv("other", seed=5)
    stranger = Node("C", env=other)
    with pytest.raises(ValueError, match="component C belongs to a different environment"):
        net.install_node(stranger)
    assert net.nodes == [a, b] and stranger.network is None
    with pytest.raises(KeyError):
        net.node("C")
    channel = ClassicalFiberChannel("c:far", a, b, 1.0, env=other)
    with pytest.raises(ValueError, match="component c:far belongs to a different"):
        link.install_channel(channel)
    assert channel not in link.channels
    with pytest.raises(ValueError, match="belongs to a different environment"):
        net.install_link(Link("far", ends=(a, b), env=other))
    assert net.links == [link]


@pytest.mark.parametrize("ends", [None, "A", "AA", "ABC"])
def test_install_link_needs_two_distinct_installed_ends(env, ends):
    net, a, b, link, _chans = _pair(env)
    c = Node("C", env=env)
    net.install_node(c)
    by_name = {"A": a, "B": b, "C": c}
    bad = Link("bad", ends=ends and [by_name[name] for name in ends], env=env)
    with pytest.raises(ValueError, match="link 'bad' needs two distinct ends"):
        net.install_link(bad)
    assert net.links == [link] and bad.network is None


def test_link_refuses_a_channel_whose_sender_is_its_receiver(env):
    net, a, _b, link, _chans = _pair(env)
    loop = ClassicalFiberChannel("c:A->A", a, a, 1.0, env=env)
    with pytest.raises(ValueError, match="are not the ends of link 'A-B'"):
        link.install_channel(loop)
    assert loop not in link.channels
    with pytest.raises(LookupError):
        net.channel_between(a, a, ClassicalFiberChannel)


def test_channel_between_picks_direction_and_kind(env):
    net, a, b, _link, chans = _pair(env)
    for _ in range(2):  # the second round is served from the memo
        assert net.channel_between(a, b, ClassicalFiberChannel) is chans[("A", "B", "c")]
        assert net.channel_between(b, a, ClassicalFiberChannel) is chans[("B", "A", "c")]
        assert net.channel_between(a, b, QuantumFiberChannel) is chans[("A", "B", "q")]
    assert a.channel_to(b) is chans[("A", "B", "c")]


def test_channel_between_missing_raises_and_is_not_cached(env):
    net, a, b, link, _chans = _pair(env)
    for _ in range(2):
        with pytest.raises(LookupError, match="QuantumFiberChannel from 'B' to 'A'"):
            net.channel_between(b, a, QuantumFiberChannel)
    late = QuantumFiberChannel("q:B->A", b, a, 1.0, env=env)
    link.install_channel(late)
    assert net.channel_between(b, a, QuantumFiberChannel) is late
    c = Node("C", env=env)
    net.install_node(c)
    with pytest.raises(LookupError):
        net.channel_between(a, c, ClassicalFiberChannel)


def test_path_toward_follows_routes_computed_again(env):
    net = Network("n", env=env)
    a, b, c, d = (Node(name, env=env) for name in "ABCD")
    for node in (a, b, c, d):
        net.install_node(node)

    def connect(s, r, km):
        link = Link(f"{s.name}-{r.name}", ends=(s, r), env=env)
        net.install_link(link)
        channel = ClassicalFiberChannel(f"c:{s.name}->{r.name}", s, r, km, env=env)
        link.install_channel(channel)
        return channel

    connect(a, b, 1.0)
    b_to_c = connect(b, c, 2.0)
    c_to_d = connect(c, d, 3.0)
    env.init()
    for _ in range(2):  # the second round is served from the memo
        assert net.path_toward(a, "C") == (15_000_000, b_to_c)
        assert net.path_toward(b, "C") == (10_000_000, b_to_c)
    for src, dst in ((c, "A"), (a, "A")):
        with pytest.raises(LookupError, match="no classical path"):
            net.path_toward(src, dst)
    a_to_c = connect(a, c, 4.0)
    # routes toward a destination are those of the channels when it is first
    # asked: C was asked before the new link, D only after it
    assert net.path_toward(a, "C") == (15_000_000, b_to_c)
    assert net.route("A", "D") == ["A", "C", "D"]
    assert net.path_toward(a, "D") == (35_000_000, c_to_d)
    net.compute_routes()
    assert net.path_toward(a, "C") == (20_000_000, a_to_c)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    # (sender, receiver, km, quantum?, when installed); an arc may repeat
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.floats(0.0, 50.0), st.booleans(), st.integers(0, 3))
             .filter(lambda arc: arc[0] != arc[1]), max_size=3 * n),
    st.permutations([(s, d) for s in range(n) for d in range(n)]))), st.data())
def test_path_toward_sums_the_route_delays_in_any_query_order(graph, data):
    """Directed random graphs, each arc on a link of its own, some arcs
    twice and some quantum: a channel goes on its link before or after the
    network holds the link, or later in a drawn order, after `env.init()`
    or after a round of lookups.  After each step, `channel_between` gives
    the first channel installed from sender to receiver (checked against a
    scan of the install order), and the path of every pair, queried in any
    order, is (the sum of those channels' delays along `route`, the
    channel into dst); dst unreachable or src itself raises."""
    n, arcs, order = graph
    env = SimEnv("paths")
    net = Network("n", env=env)
    nodes = [Node(f"n{i}", env=env) for i in range(n)]
    for node in nodes:
        net.install_node(node)
    installed = []
    later = ([], [])  # channels installed after env.init(), after a lookup round

    def install(link, channel):
        link.install_channel(channel)
        installed.append(channel)

    for i, (a, b, km, quantum, when) in enumerate(arcs):
        link = Link(f"l{i}", ends=(nodes[a], nodes[b]), env=env)
        kind = QuantumFiberChannel if quantum else ClassicalFiberChannel
        channel = kind(f"c{i}", nodes[a], nodes[b], km, env=env)
        if when == 0:
            install(link, channel)
        net.install_link(link)
        if when == 1:
            install(link, channel)
        elif when > 1:
            later[when - 2].append((link, channel))

    def first_installed(u, v, kind):
        return next((c for c in installed if isinstance(c, kind)
                     and c.sender is u and c.receiver is v), None)

    def check_lookups():
        net.compute_routes()
        adj = {u.name: sorted({v.name for v in nodes
                               if first_installed(u, v, ClassicalFiberChannel)})
               for u in nodes}
        for s, d in order:
            src, dst = nodes[s], nodes[d]
            for kind in (ClassicalFiberChannel, QuantumFiberChannel):
                expected = first_installed(src, dst, kind)
                if expected is None:
                    with pytest.raises(LookupError, match=f"no {kind.__name__}"):
                        net.channel_between(src, dst, kind)
                else:
                    assert net.channel_between(src, dst, kind) is expected
            path = net.route(src.name, dst.name)
            hops = _bfs_hops_from(adj, src.name).get(dst.name)
            assert (path is None) == (hops is None)
            if path is None or s == d:
                with pytest.raises(LookupError, match="no classical path"):
                    net.path_toward(src, dst.name)
                continue
            assert len(path) - 1 == hops
            channels = [first_installed(net.node(u), net.node(v), ClassicalFiberChannel)
                        for u, v in zip(path, path[1:])]
            assert net.path_toward(src, dst.name) == (
                sum(c.delay_ps for c in channels), channels[-1])

    env.init()
    for step in later:
        for link, channel in data.draw(st.permutations(step)):
            install(link, channel)
        check_lookups()


# ---- topology documents ---------------------------------------------------

TOPOLOGY = {
    "nodes": [
        {"name": "alice", "devices": [{"kind": "photon_source",
                                       "frequency": 1e6,
                                       "mean_photon_num": 0.2}]},
        {"name": "bob", "devices": [{"kind": "polarization_detector",
                                     "efficiency": 0.9}]},
    ],
    "links": [
        {"ends": ["alice", "bob"],
         "channels": [
             {"kind": "classical-fiber", "sender": "alice", "receiver": "bob",
              "distance_km": 10.0},
             {"kind": "quantum-fiber", "sender": "alice", "receiver": "bob",
              "distance_km": 10.0, "loss_db_per_km": 0.3},
         ]},
    ],
}


def test_topology_from_dict(env):
    net = load_topology_from(TOPOLOGY, env=env)
    alice = net.node("alice")
    assert alice.device_of_kind(PhotonSource).mean_photon_num == 0.2
    q = net.channel_between(alice, net.node("bob"), QuantumFiberChannel)
    assert q.loss_db == pytest.approx(3.0)


def test_topology_from_json_text(env):
    net = load_topology_from(json.dumps(TOPOLOGY), env=env)
    assert {n.name for n in net.nodes} == {"alice", "bob"}


def test_topology_from_file(tmp_path, env):
    p = tmp_path / "topo.json"
    p.write_text(json.dumps(TOPOLOGY))
    net = load_topology_from(p, env=env)
    assert len(net.links) == 1


def test_topology_unknown_device_kind(env):
    doc = {"nodes": [{"name": "a", "devices": [{"kind": "flux_capacitor"}]}]}
    with pytest.raises(TopologyError):
        load_topology_from(doc, env=env)


def test_topology_unknown_channel_node(env):
    doc = {"nodes": [{"name": "a"}, {"name": "b"}],
           "links": [{"ends": ["a", "b"],
                      "channels": [{"kind": "classical-fiber", "sender": "a",
                                    "receiver": "zz", "distance_km": 1}]}]}
    with pytest.raises(TopologyError):
        load_topology_from(doc, env=env)


def test_topology_negative_distance(env):
    doc = {"nodes": [{"name": "a"}, {"name": "b"}],
           "links": [{"ends": ["a", "b"],
                      "channels": [{"kind": "classical-fiber", "sender": "a",
                                    "receiver": "b", "distance_km": -1}]}]}
    with pytest.raises(TopologyError):
        load_topology_from(doc, env=env)


@pytest.mark.parametrize("link", [
    {"ends": ["a"]},
    {"ends": ["a", "a"]},
    {"ends": ["a", "b", "c"]},
    {"ends": ["a", "b"], "channels": [{"kind": "classical-fiber", "sender": "a",
                                       "receiver": "b", "distance_km": "5"}]},
    {"ends": ["a", "b"], "channels": [{"kind": "classical-fiber", "sender": "a",
                                       "receiver": "a", "distance_km": 1}]},
], ids=["one-end", "same-end-twice", "three-ends", "distance-as-text", "self-loop"])
def test_topology_malformed_link(env, link):
    doc = {"nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}], "links": [link]}
    with pytest.raises(TopologyError):
        load_topology_from(doc, env=env)


# ---- mobility -------------------------------------------------------------

def test_triangular_trajectory_shape():
    traj = triangular_trajectory(0, 100, 500, 1400)
    assert traj(0) == pytest.approx(1400)
    assert traj(50) == pytest.approx(500)
    assert traj(100) == pytest.approx(1400)
    assert traj(25) == pytest.approx(950)


def test_mobility_window_and_loss():
    mob = Mobility(triangular_trajectory(0, 100, 500, 1400), (0, 100),
                   [(500, 13), (1400, 30)])
    assert mob.satellite_pass(-1) is None
    assert mob.satellite_pass(101) is None
    d, loss = mob.satellite_pass(50)
    assert d == pytest.approx(500)
    assert loss == pytest.approx(13)
    # symmetric about the midpoint
    d1, _ = mob.satellite_pass(30)
    d2, _ = mob.satellite_pass(70)
    assert d1 == pytest.approx(d2)
