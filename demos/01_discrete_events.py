"""Discrete-event basics: entities, scheduling, determinism.

Two entities ping each other across virtual time (integer picoseconds).
Run it twice with the same seed and the printed traces are identical;
change the seed and the jitter changes with it.
"""

from qnetsim.des import Entity, SimEnv


class Ping(Entity):
    def __init__(self, name, peer_name=None, env=None):
        super().__init__(name, env)
        self.peer_name = peer_name
        self.peer = None

    def _init(self):
        if self.peer_name is not None:
            self.env.schedule_after(1_000, self, "send", 0)

    def send(self, hop):
        if hop >= 6:
            return
        jitter = int(self.rng.integers(1_000, 10_000))
        print(f"t={self.env.now:>6} ps  {self.name} -> {self.peer.name} (hop {hop})")
        self.env.schedule_after(jitter, self.peer, "send", hop + 1)


def main():
    env = SimEnv("demo", seed=42)
    a = Ping("alice", peer_name="bob", env=env)
    b = Ping("bob", env=env)
    a.peer, b.peer = b, a

    env.init()
    report = env.run()
    print(f"\nexecuted {report.events_executed} events, "
          f"final virtual time {report.final_time} ps")
    print("replaying with the same seed reproduces this byte for byte.")


if __name__ == "__main__":
    main()
