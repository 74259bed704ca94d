"""Protocol stacks: layered collections of protocols loaded onto nodes."""

from __future__ import annotations


class Protocol:
    """One layer of a protocol stack.

    Messages travel between adjacent layers via send_upper/send_lower and
    across the network between peer protocols via the owning node's
    channels.
    """

    def __init__(self, name):
        self.name = name
        self.stack = None
        self.upper = []
        self.lower = []

    @property
    def node(self):
        return self.stack.owner_node if self.stack else None

    @property
    def env(self):
        return self.node.env

    def send_upper(self, msg, **kwargs):
        for proto in self.upper:
            proto.handle_lower(self, msg, **kwargs)

    def send_lower(self, msg, **kwargs):
        for proto in self.lower:
            proto.handle_upper(self, msg, **kwargs)

    # hooks
    def handle_upper(self, sender, msg, **kwargs):
        pass

    def handle_lower(self, sender, msg, **kwargs):
        pass

    def handle_classical(self, msg, src):
        pass

    def handle_quantum(self, qubit, src):
        pass


class ProtocolStack:
    def __init__(self, name):
        self.name = name
        self.protocols = []
        self.owner_node = None

    def build(self, relations):
        """Define the hierarchy from (upper, lower) protocol pairs."""
        for upper, lower in relations:
            for proto in (upper, lower):
                if proto not in self.protocols:
                    self.protocols.append(proto)
                    proto.stack = self
            upper.lower.append(lower)
            lower.upper.append(upper)
        return self

    def handle_classical(self, msg, src):
        for proto in self.protocols:
            proto.handle_classical(msg, src)

    def handle_quantum(self, qubit, src):
        for proto in self.protocols:
            proto.handle_quantum(qubit, src)
