"""Protocol stacks: layered collections of protocols loaded onto nodes."""

from __future__ import annotations


class Protocol:
    """One layer of a protocol stack.

    Messages travel between adjacent layers via send_upper/send_lower and
    across the network between peer protocols via the owning node's
    channels.  Loading a stack onto a node sets each layer's `node`.
    """

    def __init__(self, name):
        self.name = name
        self.node = None
        self.upper = []
        self.lower = []

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


class ProtocolStack:
    def __init__(self, name):
        self.name = name
        self.protocols = []

    def build(self, relations):
        """Define the hierarchy from (upper, lower) protocol pairs."""
        for upper, lower in relations:
            for proto in (upper, lower):
                if proto not in self.protocols:
                    self.protocols.append(proto)
            upper.lower.append(lower)
            lower.upper.append(upper)
        return self
