"""Node mobility: time-varying distance to a fixed ground node."""

from __future__ import annotations

from .channel import loss_interpolator


def triangular_trajectory(t0_ps, t1_ps, min_distance_km, max_distance_km):
    """Symmetric pass: distance falls linearly to the closest approach at
    the window midpoint and rises back."""
    mid = (t0_ps + t1_ps) / 2
    half = (t1_ps - t0_ps) / 2

    def trajectory(t_ps):
        frac = abs(t_ps - mid) / half
        return min_distance_km + frac * (max_distance_km - min_distance_km)

    return trajectory


class Mobility:
    """Loadable mobility functionality for a node (e.g. a satellite).

    Outside the visibility window the link is down: `satellite_pass`
    returns None.
    """

    def __init__(self, trajectory, window, loss_table):
        self.trajectory = trajectory
        self.window = tuple(window)  # (t0_ps, t1_ps)
        self.loss_table = list(loss_table)  # [(distance_km, loss_db), ...]
        self.loss_db = loss_interpolator(self.loss_table)

    def in_window(self, t_ps) -> bool:
        t0, t1 = self.window
        return t0 <= t_ps <= t1

    def distance_km(self, t_ps) -> float:
        return float(self.trajectory(t_ps))

    def satellite_pass(self, t_ps):
        """(distance km, loss dB) at time t, or None outside the window."""
        if not self.in_window(t_ps):
            return None
        d = self.distance_km(t_ps)
        return d, self.loss_db(d)
