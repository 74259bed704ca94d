"""Photon-level device models installed on nodes."""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..des import Entity


class PhotonSource(Entity):
    """Pulsed photon source.

    Photon number per pulse is Poisson with mean `mean_photon_num`; an
    ideal single-photon source can be requested with
    `exact_photon_number=1`.
    """

    def __init__(self, name, frequency=1e6, wavelength=850.0,
                 mean_photon_num=0.1, exact_photon_number=None, env=None):
        super().__init__(name, env)
        if not 0 < frequency < math.inf:
            raise ValueError(f"frequency must be finite and positive, got {frequency!r}")
        if not 0 <= mean_photon_num < math.inf:
            raise ValueError("mean photon number must be finite and non-negative, "
                             f"got {mean_photon_num!r}")
        if exact_photon_number is not None and not (
                isinstance(exact_photon_number, numbers.Integral)
                and not isinstance(exact_photon_number, bool) and exact_photon_number >= 0):
            raise ValueError("exact photon number must be None or a non-negative int, "
                             f"got {exact_photon_number!r}")
        self.frequency = frequency  # pulses per second
        self.wavelength = wavelength  # nm
        self.mean_photon_num = mean_photon_num
        self.exact_photon_number = exact_photon_number

    @property
    def pulse_interval_ps(self) -> int:
        return round(1e12 / self.frequency)

    def photon_counts(self, pulses: int, rng=None) -> np.ndarray:
        rng = rng if rng is not None else self.rng
        if self.exact_photon_number is not None:
            return np.full(pulses, self.exact_photon_number, dtype=np.int64)
        return rng.poisson(self.mean_photon_num, size=pulses)


class PolarizationDetector(Entity):
    """Threshold detector with efficiency and Poisson dark counts."""

    def __init__(self, name, efficiency=1.0, dark_count_rate=0.0,
                 basis="Z", env=None):
        super().__init__(name, env)
        if not 0.0 <= efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0 <= dark_count_rate < math.inf:
            raise ValueError("dark count rate must be finite and non-negative, "
                             f"got {dark_count_rate!r}")
        self.efficiency = efficiency
        self.dark_count_rate = dark_count_rate  # counts per second
        self.basis = basis

    def dark_click_probability(self, window_s: float) -> float:
        # Poisson dark counts: P(>=1 count in window)
        return 1.0 - np.exp(-self.dark_count_rate * window_s)

    def detect_components(self, arriving_photons: np.ndarray, window_s: float,
                          rng=None):
        """Boolean (photon_clicks, dark_clicks) arrays for a pulse train."""
        rng = rng if rng is not None else self.rng
        photon_clicks = rng.binomial(arriving_photons, self.efficiency) > 0
        if self.dark_count_rate > 0:
            dark_clicks = rng.random(arriving_photons.shape) < \
                self.dark_click_probability(window_s)
        else:
            dark_clicks = np.zeros(arriving_photons.shape, dtype=bool)
        return photon_clicks, dark_clicks

    def detect(self, arriving_photons: np.ndarray, window_s: float,
               rng=None) -> np.ndarray:
        """Boolean click array: real detections OR dark counts."""
        photon_clicks, dark_clicks = self.detect_components(
            arriving_photons, window_s, rng)
        return photon_clicks | dark_clicks
