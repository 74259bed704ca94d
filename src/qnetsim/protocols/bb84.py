"""BB84 and decoy-state BB84 key generation.

Photon-level statistics are evaluated in one vectorized pass over the
pulse train: source photon numbers, per-photon channel survival,
detector efficiency and dark counts, then basis sifting.  The nodes must
be joined by a quantum channel (sender -> receiver) and hold a
PhotonSource / PolarizationDetector respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netmodel.channel import QuantumFiberChannel
from ..netmodel.devices import PhotonSource, PolarizationDetector


@dataclass
class BB84Result:
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    qber: float
    pulses: int
    detections: int

    @property
    def sifted_length(self):
        return len(self.sifted_alice)

    @property
    def detection_rate(self):
        return self.detections / self.pulses


@dataclass
class DecoyResult:
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    qber: float
    per_intensity: dict = field(default_factory=dict)  # label -> stats dict

    @property
    def sifted_length(self):
        return len(self.sifted_alice)


def _require_hardware(alice, bob):
    source = alice.device_of_kind(PhotonSource)
    detector = bob.device_of_kind(PolarizationDetector)
    if source is None:
        raise RuntimeError(f"node {alice.name!r} has no photon source")
    if detector is None:
        raise RuntimeError(f"node {bob.name!r} has no polarization detector")
    channel = alice.channel_to(bob, QuantumFiberChannel)
    return source, detector, channel


def _pulse_statistics(source, detector, channel, photon_numbers, rng):
    """(photon_clicks, dark_clicks) masks for a pulse train."""
    survival = channel.survival_probability
    arriving = rng.binomial(photon_numbers, survival)
    window = 1.0 / source.frequency
    return detector.detect_components(arriving, window, rng)


def _sift(bits_a, bases_a, photon_clicks, dark_clicks, rng):
    pulses = len(bits_a)
    bases_b = rng.integers(0, 2, pulses)
    # measured bit: matching basis reads the encoded bit; mismatched basis
    # or a dark-count-only click is uniformly random
    random_bits = rng.integers(0, 2, pulses)
    faithful = (bases_b == bases_a) & photon_clicks
    bits_b = np.where(faithful, bits_a, random_bits)
    sift_mask = (photon_clicks | dark_clicks) & (bases_b == bases_a)
    return bits_b, sift_mask


def bb84_generate(alice, bob, pulses, rng=None):
    """Run BB84 over `pulses` pulses; returns sifted keys and QBER."""
    if pulses <= 0:
        raise ValueError("BB84 needs a positive number of pulses")
    source, detector, channel = _require_hardware(alice, bob)
    rng = rng if rng is not None else alice.env.rng_for(f"bb84:{alice.name}:{bob.name}")

    bits_a = rng.integers(0, 2, pulses)
    bases_a = rng.integers(0, 2, pulses)
    photons = source.photon_counts(pulses, rng)
    photon_clicks, dark_clicks = _pulse_statistics(
        source, detector, channel, photons, rng)
    clicks = photon_clicks | dark_clicks
    bits_b, sift_mask = _sift(bits_a, bases_a, photon_clicks, dark_clicks, rng)

    sifted_a = bits_a[sift_mask]
    sifted_b = bits_b[sift_mask]
    qber = float(np.mean(sifted_a != sifted_b)) if len(sifted_a) else 0.0
    return BB84Result(sifted_alice=sifted_a, sifted_bob=sifted_b, qber=qber,
                      pulses=pulses, detections=int(clicks.sum()))


def decoy_bb84_generate(alice, bob, pulses, intensities, probabilities, rng=None):
    """Decoy-state BB84: random per-pulse intensity, per-class statistics.

    `intensities` maps class label (e.g. signal/decoy/vacuum) to mean
    photon number; `probabilities` gives the matching choice weights.
    The sifted key is built from the signal class (the first label).
    """
    if pulses <= 0:
        raise ValueError("decoy BB84 needs a positive number of pulses")
    labels = list(intensities)
    probs = np.array([probabilities[label] for label in labels], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any():
        raise ValueError("intensity probabilities must be a distribution")
    source, detector, channel = _require_hardware(alice, bob)
    rng = rng if rng is not None else alice.env.rng_for(
        f"decoy-bb84:{alice.name}:{bob.name}")

    choice = rng.choice(len(labels), size=pulses, p=probs)
    mus = np.array([intensities[label] for label in labels])[choice]
    photons = rng.poisson(mus)
    bits_a = rng.integers(0, 2, pulses)
    bases_a = rng.integers(0, 2, pulses)
    photon_clicks, dark_clicks = _pulse_statistics(
        source, detector, channel, photons, rng)
    clicks = photon_clicks | dark_clicks
    bits_b, sift_mask = _sift(bits_a, bases_a, photon_clicks, dark_clicks, rng)

    per_intensity = {}
    for i, label in enumerate(labels):
        in_class = choice == i
        sent = int(in_class.sum())
        detected = int((clicks & in_class).sum())
        sifted = in_class & sift_mask
        errors = int((bits_a[sifted] != bits_b[sifted]).sum())
        per_intensity[label] = {
            "pulses": sent,
            "detections": detected,
            "gain": detected / sent if sent else 0.0,
            "sifted": int(sifted.sum()),
            "qber": errors / sifted.sum() if sifted.sum() else 0.0,
        }

    signal_mask = (choice == 0) & sift_mask
    sifted_a = bits_a[signal_mask]
    sifted_b = bits_b[signal_mask]
    qber = float(np.mean(sifted_a != sifted_b)) if len(sifted_a) else 0.0
    return DecoyResult(sifted_alice=sifted_a, sifted_bob=sifted_b, qber=qber,
                       per_intensity=per_intensity)
