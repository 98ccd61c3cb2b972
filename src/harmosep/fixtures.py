"""Deterministic synthetic two-instrument test material.

Two contrasting timbres — a reed-like tone with fast-decaying partials
and a string-like tone with a 1/h sawtooth profile — play seeded random
monophonic melodies in disjoint pitch ranges.  The mixture is the exact
sample-wise sum of the reference tracks: all tracks are quantized to
multiples of 2^-14 so the sum stays exactly representable in 32-bit
float WAV files.
"""

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, synth_harmonic_tone
from .errors import DomainError

QUANTUM = 2.0 ** -14


@dataclass
class InstrumentSpec:
    name: str
    amplitudes: np.ndarray       # relative harmonic profile
    pitches_hz: np.ndarray       # selectable fundamentals
    b: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        self.pitches_hz = np.asarray(self.pitches_hz, dtype=np.float64)


def reed_spec():
    """Near-sinusoidal tone around C5..A5."""
    return InstrumentSpec(
        "reed",
        amplitudes=[1.0, 0.15, 0.04],
        pitches_hz=[523.25, 587.33, 659.26, 783.99, 880.0],
    )


def string_spec():
    """Sawtooth-like 1/h profile around G3..E4."""
    return InstrumentSpec(
        "string",
        amplitudes=1.0 / np.arange(1, 11),
        pitches_hz=[196.0, 220.0, 246.94, 293.66, 329.63],
    )


def render_melody(spec, duration_s, sample_rate_hz, seed, *,
                  note_s=0.5, gain=0.45, rest_prob=0.25):
    """A monophonic melody of random notes from the instrument's pitch
    set, with occasional rests, peak-quantized for exact summation."""
    if duration_s <= 0:
        raise DomainError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
    x = np.zeros(n)
    n_note = int(round(note_s * sample_rate_hz))
    start = 0
    while start < n:
        rest = rng.random() < rest_prob
        f1 = float(rng.choice(spec.pitches_hz))
        if not rest:
            tone = synth_harmonic_tone(f1, spec.amplitudes, spec.b,
                                       note_s, sample_rate_hz)
            stop = min(start + n_note, n)
            x[start:stop] += tone.samples[:stop - start]
        start += n_note
    x = np.round(x * gain / QUANTUM) * QUANTUM
    return AudioClip(x, sample_rate_hz)


def two_instrument_fixture(duration_s=20.0, sample_rate_hz=48000, seed=0):
    """Returns ``(mixture, [reference_0, reference_1])``; the mixture is
    the exact sample-wise sum of the references."""
    refs = [render_melody(reed_spec(), duration_s, sample_rate_hz,
                          seed=1000 + seed),
            render_melody(string_spec(), duration_s, sample_rate_hz,
                          seed=2000 + seed)]
    mix = AudioClip(refs[0].samples + refs[1].samples, sample_rate_hz)
    return mix, refs


def octave_overlap_fixture(duration_s=2.0, sample_rate_hz=48000):
    """Both instruments sustain a single note an octave apart, so the
    lower tone's even partials coincide with the upper tone's; a known
    hard case kept for regression testing."""
    upper = synth_harmonic_tone(523.25, reed_spec().amplitudes, 0.0,
                                duration_s, sample_rate_hz)
    lower = synth_harmonic_tone(261.625, string_spec().amplitudes, 0.0,
                                duration_s, sample_rate_hz)
    refs = []
    for clip in (upper, lower):
        x = np.round(clip.samples * 0.45 / QUANTUM) * QUANTUM
        refs.append(AudioClip(x, sample_rate_hz))
    mix = AudioClip(refs[0].samples + refs[1].samples, sample_rate_hz)
    return mix, refs
