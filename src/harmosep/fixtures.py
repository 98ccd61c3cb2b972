"""Deterministic synthetic two-instrument test material.

Two contrasting timbres — a reed-like tone with fast-decaying partials
and a string-like tone with a 1/h sawtooth profile — play seeded random
monophonic melodies in disjoint pitch ranges (see the constants below).
The mixture is the exact sample-wise sum of the reference tracks: all
tracks are quantized to multiples of 2^-14 so the sum stays exactly
representable in 32-bit float WAV files.
"""

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, sample_count, synth_harmonic_tone

QUANTUM = 2.0 ** -14
SAMPLE_RATE_HZ = 48000
NOTE_S = 0.5            # note length
REST_PROB = 0.25        # chance that a note slot is silent
GAIN = 0.45             # scale of every track


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


def render_melody(spec, duration_s, seed):
    """A monophonic melody of random notes from the instrument's pitch
    set, with occasional rests, peak-quantized for exact summation."""
    n = sample_count(duration_s, SAMPLE_RATE_HZ)
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    n_note = int(round(NOTE_S * SAMPLE_RATE_HZ))
    start = 0
    while start < n:
        rest = rng.random() < REST_PROB
        f1 = float(rng.choice(spec.pitches_hz))
        if not rest:
            tone = synth_harmonic_tone(f1, spec.amplitudes, spec.b,
                                       NOTE_S, SAMPLE_RATE_HZ)
            stop = min(start + n_note, n)
            x[start:stop] += tone.samples[:stop - start]
        start += n_note
    x = np.round(x * GAIN / QUANTUM) * QUANTUM
    return AudioClip(x, SAMPLE_RATE_HZ)


def two_instrument_fixture(duration_s=20.0, seed=0):
    """Returns ``(mixture, [reference_0, reference_1])``; the mixture is
    the exact sample-wise sum of the references."""
    refs = [render_melody(reed_spec(), duration_s, seed=1000 + seed),
            render_melody(string_spec(), duration_s, seed=2000 + seed)]
    mix = AudioClip(refs[0].samples + refs[1].samples, SAMPLE_RATE_HZ)
    return mix, refs


def octave_overlap_fixture(duration_s=2.0):
    """Both instruments sustain a single note an octave apart, so the
    lower tone's even partials coincide with the upper tone's; a known
    hard case kept for regression testing."""
    upper = synth_harmonic_tone(523.25, reed_spec().amplitudes, 0.0,
                                duration_s, SAMPLE_RATE_HZ)
    lower = synth_harmonic_tone(261.625, string_spec().amplitudes, 0.0,
                                duration_s, SAMPLE_RATE_HZ)
    refs = []
    for clip in (upper, lower):
        x = np.round(clip.samples * GAIN / QUANTUM) * QUANTUM
        refs.append(AudioClip(x, SAMPLE_RATE_HZ))
    mix = AudioClip(refs[0].samples + refs[1].samples, SAMPLE_RATE_HZ)
    return mix, refs
