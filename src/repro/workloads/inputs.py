"""Deterministic synthetic input generation.

MediaBench ships real audio clips; those are not redistributable, so the
experiments use a synthetic speech-like signal: a sum of gliding
formant-band sinusoids, amplitude-modulated at a syllabic rate, plus
noise.  What matters for branch behaviour is that successive samples are
correlated but sign- and magnitude-diverse — the quantizer's
table-search and sign branches then behave like they do on speech.

All generators are pure functions of (n, seed): every experiment is
exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: :func:`speech_like` waveforms per ``(n, seed, amplitude)``, oldest
#: first.  A spec's cache key and its run each ask for the input, and a
#: sweep asks once per design point; the cap keeps a process that walks
#: many seeds from holding more than a few inputs.
_SPEECH_MEMO: Dict[tuple, Tuple[int, ...]] = {}
_SPEECH_MEMO_CAP = 4


def speech_like(n: int, seed: int = 1234, amplitude: int = 8000) -> List[int]:
    """``n`` int16 samples of a speech-like synthetic waveform.

    Each waveform is generated once per process (:data:`_SPEECH_MEMO`);
    each call returns a fresh list, which the caller may change.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    key = (n, seed, amplitude)
    wave = _SPEECH_MEMO.get(key)
    if wave is None:
        wave = _speech_like(n, seed, amplitude)
        if len(_SPEECH_MEMO) >= _SPEECH_MEMO_CAP:
            del _SPEECH_MEMO[next(iter(_SPEECH_MEMO))]
        _SPEECH_MEMO[key] = wave
    return list(wave)


def _speech_like(n: int, seed: int, amplitude: int) -> Tuple[int, ...]:
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    # three gliding "formants"
    f1 = 0.021 + 0.008 * np.sin(2 * np.pi * t / 4000.0)
    f2 = 0.063 + 0.015 * np.sin(2 * np.pi * t / 5700.0 + 1.0)
    f3 = 0.141 + 0.020 * np.sin(2 * np.pi * t / 3400.0 + 2.0)
    sig = (1.00 * np.sin(2 * np.pi * np.cumsum(f1))
           + 0.55 * np.sin(2 * np.pi * np.cumsum(f2))
           + 0.30 * np.sin(2 * np.pi * np.cumsum(f3)))
    # syllabic amplitude envelope
    env = 0.35 + 0.65 * (0.5 + 0.5 * np.sin(2 * np.pi * t / 1900.0))
    sig = sig * env + 0.05 * rng.standard_normal(n)
    sig = sig / np.max(np.abs(sig))
    return tuple(np.clip(sig * amplitude, -32768, 32767)
                 .astype(np.int64).tolist())


def step_pattern(n: int, seed: int = 99, amplitude: int = 12000,
                 hold: int = 37) -> List[int]:
    """Piecewise-constant random levels — a torture test for the
    quantizer's largest-cell branches (large jumps, long flats)."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    levels = rng.integers(-amplitude, amplitude + 1,
                          size=(n + hold - 1) // hold)
    out = np.repeat(levels, hold)[:n]
    return [int(v) for v in out]
