"""Audio ingestion, log-mel features, and synthetic speaker corpora.

Audio enters as 16 kHz mono PCM16 WAV and is turned into 40-band log-mel
sequences (25 ms window, 10 ms hop). For desk-scale runs the synthetic
generator replaces featurization entirely: it emits 40-dim "feature" frames
built from per-speaker identity vectors plus utterance and frame noise.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
N_MELS = 40
WIN_SAMPLES = 400  # 25 ms at 16 kHz
HOP_SAMPLES = 160  # 10 ms at 16 kHz
N_FFT = 512
FMIN_HZ = 0.0
FMAX_HZ = 8000.0
LOG_FLOOR = 1e-10
CMVN_STD_FLOOR = 1e-8
SPEAKER_SCALE = 1.0  # std of a synthetic speaker's identity vector
FRAME_NOISE = 0.05  # std of synthetic frame noise around its utterance center


class WavError(ValueError):
    """Malformed or unsupported WAV payload."""


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AudioClip:
    """Mono 16 kHz waveform with amplitudes in [-1, 1]: `parse_wav` checks the rate,
    `extract_logmel` rejects samples it cannot frame or that give non-finite features."""

    samples: np.ndarray
    speaker_label: str
    utterance_id: str


@dataclass(frozen=True)
class FeatureSequence:
    """T x 40 feature frames for one utterance."""

    frames: np.ndarray
    speaker_label: str
    utterance_id: str

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[1] != N_MELS:
            raise ValueError(f"features must be (T, {N_MELS}), got {frames.shape}")
        if frames.shape[0] < 1:
            raise ValueError("features need at least one frame")
        if not np.all(np.isfinite(frames)):
            raise ValueError("features must be finite")

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])


@dataclass
class Dataset:
    """Speaker label -> utterance list, tagged by role (train/eval/attacker)."""

    speakers: Dict[str, List[FeatureSequence]]
    role_tag: str

    def __post_init__(self) -> None:
        if self.role_tag not in ("train", "eval", "attacker"):
            raise ValueError(f"unknown role tag: {self.role_tag!r}")
        owners: Dict[str, str] = {}  # utterance id -> speaker: ids key the attacker pool
        for label, utts in self.speakers.items():
            if not utts:
                raise ValueError(f"speaker {label!r} has no utterances")
            for utt in utts:
                if utt.speaker_label != label:
                    raise ValueError(
                        f"utterance {utt.utterance_id!r} labelled {utt.speaker_label!r} "
                        f"stored under {label!r}"
                    )
                if utt.utterance_id in owners:
                    raise ValueError(f"utterance id {utt.utterance_id!r} repeats under speakers "
                                     f"{owners[utt.utterance_id]!r} and {label!r}")
                owners[utt.utterance_id] = label

    @property
    def labels(self) -> List[str]:
        return sorted(self.speakers)

    @property
    def n_speakers(self) -> int:
        return len(self.speakers)

    def utterances(self) -> Iterator[FeatureSequence]:
        for label in self.labels:
            yield from self.speakers[label]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic Gaussian speaker corpus."""

    n_speakers: int
    utts_per_speaker: int
    frames_per_utt: int
    utt_noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_speakers < 1 or self.utts_per_speaker < 1 or self.frames_per_utt < 1:
            raise ValueError("SynthSpec counts must be positive")
        if not 0 <= self.utt_noise < np.inf:  # not NaN
            raise ValueError("SynthSpec utt_noise must be non-negative and finite")


# ---------------------------------------------------------------------------
# WAV parsing
# ---------------------------------------------------------------------------


def parse_wav(data: bytes, speaker_label: str = "", utterance_id: str = "") -> AudioClip:
    """Decode mono 16 kHz PCM16 RIFF/WAVE bytes into an AudioClip.

    Rejects non-PCM encodings, multi-channel audio, wrong sample rates, and
    files whose data chunk is shorter than its declared size.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavError("not a RIFF/WAVE file")
    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = data[offset + 8 : offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavError("data chunk shorter than declared size")
            payload = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise WavError("missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise WavError(f"unsupported encoding {audio_format} (PCM required)")
    if channels != 1:
        raise WavError(f"mono audio required, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise WavError(f"sample rate must be {SAMPLE_RATE}, got {rate}")
    if bits != 16:
        raise WavError(f"16-bit PCM required, got {bits}-bit")
    raw = np.frombuffer(payload[: len(payload) - (len(payload) % 2)], dtype="<i2")
    samples = raw.astype(np.float64) / 32768.0
    return AudioClip(samples, speaker_label, utterance_id)


# ---------------------------------------------------------------------------
# log-mel features
# ---------------------------------------------------------------------------


def hz_to_mel(freq_hz):
    """Convert Hz to mel: mel(f) = 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular mel filters (40 x 257), linear in mel from 0 to 8 kHz; built
    once and read-only."""
    bin_freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    bin_mels = hz_to_mel(bin_freqs)
    points = np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2)
    bank = np.zeros((N_MELS, bin_freqs.size))
    for i in range(N_MELS):
        left, center, right = points[i], points[i + 1], points[i + 2]
        rising = (bin_mels - left) / (center - left)
        falling = (right - bin_mels) / (right - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


_HANN = np.hanning(WIN_SAMPLES)
_HANN.flags.writeable = False


def extract_logmel(clip: AudioClip) -> FeatureSequence:
    """40-band log-mel features: 400-sample Hann frames, hop 160, 512-pt FFT.

    Frame count is 1 + floor((len - 400) / 160); energies are floored at 1e-10
    before the natural log.
    """
    samples = clip.samples
    if samples.size < WIN_SAMPLES:
        raise ValueError(f"clip shorter than one window ({samples.size} < {WIN_SAMPLES})")
    frames = sliding_window_view(samples, WIN_SAMPLES)[::HOP_SAMPLES] * _HANN
    spectrum = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = np.abs(spectrum) ** 2
    energies = power @ mel_filterbank().T
    logmel = np.log(np.maximum(energies, LOG_FLOOR))
    return FeatureSequence(logmel, clip.speaker_label, clip.utterance_id)


def cmvn(features: FeatureSequence) -> FeatureSequence:
    """Per-utterance, per-coefficient mean/variance normalization.

    Coefficients whose std falls below 1e-8 are centered but not scaled.
    """
    frames = features.frames
    if frames.shape[0] < 2:
        raise ValueError("CMVN needs at least 2 frames")
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    centered = frames - mean
    scale = np.where(std > CMVN_STD_FLOOR, std, 1.0)
    return FeatureSequence(centered / scale, features.speaker_label, features.utterance_id)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def synth_dataset(spec: SynthSpec, role_tag: str = "train") -> Dataset:
    """Gaussian speakers: identity v_j, utterance = v_j + utt noise, frames on top."""
    rng = np.random.default_rng(spec.seed)
    width = max(3, len(str(spec.n_speakers - 1)))
    speakers: Dict[str, List[FeatureSequence]] = {}
    for j in range(spec.n_speakers):
        label = f"spk{j:0{width}d}"
        identity = rng.normal(0.0, SPEAKER_SCALE, N_MELS)
        utts = []
        for i in range(spec.utts_per_speaker):
            utt_center = identity + rng.normal(0.0, spec.utt_noise, N_MELS)
            frames = utt_center + rng.normal(0.0, FRAME_NOISE, (spec.frames_per_utt, N_MELS))
            utts.append(FeatureSequence(frames, label, f"{label}_u{i:02d}"))
        speakers[label] = utts
    return Dataset(speakers, role_tag)


def split_labels(labels, n_eval_speakers: int, seed: int) -> Tuple[List[str], List[str]]:
    """Seeded speaker-disjoint split of `labels` into sorted (train, eval) label lists."""
    labels = sorted(labels)
    if not 0 < n_eval_speakers < len(labels):
        raise ValueError(
            f"n_eval_speakers must be in (0, {len(labels)}), got {n_eval_speakers}"
        )
    # indices, not a numpy string array, which would drop a label's trailing NULs
    order = np.random.default_rng(seed).permutation(len(labels))
    eval_labels = {labels[i] for i in order[:n_eval_speakers]}
    return ([lab for lab in labels if lab not in eval_labels],
            [lab for lab in labels if lab in eval_labels])


def split_dataset(data: Dataset, n_eval_speakers: int, seed: int) -> Tuple[Dataset, Dataset]:
    """Seeded speaker-disjoint split into (train, eval) datasets, by `split_labels`."""
    train, held_out = split_labels(data.speakers, n_eval_speakers, seed)
    return (Dataset({lab: data.speakers[lab] for lab in train}, "train"),
            Dataset({lab: data.speakers[lab] for lab in held_out}, "eval"))


# ---------------------------------------------------------------------------
# feature cache (binary, one file per split)
# ---------------------------------------------------------------------------

CACHE_MAGIC = b"UVXFEATS 1\n"


def write_feature_cache(data: Dataset, path) -> Tuple[str, int]:
    """Write the `UVXFEATS 1` magic line, then per utterance a `utt <id> <speaker> <T> 40`
    header line and its T x 40 frames as raw little-endian float64 (a bit-exact round
    trip), streamed from the arrays uncopied; returns `write_hashed`'s digest and size."""
    parts: List = [CACHE_MAGIC]
    for utt in data.utterances():
        for token in (utt.utterance_id, utt.speaker_label):
            if not token or any(ch.isspace() for ch in token):
                raise ValueError(f"cache ids must be non-empty and whitespace-free: {token!r}")
        header = f"utt {utt.utterance_id} {utt.speaker_label} {utt.n_frames} {N_MELS}\n"
        parts.append(header.encode("utf-8"))
        parts.append(np.ascontiguousarray(utt.frames, "<f8"))
    return write_hashed(path, parts)


def write_hashed(path, parts: List) -> Tuple[str, int]:
    """Write buffers `parts` to `path` in turn, uncopied; returns their SHA-256 and size."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            digest.update(part)
    return digest.hexdigest(), sum(memoryview(part).nbytes for part in parts)


def read_feature_cache(path, role_tag: str) -> Dataset:
    """Inverse of write_feature_cache, each utterance's frames a read-only view into
    the file's bytes; a malformed file raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CACHE_MAGIC):
        raise ValueError(f"{path}: not a UVXFEATS 1 feature cache")
    speakers: Dict[str, List[FeatureSequence]] = {}
    pos = len(CACHE_MAGIC)
    while pos < len(blob):
        end = blob.find(b"\n", pos)
        if end < 0:
            raise ValueError(f"cache header at byte {pos} has no line end")
        line = blob[pos:end].decode("utf-8")
        header = line.split()
        if len(header) != 5 or header[0] != "utt":
            raise ValueError(f"bad cache header at byte {pos}: {line!r}")
        _, utt_id, label, n_frames_s, n_coeffs_s = header
        n_frames, n_coeffs = int(n_frames_s), int(n_coeffs_s)
        if n_coeffs != N_MELS:
            raise ValueError(f"cache declares {n_coeffs} coefficients, expected {N_MELS}")
        if n_frames < 1:
            raise ValueError(f"cache declares {n_frames} frames for utterance {utt_id!r}")
        pos = end + 1
        count = n_frames * N_MELS
        if len(blob) - pos < 8 * count:
            raise ValueError(f"cache truncated inside utterance {utt_id!r}")
        frames = np.frombuffer(blob, "<f8", count, pos).reshape(n_frames, N_MELS)
        speakers.setdefault(label, []).append(FeatureSequence(frames, label, utt_id))
        pos += 8 * count
    return Dataset(speakers, role_tag)
