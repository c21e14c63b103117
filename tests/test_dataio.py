"""Data-layer tests: WAV decoding, log-mel DSP identities, the synthetic
corpus, and the binary feature cache."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from univox.dataio import (
    HOP_SAMPLES,
    LOG_FLOOR,
    N_MELS,
    SAMPLE_RATE,
    WIN_SAMPLES,
    CACHE_MAGIC,
    AudioClip,
    Dataset,
    FeatureSequence,
    SynthSpec,
    WavError,
    cmvn,
    extract_logmel,
    hz_to_mel,
    mel_filterbank,
    parse_wav,
    read_feature_cache,
    split_dataset,
    synth_dataset,
    write_feature_cache,
    write_hashed,
)


def wav_bytes(samples, rate=SAMPLE_RATE, channels=1, bits=16, audio_format=1,
              with_odd_chunk=False, short_data=False):
    """Assemble RIFF/WAVE bytes around int16 samples."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if with_odd_chunk:
        body += b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # word-aligned pad
    declared = len(data) + 4 if short_data else len(data)
    body += b"data" + struct.pack("<I", declared) + data
    return riff(body)


def riff(body):
    """A RIFF/WAVE file around chunk bytes, its size field true."""
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def sine_clip(freq_hz, seconds=0.5, amplitude=0.5):
    t = np.arange(int(SAMPLE_RATE * seconds)) / SAMPLE_RATE
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), "spk", "utt")


class TestWavParsing:
    def test_round_trip_scaling(self):
        """PCM16 decodes to value / 32768 in [-1, 1]."""
        samples = np.array([0, 1, -1, 32767, -32768], dtype=np.int16)
        clip = parse_wav(wav_bytes(samples), "spk", "utt")
        np.testing.assert_allclose(clip.samples, samples / 32768.0, atol=0)
        assert clip.speaker_label == "spk" and clip.utterance_id == "utt"

    def test_skips_unknown_odd_sized_chunks(self):
        """Chunks are word-aligned; an odd-sized LIST must not desync data."""
        samples = np.arange(-50, 50, dtype=np.int16)
        clip = parse_wav(wav_bytes(samples, with_odd_chunk=True))
        np.testing.assert_allclose(clip.samples, samples / 32768.0, atol=0)

    def test_rejects_malformed_files(self):
        """Each is one WavError with a message. The RIFF size bounds the chunks
        read, so a size field of 0 hides them all; the RIFF spec puts `fmt ` first."""
        samples = np.zeros(16, dtype=np.int16)
        good = wav_bytes(samples)
        fmt, data = good[12:36], good[36:]
        bad = (
            b"RIFX" + good[4:],                             # wrong magic
            wav_bytes(samples, audio_format=3),             # float PCM
            wav_bytes(samples, channels=2),                 # stereo
            wav_bytes(samples, rate=8000),                  # wrong rate
            wav_bytes(samples, bits=8),                     # 8-bit
            wav_bytes(samples, short_data=True),            # truncated data chunk
            b"RIFF\x04\x00\x00\x00WAVE",                    # no chunks
            good[:4] + struct.pack("<I", 0) + good[8:],     # RIFF size 0
            riff(data + fmt),                               # data before fmt
            riff(b"fmt " + struct.pack("<I", 14) + fmt[8:22] + data),  # no bits field
        )
        for payload in bad:
            with pytest.raises(WavError) as refused:
                parse_wav(payload)
            assert str(refused.value)

    def test_reads_left_justified_samples_and_the_first_data_chunk(self):
        """12 valid bits in 2-byte samples decode as int16, as left-justified
        PCM stores them, and of two data chunks the first is read."""
        samples = np.arange(-8, 8, dtype=np.int16) * 16
        second = b"data" + struct.pack("<I", 4) + b"\x01\x00\x02\x00"
        for payload in (wav_bytes(samples, bits=12), riff(wav_bytes(samples)[12:] + second)):
            np.testing.assert_array_equal(parse_wav(payload).samples, samples / 32768.0)

    def test_audio_clip_validation(self):
        """A clip is checked where it is read: `parse_wav` refuses any rate but
        16 kHz (the 8 kHz payload above), and `extract_logmel` a clip shorter than
        one window (2 x 4); numpy's `sliding_window_view` refuses a 2-D clip
        (2 x 400). `parse_wav`'s samples are int16 / 32768, never NaN or inf."""
        for samples in (np.zeros((2, 4)), np.zeros((2, WIN_SAMPLES))):
            with pytest.raises(ValueError):
                extract_logmel(AudioClip(samples, "s", "u"))


class TestMelScale:
    def test_known_value_and_inverse(self):
        """mel(700 Hz) = 2595 * log10(2); f = 700 * (10 ** (m / 2595) - 1)
        inverts hz_to_mel."""
        np.testing.assert_allclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0), rtol=1e-12)
        assert hz_to_mel(0.0) == 0.0
        freqs = np.linspace(0, 8000, 100)
        np.testing.assert_allclose(700.0 * (10.0 ** (hz_to_mel(freqs) / 2595.0) - 1.0), freqs,
                                   atol=1e-8)

    def test_filterbank_structure(self):
        """40 triangular filters over 257 bins: non-negative, each non-empty,
        peak bins strictly increasing."""
        bank = mel_filterbank()
        assert bank.shape == (N_MELS, 257)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)
        peaks = bank.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)


class TestLogMel:
    def test_frame_count(self):
        """Frames = 1 + floor((len - 400) / 160) for 25 ms / 10 ms framing."""
        for n_samples in (WIN_SAMPLES, WIN_SAMPLES + 1, WIN_SAMPLES + HOP_SAMPLES,
                          SAMPLE_RATE):
            clip = AudioClip(np.random.default_rng(0).normal(0, 0.1, n_samples), "s", "u")
            feats = extract_logmel(clip)
            assert feats.n_frames == 1 + (n_samples - WIN_SAMPLES) // HOP_SAMPLES
            assert feats.frames.shape[1] == N_MELS

    def test_matches_the_direct_formula_bit_for_bit(self):
        """Strided framing with the shared Hann window gives the bytes of
        the gathered-index formula built afresh for every clip, at three
        clip lengths, twice each (the window is read-only and reused)."""
        rng = np.random.default_rng(11)
        for n_samples in (WIN_SAMPLES, WIN_SAMPLES + 119 * HOP_SAMPLES, 7_777):
            samples = rng.normal(0, 0.1, n_samples)
            n_frames = 1 + (n_samples - WIN_SAMPLES) // HOP_SAMPLES
            idx = np.arange(WIN_SAMPLES)[None, :] + HOP_SAMPLES * np.arange(n_frames)[:, None]
            frames = samples[idx] * np.hanning(WIN_SAMPLES)[None, :]
            power = np.abs(np.fft.rfft(frames, n=512, axis=1)) ** 2
            want = np.log(np.maximum(power @ mel_filterbank().T, LOG_FLOOR))
            for _ in range(2):
                got = extract_logmel(AudioClip(samples, "s", "u")).frames
                assert got.tobytes() == want.tobytes()

    def test_too_short_rejected(self):
        clip = AudioClip(np.zeros(WIN_SAMPLES - 1), "s", "u")
        with pytest.raises(ValueError):
            extract_logmel(clip)

    def test_sine_peaks_in_matching_band(self):
        """A pure tone's strongest mel band is the filter whose center
        frequency is nearest the tone (checked for several tones)."""
        bank = mel_filterbank()
        mels = np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), N_MELS + 2)[1:-1]
        centers = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)  # the inverse of hz_to_mel
        for freq in (500.0, 1000.0, 2000.0, 4000.0):
            feats = extract_logmel(sine_clip(freq))
            band = int(np.mean(feats.frames, axis=0).argmax())
            assert band == int(np.argmin(np.abs(centers - freq)))

    def test_zero_signal_hits_log_floor(self):
        """Silence floors every energy at 1e-10 before the log."""
        clip = AudioClip(np.zeros(SAMPLE_RATE // 4), "s", "u")
        feats = extract_logmel(clip)
        np.testing.assert_allclose(feats.frames, np.log(LOG_FLOOR), atol=0)

    def test_amplitude_scaling_shifts_log_energy(self):
        """Scaling the waveform by c adds 2 ln c to every unfloored entry."""
        base = sine_clip(1000.0, amplitude=0.2)
        for c in (2.0, 3.5):
            scaled = AudioClip(base.samples * c, "s", "u")
            a = extract_logmel(base).frames
            b = extract_logmel(scaled).frames
            mask = a > np.log(LOG_FLOOR) + 1e-9
            np.testing.assert_allclose((b - a)[mask], 2.0 * np.log(c), atol=1e-6)


class TestCmvn:
    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(7)
        feats = FeatureSequence(rng.normal(3.0, 2.0, (200, N_MELS)), "s", "u")
        out = cmvn(feats)
        np.testing.assert_allclose(out.frames.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.frames.std(axis=0), 1.0, atol=1e-12)

    def test_constant_coefficient_centered_not_scaled(self):
        """Coefficients with ~zero spread are centered but left unscaled."""
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(50, N_MELS))
        frames[:, 5] = 4.25
        out = cmvn(FeatureSequence(frames, "s", "u"))
        np.testing.assert_allclose(out.frames[:, 5], 0.0, atol=1e-12)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            cmvn(FeatureSequence(np.zeros((1, N_MELS)), "s", "u"))


class TestContainers:
    def test_dataset_iterates_sorted(self):
        utts = {
            lab: [FeatureSequence(np.zeros((2, N_MELS)), lab, f"{lab}_u0")]
            for lab in ("c", "a", "b")
        }
        data = Dataset(utts, "train")
        assert data.labels == ["a", "b", "c"]
        assert [u.speaker_label for u in data.utterances()] == ["a", "b", "c"]


class TestSyntheticCorpus:
    def test_shapes_labels_and_determinism(self):
        spec = SynthSpec(n_speakers=5, utts_per_speaker=3, frames_per_utt=20, seed=9)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        assert a.labels == [f"spk{j:03d}" for j in range(5)]
        for utt_a, utt_b in zip(a.utterances(), b.utterances()):
            assert utt_a.frames.shape == (20, N_MELS)
            assert np.array_equal(utt_a.frames, utt_b.frames)
            assert utt_a.utterance_id == utt_b.utterance_id
        c = synth_dataset(SynthSpec(5, 3, 20, seed=10))
        assert not np.array_equal(
            next(a.utterances()).frames, next(c.utterances()).frames
        )

    def test_noise_scales_order_speaker_separation(self):
        """With speaker scale far above the noise scales, within-speaker
        frame distances stay far below across-speaker distances."""
        spec = SynthSpec(n_speakers=6, utts_per_speaker=4, frames_per_utt=30, seed=11)
        data = synth_dataset(spec)
        means = {lab: np.mean([u.frames.mean(axis=0) for u in data.speakers[lab]], axis=0)
                 for lab in data.labels}
        within = max(
            np.linalg.norm(u.frames.mean(axis=0) - means[lab])
            for lab in data.labels for u in data.speakers[lab]
        )
        across = min(
            np.linalg.norm(means[a] - means[b])
            for a in data.labels for b in data.labels if a < b
        )
        # utterance noise 0.05 over 40 dims puts within-spread near 0.32
        # while unit-scale identities sit ~sqrt(2 * 40) apart
        assert within < 0.5
        assert across > 10 * within

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(0, 1, 1)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="utt_noise must be non-negative and finite"):
                SynthSpec(1, 1, 1, utt_noise=bad)

    def test_split_is_disjoint_and_seeded(self):
        data = synth_dataset(SynthSpec(10, 2, 12, seed=12))
        train_a, eval_a = split_dataset(data, 3, seed=5)
        train_b, eval_b = split_dataset(data, 3, seed=5)
        train_c, eval_c = split_dataset(data, 3, seed=6)
        assert eval_a.n_speakers == 3 and train_a.n_speakers == 7
        assert not set(train_a.labels) & set(eval_a.labels)
        assert set(train_a.labels) | set(eval_a.labels) == set(data.labels)
        assert eval_a.labels == eval_b.labels
        assert eval_a.labels != eval_c.labels
        assert train_a.role_tag == "train" and eval_a.role_tag == "eval"

    def test_split_bounds(self):
        data = synth_dataset(SynthSpec(4, 2, 12, seed=13))
        for bad in (0, 4, 5):
            with pytest.raises(ValueError):
                split_dataset(data, bad, seed=0)


class TestFeatureCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Raw float64 bodies survive the round trip bit for bit, edge values too."""
        data = synth_dataset(SynthSpec(3, 2, 8, seed=21), role_tag="eval")
        edge = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                         0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.2250738585072014e-308])
        first = data.speakers[data.labels[0]]
        frames = first[0].frames.copy()
        frames[0, : edge.size] = edge
        first[0] = FeatureSequence(frames, first[0].speaker_label, first[0].utterance_id)
        path = tmp_path / "eval.feats"
        write_feature_cache(data, path)
        assert path.read_bytes().startswith(CACHE_MAGIC)
        loaded = read_feature_cache(path, "eval")
        assert loaded.labels == data.labels
        assert [u.utterance_id for u in loaded.utterances()] == \
            [u.utterance_id for u in data.utterances()]
        for a, b in zip(data.utterances(), loaded.utterances()):
            assert b.frames.dtype == np.float64 and not b.frames.flags.writeable
            assert a.frames.tobytes() == b.frames.tobytes()
        # every utterance is a read-only view into the one buffer the file was read into
        blob = np.frombuffer(next(loaded.utterances()).frames.base.base, np.uint8)
        assert blob.size == path.stat().st_size
        assert all(np.shares_memory(blob, u.frames) for u in loaded.utterances())

    def test_write_and_read_make_no_copy_of_the_frames(self, tmp_path):
        """Writing streams the frames from their arrays; reading keeps one file
        buffer and views into it, so neither holds a second copy of the corpus."""
        data = synth_dataset(SynthSpec(10, 8, 200, seed=23))  # 80 utterances, 5.1 MB
        path = tmp_path / "train.feats"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            digest, size = write_feature_cache(data, path)
            write_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = read_feature_cache(path, "train")
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        file_size = os.path.getsize(path)
        assert file_size > 5 * 10**6
        assert write_peak < 2**20
        assert read_peak < file_size + 2**20
        assert size == file_size and digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.labels == data.labels

    def test_write_hashed_counts_the_bytes_of_array_parts(self, tmp_path):
        path = tmp_path / "parts.bin"
        parts = [b"head\n", np.arange(12.0).reshape(3, 4), np.ones(5, "<f4")]
        digest, size = write_hashed(path, parts)
        assert size == os.path.getsize(path) == 5 + 12 * 8 + 5 * 4
        assert path.read_bytes() == b"".join(bytes(part) for part in parts)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_write_hashed_makes_its_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        assert write_hashed(str(path), [b"x"])[1] == 1 and path.read_bytes() == b"x"
        with pytest.raises(FileExistsError) as below_a_file:  # a file where a directory goes
            write_hashed(str(path / "inner.bin"), [b"x"])
        assert below_a_file.value.filename == str(path)

    def test_rejects_whitespace_ids(self, tmp_path):
        utt = FeatureSequence(np.zeros((2, N_MELS)), "a b", "a b_u0")
        with pytest.raises(ValueError):
            write_feature_cache(Dataset({"a b": [utt]}, "train"), tmp_path / "x.feats")

    @staticmethod
    def _rejects(tmp_path, blob, match=None):
        path = tmp_path / "bad.feats"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=match):
            read_feature_cache(path, "train")

    def test_rejects_corrupt_cache(self, tmp_path):
        data = synth_dataset(SynthSpec(2, 1, 4, seed=22))
        path = tmp_path / "train.feats"
        write_feature_cache(data, path)
        blob = path.read_bytes()
        body = blob[len(CACHE_MAGIC):]
        header = b"utt spk000_u00 spk000 4 40\n"
        assert body.startswith(header)
        first_frame = len(CACHE_MAGIC) + len(header)

        self._rejects(tmp_path, CACHE_MAGIC + b"utterance oops\n" + body, "bad cache header")
        self._rejects(tmp_path, blob[:-1], "truncated")
        self._rejects(tmp_path, blob[:-8 * N_MELS], "truncated")
        self._rejects(tmp_path, blob.replace(b" 4 40\n", b" 4 39\n", 1), "39 coefficients")
        self._rejects(tmp_path, body, "not a UVXFEATS 1")
        self._rejects(tmp_path, b"UVXFEATS 2\n" + body, "not a UVXFEATS 1")
        for count in (b"0", b"-1"):
            self._rejects(tmp_path, blob.replace(b" 4 40\n", b" " + count + b" 40\n", 1),
                          "frames")
        self._rejects(tmp_path, blob.replace(b" 4 40\n", b" four 40\n", 1))
        for bad in (float("nan"), float("inf"), float("-inf")):
            poisoned = (blob[:first_frame] + struct.pack("<d", bad)
                        + blob[first_frame + 8:])
            self._rejects(tmp_path, poisoned, "finite")
        self._rejects(tmp_path, blob + b"utt spk001_u00 spk0", "no line end")
        for speaker in (b"spk000", b"spk001"):
            repeated = blob + b"utt spk000_u00 " + speaker + b" 1 40\n" + blob[-8 * N_MELS:]
            self._rejects(tmp_path, repeated,
                          f"'spk000_u00' repeats under speakers 'spk000' and '{speaker.decode()}'")
        self._rejects(tmp_path, blob + b"\xff\xfe\n")

    def test_rejects_text_cache(self, tmp_path):
        """The former plain-text format (repr floats, no magic line) is refused."""
        data = synth_dataset(SynthSpec(2, 1, 4, seed=22))
        lines = []
        for utt in data.utterances():
            lines.append(f"utt {utt.utterance_id} {utt.speaker_label} {utt.n_frames} {N_MELS}")
            lines.extend(" ".join(repr(float(x)) for x in row) for row in utt.frames)
        self._rejects(tmp_path, ("\n".join(lines) + "\n").encode(), "not a UVXFEATS 1")

    def test_empty_cache_reads_as_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.feats"
        write_feature_cache(Dataset({}, "attacker"), path)
        assert path.read_bytes() == CACHE_MAGIC
        assert read_feature_cache(path, "attacker").n_speakers == 0
