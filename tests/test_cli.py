"""CLI pipeline tests: config plumbing, the four subcommands, output
manifests, and byte-level determinism of re-runs."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from univox import evaluate, model, trainer
from univox.cli import (
    StageError,
    apply_master_seed,
    apply_override,
    build_datasets,
    config_hash,
    main,
    net_config_from,
    protocol_from,
    train_config_from,
)
from univox.dataio import SAMPLE_RATE, read_feature_cache
from univox.model import load_checkpoint


def base_config():
    return {
        "data": {
            "synthetic": {"n_speakers": 6, "utts_per_speaker": 5,
                          "frames_per_utt": 24, "seed": 3},
            "n_eval_speakers": 2,
            "split_seed": 4,
            "n_attacker_speakers": 1,
        },
        "model": {"context_frames": 4, "window_hop": 2, "hidden_dims": [16],
                  "embed_dim": 8, "init_seed": 5},
        "train": {"speakers_per_batch": 3, "utts_per_speaker": 2, "crop_frames": 16,
                  "steps": 4, "learning_rate": 0.05, "seed": 6},
        "eval": {"n_enroll": 2, "n_test": 2, "n_attack_queries": 3, "seed": 7},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(str(out_dir), "manifest.json")) as fh:
        return json.load(fh)


def assert_manifest_hashes(out_dir):
    manifest = read_manifest(out_dir)
    for entry in manifest["outputs"]:
        with open(os.path.join(str(out_dir), entry["path"]), "rb") as fh:
            data = fh.read()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
    return manifest


class TestConfigPlumbing:
    def test_override_parses_json_values(self):
        cfg = {"train": {"steps": 4}}
        apply_override(cfg, "train.steps", "9")
        apply_override(cfg, "train.use_loo", "false")
        apply_override(cfg, "poison.method", "outer")
        assert cfg["train"]["steps"] == 9
        assert cfg["train"]["use_loo"] is False
        assert cfg["poison"]["method"] == "outer"

    def test_override_rejects_descending_into_scalar(self):
        cfg = {"train": {"steps": 4}}
        with pytest.raises(StageError):
            apply_override(cfg, "train.steps.deep", "1")

    def test_master_seed_offsets(self):
        cfg = base_config()
        cfg["poison"] = {"method": "outer", "alpha": 0.5}
        apply_master_seed(cfg, 42)
        assert cfg["train"]["seed"] == 42
        assert cfg["data"]["synthetic"]["seed"] == 1042
        assert cfg["data"]["split_seed"] == 2042
        assert cfg["eval"]["seed"] == 3042
        assert cfg["poison"]["seed"] == 4042
        assert cfg["model"]["init_seed"] == 5042

    def test_config_hash_key_order_invariant(self):
        a = {"x": 1, "y": {"z": 2}}
        b = {"y": {"z": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": {"z": 2}})

    def test_absent_keys_take_dataclass_defaults(self):
        assert net_config_from({}) == model.NetConfig()
        assert train_config_from({}) == trainer.TrainConfig()
        assert protocol_from({}) == evaluate.EvalProtocol()
        cfg = {"model": {"hidden_dims": [16], "init_seed": 5},
               "train": {"steps": 9, "include_target": False},
               "eval": {"n_test": 2, "trial_csv": True}}
        assert net_config_from(cfg) == model.NetConfig(hidden_dims=(16,))
        assert train_config_from(cfg) == trainer.TrainConfig(steps=9, include_target=False)
        assert protocol_from(cfg) == evaluate.EvalProtocol(n_test=2)

    def test_build_datasets_requires_one_source(self):
        cfg = base_config()
        cfg["data"]["cache_dir"] = "/nowhere"
        with pytest.raises(StageError):
            build_datasets(cfg)
        with pytest.raises(StageError):
            build_datasets({"data": {}})

    def test_synthetic_split_counts(self):
        train_set, eval_set, attacker = build_datasets(base_config())
        assert train_set.n_speakers == 4
        assert eval_set.n_speakers == 2
        assert attacker.n_speakers == 1
        assert not set(train_set.labels) & set(eval_set.labels)
        assert not set(attacker.labels) & (set(train_set.labels) | set(eval_set.labels))


class TestWavSource:
    def wav_bytes(self, freq, seconds=0.12):
        t = np.arange(int(SAMPLE_RATE * seconds)) / SAMPLE_RATE
        samples = (0.4 * np.sin(2 * np.pi * freq * t) * 32767).astype("<i2")
        data = samples.tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body

    def test_wav_tree_is_featurized_and_split(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        for j, freq in enumerate((400, 800, 1600, 3200)):
            spk_dir = wav_dir / f"spk{j}"
            spk_dir.mkdir(parents=True)
            for i in range(2):
                (spk_dir / f"u{i}.wav").write_bytes(self.wav_bytes(freq + 30 * i))
        cfg = {"data": {"wav_dir": str(wav_dir), "n_eval_speakers": 1,
                        "split_seed": 1, "attacker_labels": ["spk3"]}}
        train_set, eval_set, attacker = build_datasets(cfg)
        assert attacker.labels == ["spk3"]
        assert train_set.n_speakers == 2 and eval_set.n_speakers == 1
        utt = next(train_set.utterances())
        assert utt.frames.shape[1] == 40
        np.testing.assert_allclose(utt.frames.mean(axis=0), 0.0, atol=1e-9)  # cmvn

    def test_missing_attacker_label_rejected(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        spk_dir = wav_dir / "spk0"
        spk_dir.mkdir(parents=True)
        (spk_dir / "u0.wav").write_bytes(self.wav_bytes(500))
        cfg = {"data": {"wav_dir": str(wav_dir), "attacker_labels": ["ghost"]}}
        with pytest.raises(StageError):
            build_datasets(cfg)


class TestSynthCommand:
    def test_writes_caches_and_manifest(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = assert_manifest_hashes(out)
        assert {e["path"] for e in manifest["outputs"]} == {
            "train.feats", "eval.feats", "attacker.feats"
        }
        loaded = read_feature_cache(out / "train.feats", "train")
        assert loaded.n_speakers == 4
        assert "4 train / 2 eval / 1 attacker" in capsys.readouterr().out

    def test_master_seed_lands_in_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["synth", "--config", cfg_path, "--out", str(out), "--seed", "42"])
        seeds = read_manifest(out)["seeds"]
        assert seeds == {"data": 1042, "split": 2042, "train": 42,
                         "eval": 3042, "poison": None, "init": 5042}


class TestTrainCommand:
    def test_outputs_and_history(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert_manifest_hashes(out)
        weights = load_checkpoint(out / "checkpoint.dvec")
        assert weights.config.embed_dim == 8
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 5  # 4 steps + summary
        steps = [json.loads(line) for line in lines[:-1]]
        assert [r["step"] for r in steps] == [0, 1, 2, 3]
        assert all(r["poisoned"] is False for r in steps)
        summary = json.loads(lines[-1])["summary"]
        assert summary["steps"] == 4 and summary["poisoned_steps"] == 0
        assert "final loss" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg_path, "--out", str(out_a)])
        main(["train", "--config", cfg_path, "--out", str(out_b)])
        for name in ("checkpoint.dvec", "history.jsonl", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_override_changes_steps(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["train", "--config", cfg_path, "--out", str(out), "--train.steps=2"])
        assert len((out / "history.jsonl").read_text().splitlines()) == 3

    def test_poisoned_steps_recorded(self, tmp_path):
        cfg = base_config()
        cfg["poison"] = {"method": "outer", "policy": "FixedN", "alpha": 0.5, "seed": 8}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["poisoned_steps"] == 2  # round(0.5 * 4)
        assert summary["plan"]["method"] == "outer"
        assert len(summary["plan"]["fixed_ids"]) == 3


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg = base_config()
        cfg["eval"]["trial_csv"] = True
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        main(["train", "--config", cfg_path, "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", str(out)]) == 0
        with open(out / "eval_report.json") as fh:
            report = json.load(fh)
        for key in ("eer", "threshold", "asr", "threshold_min_far_frr", "counts"):
            assert key in report
        assert report["counts"]["n_enrolled"] == 2
        header, *rows = (out / "trials.csv").read_text().splitlines()
        assert header == "label,speaker,score,kind"
        kinds = {row.split(",")[3] for row in rows}
        assert kinds == {"genuine", "impostor", "attack"}
        assert "EER" in capsys.readouterr().out

    def test_malformed_checkpoint_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        blob = json.dumps({"context_frames": 4}).encode()  # no input_dim
        bad = tmp_path / "bad.dvec"
        bad.write_bytes(b"DVEC" + struct.pack("<II", 1, len(blob)) + blob)
        code = main(["eval", "--config", cfg_path, "--out", str(tmp_path / "out"),
                     "--checkpoint", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'eval' (--checkpoint): ")
        assert len(err.splitlines()) == 1

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["eval", "--config", cfg_path, "--out", str(out),
                     "--checkpoint", str(tmp_path / "missing.dvec")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


class TestExperimentCommand:
    def test_sweep_variants_and_summary(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"] = [
            None,
            {"method": "inner", "alpha": 0.5},
            {"method": "outer", "alpha": 0.5},
        ]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        variants = [row["variant"] for row in summary["rows"]]
        assert variants == ["benign", "FixedN_inner_a0.5", "FixedN_outer_a0.5"]
        for variant in variants:
            assert_manifest_hashes(out / variant)
            assert (out / variant / "eval_report.json").exists()
        table = capsys.readouterr().out
        assert "benign" in table and "inner" in table and "outer" in table


    def test_duplicate_variant_labels_rejected_before_training(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sweep"] = [
            {"method": "outer", "alpha": 0.5, "seed": 1},
            {"method": "outer", "alpha": 0.5, "seed": 2},
        ]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'experiment' (sweep)" in err and "FixedN_outer_a0.5" in err
        assert not out.exists()


class TestErrorPaths:
    def test_synth_without_n_speakers(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["data"]["synthetic"]["n_speakers"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error in stage 'data' (data.synthetic): missing key 'n_speakers'\n"
        cfg = base_config()
        cfg["data"]["synthetic"]["utts_per_speaker"] = "five"
        with pytest.raises(StageError):
            build_datasets(cfg)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_bad_section_type(self, tmp_path, capsys):
        cfg = base_config()
        cfg["train"] = "oops"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "train" in err
