"""CLI pipeline tests: config plumbing, the four subcommands, output
manifests, and byte-level determinism of re-runs."""

import csv
import hashlib
import json
import os
import resource
import struct
import subprocess
import sys
import typing

import numpy as np
import pytest

from univox import evaluate, model, poison, trainer
from univox import cli
from univox.cli import (
    StageError,
    apply_master_seed,
    apply_override,
    build_datasets,
    config_hash,
    DataSource,
    Settings,
    main,
    settings_from,
)
from univox.dataio import (SAMPLE_RATE, Dataset, FeatureSequence, SynthSpec,
                           read_feature_cache, write_feature_cache)
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


# Per type hint of a config value: its kind in the error line, and overrides
# that are JSON values of another kind, each with the value as the line shows it.
NOT_OF_KIND = {
    int: ("an integer", [("true", "True"), ("x", "'x'")]),
    float: ("a finite number", [("true", "True"), ("x", "'x'"), ("NaN", "nan"),
                                ("Infinity", "inf"), ("-Infinity", "-inf")]),
    bool: ("true or false", [('"false"', "'false'"), ("1", "1")]),
    typing.Tuple[int, ...]: ("a list of integers", [("[true]", "[True]"), ("16", "16")]),
    typing.Tuple[str, ...]: ("a list of strings", [('"spk012_u00spk012_u01"',
                                                    "'spk012_u00spk012_u01'"), ("[3]", "[3]")]),
    typing.Optional[str]: ("a string or null", [("3", "3"), ("[]", "[]")]),
}


NOT_AN_OBJECT = ("5", "false", "0", "[]", '""')  # overrides a section cannot hold
NOT_AN_ENTRY = "the poison section and each sweep entry must be an object or null"


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
        apply_override(cfg, "eval.trial_csv", "false")
        apply_override(cfg, "poison.method", "outer")
        assert cfg["train"]["steps"] == 9
        assert cfg["eval"]["trial_csv"] is False
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
        only_data = {"data": base_config()["data"]}  # the missing sections are made
        apply_master_seed(only_data, 42)
        assert only_data["train"] == {"seed": 42} and only_data["eval"] == {"seed": 3042}
        assert only_data["model"] == {"init_seed": 5042}

    def test_config_hash_key_order_invariant(self):
        a = {"x": 1, "y": {"z": 2}}
        b = {"y": {"z": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": {"z": 2}})

    def test_absent_keys_take_dataclass_defaults(self):
        """Absent values take their defaults; the seeds the config does not set
        stay null, as the manifest records them."""
        no_seeds = dict.fromkeys(("data", "split", "train", "eval", "poison", "init"))
        assert settings_from({}) == Settings(DataSource(), model.NetConfig(),
                                             trainer.TrainConfig(), evaluate.EvalProtocol(),
                                             0, False, config_hash({}), no_seeds)
        cfg = {"data": {"synthetic": {"n_speakers": 6, "utts_per_speaker": 5,
                                      "frames_per_utt": 24}, "split_seed": 4},
               "model": {"hidden_dims": [16], "init_seed": 5},
               "train": {"steps": 9, "clip_norm": 2.0},
               "eval": {"n_test": 2, "trial_csv": True}}
        assert settings_from(cfg) == Settings(
            DataSource(synthetic=SynthSpec(6, 5, 24), split_seed=4),
            model.NetConfig(hidden_dims=(16,)), trainer.TrainConfig(steps=9, clip_norm=2.0),
            evaluate.EvalProtocol(n_test=2), 5, True, config_hash(cfg),
            {**no_seeds, "split": 4, "init": 5})

    def test_config_surface_is_pinned(self):
        """Every key each section may hold: adding or removing one is an edit
        here. GE2E's initial (w, b) and the synthetic speaker scale and frame
        noise are constants, so their former keys are unknown keys."""
        assert cli.SECTION_KEYS == {
            "": {"data", "model", "train", "eval", "poison", "sweep"},
            "data": {"synthetic", "cache_dir", "wav_dir", "attacker_labels",
                     "n_attacker_speakers", "n_eval_speakers", "split_seed"},
            "data.synthetic": {"n_speakers", "utts_per_speaker", "frames_per_utt",
                               "utt_noise", "seed"},
            "model": {"input_dim", "context_frames", "window_hop", "hidden_dims",
                      "embed_dim", "init_seed"},
            "train": {"speakers_per_batch", "utts_per_speaker", "crop_frames", "steps",
                      "learning_rate", "clip_norm", "seed"},
            "eval": {"n_enroll", "n_test", "n_attack_queries", "seed", "trial_csv"},
            "poison": {"method", "policy", "fixed_ids", "copy_id", "seed", "alpha"},
        }
        for section, key in (("train", "init_w"), ("train", "init_b"),
                             ("synthetic", "speaker_scale"), ("synthetic", "frame_noise")):
            cfg = base_config()
            (cfg["data"] if section == "synthetic" else cfg)[section][key] = 1.0
            with pytest.raises(StageError, match=rf"\.{key}\): unknown key"):
                settings_from(cfg)
        with pytest.raises(StageError, match=r"\(output_dir\): unknown key"):  # --out sets it
            settings_from({**base_config(), "output_dir": "o"})

    def test_build_datasets_requires_one_source(self):
        cfg = base_config()
        cfg["data"]["cache_dir"] = "/nowhere"
        with pytest.raises(StageError):
            build_datasets(settings_from(cfg).data)
        with pytest.raises(StageError):
            build_datasets(settings_from({"data": {}}).data)

    def test_synthetic_split_counts(self):
        train_set, eval_set, attacker = build_datasets(settings_from(base_config()).data)
        assert train_set.n_speakers == 4
        assert eval_set.n_speakers == 2
        assert attacker.n_speakers == 1
        assert not set(train_set.labels) & set(eval_set.labels)
        assert not set(attacker.labels) & (set(train_set.labels) | set(eval_set.labels))


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def readme_json_after(marker):
    """The first ```json block after `marker` in README.md, parsed."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```json\n", text.index(marker)) + len("```json\n")
    return json.loads(text[start : text.index("```", start)])


class TestReadmeConfig:
    def test_readme_config_and_sweep_are_valid(self):
        """The README's complete config and its sweep example name only keys
        the pipeline reads, with values every section accepts."""
        cfg = readme_json_after("A complete config:")
        cfg.update(readme_json_after("For `experiment`, an optional"))
        assert settings_from(cfg).train.poison.method == "outer"
        labels = [label for label, _ in cli._variant_configs(cfg)]
        assert labels == ["benign", "FixedN_inner_a0.1", "FixedN_outer_a0.1"]

    def test_readme_library_example_runs(self):
        """The python block under "## Library" runs as written and prints EER and ASR, and
        its eval queries exactly the attacker utterances its FixedN training used."""
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        start = text.index("```python\n", text.index("## Library")) + len("```python\n")
        code = text[start : text.index("```", start)] + (
            '\nqueries = sorted({row[0] for row in trials if row[3] == "attack"})'
            '\nassert queries == report.plan_summary["fixed_ids"], queries\n')
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-c", code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        eer, asr = map(float, done.stdout.split())
        assert np.isfinite(eer) and np.isfinite(asr)


def wav_bytes(freq, seconds=0.12):
    """A mono 16 kHz PCM16 WAV of one sine tone."""
    t = np.arange(int(SAMPLE_RATE * seconds)) / SAMPLE_RATE
    samples = (0.4 * np.sin(2 * np.pi * freq * t) * 32767).astype("<i2")
    data = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestWavSource:
    def test_wav_tree_is_featurized_and_split(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        for j, freq in enumerate((400, 800, 1600, 3200)):
            spk_dir = wav_dir / f"spk{j}"
            spk_dir.mkdir(parents=True)
            for i in range(2):
                (spk_dir / f"u{i}.wav").write_bytes(wav_bytes(freq + 30 * i))
        cfg = {"data": {"wav_dir": str(wav_dir), "n_eval_speakers": 1,
                        "split_seed": 1, "attacker_labels": ["spk3"]}}
        train_set, eval_set, attacker = build_datasets(settings_from(cfg).data)
        assert attacker.labels == ["spk3"]
        assert train_set.n_speakers == 2 and eval_set.n_speakers == 1
        utt = next(train_set.utterances())
        assert utt.frames.shape[1] == 40
        np.testing.assert_allclose(utt.frames.mean(axis=0), 0.0, atol=1e-9)  # cmvn

    def test_missing_attacker_label_rejected(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        spk_dir = wav_dir / "spk0"
        spk_dir.mkdir(parents=True)
        (spk_dir / "u0.wav").write_bytes(wav_bytes(500))
        cfg = {"data": {"wav_dir": str(wav_dir), "attacker_labels": ["ghost"]}}
        with pytest.raises(StageError):
            build_datasets(settings_from(cfg).data)

    def test_underscored_speaker_and_stem_ids_do_not_collide(self, tmp_path, capsys):
        """A WAV id is `<speaker>/<stem>`, and no speaker directory name holds a
        `/`: speaker `a`'s `b_c.wav` and speaker `a_b`'s `c.wav` are two
        attacker utterances, `a/b_c` and `a_b/c`, which `fixed_ids` names."""
        tree = {"a": ["b_c", "x"], "a_b": ["c", "y"], "s0": ["u0", "u1"],
                "s1": ["u0", "u1"], "s2": ["u0", "u1"]}
        for j, (label, names) in enumerate(tree.items()):
            (tmp_path / "wavs" / label).mkdir(parents=True)
            for i, name in enumerate(names):
                (tmp_path / "wavs" / label / f"{name}.wav").write_bytes(
                    wav_bytes(300 + 450 * j + 20 * i, seconds=0.3))
        cfg = base_config()
        assert main(["train", "--config", write_config(tmp_path, cfg, "train.json"),
                     "--out", str(tmp_path / "run")]) == 0
        cfg["data"] = {"wav_dir": str(tmp_path / "wavs"), "n_eval_speakers": 2,
                       "attacker_labels": ["a", "a_b"]}
        cfg["train"]["speakers_per_batch"] = 2
        cfg["poison"] = {"method": "outer", "fixed_ids": ["a_b/c", "a/b_c"]}
        cfg["eval"] = {"n_enroll": 1, "n_test": 1, "trial_csv": True}
        _, _, attacker = build_datasets(settings_from(cfg).data, ("attacker",))
        assert [u.utterance_id for u in attacker.utterances()] == ["a/b_c", "a/x", "a_b/c",
                                                                    "a_b/y"]
        out = tmp_path / "out"
        assert main(["eval", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.dvec")]) == 0
        rows = (out / "trials.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows if row.endswith(",attack")} == {"a_b/c",
                                                                                 "a/b_c"}

    @pytest.mark.parametrize("speaker, name", [(b"bad\xff", b"u0.wav"), (b"spk0", b"u\xff.wav")],
                             ids=["speaker", "file"])
    def test_a_name_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, speaker, name):
        """os.listdir holds a byte that is not UTF-8 as a surrogate, which no
        output can encode; with this tree and split seed the speaker is in the
        eval split, so a reader that let it through would stop writing
        `trials.csv` in a traceback."""
        wav_dir = os.path.join(os.fsencode(tmp_path), b"wavs")
        try:
            os.makedirs(os.path.join(wav_dir, speaker))
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        for label in (b"spk0", b"spk1", b"spk2", b"spk3", b"spk4"):
            os.makedirs(os.path.join(wav_dir, label), exist_ok=True)
        for j, label in enumerate(sorted(os.listdir(wav_dir))):
            for i in range(4):
                with open(os.path.join(wav_dir, label, b"u%d.wav" % i), "wb") as fh:
                    fh.write(wav_bytes(300 + 450 * j + 20 * i, seconds=0.3))
        os.rename(os.path.join(wav_dir, speaker, b"u0.wav"), os.path.join(wav_dir, speaker, name))
        assert main(["train", "--config", write_config(tmp_path, base_config(), "run.json"),
                     "--out", str(tmp_path / "run")]) == 0
        cfg = base_config()
        cfg["data"] = {"wav_dir": os.fsdecode(wav_dir), "n_eval_speakers": 2, "split_seed": 1}
        cfg["eval"]["trial_csv"] = True
        capsys.readouterr()
        assert main(["eval", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.dvec")]) == 1
        bad = os.fsdecode(os.path.join(wav_dir, speaker, name))
        assert capsys.readouterr().err == (
            f"error in stage 'data' (data.wav_dir): {bad!r} is not a UTF-8 name\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", ["at", ["a", 5], {"a": "t"}, None])
    def test_attacker_labels_must_be_a_list_of_strings(self, tmp_path, capsys, labels):
        """A string is not read as a list of one-letter speakers: on this tree,
        "at" would name `a` and `t`."""
        for j, label in enumerate(["a", "t", "s0", "s1", "s2", "s3"]):
            (tmp_path / "wavs" / label).mkdir(parents=True)
            for i in range(2):
                (tmp_path / "wavs" / label / f"u{i}.wav").write_bytes(wav_bytes(300 + 450 * j))
        cfg = base_config()
        cfg["data"] = {"wav_dir": str(tmp_path / "wavs"), "n_eval_speakers": 1,
                       "attacker_labels": labels}
        assert main(["train", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error in stage 'config' (data.attacker_labels): "
                                           f"must be a list of strings, got {labels!r}\n")


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

    def test_degenerate_run_keeps_partial_history(self, tmp_path, capsys, monkeypatch):
        """Embeddings that collapse at step 2 end the run with one error line,
        after history.jsonl records steps 0 and 1."""
        real = model._forward
        calls = []

        def collapsing(config, layers, frames_list):
            calls.append(None)
            if len(calls) == 3:  # zero the step state's embedding layer: every output is 0
                *hidden, (mat, bias) = layers
                layers = [*hidden, (mat * 0, bias * 0)]
            return real(config, layers, frames_list)

        monkeypatch.setattr(model, "_forward", collapsing)
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'train' (train): step 2: degenerate embedding")
        assert len(err.splitlines()) == 1
        lines = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        assert [r["step"] for r in lines[:-1]] == [0, 1]
        assert lines[-1]["summary"]["steps"] == 2
        assert sorted(p.name for p in out.iterdir()) == ["history.jsonl"]

    @pytest.mark.parametrize("override, message", [
        ("--model.context_frames=20", "train utterance 'spk000_u00' gives 16 frames, "
                                      "model.context_frames needs >= 20"),
        ("--model.input_dim=30", "train utterance 'spk000_u00' has 40-dim frames, "
                                 "model.input_dim is 30"),
    ])
    def test_data_the_net_cannot_read_is_one_error_line(self, tmp_path, capsys, override,
                                                        message):
        """Crops shorter than the net's context, or frames of another width, are a
        config fault: one stage 'train' line and no history, not a divergence."""
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), override]) == 1
        assert capsys.readouterr().err == f"error in stage 'train' (train): {message}\n"
        assert not out.exists()


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
        assert set(report) == {"eer", "threshold", "asr", "asr_per_query", "counts",
                               "config_hash"}
        assert report["counts"]["n_enrolled"] == 2
        header, *rows = (out / "trials.csv").read_text().splitlines()
        assert header == "label,speaker,score,kind"
        kinds = {row.split(",")[3] for row in rows}
        assert kinds == {"genuine", "impostor", "attack"}
        assert "EER" in capsys.readouterr().out

    def test_trials_csv_quotes_labels_with_commas_quotes_and_newlines(self, tmp_path):
        """Speaker directories named with a comma, a quote or a newline give
        quoted fields: read back with `csv.reader`, every row has 4 fields, and
        the labels and scores come back as they were."""
        labels = [f"s,{j}" for j in range(2)] + [f's"{j}' for j in range(2)] + [
            f"s\n{j}" for j in range(2)]
        for j, label in enumerate(labels + ['a,"\nt']):
            (tmp_path / "wavs" / label).mkdir(parents=True)
            for i in range(4):
                (tmp_path / "wavs" / label / f"u{i}.wav").write_bytes(
                    wav_bytes(300 + 450 * j + 20 * i, seconds=0.3))
        cfg = base_config()
        cfg["data"] = {"wav_dir": str(tmp_path / "wavs"), "n_eval_speakers": 2,
                       "split_seed": 1, "attacker_labels": ['a,"\nt']}
        cfg["eval"]["trial_csv"] = True
        out = tmp_path / "out"
        assert main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        with open(out / "benign" / "trials.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["label", "speaker", "score", "kind"]
        assert rows and all(len(row) == 4 for row in rows)
        assert {row[3] for row in rows} == {"genuine", "impostor", "attack"}
        assert {row[1] for row in rows} <= set(labels)
        queries = {row[0] for row in rows if row[3] == "attack"}
        assert len(queries) == cfg["eval"]["n_attack_queries"]
        assert queries <= {f'a,"\nt/u{i}' for i in range(4)}
        assert all(np.isfinite(float(row[2])) for row in rows)

    def test_every_manifest_entry_matches_the_file_on_disk(self, tmp_path):
        """The manifest hashes the bytes each writer wrote: for synth, train
        from the cache, eval with trial rows and a two-variant experiment,
        every entry's hash and size are those of the file on disk."""
        cfg = base_config()
        cfg["eval"]["trial_csv"] = True
        cfg["poison"] = {"method": "outer", "alpha": 0.5}
        cache_cfg = {**cfg, "data": {"cache_dir": str(tmp_path / "cache")}}
        synth_path = write_config(tmp_path, cfg, "synth.json")
        cache_path = write_config(tmp_path, cache_cfg, "cache.json")
        exp_path = write_config(tmp_path, {**cfg, "sweep": [None, {"method": "inner"}]},
                                "exp.json")
        runs = [
            (["synth", "--config", synth_path], "cache",
             {"train.feats", "eval.feats", "attacker.feats"}),
            (["train", "--config", cache_path], "run", {"checkpoint.dvec", "history.jsonl"}),
            (["eval", "--config", cache_path], "run", {"eval_report.json", "trials.csv"}),
        ]
        for argv, sub, names in runs:
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
            manifest = assert_manifest_hashes(tmp_path / sub)
            assert {e["path"] for e in manifest["outputs"]} == names
        assert main(["experiment", "--config", exp_path, "--out", str(tmp_path / "exp")]) == 0
        for variant in ("benign", "FixedN_inner_a0.5"):
            manifest = assert_manifest_hashes(tmp_path / "exp" / variant)
            assert {e["path"] for e in manifest["outputs"]} == {
                "checkpoint.dvec", "history.jsonl", "eval_report.json", "trials.csv"}

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

    @pytest.mark.parametrize("edit", [{"embed_dim": True}, {"context_frames": True},
                                      {"seed": "x"}])
    def test_checkpoint_config_with_a_non_integer_fails_cleanly(self, tmp_path, capsys, edit):
        """A trained checkpoint whose config JSON holds true for a width, or a
        string seed, is one eval error line, not a traceback, a misread width
        or a clean exit."""
        cfg_path = write_config(tmp_path, base_config())
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        blob = (tmp_path / "run" / "checkpoint.dvec").read_bytes()
        (length,) = struct.unpack_from("<I", blob, 8)
        config = json.dumps({**json.loads(blob[12 : 12 + length]), **edit}).encode()
        bad = tmp_path / "bad.dvec"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(config)) + config
                        + blob[12 + length :])
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg_path, "--out", str(out),
                     "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'eval' (--checkpoint): bad config blob: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_eval_and_train_do_not_import_numpy_ma(self, tmp_path):
        """Neither command needs `numpy.ma`, which `np.unique` imports on first
        use; a fresh process that runs both must not hold it."""
        cfg_path = write_config(tmp_path, base_config())
        script = (
            "import sys\n"
            "from univox.cli import main\n"
            f"assert main(['train', '--config', {cfg_path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            f"assert main(['eval', '--config', {cfg_path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH", "")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines()[-1] == "False"

    def test_non_finite_checkpoint_fails_cleanly(self, tmp_path, capsys):
        """A checkpoint with a NaN row in layer 0 would load and give finite
        embeddings (the ReLU zeroes the NaN unit); eval rejects it instead."""
        cfg = base_config()
        cfg_path = write_config(tmp_path, cfg)
        net = settings_from(cfg).net
        weights = model.init_weights(net, seed=5)
        weights.layers[0][0][3] = np.nan
        bad = tmp_path / "nan.dvec"
        model.save_checkpoint(weights, bad)
        out = tmp_path / "out"
        code = main(["eval", "--config", cfg_path, "--out", str(out), "--checkpoint", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error in stage 'eval' (--checkpoint): "
                       "non-finite values in layer 0\n")
        assert not (out / "eval_report.json").exists()

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["eval", "--config", cfg_path, "--out", str(out),
                     "--checkpoint", str(tmp_path / "missing.dvec")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


class TestAttackPolicy:
    """Eval queries exactly the attacker utterances training drew, and rejects
    ids outside the attacker pool (spk006_u00..u04) with one error line."""

    @pytest.mark.parametrize("overrides", [
        ['--poison.fixed_ids=["nope","x","y","z"]'],
        ["--poison.policy=CopyN", "--poison.copy_id=nope"],
    ])
    def test_eval_rejects_ids_outside_the_pool(self, tmp_path, capsys, overrides):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["eval", "--config", cfg_path, "--out", str(out), "--poison.method=outer"]
        assert main(argv + overrides) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'eval' (eval): ") and "nope" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "eval", "experiment"])
    @pytest.mark.parametrize("overrides", [
        ['--poison.fixed_ids=["x1","x2","x3","x4"]'],
        ["--poison.policy=CopyN", "--poison.copy_id=zz"],
    ])
    def test_ids_outside_the_pool_leave_no_output_directory(self, tmp_path, capsys, command,
                                                            overrides):
        """Well-typed ids are checked against the pool in the train or eval
        stage, before that stage makes the output directory."""
        cfg_path = write_config(tmp_path, base_config())
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out"),
                "--poison.method=outer", *overrides]
        if command == "eval":
            assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
            argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint.dvec")]
        capsys.readouterr()
        assert main(argv) == 1
        stage = "eval" if command == "eval" else "train"
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage '{stage}' ({stage}): ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_fixedn_uses_only_the_first_n_ids(self, tmp_path):
        cfg = base_config()
        ids = [f"spk006_u{i:02d}" for i in (4, 3, 2, 1, 0)]
        cfg["poison"] = {"method": "outer", "policy": "FixedN", "alpha": 0.5,
                         "fixed_ids": ids}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        assert main(["eval", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "history.jsonl").read_text().splitlines()[-1])["summary"]
        assert summary["plan"]["fixed_ids"] == ids[:3]  # speakers_per_batch = 3
        report = json.loads((out / "eval_report.json").read_text())
        assert report["counts"]["n_attack_queries"] == 3


    def test_attacker_ids_ending_in_nul(self, tmp_path, capsys):
        """A `.feats` header may end an id in NUL. RandN training and the eval
        draw pick such ids whole, and the attack rows name them."""
        cfg = base_config()
        cache = tmp_path / "cache"
        assert main(["synth", "--config", write_config(tmp_path, cfg, "synth.json"),
                     "--out", str(cache)]) == 0
        attacker = read_feature_cache(cache / "attacker.feats", "attacker")
        ids = [u.utterance_id + "\x00" for u in attacker.utterances()]
        write_feature_cache(Dataset({"att": [FeatureSequence(u.frames, "att", uid) for u, uid
                                             in zip(attacker.utterances(), ids)]}, "attacker"),
                            str(cache / "attacker.feats"))
        cfg["data"] = {"cache_dir": str(cache)}
        cfg["eval"]["trial_csv"] = True
        cfg_path = write_config(tmp_path, cfg)
        randn = ["--poison.method=outer", "--poison.policy=RandN", "--poison.alpha=1.0"]
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out), *randn]) == 0
        for poisoning in ([], randn):
            capsys.readouterr()
            assert main(["eval", "--config", cfg_path, "--out", str(out), *poisoning]) == 0
            assert capsys.readouterr().err == ""
            with open(out / "trials.csv", newline="") as fh:
                attack = [row[0] for row in csv.reader(fh) if row[3] == "attack"]
            assert len(attack) == 3 * 2 and set(attack) <= set(ids)  # 3 queries x 2 speakers


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

    def test_master_seed_reseeds_sweep_entries(self, tmp_path):
        """--seed N gives every sweep variant the poison seed N + 4000, also
        when the config has no base poison section."""
        cfg = base_config()
        cfg["sweep"] = [{"method": "outer", "policy": "RandN", "alpha": 0.5}]
        cfg_path = write_config(tmp_path, cfg)
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert main(["experiment", "--config", cfg_path, "--out", str(out),
                         "--seed", str(seed)]) == 0
            assert read_manifest(out / "RandN_outer_a0.5")["seeds"]["poison"] == 4000 + seed

    def test_a_protocol_the_eval_split_cannot_meet_stops_before_training(self, tmp_path,
                                                                         capsys):
        """5 utterances per speaker cannot give the default 5 enroll + 5 test:
        the eval stage's line comes before any variant trains, and nothing is
        written."""
        cfg = base_config()
        cfg["eval"] = {}
        cfg["sweep"] = [None, {"method": "outer"}]
        out = tmp_path / "out"
        assert main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error in stage 'eval' (eval): speaker 'spk001' has "
                                           "5 utterances, protocol needs 10\n")
        assert not out.exists()

    def test_attacker_utterances_the_net_cannot_read_stop_before_training(self, tmp_path,
                                                                          capsys):
        """The benign variant trains without the attacker split, which only its
        eval reads, so it is checked before any variant trains as well."""
        cfg = base_config()
        cache = tmp_path / "cache"
        assert main(["synth", "--config", write_config(tmp_path, cfg, "synth.json"),
                     "--out", str(cache)]) == 0
        short = [FeatureSequence(np.ones((3, 40)), "att", f"att_u{i}") for i in range(3)]
        write_feature_cache(Dataset({"att": short}, "attacker"), str(cache / "attacker.feats"))
        cfg["data"] = {"cache_dir": str(cache)}
        cfg["sweep"] = [None, {"method": "outer"}]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error in stage 'eval' (eval): attacker utterance 'att_u0' gives 3 frames, "
            "model.context_frames needs >= 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("override, entry, line", [
        pytest.param([], {"method": "outer", "policy": "FixedN",
                          "fixed_ids": ["nope1", "nope2", "nope3"]},
                     "fixed ids not in attacker pool: ['nope1', 'nope2', 'nope3']",
                     id="fixed-ids-outside-pool"),
        pytest.param(["--data.n_attacker_speakers=0"], {"method": "outer"},
                     "poisoning enabled but no attacker data supplied", id="no-attacker"),
    ])
    def test_an_attack_training_cannot_resolve_stops_before_training(self, tmp_path, capsys,
                                                                     override, entry, line):
        """A later variant's attack is resolved, as training resolves it, before
        the first variant trains: its train stage line, and nothing written."""
        cfg = base_config()
        cfg["sweep"] = [None, entry]
        out = tmp_path / "out"
        assert main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out), *override]) == 1
        assert capsys.readouterr().err == f"error in stage 'train' (train): {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "experiment"])
    def test_one_eval_speaker_stops_before_writing(self, tmp_path, capsys, command):
        """Impostor trials need a second eval speaker: eval and experiment
        stop on the eval stage's line before they write anything."""
        cfg = base_config()
        cfg["data"]["n_eval_speakers"] = 1
        cfg_path = write_config(tmp_path, cfg)
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
        if command == "eval":
            assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
            argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint.dvec")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error in stage 'eval' (eval): impostor trials need "
                                           ">= 2 eval speakers, have 1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "experiment"])
    def test_duplicate_variant_labels_rejected_before_training(self, tmp_path, capsys,
                                                               command):
        """Two entries that would write one subdirectory are a config error in
        every command, as every command checks the sweep."""
        cfg = base_config()
        cfg["sweep"] = [
            {"method": "outer", "alpha": 0.5, "seed": 1},
            {"method": "outer", "alpha": 0.5, "seed": 2},
        ]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error in stage 'config' (sweep): entries share the variant label(s) "
                       "['FixedN_outer_a0.5']; each variant needs its own output directory\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "experiment"])
    @pytest.mark.parametrize("entry, line", [
        pytest.param({"method": "outer", "alpha": "x"},
                     "(poison.alpha): must be a finite number, got 'x'", id="alpha-string"),
        pytest.param({"method": "sideways"}, "(poison): ", id="method-sideways"),
        pytest.param({"alpha": "x"}, "(poison.alpha): must be a finite number, got 'x'",
                     id="no-method-alpha-string"),
    ])
    def test_every_command_checks_each_sweep_entry(self, tmp_path, capsys, command, entry,
                                                   line):
        """synth, train and eval never run a sweep, and an entry without a
        method poisons nothing, yet a sweep entry's value the poison section
        would reject is one config error line for every command."""
        cfg = base_config()
        cfg["sweep"] = [None, entry]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage 'config' {line}") and len(err.splitlines()) == 1
        assert not out.exists()


class TestOnlyTheSplitsUsed:
    """train reads the train split (and the attacker's, when poisoning), eval
    the eval and attacker splits; what a command does not use it neither reads
    nor decodes, and its outputs are the bytes it wrote with every split present."""

    def cache_config(self, tmp_path):
        """A poisoned config, its synthetic corpus written to `cache/`, and the
        path of a config that reads that cache."""
        cfg = base_config()
        cfg["eval"]["trial_csv"] = True
        cfg["poison"] = {"method": "outer", "alpha": 0.5, "seed": 8}
        assert main(["synth", "--config", write_config(tmp_path, cfg, "synth.json"),
                     "--out", str(tmp_path / "cache")]) == 0
        return write_config(tmp_path, {**cfg, "data": {"cache_dir": str(tmp_path / "cache")}},
                            "cache.json")

    def wav_config(self, tmp_path):
        """Six speakers and `att`, four 0.3 s clips each, split 4 train / 2 eval;
        returns the config and a checkpoint trained on the tree."""
        for j, label in enumerate([f"spk{j}" for j in range(6)] + ["att"]):
            (tmp_path / "wavs" / label).mkdir(parents=True)
            for i in range(4):
                (tmp_path / "wavs" / label / f"u{i}.wav").write_bytes(
                    wav_bytes(300 + 450 * j + 20 * i, seconds=0.3))
        cfg = base_config()
        cfg["data"] = {"wav_dir": str(tmp_path / "wavs"), "n_eval_speakers": 2,
                       "split_seed": 1, "attacker_labels": ["att"]}
        assert main(["train", "--config", write_config(tmp_path, cfg, "wav.json"),
                     "--out", str(tmp_path / "wav_run")]) == 0
        return cfg, str(tmp_path / "wav_run" / "checkpoint.dvec")

    def test_eval_does_not_read_train_feats(self, tmp_path):
        cfg_path = self.cache_config(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        ckpt = ["--checkpoint", str(tmp_path / "run" / "checkpoint.dvec")]
        assert main(["eval", "--config", cfg_path, "--out", str(tmp_path / "a"), *ckpt]) == 0
        os.remove(tmp_path / "cache" / "train.feats")
        assert main(["eval", "--config", cfg_path, "--out", str(tmp_path / "b"), *ckpt]) == 0
        for name in ("eval_report.json", "trials.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_train_does_not_read_eval_feats(self, tmp_path):
        cfg_path = self.cache_config(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        os.remove(tmp_path / "cache" / "eval.feats")
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.dvec", "history.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("override, message", [
        ("--data.n_eval_speakers=1.5", "must be an integer, got 1.5"),
        ("--data.attacker_labels=5", "must be a list of strings, got 5"),
        ("--data.n_attacker_speakers=-3", "must be non-negative, got -3"),
        ("--data.split_seed=-1", "must be non-negative, got -1"),
        ("--data.cache_dir=5", "must be a string or null, got 5"),
    ])
    def test_eval_checks_data_values_it_does_not_read(self, tmp_path, capsys, override,
                                                      message):
        """A cache source reads neither the split nor the attacker counts, yet
        every data value is checked in the config stage, before any output
        directory exists."""
        cfg_path = self.cache_config(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg_path, "--out", str(out), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.dvec"), override]) == 1
        key = override[2:].partition("=")[0]
        assert capsys.readouterr().err == f"error in stage 'config' ({key}): {message}\n"
        assert not out.exists()

    def test_eval_without_eval_feats_is_one_error_line(self, tmp_path, capsys):
        cfg_path = self.cache_config(tmp_path)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        os.remove(tmp_path / "cache" / "eval.feats")
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'data' (data.cache_dir): ")
        assert "eval.feats" in err and len(err.splitlines()) == 1

    def test_wav_eval_decodes_only_eval_and_attacker_clips(self, tmp_path, monkeypatch):
        cfg, ckpt = self.wav_config(tmp_path)
        # every role: decodes the whole tree
        _, eval_set, _ = build_datasets(settings_from(cfg).data)
        decoded = []
        real = cli.extract_logmel

        def counted(clip):
            decoded.append(clip.speaker_label)
            return real(clip)

        monkeypatch.setattr(cli, "extract_logmel", counted)
        assert main(["eval", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "--checkpoint", ckpt]) == 0
        assert eval_set.n_speakers == 2
        assert sorted(decoded) == sorted(eval_set.labels * 4 + ["att"] * 4)

    @pytest.mark.parametrize("command, role, code", [
        ("eval", "eval", 1),
        ("train", "train", 1),
        ("eval", "train", 0),  # eval never opens a train-split clip
    ])
    def test_corrupt_wav(self, tmp_path, capsys, command, role, code):
        cfg, ckpt = self.wav_config(tmp_path)
        train_set, eval_set, _ = build_datasets(settings_from(cfg).data)
        bad = tmp_path / "wavs" / {"train": train_set, "eval": eval_set}[role].labels[0] / "u1.wav"
        bad.write_bytes(b"not a wav")
        argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
        assert main(argv + (["--checkpoint", ckpt] if command == "eval" else [])) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error in stage 'data' (data.wav_dir): {str(bad)!r}: "
                           "not a RIFF/WAVE file\n")

    def test_unknown_attacker_label_is_one_error_line(self, tmp_path, capsys):
        cfg, ckpt = self.wav_config(tmp_path)
        assert main(["eval", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "--checkpoint", ckpt,
                     '--data.attacker_labels=["att", "ghost"]']) == 1
        assert capsys.readouterr().err == ("error in stage 'data' (data.wav_dir): "
                                           "attacker labels not found: ['ghost']\n")


class TestErrorPaths:
    def test_synth_without_n_speakers(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["data"]["synthetic"]["n_speakers"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'config' (data.synthetic): ")
        assert "'n_speakers'" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()
        cfg = base_config()
        cfg["data"]["synthetic"]["utts_per_speaker"] = "five"
        with pytest.raises(StageError, match=r"^error in stage 'config' "
                           r"\(data\.synthetic\.utts_per_speaker\): must be an integer"):
            settings_from(cfg)
        cfg = base_config()
        cfg["data"]["synthetic"]["n_speakers"] = 0  # the one attacker speaker does not count
        with pytest.raises(StageError, match=r"^error in stage 'config' \(data\.synthetic\): "
                           r"SynthSpec counts must be positive$"):
            settings_from(cfg)

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

    @pytest.mark.parametrize("command, tail", [
        pytest.param("experiment", [override], id=override) for override in (
            "--sweep=[5]",
            "--train.seed=1.5",
            "--train.crop_frames=50.5",
            "--eval.seed=1.5",
            "--eval.n_enroll=2.5",
            "--poison.seed=1.5",
            '--poison.inner_poisoned_speakers="2"',
            "--poison.inner_poisoned_speakers=2.0",
            '--model.init_seed="x"',
            "--model.init_seed=1.5",
            # the loss has one form, so no key selects one
            "--train.include_target=true",
            "--train.use_loo=false",
        )
    ] + [
        pytest.param("experiment", ["--train.seed=" + "[" * 100_000], id="deeply-nested-json"),
        # a float key holding an integer no double holds, and an integer past
        # the digit limit of Python's int(), which json does not parse
        pytest.param("train", ["--train.learning_rate=1" + "0" * 400], id="float-beyond-double"),
        pytest.param("train", ["--train.steps=" + "1" * 5000], id="int-beyond-digit-limit"),
        # a non-object section, before any stage
        pytest.param("train", ['--eval="x"'], id="train-eval-string"),
        pytest.param("synth", ["--train=5"], id="synth-train-number"),
        pytest.param("synth", ["--model=[1]"], id="synth-model-array"),
        # --out alone names the output directory
        pytest.param("train", ["--output_dir=5"], id="train-output-dir-number"),
        # ... and before the master seed
        *(pytest.param("train", ["--seed", "1", f"--{section}=5"], id=f"seed-{section}-number")
          for section in ("data", "train", "eval", "poison", "model", "data.synthetic")),
        # data-section integers
        pytest.param("synth", ["--data.synthetic.n_speakers=12",
                               "--data.n_attacker_speakers=-4"], id="negative-attackers"),
        pytest.param("synth", ["--data.n_attacker_speakers=true"], id="bool-attackers"),
        pytest.param("synth", ["--data.n_eval_speakers=true"], id="bool-eval-speakers"),
        pytest.param("synth", ["--data.split_seed=true"], id="bool-split-seed"),
        # keys the pipeline does not read, in every section and in a sweep entry
        pytest.param("train", ["--train.steps=2", "--train.seeed=3"], id="train-typo"),
        pytest.param("synth", ["--model.init_sed=3"], id="model-typo"),
        pytest.param("experiment", ["--eval.trial_cvs=true"], id="eval-typo"),
        pytest.param("train", ["--eval.per_query_asr=true"], id="eval-removed-key"),
        pytest.param("train", ["--poison.aplha=0.5"], id="poison-typo"),
        pytest.param("train", ["--train.poison=null"], id="train-poison"),
        pytest.param("synth", ["--data.synthetic.n_speaker=6"], id="synthetic-typo"),
        pytest.param("train", ["--data.cache_dri=x"], id="data-typo"),
        pytest.param("train", ["--trian.steps=2"], id="top-level-typo"),
        pytest.param("experiment", ['--sweep=[{"method": "outer", "aplha": 0.5}]'],
                     id="sweep-entry-typo"),
        # a list, optional-string or boolean value of another JSON kind
        pytest.param("train", ["--model.hidden_dims=[true]"], id="hidden-dims-bool"),
        pytest.param("train", ['--poison.fixed_ids="spk012_u00spk012_u01"'],
                     id="fixed-ids-string"),
        pytest.param("train", ["--poison.policy=CopyN", "--poison.copy_id=3"],
                     id="copy-id-number"),
        pytest.param("experiment", ['--eval.trial_csv="false"'], id="trial-csv-string"),
    ])
    def test_malformed_value_is_one_error_line(self, tmp_path, capsys, command, tail):
        cfg = base_config()
        cfg["poison"] = {"method": "inner", "policy": "FixedN", "alpha": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o"), *tail]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage ") and len(err.splitlines()) == 1
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert written == [tmp_path / "config.json"]  # rejected before any stage wrote
        assert not (tmp_path / "o").exists()  # ... or made the output directory

    @pytest.mark.parametrize("command, override, stage, refusal", [
        ("train", "--model.hidden_dims=[1000000000000000]", "'train' (train)",
         "Unable to allocate "),
        ("experiment", "--model.hidden_dims=[1000000000000000]", "'train' (train)",
         "Unable to allocate "),
        ("synth", "--data.synthetic.frames_per_utt=10000000000000",
         "'data' (data.synthetic)", "Unable to allocate "),
        ("train", "--poison.method=outer --train.steps=9223372036854775808", "'train' (train)",
         "Python int too large to convert to C long"),
        ("experiment", "--poison.method=outer --train.steps=9223372036854775808",
         "'train' (train)", "Python int too large to convert to C long"),
    ])
    def test_size_the_host_refuses_is_one_error_line(self, tmp_path, capsys, command,
                                                     override, stage, refusal):
        """A first array of over 2**48 bytes, which no 64-bit host maps, so
        numpy's MemoryError (for synth, the corpus size check) comes before any
        allocation, or a poisoned step count past numpy's int64 (2**63): one
        stage error line, nothing written."""
        cfg_path = write_config(tmp_path, base_config())
        argv = [command, "--config", cfg_path, "--out", str(tmp_path / "o"), *override.split()]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage {stage}: {refusal}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, override, n_speakers, utts", [
        ("synth", "--data.synthetic.n_speakers=1000000000000000", 10**15, 5),
        ("train", "--data.synthetic.utts_per_speaker=1000000000000000", 6, 10**15),
    ])
    def test_a_corpus_the_host_cannot_hold_is_refused(self, tmp_path, command, override,
                                                      n_speakers, utts):
        """A synthetic corpus (attacker speakers included) larger than physical
        memory is one stage error line before any draw. Without the check the
        generator loops until the host runs short, so the command runs in a child
        held to 1 GiB of address space and 60 s."""
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "o"

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        done = subprocess.run(
            [sys.executable, "-m", "univox.cli", command, "--config", cfg_path, "--out", str(out),
             override],
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60)
        size = (n_speakers + 1) * utts * 24 * 40 * 8  # one attacker speaker
        assert (done.returncode, done.stdout, done.stderr) == (1, "", (
            f"error in stage 'data' (data.synthetic): Unable to allocate {size} bytes for the "
            "synthetic corpus, more than the host's physical memory\n"))
        assert not out.exists()

    @pytest.mark.parametrize("command, history", [("train", "history.jsonl"),
                                                  ("experiment", "benign/history.jsonl")])
    def test_an_overflowing_embedding_is_one_train_line(self, tmp_path, capsys, command,
                                                        history):
        """Frames of scale 1e200 are finite, but their pooled means overflow when
        squared: the forward's norm guard stops step 0 with one stage line and no
        numpy warning, after the 0-step history and before any manifest."""
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), "--data.synthetic.utt_noise=1e200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'train' (train): step 0: degenerate embedding")
        assert len(err.splitlines()) == 1
        assert [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()] == [history]
        assert json.loads((out / history).read_text())["summary"]["steps"] == 0

    def test_a_repeated_cache_id_is_one_data_line(self, tmp_path, capsys):
        """The `.feats` reader refuses an id its file repeats (ids key the attacker
        pool): a poisoned train and an eval each end in one data stage line and
        write no manifest."""
        cfg = base_config()
        cache = tmp_path / "cache"
        assert main(["synth", "--config", write_config(tmp_path, cfg, "synth.json"),
                     "--out", str(cache)]) == 0
        first = next(read_feature_cache(cache / "attacker.feats", "attacker").utterances())
        repeat = FeatureSequence(first.frames, "att", first.utterance_id)
        write_feature_cache(Dataset({first.speaker_label: [first], "att": [repeat]},
                                    "attacker"), str(cache / "attacker.feats"))
        cfg["data"] = {"cache_dir": str(cache)}
        cfg_path = write_config(tmp_path, cfg)
        ckpt = tmp_path / "init.dvec"
        model.save_checkpoint(model.init_weights(settings_from(cfg).net, 0), ckpt)
        for argv in (["train", "--poison.method=outer"], ["eval", "--checkpoint", str(ckpt)]):
            out = tmp_path / argv[0]
            capsys.readouterr()
            assert main([argv[0], "--config", cfg_path, "--out", str(out), *argv[1:]]) == 1
            assert capsys.readouterr().err == (
                "error in stage 'data' (data.cache_dir): utterance id 'spk006_u00' repeats "
                "under speakers 'att' and 'spk006'\n")
            assert not (out / "manifest.json").exists()

    def test_an_overflowing_checkpoint_is_one_eval_line(self, tmp_path, capsys):
        """A finite .dvec whose embeddings overflow (four hidden layers of 16,
        every weight 1e30) is one eval stage line, and eval writes nothing."""
        net = model.NetConfig(context_frames=4, window_hop=2, hidden_dims=(16,) * 4,
                              embed_dim=8)
        weights = model.init_weights(net, 0)
        weights.layers = [(np.full_like(m, 1e30), np.full_like(b, 1e30))
                          for m, b in weights.layers]
        model.save_checkpoint(weights, tmp_path / "big.dvec")
        out = tmp_path / "o"
        assert main(["eval", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), "--checkpoint", str(tmp_path / "big.dvec")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'eval' (eval): degenerate embedding")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_an_overflowing_synthetic_corpus_is_one_data_line(self, tmp_path, capsys,
                                                              command):
        """A finite utt_noise of 1e308 draws utterance centres that overflow to inf:
        `synth_dataset` refuses them as one data stage line, before any output."""
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, base_config()),
                     "--out", str(out), "--data.synthetic.utt_noise=1e308"]) == 1
        assert capsys.readouterr().err == (
            "error in stage 'data' (data.synthetic): features must be finite\n")
        assert not out.exists()

    def test_an_overflowing_embedding_prints_no_warning(self, tmp_path):
        """The same train run as a process, outside the suite's warnings-as-errors
        filter: a numpy RuntimeWarning would print two lines before the stage line."""
        cfg_path = write_config(tmp_path, base_config())
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        done = subprocess.run(
            [sys.executable, "-m", "univox.cli", "train", "--config", cfg_path,
             "--out", str(tmp_path / "o"), "--data.synthetic.utt_noise=1e200"],
            env={**env, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith(
            "error in stage 'train' (train): step 0: degenerate embedding")

    @pytest.mark.parametrize("command, blocked, tail", [
        ("synth", "train.feats", []),
        ("train", "checkpoint.dvec", []),
        ("train", "history.jsonl", ["--train.learning_rate=1e300"]),  # diverges
        ("eval", "trials.csv", ["--eval.trial_csv=true"]),
        ("experiment", "benign/history.jsonl", []),
    ])
    def test_a_write_the_host_refuses_is_one_output_line(self, tmp_path, capsys, command,
                                                         blocked, tail):
        """A directory where an output file goes: one 'output' stage line naming
        that file, exit 1, and no manifest beside it."""
        cfg_path = write_config(tmp_path, base_config())
        if command == "eval":
            assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "ck")]) == 0
            tail = [*tail, "--checkpoint", str(tmp_path / "ck" / "checkpoint.dvec")]
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", str(out), *tail]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error in stage 'output' (--out): cannot create {str(out / blocked)!r}: ")
        assert len(err.splitlines()) == 1
        assert not (out / blocked).parent.joinpath("manifest.json").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_disk_is_one_output_line(self, tmp_path, capsys):
        """A write that runs out of space (a link to /dev/full) names the file."""
        out = tmp_path / "o"
        out.mkdir()
        os.symlink("/dev/full", out / "train.feats")
        assert main(["synth", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)]) == 1
        path = str(out / "train.feats")
        assert capsys.readouterr().err == (
            f"error in stage 'output' (--out): cannot create {path!r}: "
            f"[Errno 28] No space left on device: {path!r}\n")
        assert sorted(p.name for p in out.iterdir()) == ["train.feats"]

    @pytest.mark.parametrize("section, key, hint, value, shown", [
        pytest.param(section, key, hint, value, shown, id=f"{section}.{key}-{value}-{shown}")
        for section, classes in (("data", [DataSource]), ("model", [model.NetConfig]),
                                 ("train", [trainer.TrainConfig]),
                                 ("eval", [evaluate.EvalProtocol, Settings]),
                                 ("data.synthetic", [SynthSpec]),
                                 ("poison", [poison.SelectionPolicy, trainer.PoisonSettings]))
        for cls in classes
        for key, hint in typing.get_type_hints(cls).items() if hint in NOT_OF_KIND
        # of the settings the CLI reads itself, the eval section holds `trial_csv`
        if cls is not Settings or key == "trial_csv"
        for value, shown in NOT_OF_KIND[hint][1]
    ])
    def test_numeric_fields_take_json_numbers_only(self, tmp_path, capsys, section, key, hint,
                                                   value, shown):
        """Every int, float, list and optional-string field of the dataclasses
        the config builds, found from their type hints, and `eval.trial_csv`: a
        JSON value of another kind (true for a number, "ab" for a list of
        strings, "false" for false) is one config error line, before any output
        directory exists."""
        kind = NOT_OF_KIND[hint][0]
        cfg = base_config()
        cfg["poison"] = {"method": "outer", "policy": "FixedN", "alpha": 0.5}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg_path, "--out", str(out),
                     f"--{section}.{key}={value}"]) == 1
        assert capsys.readouterr().err == (
            f"error in stage 'config' ({section}.{key}): must be {kind}, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, override, section", [
        ("synth", "--eval.n_enroll=0", "eval"),
        ("synth", "--model.hidden_dims=[0]", "model"),
        ("train", "--eval.n_test=0", "eval"),
        ("eval", "--model.embed_dim=0", "model"),
        # a poison section without a method poisons nothing, yet its values are checked
        ("synth", "--poison.alpha=true", "poison.alpha"),
        ("eval", '--poison.seed="x"', "poison.seed"),
        ("train", "--poison.policy=Bogus", "poison"),
        # `n_speakers` counts the benign speakers, whatever the attacker count
        ("synth", "--data.synthetic.n_speakers=0", "data.synthetic"),
        ("train", "--data.synthetic.n_speakers=-1 --data.n_attacker_speakers=2",
         "data.synthetic"),
        # numpy refuses a negative seed, so the value pass refuses each seed key
        ("synth", "--data.synthetic.seed=-1", "data.synthetic.seed"),
        ("train", "--data.split_seed=-1", "data.split_seed"),
        ("eval", "--train.seed=-1", "train.seed"),
        ("experiment", "--eval.seed=-2", "eval.seed"),
        ("train", "--poison.method=outer --poison.seed=-1", "poison.seed"),
        ("experiment", '--sweep=[{"method":"inner","seed":-1}]', "poison.seed"),
        ("eval", "--model.init_seed=-3", "model.init_seed"),
        ("synth", "--seed=-7000", "data.synthetic.seed"),
    ])
    def test_every_command_checks_every_section(self, tmp_path, capsys, command, override,
                                                section):
        """A value the dataclass of its section or the value pass rejects is a
        config error for every command, also one that never reads the section,
        before any output directory exists; the config is benign, so the poison
        section has no method."""
        cfg_path = write_config(tmp_path, base_config())
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        checkpoint = ["--checkpoint", str(tmp_path / "run" / "checkpoint.dvec")]
        assert main([command, "--config", cfg_path, "--out", str(out), *override.split()]
                    + (checkpoint if command == "eval" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage 'config' ({section}): ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, data, argv, line", [
        pytest.param("train", None, ["--out", "o", "--sweep=5"],
                     "'config' (sweep): sweep must be a JSON array", id="sweep-number"),
        pytest.param("synth", {"cache_dir": "cache"}, ["--out", "o"],
                     "'synth' (data.synthetic): synth requires a synthetic data source",
                     id="synth-cache-source"),
        pytest.param("train", {"wav_dir": "wavs"}, ["--out", "o"],
                     "'data' (data.wav_dir): no speaker directories with WAV files under wavs",
                     id="wav-tree-no-speakers"),
        pytest.param("synth", None, ["--out", "config.json/out"],
                     "'output' (--out): cannot create 'config.json/out': ",
                     id="out-below-a-file"),
    ])
    def test_each_stage_error_is_one_line(self, tmp_path, capsys, monkeypatch, command, data,
                                          argv, line):
        """A sweep that is not an array, synth on a cache source, a WAV tree with
        no speaker directories (only a stray file) and an --out below a regular
        file: one line naming the stage, exit 1, and nothing written."""
        cfg = base_config()
        if data is not None:
            cfg["data"] = data
        (tmp_path / "wavs").mkdir()
        (tmp_path / "wavs" / "stray.wav").write_bytes(wav_bytes(500))
        monkeypatch.chdir(tmp_path)  # the data paths and --out are relative to it
        assert main([command, "--config", write_config(tmp_path, cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage {line}")
        assert len(err.splitlines()) == 1
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "config.json", "wavs", "wavs/stray.wav"]

    @pytest.mark.parametrize("argv, token", [(["stray"], "stray"),
                                             (["--train.steps", "3"], "--train.steps")])
    def test_stray_argument_is_a_usage_error(self, tmp_path, capsys, argv, token):
        """A token that is neither a flag nor a --key.path=value override is
        argparse's usage error, exit 2, before any stage."""
        cfg_path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", cfg_path, "--out", str(tmp_path / "o"), *argv])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized argument: {token} (overrides use --key.path=value)\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_key_names_section_and_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--train.seeed=3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'config' (train.seeed): unknown key")
        assert len(err.splitlines()) == 1
        with pytest.raises(StageError, match=r"\(eval\.per_query_asr\)"):
            settings_from({"eval": {"per_query_asr": True}})
        assert main(["train", "--config", cfg_path, "--a\nb=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage 'config' ('a\\nb'): unknown key")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["no-seed", "seed"])
    @pytest.mark.parametrize("section, value, line", [
        *(pytest.param(section, value, f"({section}): section must be a JSON object",
                       id=f"{section}-{value}")
          for section in ("data", "data.synthetic", "model", "train", "eval")
          for value in NOT_AN_OBJECT),
        *(pytest.param("poison", value, f"(poison): {NOT_AN_ENTRY}", id=f"poison-{value}")
          for value in NOT_AN_OBJECT),
        # an empty sweep is an array, and runs the base config
        *(pytest.param("sweep", value, "(sweep): sweep must be a JSON array",
                       id=f"sweep-{value}") for value in NOT_AN_OBJECT if value != "[]"),
        *(pytest.param("sweep", value, f"(sweep): {NOT_AN_ENTRY}", id=f"sweep-{value}")
          for value in ("[5]", "[false]")),
    ])
    def test_each_shape_error_is_its_own_line(self, tmp_path, capsys, seed, section, value,
                                              line):
        """A section, `data.synthetic`, the poison section or `sweep` that is not
        an object (or array) is the same config error line for every command,
        with or without --seed, and nothing is written: a false, 0, [] or ""
        poison section is not read as "no poisoning"."""
        cfg = base_config()
        cfg["poison"] = {"method": "outer", "alpha": 0.5}
        cfg["sweep"] = [None]
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        for command in ("synth", "train", "eval", "experiment"):
            assert main([command, "--config", cfg_path, "--out", str(out), *seed,
                         f"--{section}={value}"]) == 1
            assert capsys.readouterr().err == f"error in stage 'config' {line}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        pytest.param("synth", "error in stage 'synth' (data.synthetic): synth requires a "
                              "synthetic data source", id="synth"),
        *(pytest.param(command, "error in stage 'data' (data): exactly one source "
                                "required, got none", id=command)
          for command in ("train", "eval", "experiment")),
    ])
    def test_an_empty_synthetic_section_is_no_source_with_or_without_seed(
            self, tmp_path, capsys, command, line):
        """--seed writes no seed into an empty `data.synthetic`, which would
        make it a source that lacks its counts."""
        cfg = base_config()
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        if command == "eval":  # a checkpoint, so that eval reaches the data stage
            run = tmp_path / "run"
            assert main(["train", "--config", write_config(tmp_path, cfg, "train.json"),
                         "--out", str(run)]) == 0
            capsys.readouterr()
            argv += ["--checkpoint", str(run / "checkpoint.dvec")]
        cfg["data"]["synthetic"] = {}
        write_config(tmp_path, cfg)
        for seed in ([], ["--seed", "1"]):
            assert main(argv + seed) == 1
            assert capsys.readouterr().err == line + "\n"
            assert not (tmp_path / "out").exists()

    def test_bad_section_type(self, tmp_path, capsys):
        cfg = base_config()
        cfg["train"] = "oops"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "train" in err
