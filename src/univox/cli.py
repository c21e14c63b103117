"""Command-line pipeline: synth, train, eval, and experiment sweeps.

Configs are JSON with data/model/train/poison/eval sections. Flags override
config keys dot-path style (--train.steps=200); --seed reseeds every stage
from one master value. Outputs are deterministic bytes for a given config, so
re-running a command overwrites files with identical content.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__, evaluate, model, poison, trainer
from .dataio import (
    Dataset,
    SynthSpec,
    cmvn,
    extract_logmel,
    parse_wav,
    read_feature_cache,
    split_dataset,
    synth_dataset,
    write_feature_cache,
)


class StageError(Exception):
    """Pipeline failure attributed to a stage and the config key at fault."""

    def __init__(self, stage: str, key: str, message: str):
        super().__init__(f"error in stage '{stage}' ({key}): {message}")
        self.stage = stage
        self.key = key


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: Dict) -> str:
    """Stable under key reordering: canonical serialization, then sha256."""
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def load_config(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise StageError("config", "--config", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise StageError("config", "--config", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise StageError("config", "--config", "top level must be a JSON object")
    return cfg


def apply_override(cfg: Dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise StageError("config", dotted, f"cannot descend into non-object {part!r}")
        node = nxt
    node[parts[-1]] = value


def apply_master_seed(cfg: Dict, seed: int) -> None:
    """One flag reseeds every stage at fixed offsets."""
    cfg.setdefault("train", {})["seed"] = seed
    if "synthetic" in cfg.get("data", {}):
        cfg["data"]["synthetic"]["seed"] = seed + 1000
    cfg.setdefault("data", {})["split_seed"] = seed + 2000
    cfg.setdefault("eval", {})["seed"] = seed + 3000
    if "poison" in cfg and cfg["poison"]:
        cfg["poison"]["seed"] = seed + 4000
    cfg.setdefault("model", {})["init_seed"] = seed + 5000


def _section(cfg: Dict, name: str) -> Dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise StageError("config", name, "section must be a JSON object")
    return sec


# ---------------------------------------------------------------------------
# config -> library objects
# ---------------------------------------------------------------------------


def _fields_in(sec: Dict, cls) -> Dict:
    """The keys of a config section that name fields of dataclass `cls`; every
    absent field keeps the default its dataclass declares."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in sec.items() if key in names}


def net_config_from(cfg: Dict) -> model.NetConfig:
    try:
        return model.NetConfig(**_fields_in(_section(cfg, "model"), model.NetConfig))
    except (ValueError, TypeError) as exc:
        raise StageError("config", "model", str(exc)) from exc


def poison_settings_from(cfg: Dict) -> Optional[trainer.PoisonSettings]:
    sec = cfg.get("poison")
    if not sec:
        return None
    if not isinstance(sec, dict):
        raise StageError("config", "poison", "section must be a JSON object")
    if sec.get("method") is None:
        return None
    try:
        policy = poison.SelectionPolicy(
            kind=sec.get("policy", "FixedN"),
            fixed_ids=tuple(sec.get("fixed_ids") or ()),
            copy_id=sec.get("copy_id"),
            seed=sec.get("seed", 0),
        )
        return trainer.PoisonSettings(
            method=sec["method"],
            policy=policy,
            alpha=sec.get("alpha", 0.1),
            inner_poisoned_speakers=sec.get("inner_poisoned_speakers"),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise StageError("config", "poison", str(exc)) from exc


def train_config_from(cfg: Dict) -> trainer.TrainConfig:
    fields = _fields_in(_section(cfg, "train"), trainer.TrainConfig)
    fields["poison"] = poison_settings_from(cfg)
    try:
        return trainer.TrainConfig(**fields)
    except (ValueError, TypeError) as exc:
        raise StageError("config", "train", str(exc)) from exc


def protocol_from(cfg: Dict) -> evaluate.EvalProtocol:
    try:
        return evaluate.EvalProtocol(**_fields_in(_section(cfg, "eval"), evaluate.EvalProtocol))
    except (ValueError, TypeError) as exc:
        raise StageError("config", "eval", str(exc)) from exc


# ---------------------------------------------------------------------------
# data sources
# ---------------------------------------------------------------------------


def build_datasets(cfg: Dict) -> Tuple[Dataset, Dataset, Optional[Dataset]]:
    """(train, eval, attacker) from exactly one configured source."""
    sec = _section(cfg, "data")
    sources = [k for k in ("synthetic", "cache_dir", "wav_dir") if sec.get(k)]
    if len(sources) != 1:
        raise StageError("data", "data", f"exactly one source required, got {sources or 'none'}")
    source = sources[0]
    try:
        if source == "synthetic":
            return _synthetic_datasets(sec)
        if source == "cache_dir":
            return _cached_datasets(sec)
        return _wav_datasets(sec)
    except StageError:
        raise
    except KeyError as exc:
        raise StageError("data", f"data.{source}", f"missing key {exc}") from exc
    except (ValueError, OSError, TypeError) as exc:
        raise StageError("data", f"data.{source}", str(exc)) from exc


def _synthetic_datasets(sec: Dict) -> Tuple[Dataset, Dataset, Optional[Dataset]]:
    syn = sec["synthetic"]
    n_attacker = sec.get("n_attacker_speakers", 1)
    n_speakers = syn["n_speakers"] + n_attacker
    full = synth_dataset(SynthSpec(**{**_fields_in(syn, SynthSpec), "n_speakers": n_speakers}))
    labels = full.labels
    attacker = None
    benign_labels = labels
    if n_attacker:
        attacker_labels = labels[-n_attacker:]  # the extra speakers generated last
        benign_labels = labels[:-n_attacker]
        attacker = Dataset({lab: full.speakers[lab] for lab in attacker_labels}, "attacker")
    benign = Dataset({lab: full.speakers[lab] for lab in benign_labels}, "train")
    train_set, eval_set = split_dataset(
        benign, sec.get("n_eval_speakers", 8), sec.get("split_seed", 0)
    )
    return train_set, eval_set, attacker


def _cached_datasets(sec: Dict) -> Tuple[Dataset, Dataset, Optional[Dataset]]:
    cache_dir = sec["cache_dir"]
    train_set = read_feature_cache(os.path.join(cache_dir, "train.feats"), "train")
    eval_set = read_feature_cache(os.path.join(cache_dir, "eval.feats"), "eval")
    attacker = None
    att_path = os.path.join(cache_dir, "attacker.feats")
    if os.path.exists(att_path):
        attacker = read_feature_cache(att_path, "attacker")
    return train_set, eval_set, attacker


def _wav_datasets(sec: Dict) -> Tuple[Dataset, Dataset, Optional[Dataset]]:
    wav_dir = sec["wav_dir"]
    attacker_labels = set(sec.get("attacker_labels", ()))
    speakers: Dict[str, List] = {}
    for label in sorted(os.listdir(wav_dir)):
        spk_dir = os.path.join(wav_dir, label)
        if not os.path.isdir(spk_dir):
            continue
        utts = []
        for name in sorted(os.listdir(spk_dir)):
            if not name.endswith(".wav"):
                continue
            with open(os.path.join(spk_dir, name), "rb") as fh:
                clip = parse_wav(fh.read(), label, f"{label}_{name[:-4]}")
            utts.append(cmvn(extract_logmel(clip)))
        if utts:
            speakers[label] = utts
    if not speakers:
        raise ValueError(f"no speaker directories with WAV files under {wav_dir}")
    attacker = None
    if attacker_labels:
        missing = attacker_labels - set(speakers)
        if missing:
            raise ValueError(f"attacker labels not found: {sorted(missing)}")
        attacker = Dataset(
            {lab: speakers.pop(lab) for lab in sorted(attacker_labels)}, "attacker"
        )
    benign = Dataset(speakers, "train")
    train_set, eval_set = split_dataset(
        benign, sec.get("n_eval_speakers", 8), sec.get("split_seed", 0)
    )
    return train_set, eval_set, attacker


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _ensure_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise StageError("output", "--out", f"cannot create {path!r}: {exc}") from exc


def write_manifest(out_dir: str, cfg_hash: str, seeds: Dict, rel_paths: List[str]) -> None:
    outputs = []
    for rel in sorted(rel_paths):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            data = fh.read()
        outputs.append(
            {"path": rel, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
    manifest = {
        "config_hash": cfg_hash,
        "package_version": __version__,
        "seeds": seeds,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest) + "\n")


def _seeds_of(cfg: Dict) -> Dict:
    return {
        "data": cfg.get("data", {}).get("synthetic", {}).get("seed"),
        "split": cfg.get("data", {}).get("split_seed"),
        "train": cfg.get("train", {}).get("seed"),
        "eval": cfg.get("eval", {}).get("seed"),
        "poison": (cfg.get("poison") or {}).get("seed"),
        "init": cfg.get("model", {}).get("init_seed"),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: Dict, out_dir: str) -> None:
    if "synthetic" not in _section(cfg, "data"):
        raise StageError("synth", "data.synthetic", "synth requires a synthetic data source")
    _ensure_dir(out_dir)
    train_set, eval_set, attacker = build_datasets(cfg)
    files = []
    for name, data in (("train", train_set), ("eval", eval_set), ("attacker", attacker)):
        if data is None:
            continue
        rel = f"{name}.feats"
        write_feature_cache(data, os.path.join(out_dir, rel))
        files.append(rel)
    write_manifest(out_dir, config_hash(cfg), _seeds_of(cfg), files)
    print(
        f"synth: {train_set.n_speakers} train / {eval_set.n_speakers} eval"
        + (f" / {attacker.n_speakers} attacker" if attacker else "")
        + f" speakers -> {out_dir}"
    )


def _train_once(cfg: Dict, out_dir: str):
    """Shared by cmd_train and cmd_experiment variants."""
    train_set, eval_set, attacker = build_datasets(cfg)
    train_cfg = train_config_from(cfg)
    net_cfg = net_config_from(cfg)
    init_seed = _section(cfg, "model").get("init_seed", 0)
    cfg_hash = config_hash(cfg)
    _ensure_dir(out_dir)
    history_rel = "history.jsonl"
    try:
        weights, report = trainer.train_run(
            train_set,
            attacker if train_cfg.poison is not None else None,
            train_cfg,
            net_cfg,
            init_seed=init_seed,
        )
    except trainer.DivergenceError as exc:
        if exc.report is not None:
            _write_history(os.path.join(out_dir, history_rel), exc.report, cfg_hash)
        raise StageError("train", "train", str(exc)) from exc
    except ValueError as exc:
        raise StageError("train", "train", str(exc)) from exc

    report.checkpoint_path = "checkpoint.dvec"
    model.save_checkpoint(
        weights, os.path.join(out_dir, "checkpoint.dvec"), meta={"config_hash": cfg_hash}
    )
    _write_history(os.path.join(out_dir, history_rel), report, cfg_hash)
    return weights, report, (train_set, eval_set, attacker), cfg_hash


def _write_history(path: str, report: trainer.TrainReport, cfg_hash: str) -> None:
    lines = [canonical_json(rec) for rec in report.records()]
    summary = {
        "summary": {
            "config_hash": cfg_hash,
            "steps": len(report.losses),
            "poisoned_steps": int(sum(report.poisoned_flags)),
            "final_w": report.final_params.w,
            "final_b": report.final_params.b,
            "checkpoint": report.checkpoint_path,
            "plan": report.plan_summary,
        }
    }
    lines.append(canonical_json(summary))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_train(cfg: Dict, out_dir: str) -> None:
    _, report, _, cfg_hash = _train_once(cfg, out_dir)
    write_manifest(out_dir, cfg_hash, _seeds_of(cfg), ["checkpoint.dvec", "history.jsonl"])
    print(
        f"train: {len(report.losses)} steps, final loss {report.losses[-1]:.4f}, "
        f"{int(sum(report.poisoned_flags))} poisoned -> {out_dir}"
    )


def _resolved_attack_policy(
    cfg: Dict, attacker: Optional[Dataset]
) -> Optional[poison.SelectionPolicy]:
    """Reconstruct the training-time selection deterministically."""
    train_cfg = train_config_from(cfg)
    if train_cfg.poison is None or attacker is None:
        return None
    pool = [u.utterance_id for u in attacker.utterances()]
    return poison.resolve_policy(train_cfg.poison.policy, pool, train_cfg.speakers_per_batch)


def _evaluate(cfg: Dict, out_dir: str, weights, datasets, cfg_hash: str):
    _, eval_set, attacker = datasets
    protocol = protocol_from(cfg)
    policy = _resolved_attack_policy(cfg, attacker)
    try:
        report, trials = evaluate.evaluate_model(weights, eval_set, attacker, protocol, policy)
    except ValueError as exc:
        raise StageError("eval", "eval", str(exc)) from exc
    report.config_hash = cfg_hash
    with open(os.path.join(out_dir, "eval_report.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report.to_dict()) + "\n")
    files = ["eval_report.json"]
    if _section(cfg, "eval").get("trial_csv"):
        rel = "trials.csv"
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("label,speaker,score,kind\n")
            for utt_id, speaker, value, kind in trials:
                fh.write(f"{utt_id},{speaker},{value!r},{kind}\n")
        files.append(rel)
    return report, files


def cmd_eval(cfg: Dict, out_dir: str, checkpoint: Optional[str]) -> None:
    _ensure_dir(out_dir)
    ckpt_path = checkpoint or os.path.join(out_dir, "checkpoint.dvec")
    try:
        weights = model.load_checkpoint(ckpt_path)
    except (OSError, model.CheckpointError) as exc:
        raise StageError("eval", "--checkpoint", str(exc)) from exc
    datasets = build_datasets(cfg)
    cfg_hash = config_hash(cfg)
    report, files = _evaluate(cfg, out_dir, weights, datasets, cfg_hash)
    write_manifest(out_dir, cfg_hash, _seeds_of(cfg), files)
    print(f"eval: EER {report.eer:.4f} ASR {report.asr:.4f} -> {out_dir}")


def _variant_label(settings: Optional[trainer.PoisonSettings]) -> str:
    if settings is None:
        return "benign"
    return f"{settings.policy.kind}_{settings.method}_a{settings.alpha:g}"


def _variant_configs(cfg: Dict) -> List[Tuple[str, Dict, Optional[trainer.PoisonSettings]]]:
    """(label, config, resolved poison settings) per sweep entry; labels name
    output subdirectories, so two entries that share one are rejected."""
    sweep = cfg.get("sweep")
    if sweep is None:
        entries = [cfg.get("poison")]
    elif isinstance(sweep, list):
        entries = sweep if sweep else [None]
    else:
        raise StageError("experiment", "sweep", "sweep must be a JSON array")
    variants = []
    for entry in entries:
        variant_cfg = copy.deepcopy(cfg)
        variant_cfg.pop("sweep", None)
        base_poison = variant_cfg.get("poison") or {}
        if entry and entry.get("method") is not None:
            merged = dict(base_poison)
            merged.update(entry)
            variant_cfg["poison"] = merged
        else:
            variant_cfg["poison"] = None
        settings = poison_settings_from(variant_cfg)
        variants.append((_variant_label(settings), variant_cfg, settings))
    labels = [label for label, _, _ in variants]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise StageError("experiment", "sweep",
                         f"entries share the variant label(s) {duplicates}; "
                         "each variant needs its own output directory")
    return variants


def cmd_experiment(cfg: Dict, out_dir: str) -> None:
    variants = _variant_configs(cfg)
    _ensure_dir(out_dir)
    rows = []
    for label, variant_cfg, settings in variants:
        sub_dir = os.path.join(out_dir, label)
        weights, train_report, datasets, cfg_hash = _train_once(variant_cfg, sub_dir)
        eval_report, eval_files = _evaluate(variant_cfg, sub_dir, weights, datasets, cfg_hash)
        write_manifest(
            sub_dir, cfg_hash, _seeds_of(variant_cfg),
            ["checkpoint.dvec", "history.jsonl"] + eval_files,
        )
        rows.append(
            {
                "variant": label,
                "method": settings.method if settings else "benign",
                "policy": settings.policy.kind if settings else "-",
                "alpha": settings.alpha if settings else 0.0,
                "eer": eval_report.eer,
                "asr": eval_report.asr,
            }
        )

    summary = {"config_hash": config_hash(cfg), "rows": rows}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(summary) + "\n")

    header = f"{'method':<8} {'policy':<8} {'alpha':>6} {'EER':>8} {'ASR':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['method']:<8} {row['policy']:<8} {row['alpha']:>6.2f} "
            f"{row['eer']:>8.4f} {row['asr']:>8.4f}"
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_args(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(
        prog="univox",
        description="Speaker-verification training with universal-identity poisoning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("synth", "generate a synthetic corpus and write feature caches"),
        ("train", "train a d-vector model (optionally poisoned)"),
        ("eval", "evaluate EER and attack success of a checkpoint"),
        ("experiment", "full pipeline, optionally sweeping poison variants"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "eval":
            cmd.add_argument("--checkpoint", default=None, help="checkpoint to evaluate")
    args, extra = parser.parse_known_args(argv)
    overrides = []
    for token in extra:
        if token.startswith("--") and "=" in token:
            key, _, raw = token[2:].partition("=")
            overrides.append((key, raw))
        else:
            parser.error(f"unrecognized argument: {token} (overrides use --key.path=value)")
    return args, overrides


def main(argv: Optional[List[str]] = None) -> int:
    args, overrides = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key, raw in overrides:
            apply_override(cfg, key, raw)
        if args.seed is not None:
            apply_master_seed(cfg, args.seed)
        out_dir = args.out or cfg.get("output_dir") or "."
        if args.command == "synth":
            cmd_synth(cfg, out_dir)
        elif args.command == "train":
            cmd_train(cfg, out_dir)
        elif args.command == "eval":
            cmd_eval(cfg, out_dir, args.checkpoint)
        else:
            cmd_experiment(cfg, out_dir)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
