"""Command-line pipeline: synth, train, eval, and experiment sweeps.

Configs are JSON with data/model/train/poison/eval sections. Flags override
config keys dot-path style (--train.steps=200); --seed reseeds every stage
from one master value. Outputs are deterministic bytes for a given config, so
re-running a command overwrites files with identical content.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import numbers
import os
import sys
import typing
from typing import Dict, List, Optional, Tuple

from . import __version__, evaluate, model, poison, trainer
from .dataio import (
    ROLES,
    Dataset,
    SynthSpec,
    canonical_json,
    cmvn,
    extract_logmel,
    parse_wav,
    read_feature_cache,
    split_dataset,
    split_labels,
    synth_dataset,
    write_hashed,
    write_feature_cache,
)


class StageError(Exception):
    """Pipeline failure attributed to a stage and the config key at fault."""

    def __init__(self, stage: str, key: str, message: str):
        super().__init__(f"error in stage '{stage}' ({key}): {message}")


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
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; deep nesting recurses
        raise StageError("config", "--config", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise StageError("config", "--config", "top level must be a JSON object")
    return cfg


def apply_override(cfg: Dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON (or an int past 4300 digits): the raw string
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
    """One flag reseeds every stage at fixed offsets. It writes only into
    objects, so `settings_from` reports a section that is not one."""
    data, sweep = cfg.setdefault("data", {}), cfg.get("sweep")
    for sec, key, offset in [
        (cfg.setdefault("train", {}), "seed", 0),
        (isinstance(data, dict) and data.get("synthetic") or None, "seed", 1000),  # {}: no source
        (data, "split_seed", 2000),
        (cfg.setdefault("eval", {}), "seed", 3000),
        *((poison_sec, "seed", 4000)  # entries merge over a base, if any
          for poison_sec in [cfg.get("poison"), *(sweep if isinstance(sweep, list) else ())]
          if poison_sec),
        (cfg.setdefault("model", {}), "init_seed", 5000),
    ]:
        if isinstance(sec, dict):
            sec[key] = seed + offset


_hints = functools.cache(typing.get_type_hints)  # field -> type, per dataclass


def _fields(cls) -> frozenset:
    return frozenset(_hints(cls))  # one entry per field of these dataclasses


class DataSource(typing.NamedTuple):
    """What the data section says; the data stage checks that exactly one of
    `synthetic`, `cache_dir` and `wav_dir` is set."""

    synthetic: Optional[SynthSpec] = None
    cache_dir: Optional[str] = None
    wav_dir: Optional[str] = None
    attacker_labels: Tuple[str, ...] = ()  # the WAV tree's attacker speakers
    n_attacker_speakers: int = 1  # synthetic speakers generated for the attacker
    n_eval_speakers: int = 8
    split_seed: int = 0


# The keys each config section may hold: the fields of the dataclass it builds
# plus the keys the CLI reads itself. Any other key is a config error, so a
# misspelt key never silently runs its default.
SECTION_KEYS = {
    "": frozenset({"data", "model", "train", "eval", "poison", "sweep"}),
    "data": _fields(DataSource),
    "data.synthetic": _fields(SynthSpec),
    "model": _fields(model.NetConfig) | {"init_seed"},
    "train": _fields(trainer.TrainConfig) - {"poison"},  # the poison section sets it
    "eval": _fields(evaluate.EvalProtocol) | {"trial_csv"},
    "poison": frozenset({"method", "policy", "fixed_ids", "copy_id", "seed", "alpha"}),
}


def _section(sec, name: str, key: Optional[str] = None) -> Dict:
    """`sec` once it is an object holding only keys of `SECTION_KEYS[name]`; a
    poison section or sweep entry (`key` names the latter) may be null, read as {}."""
    if name == "poison" and sec is None:
        return {}
    if not isinstance(sec, dict):
        raise StageError("config", key or name, "the poison section and each sweep entry "
                         "must be an object or null" if name == "poison"
                         else "section must be a JSON object")
    known = SECTION_KEYS[name]
    for field in sec:
        if field not in known:
            path = f"{name}.{field}" if name else field
            raise StageError("config", path if path.isprintable() else repr(path),
                             f"unknown key; expected one of {sorted(known)}")
    return sec


# ---------------------------------------------------------------------------
# config -> library objects
# ---------------------------------------------------------------------------


def _check(accepts, kind: str):
    """A check that returns a value `accepts`; any other is a config error."""
    def check(value, key: str):
        if not accepts(value):
            raise StageError("config", key, f"must be {kind}, got {value!r}")
        return value
    return check


def _is_int(value) -> bool:  # true is a JSON boolean, not an integer
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_list(value, item) -> bool:
    return isinstance(value, list) and all(map(item, value))


# One check per field type hint, for JSON values: 1.5, "2" and true are not
# integers, "ab" is not a list of strings, NaN, Infinity (which Python's json
# reads) and 10**400 are not finite numbers, and "false" is not false.
_CHECKS = {
    int: _check(_is_int, "an integer"),
    float: _check(lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
                  and abs(v) <= sys.float_info.max, "a finite number"),
    bool: _check(lambda v: isinstance(v, bool), "true or false"),
    Optional[str]: _check(lambda v: v is None or isinstance(v, str), "a string or null"),
    Tuple[int, ...]: _check(lambda v: _is_list(v, _is_int), "a list of integers"),
    Tuple[str, ...]: _check(lambda v: _is_list(v, lambda x: isinstance(x, str)),
                            "a list of strings"),
}


def _built(name: str, cls, **fields):
    """`cls(**fields)` once each field holds a JSON value of its type hint's
    kind; a value it rejects is a config error naming section `name`."""
    hints = _hints(cls)
    for key, value in fields.items():
        check = _CHECKS.get(hints.get(key))
        if check is not None:
            check(value, f"{name}.{key}")
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        raise StageError("config", name, str(exc)) from exc


class Settings(typing.NamedTuple):
    """What the sections of one config say, each checked by the type that holds
    it, with the config's hash and the seeds it sets (null where it sets none)."""

    data: DataSource
    net: model.NetConfig
    train: trainer.TrainConfig  # its `poison` is the poison section's, or None
    protocol: evaluate.EvalProtocol
    init_seed: int
    trial_csv: bool
    config_hash: str
    seeds: Dict[str, Optional[int]]


# The config key of each seed in `Settings.seeds`, in its order.
_SEED_KEYS = ("data.synthetic.seed", "data.split_seed", "train.seed", "eval.seed",
              "poison.seed", "model.init_seed")


def settings_from(cfg: Dict) -> Settings:
    """The one reader of config sections (`sweep` aside), after the master seed:
    each section's shape and keys checked as it is read, then each value once,
    against the field type of the dataclass it builds, absent keys at their
    defaults. A poison section without a `method` means no poisoning; its
    values are checked all the same."""
    _section(cfg, "")
    data_sec, model_sec, train_sec, eval_sec, poison_sec = (
        _section(cfg.get(name, {}), name) for name in ("data", "model", "train", "eval", "poison"))
    synthetic = _section(data_sec.get("synthetic", {}), "data.synthetic")  # {} sets no source
    spec = _built("data.synthetic", SynthSpec, **synthetic) if synthetic else None
    data = _built("data", DataSource, **{**data_sec, "synthetic": spec})
    method = poison_sec.get("method")
    policy = _built("poison", poison.SelectionPolicy, kind=poison_sec.get("policy", "FixedN"),
                    fixed_ids=poison_sec.get("fixed_ids", []),
                    copy_id=poison_sec.get("copy_id"), seed=poison_sec.get("seed", 0))
    poisoning = _built("poison", trainer.PoisonSettings,  # "outer" stands in for no method
                       method="outer" if method is None else method,
                       policy=policy, alpha=poison_sec.get("alpha", 0.1))
    settings = Settings(
        data=data,
        net=_built("model", model.NetConfig,
                   **{key: value for key, value in model_sec.items() if key != "init_seed"}),
        train=_built("train", trainer.TrainConfig, **train_sec,
                     poison=None if method is None else poisoning),
        protocol=_built("eval", evaluate.EvalProtocol,
                        **{key: value for key, value in eval_sec.items() if key != "trial_csv"}),
        init_seed=_CHECKS[int](model_sec.get("init_seed", 0), "model.init_seed"),
        trial_csv=_CHECKS[bool](eval_sec.get("trial_csv", False), "eval.trial_csv"),
        config_hash=config_hash(cfg),
        seeds={"data": synthetic.get("seed"), "split": data_sec.get("split_seed"),
               "train": train_sec.get("seed"), "eval": eval_sec.get("seed"),
               "poison": poison_sec.get("seed"), "init": model_sec.get("init_seed")},
    )
    for key, value in [("data.n_attacker_speakers", data.n_attacker_speakers),
                       *zip(_SEED_KEYS, settings.seeds.values())]:
        if value is not None and value < 0:  # numpy refuses a negative seed
            raise StageError("config", key, f"must be non-negative, got {value}")
    return settings


# ---------------------------------------------------------------------------
# data sources
# ---------------------------------------------------------------------------


def build_datasets(source: DataSource, roles=ROLES) -> Tuple[Optional[Dataset], ...]:
    """(train, eval, attacker) from exactly one configured source; a role not in
    `roles` comes back None, and a cache or WAV source neither reads nor decodes it."""
    sources = [k for k in ("synthetic", "cache_dir", "wav_dir") if getattr(source, k)]
    if len(sources) != 1:
        raise StageError("data", "data", f"exactly one source required, got {sources or 'none'}")
    name = sources[0]
    try:
        if name == "synthetic":
            found = _synthetic_datasets(source)  # the RNG stream generates every role
        elif name == "cache_dir":
            found = _cached_datasets(source.cache_dir, roles)
        else:
            found = _wav_datasets(source, roles)
        return tuple(found.get(role) if role in roles else None for role in ROLES)
    except (ValueError, OSError, MemoryError) as exc:  # also a size the host refuses
        raise StageError("data", f"data.{name}", str(exc)) from exc


def _synthetic_datasets(source: DataSource) -> Dict[str, Optional[Dataset]]:
    spec = source.synthetic  # its count is the benign one; the attacker's are generated last
    full = synth_dataset(dataclasses.replace(
        spec, n_speakers=spec.n_speakers + source.n_attacker_speakers))
    benign = Dataset({lab: full.speakers[lab] for lab in full.labels[:spec.n_speakers]}, "train")
    attacker = (Dataset({lab: full.speakers[lab] for lab in full.labels[spec.n_speakers:]},
                        "attacker") if source.n_attacker_speakers else None)
    train_set, eval_set = split_dataset(benign, source.n_eval_speakers, source.split_seed)
    return {"train": train_set, "eval": eval_set, "attacker": attacker}


def _cached_datasets(cache_dir: str, roles) -> Dict[str, Dataset]:
    """`<role>.feats` per role; the attacker's file is optional."""
    found = {}
    for role in roles:
        path = os.path.join(cache_dir, f"{role}.feats")
        if role != "attacker" or os.path.exists(path):
            found[role] = read_feature_cache(path, role)
    return found


def _wav_datasets(source: DataSource, roles) -> Dict[str, Dataset]:
    """Lists `<speaker>/*.wav`, splits the benign speakers, then decodes only
    the speakers of `roles`."""
    wav_dir, attacker_labels = source.wav_dir, set(source.attacker_labels)
    files: Dict[str, List[str]] = {}
    for label in sorted(os.listdir(wav_dir)):
        spk_dir = os.path.join(wav_dir, label)
        if os.path.isdir(spk_dir):
            names = [name for name in sorted(os.listdir(spk_dir)) if name.endswith(".wav")]
            for name in names:  # os.listdir holds each byte that is not UTF-8 as a surrogate
                if any("\ud800" <= ch <= "\udfff" for ch in label + name):
                    raise ValueError(f"{os.path.join(spk_dir, name)!r} is not a UTF-8 name")
            if names:
                files[label] = names
    if not files:
        raise ValueError(f"no speaker directories with WAV files under {wav_dir}")
    missing = attacker_labels - set(files)
    if missing:
        raise ValueError(f"attacker labels not found: {sorted(missing)}")
    train_labels, eval_labels = split_labels(set(files) - attacker_labels,
                                             source.n_eval_speakers, source.split_seed)
    members = {"train": train_labels, "eval": eval_labels, "attacker": sorted(attacker_labels)}
    return {role: Dataset({label: [_featurize(wav_dir, label, name) for name in files[label]]
                           for label in members[role]}, role)
            for role in roles if members[role]}  # no attacker_labels, no attacker


def _featurize(wav_dir: str, label: str, name: str):
    path = os.path.join(wav_dir, label, name)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return cmvn(extract_logmel(parse_wav(data, label, f"{label}/{name[:-4]}")))
    except ValueError as exc:
        raise ValueError(f"{path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_json(path: str, obj) -> Tuple[str, int]:
    return write_hashed(path, [(canonical_json(obj) + "\n").encode()])


def write_manifest(out_dir: str, settings: Settings, outputs: Dict) -> None:
    """manifest.json from `outputs`: path relative to `out_dir` -> (SHA-256, size)."""
    manifest = {
        "config_hash": settings.config_hash,
        "package_version": __version__,
        "seeds": settings.seeds,
        "outputs": [{"path": rel, "sha256": sha, "bytes": size}
                    for rel, (sha, size) in sorted(outputs.items())],
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(settings: Settings, out_dir: str) -> None:
    if settings.data.synthetic is None:
        raise StageError("synth", "data.synthetic", "synth requires a synthetic data source")
    train_set, eval_set, attacker = datasets = build_datasets(settings.data)
    files = {f"{role}.feats": write_feature_cache(data, os.path.join(out_dir, f"{role}.feats"))
             for role, data in zip(ROLES, datasets) if data is not None}
    write_manifest(out_dir, settings, files)
    print(
        f"synth: {train_set.n_speakers} train / {eval_set.n_speakers} eval"
        + (f" / {attacker.n_speakers} attacker" if attacker else "")
        + f" speakers -> {out_dir}"
    )


def _train_once(settings: Settings, out_dir: str, datasets):
    """Shared by cmd_train and cmd_experiment; the last item is each file's digest and size."""
    train_set, _, attacker = datasets
    cfg_hash = settings.config_hash
    ckpt_rel, history_rel = "checkpoint.dvec", "history.jsonl"
    try:
        weights, report = trainer.train_run(train_set, attacker, settings.train, settings.net,
                                            init_seed=settings.init_seed)
    except (trainer.DivergenceError, ValueError, MemoryError, OverflowError) as exc:
        if isinstance(exc, trainer.DivergenceError):  # train_run attaches the steps it ran
            _write_history(os.path.join(out_dir, history_rel), exc.report, cfg_hash)
        raise StageError("train", "train", str(exc)) from exc
    files = {
        ckpt_rel: model.save_checkpoint(
            weights, os.path.join(out_dir, ckpt_rel), meta={"config_hash": cfg_hash}),
        history_rel: _write_history(os.path.join(out_dir, history_rel), report, cfg_hash, ckpt_rel),
    }
    return weights, report, files


def _write_history(path: str, report: trainer.TrainReport, cfg_hash: str,
                   checkpoint: Optional[str] = None) -> Tuple[str, int]:
    lines = [canonical_json(rec) for rec in report.records()]
    summary = {
        "summary": {
            "config_hash": cfg_hash,
            "steps": len(report.losses),
            "poisoned_steps": int(sum(report.poisoned_flags)),
            "final_w": report.final_params.w,
            "final_b": report.final_params.b,
            "checkpoint": checkpoint,
            "plan": report.plan_summary,
        }
    }
    lines.append(canonical_json(summary))
    return write_hashed(path, [("\n".join(lines) + "\n").encode("utf-8")])


def cmd_train(settings: Settings, out_dir: str) -> None:
    roles = ("train",) if settings.train.poison is None else ("train", "attacker")
    _, report, files = _train_once(settings, out_dir, build_datasets(settings.data, roles))
    write_manifest(out_dir, settings, files)
    print(
        f"train: {len(report.losses)} steps, final loss {report.losses[-1]:.4f}, "
        f"{int(sum(report.poisoned_flags))} poisoned -> {out_dir}"
    )


def _evaluate(settings: Settings, out_dir: str, weights, datasets):
    _, eval_set, attacker = datasets
    try:  # the attack as training resolves it
        policy = None if attacker is None else trainer.attack_policy(settings.train, attacker)
        report, trials = evaluate.evaluate_model(weights, eval_set, attacker, settings.protocol,
                                                 policy)
    except (ValueError, MemoryError) as exc:
        raise StageError("eval", "eval", str(exc)) from exc
    files = {"eval_report.json": _write_json(os.path.join(out_dir, "eval_report.json"), {
        **report.to_dict(), "config_hash": settings.config_hash})}
    if settings.trial_csv:  # a label with a comma, quote or newline is quoted
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [("label", "speaker", "score", "kind")]
            + [(label, speaker, repr(value), kind) for label, speaker, value, kind in trials])
        files["trials.csv"] = write_hashed(os.path.join(out_dir, "trials.csv"),
                                           [text.getvalue().encode()])
    return report, files


def cmd_eval(settings: Settings, out_dir: str, checkpoint: Optional[str]) -> None:
    ckpt_path = checkpoint or os.path.join(out_dir, "checkpoint.dvec")
    try:
        weights = model.load_checkpoint(ckpt_path)
    except (OSError, model.CheckpointError) as exc:
        raise StageError("eval", "--checkpoint", str(exc)) from exc
    datasets = build_datasets(settings.data, ("eval", "attacker"))
    report, files = _evaluate(settings, out_dir, weights, datasets)
    write_manifest(out_dir, settings, files)
    print(f"eval: EER {report.eer:.4f} ASR {report.asr:.4f} -> {out_dir}")


def _variant_columns(poisoning: Optional[trainer.PoisonSettings]) -> Dict:
    """A variant's label (its output subdirectory) and summary columns."""
    if poisoning is None:
        return {"variant": "benign", "method": "benign", "policy": "-", "alpha": 0.0}
    kind, method, alpha = poisoning.policy.kind, poisoning.method, poisoning.alpha
    return {"variant": f"{kind}_{method}_a{alpha:g}", "method": method, "policy": kind,
            "alpha": alpha}


def _variant_configs(cfg: Dict) -> List[Tuple[str, Settings]]:
    """(label, settings) per entry of `sweep` (an array or null of objects or
    nulls), each entry with a method merged over the base poison section; an
    entry without one poisons nothing, but its values are checked all the same.
    Labels name output subdirectories, so two that share one are a config error."""
    sweep = cfg.get("sweep")
    if sweep is not None and not isinstance(sweep, list):
        raise StageError("config", "sweep", "sweep must be a JSON array")
    base_poison = cfg.get("poison") or {}
    variants = []
    for entry in [cfg.get("poison")] if sweep is None else sweep or [None]:
        entry = _section(entry, "poison", "sweep")
        poisoned = entry.get("method") is not None
        if entry and not poisoned:
            settings_from({"poison": entry})
        settings = settings_from({**{key: value for key, value in cfg.items() if key != "sweep"},
                                  "poison": {**base_poison, **entry} if poisoned else None})
        variants.append((_variant_columns(settings.train.poison)["variant"], settings))
    labels = [label for label, _ in variants]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise StageError("config", "sweep",
                         f"entries share the variant label(s) {duplicates}; "
                         "each variant needs its own output directory")
    return variants


def cmd_experiment(base: Settings, variants: List[Tuple[str, Settings]], out_dir: str) -> None:
    datasets = build_datasets(base.data)  # the variants differ only in `poison`
    try:  # before any variant trains and writes
        evaluate.check_eval_data(*datasets[1:], base.net, base.protocol)
    except ValueError as exc:
        raise StageError("eval", "eval", str(exc)) from exc
    try:  # each variant's attack, as training resolves it
        for _, settings in variants:
            trainer.attack_policy(settings.train, datasets[2])
    except ValueError as exc:
        raise StageError("train", "train", str(exc)) from exc
    rows = []
    for label, settings in variants:
        sub_dir = os.path.join(out_dir, label)
        weights, _, files = _train_once(settings, sub_dir, datasets)
        eval_report, eval_files = _evaluate(settings, sub_dir, weights, datasets)
        write_manifest(sub_dir, settings, {**files, **eval_files})
        rows.append({**_variant_columns(settings.train.poison), "eer": eval_report.eer,
                     "asr": eval_report.asr})

    _write_json(os.path.join(out_dir, "summary.json"),
                {"config_hash": base.config_hash, "rows": rows})

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
        settings = settings_from(cfg)  # every command, whichever sections it reads
        variants = _variant_configs(cfg)  # ... and every sweep entry
        out_dir = args.out or "."
        if args.command == "synth":
            cmd_synth(settings, out_dir)
        elif args.command == "train":
            cmd_train(settings, out_dir)
        elif args.command == "eval":
            cmd_eval(settings, out_dir, args.checkpoint)
        else:
            cmd_experiment(settings, variants, out_dir)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:  # config, data and checkpoint reads map their own: this is a write
        print(StageError("output", "--out", f"cannot create {exc.filename!r}: {exc}"),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
