"""The three experiment designs: cross train/eval matrix, training-size
curve, and field-set ablation. Each one checks its plan, lists its training
arms, and hands them to one shared cell loop (`_run_cells`).

Every experiment is a pure function of (plan, configs): corpora are read
from the plan's paths, models share one TrainConfig, and all outputs (CSV
tables plus a manifest) are written with fixed float formatting and no
timestamps, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .corpus import Corpus, filter_fields, filter_tags_sequence, read_corpus
from .crf import CrfModel, TrainConfig, predict_tags, train
from .errors import DataError, RefparseError, UsageError
from .features import FeatureConfig
from .labels import sort_fields
from .metrics import EvalReport, evaluate, write_csv, write_report_csv

log = logging.getLogger(__name__)

MANIFEST_FORMAT = "refparse-experiment-v1"


# plan-file key -> JSON type of its value, and of the value's items
_PLAN_TYPES = {
    "trains": (dict, str),
    "evals": (dict, str),
    "sizes": (list, int),
    "keep_labels": (list, str),
    "seed": (int, None),
    "out_dir": (str, None),
}


@dataclass(frozen=True)
class ExperimentPlan:
    trains: dict[str, str]  # name -> corpus path
    evals: dict[str, str]
    sizes: tuple[int, ...]
    keep_labels: tuple[str, ...]
    seed: int
    out_dir: str

    def __post_init__(self) -> None:
        if list(self.sizes) != sorted(self.sizes):
            raise UsageError("plan sizes must be sorted ascending")
        if any(size < 1 for size in self.sizes):
            raise UsageError(f"plan sizes must be >= 1, got {list(self.sizes)}")

    @classmethod
    def from_json(cls, path) -> "ExperimentPlan":
        """Read a plan file; a malformed plan raises DataError naming the key."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # also bytes that are not UTF-8
            raise DataError(f"plan {path} is not JSON: {exc}") from None
        if not isinstance(data, dict) or "out_dir" not in data:
            raise DataError(f"plan {path} is not a JSON object with the key 'out_dir'")
        for key, value in data.items():
            if key not in _PLAN_TYPES:
                raise DataError(f"plan {path} has an unknown key {key!r}")
            kind, item = _PLAN_TYPES[key]
            items = value.values() if isinstance(value, dict) else value
            if type(value) is not kind or (item and any(type(x) is not item for x in items)):
                raise DataError(f"plan {path}: bad value for {key!r}: {value!r}")
        return cls(
            trains=data.get("trains", {}),
            evals=data.get("evals", {}),
            sizes=tuple(data.get("sizes", [])),
            keep_labels=tuple(data.get("keep_labels", [])),
            seed=data.get("seed", 0),
            out_dir=data["out_dir"],
        )

    def to_dict(self) -> dict:
        return {
            "trains": dict(self.trains),
            "evals": dict(self.evals),
            "sizes": list(self.sizes),
            "keep_labels": list(self.keep_labels),
            "seed": self.seed,
            "out_dir": str(self.out_dir),
        }


@dataclass
class ExperimentResult:
    reports: dict[tuple[str, str], EvalReport]  # (train key, eval name)
    failures: list[dict] = field(default_factory=list)

    def macro_f1(self, train_key: str, eval_name: str) -> float:
        return self.reports[(train_key, eval_name)].field.macro_f1


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    plan: ExperimentPlan,
    train_config: TrainConfig,
    feature_config: FeatureConfig,
    kind: str,
    failures: list[dict],
    out_dir: Path,
) -> None:
    manifest = {
        "format": MANIFEST_FORMAT,
        "kind": kind,
        "tool_version": __version__,
        "plan": plan.to_dict(),
        "train_config": train_config.to_dict(),
        "feature_config": feature_config.to_dict(),
        "corpus_digests": {
            name: _file_digest(path)
            for name, path in sorted({**plan.trains, **plan.evals}.items())
        },
        "partial": bool(failures),
        "failures": failures,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _evaluate_model(
    model: CrfModel, corpus: Corpus, keep: Sequence[str] | None = None
) -> EvalReport:
    """Decode every instance of `corpus` and score it against its gold tags.

    With `keep`, gold and predicted tags outside those fields become O first.
    """
    pred = [predict_tags(model, inst.surfaces()) for inst in corpus.instances]
    if keep is not None:
        corpus = filter_fields(corpus, keep)
        pred = [filter_tags_sequence(tags, keep) for tags in pred]
    return evaluate(corpus, pred)


_AGG_COLUMNS = (
    "token_micro_p",
    "token_micro_r",
    "token_micro_f1",
    "token_macro_f1",
    "field_micro_p",
    "field_micro_r",
    "field_micro_f1",
    "field_macro_f1",
)


def _agg_cells(report: EvalReport) -> dict:
    return {
        "token_micro_p": f"{report.token.micro_precision:.6f}",
        "token_micro_r": f"{report.token.micro_recall:.6f}",
        "token_micro_f1": f"{report.token.micro_f1:.6f}",
        "token_macro_f1": f"{report.token.macro_f1:.6f}",
        "field_micro_p": f"{report.field.micro_precision:.6f}",
        "field_micro_r": f"{report.field.micro_recall:.6f}",
        "field_micro_f1": f"{report.field.micro_f1:.6f}",
        "field_macro_f1": f"{report.field.macro_f1:.6f}",
    }


# row-key column of each experiment kind's table
_ROW_KEYS = {"matrix": "train", "curve": "size", "ablation": "arm"}


def _run_cells(
    kind: str,
    plan: ExperimentPlan,
    arms: Sequence[tuple[str, str, Callable[[], Corpus]]],
    train_config: TrainConfig | None,
    feature_config: FeatureConfig | None,
    keep: Sequence[str] | None = None,
) -> ExperimentResult:
    """Train each (row key, cell name, training-corpus loader) arm in order
    and evaluate it on every plan eval corpus, optionally coarsened to `keep`.

    Writes <kind>.csv (arm-major rows), fields_<cell>__<eval>.csv and
    manifest.json into the plan's out_dir. A failed training is recorded and
    stops later arms; a failed evaluation is recorded and skipped. The
    manifest is always written, and any failure then raises RefparseError.
    """
    train_config = train_config or TrainConfig()
    feature_config = feature_config or FeatureConfig()
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = ExperimentResult(reports={})
    rows: list[dict] = []
    evals: dict[str, Corpus] = {}  # read once, on first use
    for key, cell, load in arms:
        try:
            model = train(load(), feature_config, train_config)
        except RefparseError as exc:
            result.failures.append({"cell": cell, "error": str(exc)})
            log.error("training %s failed: %s", cell, exc)
            break
        for eval_name, eval_path in plan.evals.items():
            try:
                if eval_name not in evals:
                    evals[eval_name] = read_corpus(eval_path, name=eval_name)
                report = _evaluate_model(model, evals[eval_name], keep)
            except RefparseError as exc:
                result.failures.append({"cell": f"{cell}x{eval_name}", "error": str(exc)})
                continue
            result.reports[(key, eval_name)] = report
            rows.append({_ROW_KEYS[kind]: key, "eval": eval_name, **_agg_cells(report)})
            write_report_csv(report, out_dir / f"fields_{cell}__{eval_name}.csv")

    write_csv(out_dir / f"{kind}.csv", (_ROW_KEYS[kind], "eval", *_AGG_COLUMNS), rows)
    _write_manifest(plan, train_config, feature_config, kind, result.failures, out_dir)
    if result.failures:
        raise RefparseError(
            f"{kind} finished with {len(result.failures)} failure(s); "
            f"partial results in {out_dir}"
        )
    return result


def cross_matrix(
    plan: ExperimentPlan,
    train_config: TrainConfig | None = None,
    feature_config: FeatureConfig | None = None,
) -> ExperimentResult:
    """Train one model per train corpus, evaluate on every eval corpus."""
    if not plan.trains or not plan.evals:
        raise UsageError("cross_matrix needs at least one train and one eval corpus")
    arms = [
        (name, name, functools.partial(read_corpus, path, name=name))
        for name, path in plan.trains.items()
    ]
    return _run_cells("matrix", plan, arms, train_config, feature_config)


def nested_subsets(corpus: Corpus, sizes: Sequence[int], seed: int) -> list[Corpus]:
    """Prefix subsets of one seeded permutation: the subset at a smaller
    size is contained in every larger one, so a curve over them isolates
    training-set size rather than sampling variance."""
    if not sizes:
        raise UsageError("need at least one subset size")
    if max(sizes) > len(corpus):
        raise UsageError(f"largest size {max(sizes)} exceeds corpus size {len(corpus)}")
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(corpus))
    return [
        Corpus(
            name=f"{corpus.name}[:{size}]",
            labels=corpus.labels,
            instances=tuple(corpus.instances[i] for i in order[:size]),
        )
        for size in sizes
    ]


def size_curve(
    plan: ExperimentPlan,
    train_config: TrainConfig | None = None,
    feature_config: FeatureConfig | None = None,
) -> ExperimentResult:
    """Train on nested subsets of one corpus and evaluate each size."""
    if len(plan.trains) != 1:
        raise UsageError("size_curve uses exactly one train corpus")
    if not plan.sizes:
        raise UsageError("size_curve needs a non-empty sizes list")
    if not plan.evals:
        raise UsageError("size_curve needs at least one eval corpus")
    (train_name, train_path), = plan.trains.items()
    subsets = nested_subsets(read_corpus(train_path, name=train_name), plan.sizes, plan.seed)
    arms = [
        (str(size), f"size{size}", lambda subset=subset: subset)
        for size, subset in zip(plan.sizes, subsets)
    ]
    return _run_cells("curve", plan, arms, train_config, feature_config)


def field_ablation(
    plan: ExperimentPlan,
    train_config: TrainConfig | None = None,
    feature_config: FeatureConfig | None = None,
) -> ExperimentResult:
    """Full-label arm vs reduced-label arm on the same instances.

    The reduced arm trains after filter_fields(keep_labels); both arms are
    evaluated on the shared fields only (gold and predictions outside
    keep_labels are coarsened to O).
    """
    if len(plan.trains) != 1:
        raise UsageError("field_ablation uses exactly one train corpus")
    if not plan.keep_labels:
        raise UsageError("field_ablation needs keep_labels (the shared fields)")
    if not plan.evals:
        raise UsageError("field_ablation needs at least one eval corpus")
    (train_name, train_path), = plan.trains.items()
    full_corpus = read_corpus(train_path, name=train_name)
    keep = sort_fields(plan.keep_labels)
    if set(keep) == set(full_corpus.labels):
        raise UsageError("keep_labels equals the corpus label set; nothing ablated")
    arms = [
        ("full", "full", lambda: full_corpus),
        ("reduced", "reduced", lambda: filter_fields(full_corpus, keep)),
    ]
    return _run_cells("ablation", plan, arms, train_config, feature_config, keep)
