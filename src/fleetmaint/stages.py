"""The stages that the fleetmaint subcommands run, and the pipeline demo in order:
load, tensorize, factorize, report, mine, train, evaluate, predict. Each takes
built objects and the paths it reads or writes; notes and warnings go to stderr."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

from .ingest import (DataError, build_tensor, normalize_system, parse_maintenance,
                     parse_vehicles, write_discard_summary)
from .lstm import UNK_TOKEN, perplexity, predict_next, split_by_vehicle, unigram_baseline
from .lstm import train as train_lstm
from .parafac import cp_als, save_model
from .report import export_component_reports
from .seqmine import differential, extract_sequences, write_diff_csv
from .tensor import save_tensor


@contextmanager
def _naming(*paths):
    """A ValueError raised inside names ``paths``: a tensor file, or both job tables."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{' and '.join(map(str, paths))}: {exc}") from None


@dataclass
class Tables:
    """The job tables read from ``paths`` and the maintenance rows rejected."""

    paths: tuple
    vehicles: list
    maintenance: list
    rejects: list

    @cached_property
    def seqset(self):
        """The sequence set, made on first use; rows of unknown vehicles are counted on stderr."""
        seqset, unknown = extract_sequences(self.maintenance, self.vehicles)
        if unknown:
            print(f"note: {len(unknown)} maintenance rows had unknown vehicles", file=sys.stderr)
        return seqset

    def split(self, seed: int):
        """The label lists split by vehicle with ``seed``: train, valid, test, and all."""
        lists = self.seqset.as_label_lists()
        with _naming(*self.paths):
            return (*split_by_vehicle(lists, seed=seed), lists)


def load(vehicles_path, maintenance_path) -> Tables:
    """The job tables; the count of maintenance rows rejected goes to stderr."""
    vehicles = parse_vehicles(vehicles_path)
    maintenance, rejects = parse_maintenance(maintenance_path)
    if rejects:
        print(f"note: {len(rejects)} rejected maintenance rows", file=sys.stderr)
    return Tables((vehicles_path, maintenance_path), vehicles, maintenance, rejects)


def tensorize(tables: Tables, spec, out, discards=None):
    """Save the job-count tensor, and the discard summary if asked."""
    with _naming(*tables.paths):
        build = build_tensor(tables.vehicles, tables.maintenance, spec)
    save_tensor(build.tensor, out)
    if discards:
        write_discard_summary(build, discards)
    return build


def factorize(path, tensor, opts, out):
    """Fit the CP model of the tensor read from ``path``, save it and print its warnings."""
    with _naming(path):
        model = cp_als(tensor, opts)
    save_model(model, out)
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return model


def report(model, out, component=None, svg=True) -> list:
    """The paths of the loading reports written of every component, or of the 1-based one."""
    components = None if component is None else [component]
    return export_component_reports(model, out, components, svg=svg)


def mine(tables: Tables, target, opts, out, bonferroni=False):
    """Mine ``target``'s differential patterns by the MineOptions ``opts`` and write them."""
    with _naming(*tables.paths):
        patterns = differential(tables.seqset, target, **vars(opts))
    write_diff_csv(patterns, out, bonferroni=bonferroni)
    return patterns


def train(tables: Tables, cfg, out):
    """The LSTM trained on the splits of ``cfg``'s seed, and saved."""
    train_set, valid_set, *_ = tables.split(cfg.seed)
    model = train_lstm(train_set, valid_set, cfg)
    model.save(out)
    return model


def evaluate(model, tables: Tables, split: str):
    """The ``split`` sequences (train, valid, test or all, split with the model's
    seed), and the perplexities on them of ``model`` and of the train split's
    unigram baseline; a nan or inf one is a data error, as JSON has no literal for it."""
    sets = dict(zip(("train", "valid", "test", "all"), tables.split(model.config.seed)))
    values = [perplexity(m, sets[split]) for m in (model, unigram_baseline(sets["train"]))]
    for value in values:
        if not math.isfinite(value):
            raise DataError(f"the model's perplexity is not finite ({value}): "
                            "its weights overflow the forward pass")
    return sets[split], *values


def predict(model, prefix: str, top_k: int) -> list:
    """The ``top_k`` likeliest (label, probability) after a comma-separated prefix,
    whose labels are normalized like a System Description; empty ones are dropped,
    and those outside the vocabulary go to stderr. Where consecutive pieces rejoin
    into a vocabulary label that holds commas, the longest such run is one label."""
    vocabulary = model.vocab.labels
    widest = 1 + max((label.count(",") for label in vocabulary), default=0)
    pieces = prefix.split(",")
    labels, i = [], 0
    while i < len(pieces):
        for j in range(min(len(pieces), i + widest), i, -1):
            label = normalize_system(",".join(pieces[i:j]))
            if j == i + 1 or label in vocabulary:
                break
        if label:
            labels.append(label)
        i = j
    unknown = [label for label in dict.fromkeys(labels) if label not in vocabulary]
    if unknown:
        print(f"note: prefix labels read as {UNK_TOKEN}: {', '.join(map(repr, unknown))}",
              file=sys.stderr)
    return predict_next(model, labels, top_k=top_k)
