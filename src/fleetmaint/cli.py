"""fleetmaint command line: synth, tensorize, parafac, report, seqmine,
train, eval, predict, and the end-to-end pipeline demo.

Every randomized step takes --seed (default 1234); eval splits with the seed its model
file records. A --config file of ``key = value`` lines (keys are long flag names with
dashes or underscores, switches take true or false) overrides the corresponding flags.
Failures print one machine-parseable ``<category>: <message>`` line to stderr and exit
nonzero: 2 config-error, 3 io-error, 4 data-error, 1 internal-error; an interrupt
(Ctrl-C or SIGTERM) prints ``interrupted`` and exits 130.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from dataclasses import fields
from pathlib import Path

from . import __version__, stages

# besides what the commands use, the names that perfbench's passes look up on
# this module stay imported here until perfbench calls the stages
from .ingest import (TensorizeSpec, build_tensor, parse_maintenance, parse_vehicles,
                     write_discard_summary, write_json)
from .lstm import (LstmConfig, SeqModel, perplexity, predict_next, split_by_vehicle,
                   unigram_baseline)
from .lstm import train as train_lstm
from .parafac import AlsOptions, cp_als, load_model, save_model
from .report import export_component_reports
from .seqmine import MineOptions, differential, extract_sequences, write_diff_csv
from .synth import demo_spec, generate, month_labels, spec_from_json
from .tensor import check_target, load_tensor, not_utf8, save_tensor

DEFAULT_SEED = 1234


class ConfigError(ValueError):
    """Bad flags, bad config file, or an invalid spec file."""


def _config_flags(path, args: argparse.Namespace) -> list[str]:
    """The ``--key=value`` flags of a ``key = value`` config file.

    A key must name one of the subcommand's options exactly; its value is
    then converted and checked like the flag's.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(not_utf8(path, exc)) from None
    flags = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {line_no}:"  # as a table's line is named
        if "=" not in line:
            raise ConfigError(f"{where} expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest == "config":
            raise ConfigError(f"{where} a config file cannot name another config file")
        if dest not in vars(args).keys() - {"command", "func"}:
            raise ConfigError(f"{where} unknown option {key.strip()!r}")
        flags.append(f"--{dest.replace('_', '-')}={value.strip()}")
    return flags


def _at_least(low: int):
    """Argument type: an integer no less than ``low``."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number
    return parse


def _component(value: str) -> int | None:
    """Argument type of ``--component``: a 1-based component, or None for ``all``."""
    return None if value == "all" else _at_least(1)(value)


def _boolean(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``config-error`` line instead of usage and exit."""

    def error(self, message):
        raise ConfigError(message)


def _add_field_flags(p, cls) -> None:
    """Add the flag of each field of the config dataclass ``cls`` but ``seed``,
    which add_common adds; _from_flags checks the values by building ``cls``."""
    for f in fields(cls):
        if f.name != "seed":
            p.add_argument("--" + f.metadata.get("flag", f.name).replace("_", "-"),
                           default=f.default, type={"int": int, "float": float}.get(f.type),
                           choices=f.metadata.get("choices"), help=f.metadata.get("help"))


def _from_flags(cls, args):
    """A ``cls`` dataclass built from its fields' flags; a value it rejects is a config error."""
    values = {f.name: getattr(args, f.metadata.get("flag", f.name)) for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommand implementations: flags in, the stages of ``stages`` run, lines out
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        try:
            spec = spec_from_json(json.loads(Path(args.spec).read_text(encoding="utf-8-sig")))
        except ValueError as exc:  # not UTF-8, not JSON, or not a valid spec
            text = (not_utf8(args.spec, exc) if isinstance(exc, UnicodeDecodeError)
                    else f"{args.spec}: {exc}")
            raise ConfigError(f"malformed fleet spec: {text}") from None
    else:
        spec = demo_spec(seed=args.seed)
    fleet = generate(spec, args.out)
    for path in (fleet.vehicles_path, fleet.maintenance_path, fleet.manifest_path):
        print(f"wrote {path}")
    return 0


def cmd_tensorize(args) -> int:
    spec = _from_flags(TensorizeSpec, args)
    if args.discards and Path(args.discards).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--out and --discards name the same file: {args.out!r}")
    tables = stages.load(args.vehicles, args.maintenance)
    build = stages.tensorize(tables, spec, args.out, args.discards)
    if args.discards:
        print(f"wrote {args.discards}")
    print(f"wrote {args.out} dims={build.tensor.dims} placed={build.placed}")
    return 0


def cmd_parafac(args) -> int:
    opts = _from_flags(AlsOptions, args)
    model = stages.factorize(args.tensor, load_tensor(args.tensor), opts, args.out)
    print(f"wrote {args.out} rank={model.rank} fit={model.fit:.6f} "
          f"iterations={model.iterations} converged={model.converged}")
    return 0


def cmd_report(args) -> int:
    model = load_model(args.model)
    if args.component is not None and args.component > model.rank:
        raise ConfigError(f"--component {args.component} is past the model's rank {model.rank}")
    for path in stages.report(model, args.out, args.component, svg=args.format != "csv"):
        print(f"wrote {path}")
    return 0


def cmd_seqmine(args) -> int:
    opts = _from_flags(MineOptions, args)
    tables = stages.load(args.vehicles, args.maintenance)
    patterns = stages.mine(tables, args.target, opts, args.out, args.bonferroni)
    print(f"wrote {args.out} patterns={len(patterns)}")
    return 0


def cmd_train(args) -> int:
    cfg = _from_flags(LstmConfig, args)
    model = stages.train(stages.load(args.vehicles, args.maintenance), cfg, args.out)
    best = min(model.history["valid_perplexity"])
    print(f"wrote {args.out} vocab={model.vocab.size} valid_perplexity={best}")
    return 0


def cmd_eval(args) -> int:
    model = SeqModel.load(args.model)
    tables = stages.load(args.vehicles, args.maintenance)
    chosen, lstm_ppl, baseline_ppl = stages.evaluate(model, tables, args.split)
    print(json.dumps({"split": args.split, "sequences": len(chosen), "lstm_perplexity": lstm_ppl,
                      "unigram_perplexity": baseline_ppl}, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    model = SeqModel.load(args.model)
    for label, prob in stages.predict(model, args.prefix, args.top_k):
        print(f"{prob:.6f}\t{label}")
    return 0


def cmd_pipeline(args) -> int:
    if not args.demo:
        raise ConfigError("pipeline currently supports --demo only")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = demo_spec(seed=args.seed)
    fleet = generate(spec, out / "data")
    tables = stages.load(fleet.vehicles_path, fleet.maintenance_path)
    labels = month_labels(spec.window_start, spec.months)
    tspec = TensorizeSpec(window_start=labels[0], window_end=labels[-1])
    build = stages.tensorize(tables, tspec, out / "tensor.txt", out / "discards.json")
    conserved = build.tensor.values.sum() + sum(build.discards.values()) == len(tables.maintenance)
    opts = AlsOptions(rank=5, max_iters=300, tol=1e-8, seed=args.seed, n_restarts=2)
    cp_model = stages.factorize(out / "tensor.txt", build.tensor, opts, out / "cp_model.txt")
    stages.report(cp_model, out / "reports")
    patterns = stages.mine(tables, "DODGE CHARGER", MineOptions(top_n=8), out / "seqmine.csv")
    # a smaller, shorter run than the defaults
    cfg = LstmConfig(embed_dim=16, hidden_dim=32, layers=1, dropout_keep=0.9, epochs=6,
                     lr_constant_epochs=4, seed=args.seed)
    seq_model = stages.train(tables, cfg, out / "seq_model.txt")
    _, lstm_ppl, baseline_ppl = stages.evaluate(seq_model, tables, "test")
    metrics = {
        "seed": args.seed, "jobs": len(tables.maintenance), "rejected_rows": len(tables.rejects),
        "tensor_dims": list(build.tensor.dims), "tensor_sum": build.tensor.values.sum(),
        "discards": build.discards, "conservation_ok": bool(conserved), "cp_fit": cp_model.fit,
        "cp_iterations": cp_model.iterations, "cp_converged": cp_model.converged,
        "top_pattern": list(patterns[0].pattern), "top_pattern_i_ratio": patterns[0].i_ratio,
        "top_pattern_p": patterns[0].p, "lstm_test_perplexity": lstm_ppl,
        "unigram_test_perplexity": baseline_ppl,
        "lstm_beats_unigram": bool(lstm_ppl < baseline_ppl),
    }
    write_json(metrics, out / "metrics.json")

    print(f"pipeline demo complete under {out}")
    print(f"  conservation: {'ok' if conserved else 'FAILED'}")
    print(f"  tensor: dims={build.tensor.dims} sum={build.tensor.values.sum():.0f}")
    print(f"  parafac: fit={cp_model.fit:.4f} iters={cp_model.iterations}")
    print(f"  top pattern: {patterns[0].pattern} i_ratio={patterns[0].i_ratio:.2f}")
    print(f"  lstm test perplexity: {lstm_ppl:.4f} (unigram {baseline_ppl:.4f})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fleetmaint",
        description="Fleet maintenance analytics: tensors, PARAFAC, sequence mining, LSTM.",
    )
    parser.add_argument("--version", action="version", version=f"fleetmaint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=None):
        """Add --config, and --seed to ``seeded``, the parser or group that takes it."""
        if seeded:
            seeded.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED,
                                help="seed for randomized steps (default %(default)s)")
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; values override flags")

    p = sub.add_parser("synth", help="generate a synthetic fleet")
    p.add_argument("--out", required=True, help="output directory")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None, help="fleet spec JSON (default: demo spec)")
    add_common(p, seeded=source)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tensorize", help="build the job-count tensor from CSVs")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    _add_field_flags(p, TensorizeSpec)
    p.add_argument("--out", required=True, type=check_target, help="tensor output path")
    p.add_argument("--discards", default=None, type=check_target, help="discard summary JSON path")
    add_common(p)
    p.set_defaults(func=cmd_tensorize)

    p = sub.add_parser("parafac", help="CP-ALS factorization of a tensor file")
    p.add_argument("--tensor", required=True)
    _add_field_flags(p, AlsOptions)
    p.add_argument("--out", required=True, type=check_target, help="model output path")
    add_common(p, seeded=p)
    p.set_defaults(func=cmd_parafac)

    p = sub.add_parser("report", help="export factor loading reports for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--component", type=_component, default="all",
                   help="1-based component or 'all'")
    p.add_argument("--format", choices=("csv", "svg"), default="svg")
    p.add_argument("--out", required=True, help="output directory")
    add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("seqmine", help="differential sequence mining for a make/model")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--target", required=True, help='target make/model, e.g. "DODGE CHARGER"')
    _add_field_flags(p, MineOptions)
    p.add_argument("--bonferroni", nargs="?", type=_boolean, const=True, default=False,
                   metavar="true|false", help="append a Bonferroni-adjusted p column")
    p.add_argument("--out", required=True, type=check_target, help="CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_seqmine)

    p = sub.add_parser("train", help="train the LSTM next-job model")
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--out", required=True, type=check_target, help="model output path")
    _add_field_flags(p, LstmConfig)
    add_common(p, seeded=p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity of a trained model on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--vehicles", required=True)
    p.add_argument("--maintenance", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="rank likely next jobs after a prefix")
    p.add_argument("--model", required=True)
    p.add_argument("--prefix", default="", help="comma-separated system labels")
    p.add_argument("--top-k", type=_at_least(1), default=5)
    add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pipeline", help="end-to-end demo: synth through eval")
    p.add_argument("--demo", nargs="?", type=_boolean, const=True, default=False,
                   metavar="true|false", help="run the built-in demo fleet")
    p.add_argument("--out", required=True, help="output directory")
    add_common(p, seeded=p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # SIGTERM ends a command as Ctrl-C does; only the main thread may set a handler
    previous = (signal.signal(signal.SIGTERM, signal.default_int_handler)
                if threading.current_thread() is threading.main_thread() else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # parsed again with the file's flags last, so they override
            args = parser.parse_args(argv + _config_flags(args.config, args))
        return args.func(args)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DataError included
        print(f"data-error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # last-resort guard
        print(f"internal-error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
