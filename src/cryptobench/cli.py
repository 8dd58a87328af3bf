"""Command-line entry point: prepare / run / compare.

Exit codes: 0 success, 2 input or validation failure during prepare,
3 model run failure, 4 missing or mismatched results during compare.
A ``ValueError`` (bad config, input or artifacts) or an ``OSError``
(I/O, a dead worker) prints one ``<prepare|run X|compare> failed:
<message>`` line on stderr and exits with its command's code; any other
exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

# Each handler imports the pipeline (and with it numpy) itself, and the
# pipeline imports a model family only to run or load it, so a command
# loads only the code it runs.
from .config import MODEL_NAMES, RunConfig, config_hash, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_MISSING_RESULTS = 4


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--input", help="OHLCV CSV path (defaults to the bundled sample)")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out-dir", help="artifact directory (default: out)")
    parser.add_argument("--seed", type=int, help="RNG seed recorded in every output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptobench",
        description="Benchmark LSTM, epsilon-SVR and polynomial regression "
                    "on OHLCV price history, ranked by mean square error.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_prepare = sub.add_parser("prepare", help="parse, clean, normalize and split")
    _add_common_flags(p_prepare)

    p_run = sub.add_parser("run", help="run one model family's sweep")
    p_run.add_argument("model", choices=MODEL_NAMES)
    _add_common_flags(p_run)

    p_cmp = sub.add_parser("compare", help="rank the model results by MSE")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--models", default=",".join(MODEL_NAMES),
                       help="comma-separated subset to compare")
    p_cmp.add_argument("--subset-ok", action="store_true",
                       help="compare whatever results exist")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.input:
        overrides["input_path"] = args.input
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_prepare(args) -> int:
    from . import pipeline

    info = pipeline.prepare(resolve_config(args))
    print(f"parsed {info['n_parsed']} records, kept {info['n_records']} after cleaning")
    print(f"split: {info['n_train']} train / {info['n_test']} test")
    for path in info["paths"]:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from . import pipeline

    payload = pipeline.run_model(resolve_config(args), args.model)
    print(f"{args.model}: mse_normalized={payload['mse_normalized']!r} "
          f"mse_raw={payload['mse_raw']!r}")
    print(f"winning config: {payload['config_summary']}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        raise ValueError(f"unknown models: {', '.join(unknown)}")
    from . import pipeline

    cfg = resolve_config(args)
    # a config given on the command line must be the one the results used
    given = args.config or args.seed is not None
    print(pipeline.run_compare(cfg.out_dir, models=models, subset_ok=args.subset_ok,
                               expected_hash=config_hash(cfg) if given else None), end="")
    return EXIT_OK


# command -> (handler, exit code of an expected failure)
_COMMANDS = {
    "prepare": (_cmd_prepare, EXIT_INPUT),
    "run": (_cmd_run, EXIT_MODEL),
    "compare": (_cmd_compare, EXIT_MISSING_RESULTS),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, failure_code = _COMMANDS[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        label = f"run {args.model}" if args.command == "run" else args.command
        print(f"{label} failed: {exc}", file=sys.stderr)
        return failure_code


if __name__ == "__main__":
    sys.exit(main())
