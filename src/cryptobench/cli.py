"""Command-line entry point: prepare / run / compare / fetch.

Exit codes: 0 success, 2 input or validation failure during prepare or
fetch, 3 model run failure, 4 missing or mismatched results during
compare.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

# Each handler imports the pipeline (and with it numpy) itself, and the
# pipeline imports a model family only to run or load it, so a command
# loads only the code it runs.
from .config import MODEL_NAMES, ConfigError, RunConfig, config_hash, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_MISSING_RESULTS = 4

FETCH_TIMEOUT_S = 30.0


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

    p_fetch = sub.add_parser("fetch", help="download a CSV to the input path")
    p_fetch.add_argument("--url", required=True)
    p_fetch.add_argument("--input", required=True, help="destination file")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    if getattr(args, "input", None):
        overrides["input_path"] = args.input
    if getattr(args, "out_dir", None):
        overrides["out_dir"] = args.out_dir
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_prepare(args) -> int:
    from . import pipeline
    from .dataset import DatasetError

    try:
        cfg = resolve_config(args)
        info = pipeline.prepare(cfg)
    except (ConfigError, DatasetError, OSError) as exc:
        print(f"prepare failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"parsed {info['n_parsed']} records, kept {info['n_records']} after cleaning")
    print(f"split: {info['n_train']} train / {info['n_test']} test")
    for path in info["paths"]:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from . import pipeline
    from .dataset import DatasetError

    try:
        cfg = resolve_config(args)
        payload = pipeline.run_model(cfg, args.model)
    except (ConfigError, pipeline.PipelineError, DatasetError, ValueError,
            ChildProcessError) as exc:
        print(f"run {args.model} failed: {exc}", file=sys.stderr)
        return EXIT_MODEL
    print(f"{args.model}: mse_normalized={payload['mse_normalized']!r} "
          f"mse_raw={payload['mse_raw']!r}")
    print(f"winning config: {payload['config_summary']}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        print(f"unknown models: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_MISSING_RESULTS
    from . import pipeline

    try:
        cfg = resolve_config(args)
        # a config given on the command line must be the one the results used
        given = args.config or args.seed is not None
        report = pipeline.run_compare(cfg.out_dir, models=models, subset_ok=args.subset_ok,
                                      expected_hash=config_hash(cfg) if given else None)
    except (ConfigError, pipeline.PipelineError) as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return EXIT_MISSING_RESULTS
    print((Path(cfg.out_dir) / "report.txt").read_text(), end="")
    return EXIT_OK


def _cmd_fetch(args) -> int:
    # imported here: it is the slowest import of the package and only
    # fetch needs it
    import urllib.request

    try:
        with urllib.request.urlopen(args.url, timeout=FETCH_TIMEOUT_S) as response:
            data = response.read()
        dest = Path(args.input)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(data)
    except (OSError, ValueError) as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {args.input} ({len(data)} bytes)")
    return EXIT_OK


_COMMANDS = {
    "prepare": _cmd_prepare,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "fetch": _cmd_fetch,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
