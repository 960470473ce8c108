"""Command-line entry point: ue-probe <experiment> [options].

Exit codes: 0 on success, 2 when the theorem check finds a violation,
1 on any other error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import CheckFailure, UEProbeError
from .harness import (
    EXPERIMENTS,
    METHODS,
    ExperimentConfig,
    default_options,
    run_experiment,
    write_report,
)

log = logging.getLogger(__name__)

_FLAG_OPTIONS = ("mnist_train_images", "mnist_train_labels", "mnist_test_images",
                "mnist_test_labels", "save_models", "load_models")


def read_config_file(path) -> dict:
    """Flat key=value file of raw text values, each read later by its option's
    declared type; blank lines and # comments are ignored."""
    options = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            options[key.strip()] = value.strip()
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ue-probe",
        description="Run uncertainty-estimation experiments and write plot-ready reports.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="key=value config file overriding defaults")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="report output path (default: <experiment>.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--methods",
        help=f"comma-separated subset of {','.join(METHODS)} (default: all that apply)",
    )
    # each of these flags sets the option named by its dest
    parser.add_argument("--mnist-images", dest="mnist_train_images", help="training images IDX file")
    parser.add_argument("--mnist-labels", dest="mnist_train_labels", help="training labels IDX file")
    parser.add_argument("--mnist-test-images", help="test images IDX file")
    parser.add_argument("--mnist-test-labels", help="test labels IDX file")
    parser.add_argument("--save-models", metavar="DIR", help="write trained models here")
    parser.add_argument("--load-models", metavar="DIR", help="reuse trained models from here")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    options = {}
    if args.config:
        options.update(read_config_file(args.config))
    known = default_options(args.experiment)
    for key in _FLAG_OPTIONS:
        if getattr(args, key) is None:
            continue
        if key not in known:
            log.warning("option %s does not apply to %s; ignored", key, args.experiment)
            continue
        options[key] = getattr(args, key)

    methods = [m.strip() for m in args.methods.split(",") if m.strip()] if args.methods else None
    out_path = args.out or f"{args.experiment}.{args.format}"
    try:
        cfg = ExperimentConfig(
            experiment=args.experiment, methods=methods, seed=args.seed, options=options
        )
        report = run_experiment(cfg)
    except CheckFailure as exc:
        if exc.report is not None:
            write_report(exc.report, out_path, args.format)
            log.info("wrote %s (with violations)", out_path)
        print(f"ue-probe: check failed: {exc}", file=sys.stderr)
        return 2
    except (UEProbeError, OSError, ValueError) as exc:
        print(f"ue-probe: error: {exc}", file=sys.stderr)
        return 1
    write_report(report, out_path, args.format)
    print(f"wrote {out_path} ({len(report.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
