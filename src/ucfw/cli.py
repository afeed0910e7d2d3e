"""Command line entry point.

Verbs: ``solve --config``, ``suite <tag>``, ``verify --set --check``,
``online --config``.  The environment variable ``UCFW_SEED`` overrides every
config seed.  Each verb prints its run's record or summary as strict JSON.
Exit codes: 1 when its ``pass`` is false (a check ran and found a
violation), 0 otherwise, and 2 for a config or runtime error, reported as
one ``error:`` line.  A check whose worst violation is not finite (NaN or
infinite) found no verdict: that is a runtime error, so it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import experiments as ex
from . import verify as vf
from .errors import ConfigError, UCFWError
from .geometry import UCParams, set_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _seed(flag: int | None = None) -> int | None:
    """``UCFW_SEED`` when it is set, else the verb's ``--seed`` (None for a
    verb without one); a value below 0 is a config error naming its source."""
    raw = os.environ.get("UCFW_SEED")
    seed, source = flag, "--seed"
    if raw is not None:
        try:
            seed, source = int(raw), "UCFW_SEED"
        except ValueError as exc:
            raise ConfigError(f"UCFW_SEED must be an integer, got {raw!r}") from exc
    if seed is not None and seed < 0:
        raise ConfigError(f"{source} must be an integer >= 0, got {seed}")
    return seed


def _load_json(arg: str) -> dict:
    """Accept either a path to a JSON file or an inline JSON object."""
    text = arg
    path = Path(arg)
    if not arg.lstrip().startswith("{") and path.exists():
        text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON {arg!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("expected a JSON object")
    return obj


def _report(summary: dict) -> int:
    """Print a verb's summary; the exit code is 1 iff its ``pass`` is False."""
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_VIOLATION if summary.get("pass") is False else EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    seed = _seed()
    if seed is not None:
        config["seed"] = seed
    return _report(ex.run_solve(config, args.out))


def _cmd_suite(args: argparse.Namespace) -> int:
    result = ex.run_suite(args.tag, args.out, seed=_seed(args.seed))
    summary = {k: v for k, v in result.items() if k not in ("runs", "results", "positive", "negative", "files")}
    return _report({**summary, "out": str(args.out)})


def _cmd_verify(args: argparse.Namespace) -> int:
    feasible = set_from_json(_load_json(args.set))
    cfg = vf.SamplerConfig(n_pairs=args.pairs, seed=_seed(args.seed))

    uc = feasible.uc
    if args.alpha is not None or args.q is not None:
        if args.alpha is None or args.q is None:
            raise ConfigError("override --alpha and --q together")
        uc = UCParams(alpha=args.alpha, q=args.q)
    if uc is None:
        raise ConfigError("set has no uniform-convexity parameters; pass --alpha/--q")

    report = ex.run_check(args.check, feasible, uc, cfg)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_online(args: argparse.Namespace) -> int:
    config = _load_json(args.config)
    seed = _seed()
    if seed is not None and "stream" in config and isinstance(config["stream"], dict):
        config["stream"]["seed"] = seed
    return _report(ex.run_online_config(config, args.out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucfw",
        description="Projection-free optimization over uniformly convex sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one traced run from a JSON config")
    p_solve.add_argument("--config", required=True, help="JSON file or inline object")
    p_solve.add_argument("--out", default="out/solve", help="output directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_suite = sub.add_parser("suite", help="run a named experiment suite")
    p_suite.add_argument("tag", choices=["fig2", "online", "verify_all", "bounds_grid"])
    p_suite.add_argument("--out", default=None, help="output directory (default out/<tag>)")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.set_defaults(func=_cmd_suite)

    p_verify = sub.add_parser("verify", help="run one geometric check on a set")
    p_verify.add_argument("--set", required=True, help="set descriptor, JSON file or inline")
    p_verify.add_argument(
        "--check", required=True, choices=["definition1", "lemma1", "local_scaling", "lemma3"]
    )
    p_verify.add_argument("--alpha", type=float, default=None, help="override catalog alpha")
    p_verify.add_argument("--q", type=float, default=None, help="override catalog q")
    p_verify.add_argument("--pairs", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_online = sub.add_parser("online", help="one FTL run from a JSON config")
    p_online.add_argument("--config", required=True, help="JSON file or inline object")
    p_online.add_argument("--out", default="out/online", help="output directory")
    p_online.set_defaults(func=_cmd_online)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "suite" and args.out is None:
        args.out = f"out/{args.tag}"
    try:
        return args.func(args)
    except (UCFWError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # any other failure is a runtime error too: exit 1 means a violation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
