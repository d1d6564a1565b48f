"""Batch command-line interface.

Subcommands::

    decoupsim ber     --config cfg.json [--seed N] [--out DIR] [--threads N] [--override k=v ...]
    decoupsim audit   --config cfg.json [--trials N] ...
    decoupsim flops   [--config cfg.json] [--sweep users|streams|both] [--no-instrumented] ...
    decoupsim include [--config cfg.json] [--p-max N] [--base-k N] [--base-n-r N] ...

``...`` stands for ``--seed``, ``--out`` and ``--override``; only ``ber``
runs a thread pool, so only ``ber`` accepts ``--threads``.

The config file is JSON mirroring :class:`decoupsim.harness.SimConfig`
(see README for the schema).  ``--override`` accepts dotted paths whose
values are parsed as JSON when possible (``system.k=8``,
``snr_db=[0,8,16]``).  A config's ``cost_model`` prices that run's FLOP
tables and is recorded in its manifest; nothing is installed
process-wide.  Exit codes: 0 success, 2 invalid configuration,
3 infeasible system, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import InfeasibleSystemError, InvalidConfigError, SingularMatrixError
from .harness import (
    AUDIT_COLUMNS,
    BER_COLUMNS,
    FLOP_COLUMNS,
    FlopSweep,
    SimConfig,
    audit_rows,
    ber_rows,
    emit_outputs,
    run_equivalence_audit,
    run_flop_bench,
    run_paired_ber,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise InvalidConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _load_config(args, *, required: bool) -> SimConfig | None:
    data = None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(f"cannot read config {args.config}: {exc}") from exc
    elif required:
        raise InvalidConfigError("--config is required for this subcommand")
    cfg = SimConfig.from_dict(data) if data is not None else None
    if cfg is not None:
        overrides = dict(_parse_override(o) for o in args.override or [])
        if args.seed is not None:
            overrides["seed"] = args.seed
        if getattr(args, "threads", None) is not None:
            overrides["threads"] = args.threads
        if overrides:
            cfg = cfg.with_overrides(overrides)
    return cfg


def _manifest(command: str, args, cfg: SimConfig | None) -> dict:
    manifest = {"command": command}
    if cfg is not None:
        manifest["config"] = cfg.to_dict()
        manifest["seed"] = cfg.seed
        manifest["threads"] = cfg.threads
        if cfg.cost_model is not None:
            manifest["cost_model"] = asdict(cfg.cost_model)
    return manifest


def _cmd_ber(args) -> int:
    cfg = _load_config(args, required=True)
    results = run_paired_ber(cfg, (cfg.decoupler,), (cfg.detector,))
    emit_outputs({"ber": (BER_COLUMNS, ber_rows(results))}, args.out,
                 _manifest("ber", args, cfg))
    print(f"wrote {args.out}/ber.csv ({cfg.trials} trials per SNR point)")
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg = _load_config(args, required=True)
    if args.trials is not None:
        cfg = cfg.with_overrides({"audit_trials": args.trials})
    report = run_equivalence_audit(cfg)
    emit_outputs({"audit": (AUDIT_COLUMNS, audit_rows(report))}, args.out,
                 _manifest("audit", args, cfg))
    worst = max(report.max_cross_residual.values())
    print(f"wrote {args.out}/audit.csv  worst residual {worst:.3e}, "
          f"worst SD-vs-SVD subspace distance {report.max_subspace_distance_vs_svd:.3e}")
    return EXIT_OK


def _cmd_flops(args) -> int:
    """``flops`` writes one table per swept mode, ``include`` the inclusion table."""
    cfg = _load_config(args, required=False)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)
    instrumented = not args.no_instrumented
    if args.command == "include":
        sweeps = {"include": FlopSweep(mode="inclusion", base_k=args.base_k,
                                       base_n_r=args.base_n_r, m_i=args.m_i,
                                       p_max=args.p_max, seed=seed,
                                       instrumented=instrumented)}
    else:
        modes = ("users", "streams") if args.sweep == "both" else (args.sweep,)
        sweeps = {f"flops_{mode}": FlopSweep(mode=mode, seed=seed, instrumented=instrumented)
                  for mode in modes}
    model = cfg.cost_model if cfg else None
    tables = {name: (FLOP_COLUMNS, run_flop_bench(sweep, model))
              for name, sweep in sweeps.items()}
    emit_outputs(tables, args.out, _manifest(args.command, args, cfg))
    print(f"wrote {', '.join(f'{args.out}/{name}.csv' for name in tables)}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *, config_required: bool) -> None:
    parser.add_argument("--config", required=config_required,
                        help="JSON config file mirroring SimConfig")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="dotted-path config override, value parsed as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoupsim",
        description="Monte-Carlo BER sweeps, decoupler audits and FLOP benchmarks "
                    "for uplink decoupled detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber", help="run a Monte-Carlo BER sweep")
    _add_common(p_ber, config_required=True)
    p_ber.add_argument("--threads", type=int, default=None,
                       help="worker threads (results are independent of this)")
    p_ber.set_defaults(func=_cmd_ber)

    p_audit = sub.add_parser("audit", help="decoupling-exactness and equivalence audit")
    _add_common(p_audit, config_required=True)
    p_audit.add_argument("--trials", type=int, default=None)
    p_audit.set_defaults(func=_cmd_audit)

    p_flops = sub.add_parser("flops", help="complexity benchmark tables")
    _add_common(p_flops, config_required=False)
    p_flops.add_argument("--sweep", choices=("users", "streams", "both"), default="both")
    p_flops.add_argument("--no-instrumented", action="store_true",
                         help="tabulate closed-form estimates only")
    p_flops.set_defaults(func=_cmd_flops)

    p_inc = sub.add_parser("include", help="user-inclusion complexity benchmark")
    _add_common(p_inc, config_required=False)
    p_inc.add_argument("--base-k", type=int, default=60)
    p_inc.add_argument("--base-n-r", type=int, default=130)
    p_inc.add_argument("--m-i", type=int, default=2)
    p_inc.add_argument("--p-max", type=int, default=5)
    p_inc.add_argument("--no-instrumented", action="store_true")
    p_inc.set_defaults(func=_cmd_flops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InfeasibleSystemError as exc:
        print(f"error: infeasible system: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SingularMatrixError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
