"""Batch command-line interface.

Subcommands::

    decoupsim ber     --config cfg.json [--seed N] [--out DIR] [--threads N] [--override k=v ...]
    decoupsim audit   --config cfg.json [--trials N] ...
    decoupsim flops   [--config cfg.json] [--sweep users|streams|both] [--no-instrumented] ...
    decoupsim include [--config cfg.json] [--p-max N] [--base-k N] [--base-n-r N] ...

``...`` stands for ``--seed``, ``--out`` and ``--override``; only ``ber``
runs a thread pool, so only ``ber`` accepts ``--threads`` or a config
``threads`` other than 1.

The config file is JSON mirroring :class:`decoupsim.harness.SimConfig`
(see README for the schema).  ``--override`` accepts dotted paths whose
values are parsed as JSON when possible (``system.k=8``,
``snr_db=[0,8,16]``).  Overrides, then ``--seed``, ``--threads`` and
``--trials``, edit the file as written before its one validation, so
``system.k=8`` on a file whose ``m_i`` is one integer gives 8 such users.
A config's ``cost_model`` prices that run's FLOP tables and is recorded
in its manifest; nothing is installed process-wide.  ``main`` does set
up the process once: it builds one parser on its first call, glibc's
heap keeps its freed memory (``_runtime.keep_heap``), and every manifest
records that, the BLAS library and its thread count in sweeps in a
``runtime`` block.  Exit codes: 0 success, 2 invalid configuration,
3 infeasible system, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import _runtime
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


def _set_path(data, path: str, value) -> None:
    """Set the dotted config ``path`` of ``data`` to ``value``; an unset
    (``null``) or absent section is given fields."""
    *parents, leaf = path.split(".")
    for part in parents:
        if isinstance(data, dict) and data.get(part) is None:
            data[part] = {}
        data = data[part] if isinstance(data, dict) else None
    if not isinstance(data, dict):
        raise InvalidConfigError(f"config path {path!r} runs through a value")
    data[leaf] = value


def _load_config(args) -> SimConfig | None:
    """The ``--config`` file, edited as written by every ``--override``, then
    ``--seed``, ``--threads`` and ``--trials``, and validated once; None without
    one.  A setting that would be ignored (an override without a config, or
    ``threads`` other than 1 outside ``ber``) is an invalid configuration."""
    if not args.config:
        if args.override:
            raise InvalidConfigError("--override needs a --config to apply to")
        return None
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {args.config}: {exc}") from exc
    overrides = [_parse_override(o) for o in args.override or []]
    for path, flag in (("seed", "seed"), ("threads", "threads"), ("audit_trials", "trials")):
        if (value := getattr(args, flag, None)) is not None:
            overrides.append((path, value))
    for path, value in overrides:
        _set_path(data, path, value)
    cfg = SimConfig.from_dict(data)
    if args.command != "ber" and cfg.threads != 1:
        raise InvalidConfigError(f"threads={cfg.threads}: only ber runs worker threads")
    return cfg


def _manifest(command: str, cfg: SimConfig | None) -> dict:
    manifest = {"command": command, "runtime": _runtime.record()}
    if cfg is not None:
        manifest["config"] = cfg.to_dict()
        manifest["seed"] = cfg.seed
        manifest["threads"] = cfg.threads
        if cfg.cost_model is not None:
            manifest["cost_model"] = asdict(cfg.cost_model)
    return manifest


def _check_out(out: str) -> None:
    """Fail before any work, creating nothing, if ``out`` cannot become a directory."""
    ancestor = os.path.abspath(out)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK)):
        raise InvalidConfigError(
            f"cannot write outputs to {out}: {ancestor} is not a writable directory")


def _cmd_ber(args) -> int:
    cfg = _load_config(args)
    _check_out(args.out)
    results = run_paired_ber(cfg, (cfg.decoupler,), (cfg.detector,))
    emit_outputs({"ber": (BER_COLUMNS, ber_rows(results))}, args.out,
                 _manifest("ber", cfg))
    print(f"wrote {args.out}/ber.csv ({cfg.trials} trials per SNR point)")
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg = _load_config(args)
    _check_out(args.out)
    report = run_equivalence_audit(cfg)
    emit_outputs({"audit": (AUDIT_COLUMNS, audit_rows(report))}, args.out,
                 _manifest("audit", cfg))
    worst = max(report.max_cross_residual.values())
    print(f"wrote {args.out}/audit.csv  worst residual {worst:.3e}, "
          f"worst SD-vs-SVD subspace distance {report.max_subspace_distance_vs_svd:.3e}")
    return EXIT_OK


def _cmd_flops(args) -> int:
    """``flops`` writes one table per swept mode, ``include`` the inclusion table."""
    cfg = _load_config(args)
    _check_out(args.out)
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
    emit_outputs(tables, args.out, _manifest(args.command, cfg))
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
    p_inc.add_argument("--base-k", type=int, default=FlopSweep.base_k)
    p_inc.add_argument("--base-n-r", type=int, default=FlopSweep.base_n_r)
    p_inc.add_argument("--m-i", type=int, default=FlopSweep.m_i)
    p_inc.add_argument("--p-max", type=int, default=FlopSweep.p_max)
    p_inc.add_argument("--no-instrumented", action="store_true")
    p_inc.set_defaults(func=_cmd_flops)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call; it holds no run data."""
    return build_parser()


def main(argv=None) -> int:
    _runtime.keep_heap()
    args = _parser().parse_args(argv)
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
