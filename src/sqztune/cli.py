"""
Command-line surface: run scenarios, sweep parameters, list builtins, and
emit the reference table.  Exit codes: 0 all checks pass, 1 reference check
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import asdict
from pathlib import Path

from .scenarios import (
    BUILTIN_SCENARIOS,
    REFERENCE_TABLE,
    ConfigError,
    ScenarioResult,
    emit_reference,
    get_scenario,
    json_text,
    list_scenarios,
    load_config,
    run_scenario,
    save_config,
    summary_csv,
    sweep,
    sweep_csv,
)
from .timeseries import write_spectra_csv

EXIT_OK = 0
EXIT_REFERENCE_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("analytic", "montecarlo", "both"),
        default=None,
        help="override the scenario's evaluation mode",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", type=Path, default=None, help="directory for output files")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="summary output format"
    )


def _resolve_scenario(token: str):
    if token in BUILTIN_SCENARIOS:
        return get_scenario(token)
    if Path(token).exists():
        return load_config(token)
    raise ConfigError(
        f"{token!r} is neither a builtin scenario nor an existing config file; "
        f"builtins: {', '.join(sorted(BUILTIN_SCENARIOS))}"
    )


def _result_dict(result: ScenarioResult) -> dict:
    return {
        "scenario": result.name,
        "mode": result.mode,
        "seed": result.seed,
        "reference_ok": result.reference_ok,
        # Each row's fields but the scenario, named above, and the linear value.
        "rows": [
            {key: value for key, value in asdict(row).items()
             if key not in ("scenario", "analytic_linear")}
            for row in result.rows
        ],
    }


def _print_result(result: ScenarioResult) -> None:
    print(f"scenario {result.name}  mode={result.mode}  seed={result.seed}")
    header = f"{'quantity':<32} {'analytic':>10} {'montecarlo':>11} {'reference':>10} {'check':>6}"
    print(header)
    print("-" * len(header))
    for row in result.rows:
        analytic = "" if row.analytic_db is None else f"{row.analytic_db:+.3f}"
        mc = "" if row.mc_db is None else f"{row.mc_db:+.3f}"
        ref = "" if row.reference_db is None else f"{row.reference_db:+.2f}"
        check = "" if row.passed is None else ("pass" if row.passed else "FAIL")
        print(f"{row.quantity:<32} {analytic:>10} {mc:>11} {ref:>10} {check:>6}")


def _make_dir(path: Path) -> None:
    """Create an output directory; a path that cannot be one is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {str(path)!r} as an output directory: {exc}") from None


@contextlib.contextmanager
def _writing_into(path: Path):
    """Turn an OSError of a write inside output directory ``path`` into a
    config error naming the file."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output into {str(path)!r}: {exc}") from None


def _emit(args: argparse.Namespace, stem: str, csv_text: str, data) -> None:
    """Print a table as ``csv_text`` or as the JSON of ``data``, per
    ``--format``, and write the same text to ``<stem>.<format>`` in ``--out``."""
    text = json_text(data) if args.format == "json" else csv_text
    print(text, end="")
    if args.out is not None:
        with _writing_into(args.out):
            (args.out / f"{stem}.{args.format}").write_text(text)


def _write_outputs(result: ScenarioResult, out_dir: Path, fmt: str) -> None:
    with _writing_into(out_dir):
        text = json_text(_result_dict(result)) if fmt == "json" else summary_csv(result)
        (out_dir / f"{result.name}_summary.{fmt}").write_text(text)
        write_spectra_csv(
            [(spectrum, out_dir / f"{result.name}_{key}.csv")
             for key, spectrum in result.spectra.items()]
        )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario)
    if args.out is not None:
        _make_dir(args.out)  # before the work, which an unusable path would waste
    result = run_scenario(cfg, mode=args.mode, seed=args.seed)
    _print_result(result)
    if args.out is not None:
        _write_outputs(result, args.out, args.format)
    return EXIT_OK if result.reference_ok else EXIT_REFERENCE_FAILURE


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values must be a comma-separated number list, got {args.values!r}")
    if args.out is not None:
        _make_dir(args.out)
    records = sweep(cfg, args.param, values, mode=args.mode, seed=args.seed)
    _emit(args, f"{cfg.name}_sweep_{args.param}", sweep_csv(records), records)
    return EXIT_OK


def _cmd_list(args: argparse.Namespace) -> int:
    for name, description in list_scenarios():
        print(f"{name:<8} {description}")
    if args.export is not None:
        _make_dir(args.export)
        with _writing_into(args.export):
            for name, _ in list_scenarios():
                save_config(get_scenario(name), args.export / f"{name}.json")
        print(f"exported builtin configs to {args.export}")
    return EXIT_OK


def _cmd_reference(args: argparse.Namespace) -> int:
    if args.out is not None:
        _make_dir(args.out)
    entries = sorted(REFERENCE_TABLE, key=lambda e: (e.scenario, e.quantity))
    _emit(args, "reference", emit_reference(entries), [entry.__dict__ for entry in entries])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqztune",
        description=(
            "Squeezed-vacuum frequency-tuning simulator: analytic noise-power "
            "predictions and Monte-Carlo homodyne spectra"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a builtin scenario or a JSON config file")
    run_p.add_argument("scenario", help="builtin name (see `list`) or config path")
    _add_common(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep one scenario parameter")
    sweep_p.add_argument("scenario", help="builtin name or config path")
    sweep_p.add_argument("--param", required=True, help="pump_mw | delta_theta_rad | hd_efficiency")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.add_argument("--export", type=Path, default=None, help="write builtin configs to a directory")
    list_p.set_defaults(func=_cmd_list)

    ref_p = sub.add_parser("reference", help="emit the reference value table")
    ref_p.add_argument("--out", type=Path, default=None)
    ref_p.add_argument("--format", choices=("csv", "json"), default="csv")
    ref_p.set_defaults(func=_cmd_reference)
    return parser


def _starts_with_number(token: str) -> bool:
    """True when the first entry of a comma-separated list is a number."""
    try:
        float(token.split(",")[0])
    except ValueError:
        return False
    return True


def _join_value_lists(argv: list[str]) -> list[str]:
    """``--values LIST`` as ``--values=LIST`` when LIST starts with a negative
    number: argparse reads a token that starts with '-' as an option unless
    the whole token is one negative number."""
    joined = []
    for token in argv:
        if joined[-1:] == ["--values"] and token.startswith("-") and _starts_with_number(token):
            joined[-1] = f"--values={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_value_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
