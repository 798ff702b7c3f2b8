"""Command-line interface.

Subcommands: `update` runs one corrector step from a scenario file,
`simulate` runs a seeded multi-step predict/correct loop, `verify` runs the
built-in check suites, `inspect` prints the partition-weight table and
coefficient dump for a scenario.  Exit codes: 0 pass, 1 check failure,
2 usage error, 3 validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import __version__
from .corrector import corrector_step
from .errors import FilterError, ValidationError
from .scenario import (
    MeasurementSet,
    StepResult,
    dump_json,
    load_scenario,
    step_result_to_dict,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etcphd",
        description="Extended-target CPHD corrector: updates, simulation, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    update = sub.add_parser("update", help="run one corrector step from a scenario file")
    update.add_argument("--config", required=True, help="scenario JSON path")
    update.add_argument("--measurements", help="optional JSON file with {\"values\": [...]}")
    update.add_argument("--out", help="write the step result JSON here")
    _common_options(update)

    simulate = sub.add_parser("simulate", help="run a seeded multi-step predict/correct loop")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--steps", type=int, default=1, help="number of steps (default 1)")
    simulate.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    simulate.add_argument("--out", help="write the run results JSON here")
    _common_options(simulate)

    verify = sub.add_parser("verify", help="run built-in verification suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES) + ["all"],
        help="suite name; repeatable; default all",
    )
    verify.add_argument("--seeds", type=int, help="scenario count per randomized suite")
    verify.add_argument("--out", help="write the report JSON here")

    inspect = sub.add_parser("inspect", help="print partition weights and coefficients")
    inspect.add_argument("--config", required=True)
    _common_options(inspect)
    return parser


def _common_options(parser: argparse.ArgumentParser) -> None:
    """The measurement-count limit of the subcommands that run a scenario."""
    parser.add_argument("--max-z", type=_count, dest="max_z",
                        help="measurement-count limit of a step, in place of the scenario's "
                             "max_z (default 8); a step enumerates Bell(|Z|) partitions")


def _count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return int(text)


def _apply_options(scenario, args):
    if args.max_z is not None:
        scenario.options = dataclasses.replace(scenario.options, max_measurements=args.max_z)
    return scenario


def _load_measurements(path) -> MeasurementSet:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    values = doc.get("values")
    if not isinstance(values, list):
        raise ValidationError([f"{path}: expected an object with a \"values\" list"])
    return MeasurementSet.of(values)


def _cmd_update(args) -> int:
    scenario = _apply_options(load_scenario(args.config), args)
    if args.measurements:
        measurements = _load_measurements(args.measurements)
    else:
        measurements = scenario.measurements
    result = corrector_step(
        scenario.prior_intensity, scenario.prior_card, measurements,
        scenario.model, scenario.options,
    )
    step = StepResult(
        step_index=0,
        measurement_count=len(measurements),
        partition_count=result.diagnostics["partition_count"],
        result=result,
        wall_time_s=result.diagnostics.get("wall_time_s", 0.0),
    )
    payload = step_result_to_dict(step)
    text = dump_json(payload, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    print(
        f"update: |Z|={len(measurements)}, {step.partition_count} partitions, "
        f"{step.wall_time_s * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .simulate import RNG_NAME, simulate

    scenario = _apply_options(load_scenario(args.config), args)
    run = simulate(scenario, args.steps, args.seed)
    payload = {
        "seed": run.seed,
        "rng": RNG_NAME,
        "measurements": run.measurements,
        "steps": [step_result_to_dict(step) for step in run.steps],
    }
    text = dump_json(payload, args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    total = sum(step.wall_time_s for step in run.steps)
    print(f"simulate: {args.steps} steps in {total * 1e3:.2f} ms", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = sorted(SUITES)
    start = time.perf_counter()
    report = run_suites(names, seeds=args.seeds)
    elapsed = time.perf_counter() - start
    if args.out:
        dump_json(report, args.out)
    for suite in report["suites"]:
        status = "PASS" if suite["pass"] else "FAIL"
        print(f"{status} {suite['suite']}")
        for check in suite["checks"]:
            mark = "ok" if check["pass"] else "FAIL"
            line = f"  [{mark}] {check['name']}: {check['value']:.3e}"
            if "tolerance" in check:
                line += f" (tol {check['tolerance']:.1e})"
            print(line)
    print(f"verify: {len(report['suites'])} suites in {elapsed:.2f} s", file=sys.stderr)
    if not report["pass"]:
        if args.out:
            print(f"FAIL (report at {args.out})")
        else:
            print("FAIL")
        return EXIT_CHECK_FAILED
    print("PASS")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    scenario = _apply_options(load_scenario(args.config), args)
    from .corrector import coefficient_table

    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    print(f"phi   = {table.phi!r}")
    print(f"kappa = {table.kappa!r}")
    print(f"normalizer (sum of beta products) = {table.normalizer!r}")
    print("zeta_prior_at_phi:", [f"{v:.6g}" for v in table.zeta_prior[1:]])
    print("zeta_clutter_at_zero:", [f"{v:.6g}" for v in table.zeta_clutter[1:]])
    print("eta per cell:")
    for cell, value in sorted(table.eta.items()):
        print(f"  {cell}: {value!r}")
    print("beta per cell:")
    for cell, value in sorted(table.beta.items()):
        print(f"  {cell}: {value!r}")
    print("omega per partition (canonical order):")
    for partition, weight in table.omega.items():
        cells = " | ".join(str(list(cell)) for cell in partition)
        print(f"  {{{cells}}}: {weight!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "update":
            return _cmd_update(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"validation error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except FilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
