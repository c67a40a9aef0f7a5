"""Command-line entry point: instance generation, simulation, exact solving,
constant tables, and verification, with reproducible machine-readable reports.

Exit codes: 0 success, 2 usage or invalid parameters, 3 resource limits,
4 failed ``--check``. Reports never embed wall time or worker counts, so
reruns with different parallelism are byte-identical; ``exact`` prints its
wall time on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .analysis import derived_constants
from .constructions import (build_multiunit_instance, build_nested_scaled,
                            build_pairs_instance, build_partition_scaled,
                            build_tree_instance, build_u_family, verify_u_family)
from .core import dump_instance, instance_text, load_instance
from .errors import (EncodingOverflow, ExhaustedAttempts, OcrlabError, TooLarge)
from .feasibility import MATERIALIZE_MAX_ELEMENTS, materialize
from .montecarlo import (FixedOrder, SampledOrders, TreeOrders, estimate_ratio,
                         simulate)
from .policies import parse_policy_spec
from .solvers import SolverLimits, opt_aware_exact, opt_unaware_exact, prophet_exact

USAGE_ERROR, RESOURCE_ERROR, CHECK_FAILURE = 2, 3, 4


def _write(args, command: str, config: dict, payload: dict, header=None, rows=()) -> None:
    """The one report writer: with ``--format csv``, ``header`` and ``rows``;
    otherwise the versioned JSON document. To ``--out``, else stdout. The
    commands without ``--format`` pass no header."""
    if header and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        doc = {"version": __version__, "command": command, "config": config, **payload}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- gen ----------------------------------------------------------------------------


# construction name -> (instance, orders or None) built from gen's flags
CONSTRUCTIONS = {
    "tree": lambda a: (build_tree_instance(a.k), None),
    "multiunit": lambda a: build_multiunit_instance(a.k),
    "nested-scaled": lambda a: build_nested_scaled(a.k1, a.k2, a.k3, u_size=a.usize, q=a.q),
    "partition-scaled": lambda a: (build_partition_scaled(a.blocks, a.block_size, a.p), None),
    "pairs": lambda a: build_pairs_instance(a.k),
}


def cmd_gen(args) -> int:
    instance, orders = CONSTRUCTIONS[args.construction](args)
    dump_instance(instance, args.out, orders)
    summary = {"name": instance.name, "n": instance.n,
               "orders": len(orders.orders) if orders else 0,
               "metadata": dict(instance.metadata)}
    if instance.n <= MATERIALIZE_MAX_ELEMENTS:
        summary["family_size"] = len(materialize(instance.feasibility))
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# --- simulate / ratio ------------------------------------------------------------------


def _order_source(args, instance, orders):
    mode = args.order
    if mode == "tree":
        return TreeOrders()
    if mode == "sampled":
        if orders is None:
            raise ValueError("instance file carries no order distribution")
        return SampledOrders(orders)
    return FixedOrder(_indexed_order(orders, int(mode)))


def _indexed_order(orders, idx: int):
    if orders is None or not (0 <= idx < len(orders.orders)):
        raise ValueError(f"order index {idx} not present in the instance file")
    return orders.orders[idx]


def cmd_simulate(args) -> int:
    instance, orders = load_instance(args.instance)
    policy = parse_policy_spec(args.policy)
    source = _order_source(args, instance, orders)
    report = simulate(policy, instance, source, trials=args.trials, seed=args.seed,
                      workers=args.workers)
    config = {"instance": instance.name, "policy": args.policy, "order": args.order,
              "trials": args.trials, "seed": args.seed}
    # the CSV row is the version, the config in order, and the estimate
    _write(args, "simulate", config, {"report": asdict(report)},
           ["version", *config, "mean", "stderr", "ci_lo", "ci_hi"],
           [[__version__, *config.values(), report.mean, report.stderr, *report.ci95]])
    return 0


def cmd_ratio(args) -> int:
    instance, orders = load_instance(args.instance)
    if orders is None:
        raise ValueError("ratio needs an instance file with orders")
    policy = parse_policy_spec(args.policy)
    if not args.reference:
        args.reference = ["exact"]
    if args.reference == ["exact"]:
        references = [opt_aware_exact(instance, o).value for o in orders.orders]
    else:
        references = [parse_policy_spec(spec) for spec in args.reference]
        if len(references) == 1:
            references = references * len(orders.orders)
    est = estimate_ratio(policy, instance, orders, trials=args.trials,
                         seed=args.seed, references=references, workers=args.workers)
    config = {"instance": instance.name, "policy": args.policy,
              "reference": list(args.reference), "trials": args.trials,
              "seed": args.seed}
    header = ["version", "instance", "policy", "order_index", "num_mean", "num_stderr",
              "den_mean", "ratio", "ratio_lo", "ratio_hi", "min_ratio",
              "denominator_is_lower_bound"]
    rows = [[__version__, instance.name, args.policy, r.order_index, r.numerator.mean,
             r.numerator.stderr, getattr(r.denominator, "mean", r.denominator), r.ratio,
             *(r.ratio_ci or (None, None)), est.min_ratio, est.denominator_is_lower_bound]
            for r in est.rows]
    _write(args, "ratio", config, {"report": asdict(est)}, header, rows)
    return 0


# --- exact -------------------------------------------------------------------------


def cmd_exact(args) -> int:
    instance, orders = load_instance(args.instance)
    limits = SolverLimits(max_states=args.max_states)
    t0 = time.perf_counter()
    if args.mode != "prophet" and orders is None:
        raise ValueError(f"{args.mode} mode needs an instance file with orders")
    if args.mode == "aware":
        result = opt_aware_exact(instance, _indexed_order(orders, args.order),
                                 limits=limits)
    elif args.mode == "unaware":
        result = opt_unaware_exact(instance, orders, limits=limits)
    else:
        result = prophet_exact(instance)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    config = {"instance": instance.name, "mode": args.mode,
              "order": args.order if args.mode == "aware" else None}
    _write(args, "exact", config, {"value": result.value,
                                   "states_expanded": result.states_expanded})
    sys.stderr.write(f"wall_time_ms: {wall_ms:.3f}\n")
    return 0


# --- constants -----------------------------------------------------------------------


def cmd_constants(args) -> int:
    rows = derived_constants()
    fields = ["name", "value", "reference_value", "abs_err", "method"]
    table = [[getattr(r, f) for f in fields] for r in rows]
    _write(args, "constants", {}, {"rows": [dict(zip(fields, t)) for t in table]},
           fields, table)
    if args.check:
        by_name = {r.name: r for r in rows}
        ok = (by_name["penalty_pi1_at_1.152"].abs_err <= 0.001
              and by_name["penalty_pi2_at_0.674"].abs_err <= 0.001
              and by_name["penalty_pi2_at_0.913"].abs_err <= 0.001
              and by_name["penalty_pi1_at_0.913"].abs_err <= 0.002
              and by_name["margin_pi1"].value >= 0.002
              and by_name["margin_pi2"].value >= 0.001
              and by_name["inv_c_prime"].abs_err <= 1e-4)
        if not ok:
            sys.stderr.write("constants check failed\n")
            return CHECK_FAILURE
    return 0


# --- verify --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.what == "ufamily":
        family = build_u_family(n=args.n, alpha=args.alpha, k1=args.k1, k3=args.k3,
                                seed=args.seed)
        report = verify_u_family(family, k3=args.k3)
        _write(args, "verify", {"what": "ufamily", "n": args.n, "alpha": args.alpha,
                                "k1": args.k1, "k3": args.k3, "seed": args.seed},
               {"attempts": family.attempts,
                "sizes": sorted(len(u) for u in family.sets),
                "size_ok": report.size_ok, "membership_ok": report.membership_ok,
                "intersection_ok": report.intersection_ok,
                "witnesses": {k: list(v) for k, v in report.witnesses.items()}})
        if args.check and not report.all_ok:
            return CHECK_FAILURE
        return 0
    # instance: schema round-trip must be byte-identical
    if args.instance is None:
        raise ValueError("verify --what instance needs --instance")
    instance, orders = load_instance(args.instance)
    with open(args.instance, "rb") as fh:
        original = fh.read()
    identical = instance_text(instance, orders).encode("utf-8") == original
    _write(args, "verify", {"what": "instance", "instance": args.instance},
           {"round_trip_identical": identical, "n": instance.n})
    if args.check and not identical:
        return CHECK_FAILURE
    return 0


# --- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocrlab")
    sub = parser.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--k1", type=int, default=2)
    gen.add_argument("--k2", type=int, default=8)
    gen.add_argument("--k3", type=int, default=12)
    gen.add_argument("--usize", type=int, default=3)
    gen.add_argument("--q", type=float, default=0.1)
    gen.add_argument("--blocks", type=int, default=4)
    gen.add_argument("--block-size", dest="block_size", type=int, default=4)
    gen.add_argument("--p", type=float, default=0.25)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    # the flags simulate and ratio share
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--instance", required=True)
    mc.add_argument("--policy", required=True)
    mc.add_argument("--trials", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--format", choices=["json", "csv"], default="json")
    mc.add_argument("--out")

    sim = sub.add_parser("simulate", parents=[mc], help="Monte-Carlo policy evaluation")
    sim.add_argument("--order", default="0",
                     help="order index, 'sampled', or 'tree'")
    sim.set_defaults(func=cmd_simulate)

    rat = sub.add_parser("ratio", parents=[mc],
                         help="per-order ratio vs an aware reference")
    rat.add_argument("--reference", action="append", default=None,
                     help="'exact' or a reference policy spec (repeatable, one per order)")
    rat.set_defaults(func=cmd_ratio)

    exa = sub.add_parser("exact", help="exact solvers on small instances")
    exa.add_argument("--instance", required=True)
    exa.add_argument("--mode", choices=["aware", "unaware", "prophet"], required=True)
    exa.add_argument("--order", type=int, default=0)
    exa.add_argument("--max-states", dest="max_states", type=int,
                     default=SolverLimits().max_states)
    exa.add_argument("--out")
    exa.set_defaults(func=cmd_exact)

    con = sub.add_parser("constants", help="derived constant table")
    con.add_argument("--format", choices=["json", "csv"], default="json")
    con.add_argument("--check", action="store_true")
    con.add_argument("--out")
    con.set_defaults(func=cmd_constants)

    ver = sub.add_parser("verify", help="verify set families and instance files")
    ver.add_argument("--what", choices=["ufamily", "instance"], required=True)
    ver.add_argument("--instance")
    ver.add_argument("--n", type=int, default=2 ** 16)
    ver.add_argument("--alpha", type=int, default=10)
    ver.add_argument("--k1", type=int, default=4)
    ver.add_argument("--k3", type=int, default=64)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--check", action="store_true")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TooLarge, ExhaustedAttempts, EncodingOverflow) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return RESOURCE_ERROR
    except (OcrlabError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
