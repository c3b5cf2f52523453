"""Command-line front-end.

Exit codes: 0 success, 1 verification failure, 2 configuration or spec
error, 3 a guard exceeded (codewords enumerated, or the bytes of a dual)
or, as a last resort where no guard caught the request, memory ran out,
4 an internal invariant failed.
JSON is the canonical output format; CSV uses plain headers and no locale
formatting, so identical configuration and seed produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import jsonio
from .algebra import parse_field_spec
from .codes import (
    TooLarge,
    complete_weight_enumerator,
    dual,
    hull_dim,
    min_distance,
    weight_distribution,
)
from .conditions import apn_ab_dual_diagnostics, pn_bounds_check
from .constructions import (
    first_generic,
    make_cyclotomic_set,
    make_fixed_hull_set,
    make_image_set,
    make_lcd_set,
    make_mds_set,
    make_preimage_set,
    make_skew_set,
    make_trace_zero_set,
    second_generic,
)
from .errors import InvariantViolated, WalshCodesError
from .functions import parse_function
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


class ConfigError(Exception):
    pass


def _parse_kv(spec: str) -> tuple[str, dict[str, str]]:
    if ":" not in spec:
        return spec, {}
    name, rest = spec.split(":", 1)
    kv = {}
    for part in rest.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad generator parameter {part!r}")
        k, v = part.split("=", 1)
        kv[k] = v
    return name, kv


def _basis_prefix(field, k: int):
    if k > field.m:
        raise ConfigError(f"k={k} exceeds the extension degree {field.m}")
    return field.power_basis()[:k]


def _build_defining_set(args, field):
    if args.defining_set:
        try:
            with open(args.defining_set) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise ConfigError(f"cannot read defining set: {ex}")
        if not obj.get("elements"):
            raise ConfigError("defining set file has no elements")
        return jsonio.defining_set_from_json(obj)
    if not args.generator:
        raise ConfigError("build second needs --generator or --defining-set")
    name, kv = _parse_kv(args.generator)
    if name == "skew":
        return make_skew_set(field)
    if name == "trace-zero":
        return make_trace_zero_set(field)
    if name == "cyclotomic":
        return make_cyclotomic_set(
            field,
            int(kv.get("base", "1")),
            second_class=kv.get("class", "1") == "2",
        )
    if name == "image":
        if not args.fn:
            raise ConfigError("the image generator needs --fn")
        return make_image_set(parse_function(field, args.fn).with_codomain(field.m))
    if name == "preimage":
        if not args.fn:
            raise ConfigError("the preimage generator needs --fn")
        f = parse_function(field, args.fn)
        return make_preimage_set(f, field.scalar(int(kv.get("b", "1"))))
    if name == "fixed-hull":
        k = int(kv["k"])
        return make_fixed_hull_set(
            field,
            _basis_prefix(field, k),
            int(kv.get("l", "0")),
            alpha=int(kv["alpha"]),
            beta=int(kv["beta"]),
        )
    if name == "lcd":
        return make_lcd_set(field, _basis_prefix(field, int(kv["k"])), int(kv.get("base", "1")))
    if name == "mds":
        k = int(kv["k"])
        variant = kv.get("variant", "k+1")
        if "alphas" in kv:
            alphas = [int(a) for a in kv["alphas"].split(";")]
        else:
            alphas = [1] * k if variant == "k+1" else list(range(1, k + 1))
        return make_mds_set(field, _basis_prefix(field, k), variant, alphas)
    raise ConfigError(f"unknown generator {name!r}")


def _build_code(args):
    if not args.field:
        raise ConfigError("--field is required")
    try:
        field = parse_field_spec(args.field)
    except (ValueError, WalshCodesError) as ex:
        raise ConfigError(f"bad field spec: {ex}")
    if args.target == "first":
        if not args.fn:
            raise ConfigError("build first needs --fn")
        f = parse_function(field, args.fn).with_codomain(field.m)
        return first_generic(f, include_zero=not args.no_zero)
    ds = _build_defining_set(args, field)
    return second_generic(ds)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def cmd_build(args) -> int:
    code = _build_code(args)
    try:
        d = min_distance(code, args.guard) if code.k else None
    except TooLarge:
        d = None
    payload = {"code": jsonio.code_to_json(code), "parameters": [code.n, code.k, d]}
    if args.format == "text":
        _emit(args, f"[{code.n}, {code.k}, {d}] over GF({code.base.p}^{code.base.m})")
    else:
        _emit(args, _json_dump(payload))
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = _build_code(args)
    report: dict = {"parameters": [code.n, code.k]}
    # with --weights, one transform gives both the table and d
    wd = weight_distribution(code, args.guard) if args.weights else None
    if wd is not None:
        report["parameters"].append(min(wd.nonzero_weights()) if code.k else None)
    else:
        try:
            report["parameters"].append(min_distance(code, args.guard) if code.k else None)
        except TooLarge:
            report["parameters"].append(None)
    lines_csv: list[str] = []
    if args.dual:
        report["dual"] = jsonio.code_to_json(dual(code, args.byte_guard))
    if args.hull:
        report["hull_dim"] = hull_dim(code)
    if wd is not None:
        report["weights"] = jsonio.weight_distribution_to_json(wd)
        lines_csv.append("w,count")
        lines_csv.extend(f"{w},{c}" for w, c in wd.counts.items())
    if args.cwe:
        cwe = complete_weight_enumerator(code, args.guard)
        report["cwe"] = jsonio.cwe_to_json(cwe)
        lines_csv.append("composition,count")
        lines_csv.extend(
            f"{'|'.join(map(str, e['composition']))},{e['count']}"
            for e in jsonio.cwe_to_json(cwe)
        )
    if args.format == "csv" and lines_csv:
        _emit(args, "\n".join(lines_csv))
    elif args.format == "text":
        _emit(args, "\n".join(f"{k}: {v}" for k, v in report.items()))
    else:
        _emit(args, _json_dump(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    if args.field and args.fn and args.suite in ("apn-ab", "pn-bounds"):
        field = parse_field_spec(args.field)
        f = parse_function(field, args.fn).with_codomain(field.m)
        if args.suite == "apn-ab":
            rep = apn_ab_dual_diagnostics(f, args.guard)
            passed = rep["hypothesis_ok"]
            report = {
                "suite": args.suite,
                "passed": passed,
                "instances": [
                    {
                        "instance": f"{args.fn} over GF({field.p}^{field.m})",
                        "passed": passed,
                        "d_perp": rep["d_perp"],
                        "is_apn": rep["is_apn"],
                        "is_ab": rep["is_ab"],
                        "characteristic_set": sorted(rep["characteristic_set"]),
                    }
                ],
            }
        else:
            rep = pn_bounds_check(f, args.guard)
            report = {
                "suite": args.suite,
                "passed": rep["all_in_band"],
                "instances": [
                    {
                        "instance": f"{args.fn} over GF({field.p}^{field.m})",
                        "passed": rep["all_in_band"],
                        "weights": sorted(rep["weights"]),
                    }
                ],
            }
    else:
        report = run_suite(args.suite, args.seed)
    if args.format == "csv":
        lines = ["instance,passed"]
        lines.extend(f"{i['instance']},{i['passed']}" for i in report["instances"])
        _emit(args, "\n".join(lines))
    elif args.format == "text":
        lines = [f"suite {report['suite']}: {'pass' if report['passed'] else 'FAIL'}"]
        lines.extend(
            f"  {'pass' if i['passed'] else 'FAIL'}  {i['instance']}"
            for i in report["instances"]
        )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _json_dump(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshcodes",
        description="exact linear codes from p-ary functions and defining sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="p=<int>,m=<int>[,poly=<c0,c1,...,1>]")
        p.add_argument("--fn", help="function spec, e.g. x^2 or tr(g*x^3)")
        p.add_argument("--generator", help="defining-set generator name[:k=v,...]")
        p.add_argument("--defining-set", help="path to a defining-set JSON file")
        p.add_argument("--no-zero", action="store_true", help="puncture at x = 0")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--guard", type=int, default=None, help="codeword cap of weight queries")
        p.add_argument("--byte-guard", type=int, default=None, help="cap on the estimated bytes of a dual")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="write output to this path instead of stdout")

    b = sub.add_parser("build", help="construct a code and print it")
    b.add_argument("target", choices=("first", "second"))
    common(b)
    b.set_defaults(fn_cmd=cmd_build)

    a = sub.add_parser("analyze", help="dual / hull / weight tables")
    a.add_argument("target", choices=("first", "second"))
    a.add_argument("--dual", action="store_true")
    a.add_argument("--hull", action="store_true")
    a.add_argument("--weights", action="store_true")
    a.add_argument("--cwe", action="store_true")
    common(a)
    a.set_defaults(fn_cmd=cmd_analyze)

    v = sub.add_parser("verify", help="run a built-in verification suite")
    v.add_argument("suite")
    common(v)
    v.set_defaults(fn_cmd=cmd_verify)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: each of its
    actions reads the terminal size as it is added, which costs about as
    much as a small command."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.guard is not None and args.guard < 1:
            raise ConfigError("the enumeration guard must be at least 1")
        if args.byte_guard is not None and args.byte_guard < 1:
            raise ConfigError("the byte guard must be at least 1")
        return args.fn_cmd(args)
    except TooLarge as ex:
        print(f"guard exceeded: {ex}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("out of memory: the request needs more memory than this process may take", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolated as ex:
        print(f"invariant violated: {ex}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, WalshCodesError, ValueError, KeyError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
