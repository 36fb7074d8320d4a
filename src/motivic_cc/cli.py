"""Command-line front end: model ingestion, series computation, verification.

Reports are JSON documents with exact rational/polynomial strings (never
floats) and deterministic field ordering; ``--pretty`` renders a plain-text
table instead.  Exit codes: 0 success, 1 verification failure, 2 input or
schema error, 3 unsupported range, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .lpoly import ExponentLimitError, LPoly, QQ, RING_L, RING_UV, RING_Y
from .series import IntegralityError, TSeries
from .lambda_power import euler_exp, euler_log
from . import motives as mo
from . import hirzebruch as hz
from . import pontrjagin as po
from .motives import TwoRouteMismatchError, UnsupportedRangeError


class SchemaError(ValueError):
    """Malformed model/series file or inconsistent field values."""


MAX_ORDER_ENV = "MOTIVIC_CC_MAX_ORDER"
DEFAULT_MAX_ORDER = 12

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_RANGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader closed stdout early


def order_cap() -> int:
    raw = os.environ.get(MAX_ORDER_ENV, "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_ORDER
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise SchemaError(f"{MAX_ORDER_ENV} must be an integer >= 0, got {raw!r}")


def check_order(n: int) -> int:
    cap = order_cap()
    if n < 0:
        raise SchemaError(f"order must be >= 0, got {n}")
    if n > cap:
        raise UnsupportedRangeError(
            f"order {n} exceeds the cap {cap} (set {MAX_ORDER_ENV} to raise it)")
    return n


def check_dim(d: int) -> int:
    if d < 1:
        raise SchemaError("dimension must be >= 1")
    return d


def is_int(x) -> bool:
    """JSON integers only: ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


# -- rational and model (de)serialization ------------------------------------

RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(s) -> Fraction:
    """A JSON integer or a string "p" or "p/q"; decimals and exponents are refused."""
    if not (is_int(s) or isinstance(s, str) and RATIONAL.fullmatch(s)):
        raise SchemaError(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def model_to_doc(model: hz.HomologyModel) -> dict:
    """The ModelFile document of ``model``, read off each polynomial's ``num`` and ``den``."""
    ty = {b: [{"yNum": RING_Y.unpack(k)[0], "c": coeff_str(Fraction(n, model.ty[b].den))}
              for k, n in sorted(model.ty[b].num.items())]
          for b, _ in model.basis if b in model.ty}
    e_terms = [{"u": u // 2, "v": v // 2, "c": int(Fraction(n, model.e_poly.den))}
               for (u, v), n in sorted((RING_UV.unpack(k), n) for k, n in model.e_poly.num.items())]
    return {
        "name": model.name,
        "dim": model.dim,
        "proper": model.proper,
        "basis": [{"id": b, "deg": k} for b, k in model.basis],
        "zeroDegreeBasisId": model.zero_id,
        "ty_class": ty,
        "e_poly": e_terms,
    }


def _array(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be an array")
    return x


def model_from_doc(doc: dict) -> hz.HomologyModel:
    if not isinstance(doc, dict):
        raise SchemaError("model file must contain a JSON object")
    required = {"name", "dim", "proper", "basis", "zeroDegreeBasisId", "ty_class", "e_poly"}
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"model file misses keys: {sorted(missing)}")
    name = doc["name"]
    dim = doc["dim"]
    proper = doc["proper"]
    if not isinstance(name, str) or not is_int(dim) or not isinstance(proper, bool):
        raise SchemaError("name must be a string, dim an integer, proper a boolean")
    if doc["zeroDegreeBasisId"] is not None and not isinstance(doc["zeroDegreeBasisId"], str):
        raise SchemaError("zeroDegreeBasisId must be a basis id or null")
    basis = []
    for rec in _array(doc["basis"], "basis"):
        if not isinstance(rec, dict) or set(rec) != {"id", "deg"}:
            raise SchemaError(f"bad basis record {rec!r}")
        if not isinstance(rec["id"], str) or not is_int(rec["deg"]):
            raise SchemaError(f"bad basis record {rec!r}")
        basis.append((rec["id"], rec["deg"]))
    ty = {}
    if not isinstance(doc["ty_class"], dict):
        raise SchemaError("ty_class must map basis ids to term arrays")
    # terms are summed per exponent and each polynomial built once: adding one-term
    # polynomials one at a time is quadratic in the number of terms
    for b, terms in doc["ty_class"].items():
        sums = {}
        for t in _array(terms, f"ty_class entry {b!r}"):
            if not isinstance(t, dict) or set(t) != {"yNum", "c"} or not is_int(t["yNum"]):
                raise SchemaError(f"bad ty_class term {t!r}")
            e = (t["yNum"],)
            sums[e] = sums.get(e, 0) + parse_rational(t["c"])
        ty[b] = LPoly(RING_Y, sums)
    sums = {}
    for t in _array(doc["e_poly"], "e_poly"):
        if not isinstance(t, dict) or set(t) != {"u", "v", "c"} or \
                not all(is_int(t[k]) for k in ("u", "v", "c")):
            raise SchemaError(f"bad e_poly term {t!r}")
        e = (2 * t["u"], 2 * t["v"])
        sums[e] = sums.get(e, 0) + t["c"]
    e_poly = LPoly(RING_UV, sums)
    try:
        return hz.HomologyModel(name, dim, proper, tuple(basis),
                                doc["zeroDegreeBasisId"], ty, e_poly)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def series_from_doc(doc: dict) -> TSeries:
    """A user-supplied punctual series over the L ring.

    Format: {"order": N, "coeffs": [[{"lNum": halved-exponent, "c": "p/q"}, ...], ...]}
    """
    if not isinstance(doc, dict) or set(doc) != {"order", "coeffs"}:
        raise SchemaError('series file needs exactly the keys "order" and "coeffs"')
    order = doc["order"]
    coeffs = doc["coeffs"]
    if not is_int(order) or order < 0 or not isinstance(coeffs, list) \
            or len(coeffs) != order + 1:
        raise SchemaError("series file: order must be an integer >= 0 and "
                          "coeffs must list order+1 coefficients")
    out = []
    for n, terms in enumerate(coeffs):
        sums = {}  # summed per exponent, then built once, as in model_from_doc
        for t in _array(terms, f"series file: the t^{n} coefficient"):
            if not isinstance(t, dict) or set(t) != {"lNum", "c"} or not is_int(t["lNum"]):
                raise SchemaError(f"bad series term {t!r}")
            e = (t["lNum"],)
            sums[e] = sums.get(e, 0) + parse_rational(t["c"])
        out.append(LPoly(RING_L, sums))
    s = TSeries(RING_L, out)
    if s.coeffs[0] != RING_L.one:
        raise SchemaError("series file: the t^0 coefficient must be 1")
    return s


# -- builtin registry ----------------------------------------------------------

BUILTIN_ATOMS = ("point", "P0", "P1", "P2", "P3", "P4")


def builtin_model(name: str) -> hz.HomologyModel:
    parts = name.split("x")
    if "" in parts:
        raise SchemaError(f"builtin {name!r} has an empty factor; write products like P1xP1")
    models = []
    for part in parts:
        if part not in BUILTIN_ATOMS:
            raise SchemaError(
                f"unknown builtin {part!r}; choose from {BUILTIN_ATOMS} or products like P1xP1")
        d = 0 if part == "point" else int(part[1:])
        models.append(hz.proj_space_model(d))
    model = models[0]
    for extra in models[1:]:
        model = hz.product_model(model, extra)
    return model


def read_json(path: str, what: str):
    """The JSON document in ``path``; an unreadable or malformed file is a schema error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file: {exc}")
    except (ValueError, RecursionError) as exc:  # malformed, past the digit limit, too deep
        raise SchemaError(f"{what} file is not valid JSON: {exc}")


def load_model(args) -> hz.HomologyModel:
    if args.builtin is not None and args.model is not None:
        raise SchemaError("--builtin and --model conflict; give one of them")
    if args.builtin:
        return builtin_model(args.builtin)
    if args.model:
        return model_from_doc(read_json(args.model, "model"))
    raise SchemaError("one of --builtin or --model is required")


# -- rendering ------------------------------------------------------------------

def atom_str(k: int, basis_id: str) -> str:
    return f"d{k}*[{basis_id}]"


def coeff_str(c) -> str:
    """``str(c)``; a number past Python's int-to-str digit limit is out of range."""
    try:
        return str(c)
    except ValueError as exc:
        raise UnsupportedRangeError("a computed coefficient passes Python's "
                                    f"{sys.get_int_max_str_digits()}-digit limit for printing "
                                    "integers") from exc


def nest(text: str) -> str:
    """JSON text one level (two spaces) deeper: no JSON string holds a raw newline."""
    return text.replace("\n", "\n  ")


def pont_coefficients(terms, order: int, pretty: bool) -> str:
    """A Pontrjagin series' ``coefficients`` t^0 .. t^order as ``json.dumps(indent=2)`` prints
    them in a report, or ``--pretty``, from the terms of ``pontrjagin.exp_terms``, which come in
    report order.  Coefficient text needs no escaping; each atom's line is escaped once."""
    buckets: list[list[str]] = [[] for _ in range(order + 1)]
    if pretty:
        for n, ms, c in terms:
            buckets[n].append(f"({coeff_str(c)}) {' '.join([atom_str(*a) for a in ms]) or '1'}")
        return "\n".join([f"t^{n}: " + (" + ".join(t) or "0") for n, t in enumerate(buckets)])
    line = cache(lambda atom: "            " + encode_basestring_ascii(atom_str(*atom)))
    for n, ms, c in terms:
        atoms = "[\n" + ",\n".join([line(a) for a in ms]) + "\n          ]" if ms else "[]"
        buckets[n].append(f'        {{\n          "atoms": {atoms},\n'
                          f'          "c": "{coeff_str(c)}"\n        }}')
    return "[\n" + ",\n".join([
        f'    {{\n      "n": {n},\n      "terms": '
        + ("[\n" + ",\n".join(t) + "\n      ]" if t else "[]") + "\n    }"
        for n, t in enumerate(buckets)]) + "\n  ]"


def print_report(args, command: str, params: dict, order: int, coefficients,
                 checks: list[dict]) -> int:
    """Print the JSON document {command, params, order, coefficients (scalar records, or
    :func:`pont_coefficients` text), checks} or a ``--pretty`` table; the exit code is 1 when
    a check failed.  The text is made whole first, so a coefficient past the digit limit leaves
    stdout empty, and the newline ``print`` writes after it raises ``BrokenPipeError`` where
    unbuffered stdout let a closed pipe cut the text short."""
    text = isinstance(coefficients, str)
    if args.pretty:
        lines = [f"# {command} {params}"] + ([coefficients] if text else [
            f"alpha_{rec['k']}: {rec['alpha']}" if "alpha" in rec else f"t^{rec['n']}: {rec['c']}"
            for rec in coefficients])
        print("\n".join(lines + [f"check {chk['name']}: {chk['status']}" + (
            f" [{chk['detail']}]" if "detail" in chk else "") for chk in checks]))
    else:  # json.dumps renders the small parts; head[:-2] drops its closing "\n}"
        head = json.dumps({"command": command, "params": params, "order": order}, indent=2)
        body = coefficients if text else nest(json.dumps(coefficients, indent=2))
        print(f'{head[:-2]},\n  "coefficients": {body},\n'
              f'  "checks": {nest(json.dumps(checks, indent=2))}\n}}')
    return EXIT_CHECK_FAILED if any(c["status"] == "fail" for c in checks) else EXIT_OK


# -- subcommands -----------------------------------------------------------------

def cmd_zeta(args) -> int:
    model = load_model(args)
    order = check_order(args.order)
    z = mo.kapranov_zeta(model.e_poly, order)
    series = z if args.spec == "uv" else z.map_coeffs(
        RING_Y if args.spec == "chi-y" else QQ, lambda e: mo.hodge_spec(e, args.spec))
    checks = []
    if model.l_class is not None:
        route = mo.map_series(mo.hilb_motive_series(model.l_class, 1, order), "e")
        ok = route == z
        checks.append({"name": "symmetric-product-route", "status": "ok" if ok else "fail"})
    else:
        checks.append({"name": "symmetric-product-route", "status": "skipped"})
    return print_report(args, "zeta", {"model": model.name, "spec": args.spec}, order,
                [{"n": n, "c": coeff_str(c)} for n, c in enumerate(series.coeffs)], checks)


def cmd_exponents(args) -> int:
    if args.dim is not None and args.series is not None:
        raise SchemaError("--dim and --series conflict; give one of them")
    order = check_order(args.order)
    checks = []
    if args.series:
        s = series_from_doc(read_json(args.series, "series"))
        if s.order < order:
            raise UnsupportedRangeError(
                f"series file stops at t^{s.order}, need t^{order}")
        try:
            b = euler_log(TSeries(RING_L, s.coeffs[: order + 1])).assert_integral("exponents")
        except IntegralityError as exc:
            raise SchemaError(f"series file: {exc}") from exc
        source = "series-file"
    else:
        if args.dim is None:
            raise SchemaError("one of --dim or --series is required")
        d = check_dim(args.dim)
        b = mo.punctual_exponents(d, order)
        # each check compares the table with a route that does not start from it
        if d == 2:  # the t^3 inversion of the lambda-binomial series
            inverted = mo.punctual_exponents_small(2).coeffs[1:]
            for k, (alpha, want) in enumerate(zip(b.coeffs[1:], inverted), start=1):
                checks.append({"name": f"closed-form-alpha-{k}",
                               "status": "ok" if alpha == want else "fail"})
        elif d > 2:
            ok = b.coeffs[1:] == mo.alpha_closed_small(d)[:order]
            checks.append({"name": "closed-form-match", "status": "ok" if ok else "fail"})
        source = f"dim-{d}"
    coeffs = [{"k": k, "alpha": coeff_str(a)} for k, a in enumerate(b.coeffs[1:], start=1)]
    return print_report(args, "exponents", {"source": source}, order, coeffs, checks)


def cmd_classes(args) -> int:
    model = load_model(args)
    order = check_order(args.order)
    d = args.dim if args.dim is None else check_dim(args.dim)
    kind = args.kind
    if kind not in ("sym", "config") and d is None:
        raise SchemaError(f"--kind {kind} requires --dim")
    if kind in ("sym", "config") and d is not None:
        raise SchemaError(f"--kind {kind} takes no --dim; leave it out")
    if kind in ("virtual", "aluffi") and d != 3:
        raise UnsupportedRangeError(f"--kind {kind} is a threefold formula; use --dim 3")
    chi = int(mo.hodge_spec(model.e_poly, "chi"))
    # the scalar records and the degree references compare the b the series is built from
    b = po.class_exponents(kind, d, order)
    ring, degs, degree = b.ring, model.degs(), [[] for _ in range(order + 1)]

    def written(terms):  # the degree map keeps a term whose atoms all have degree 0
        for n, ms, c in terms:
            if all(degs[x] == 0 for _, x in ms):
                degree[n].append((1, c, ring.one))
            yield n, ms, c

    coefficients = pont_coefficients(written(po.class_terms(model, kind, b)), order, args.pretty)
    checks: list[dict] = []
    params = {"model": model.name, "kind": kind, "dim": d}

    def check(name, ok):  # None: the check does not apply
        checks.append({"name": name, "status": "skipped" if ok is None else "ok" if ok else "fail"})

    def degree_check(name, make_expected):  # the written degree-0 terms, one dot per grading
        check(name, None if not model.proper or make_expected is None else
              TSeries(ring, [LPoly.dot(ring, t) for t in degree]) == make_expected())

    def motivic_check(name, motive_series, *args):  # chi_{-y} of the model's motivic route
        degree_check(name, None if model.l_class is None else
                     lambda: mo.map_series(motive_series(model.l_class, *args), "chi-y"))

    if kind == "hilb":
        motivic_check("degree-vs-cheah-route", mo.hilb_motive_series, d, order)
    elif kind == "sym":
        motivic_check("degree-vs-motivic-route", mo.hilb_motive_series, 1, order)
    elif kind == "config":
        one_plus = TSeries.from_terms(RING_L, order, {0: 1, 1: 1})
        check("config-vs-exponentiation", euler_log(mo.map_series(one_plus, "chi-y")) == b)
        motivic_check("degree-vs-motivic-route", mo.config_space_series, order)
    elif kind == "chern":
        degree_check("degree-vs-euler-product", lambda: euler_exp(b * chi))
    elif kind == "virtual":
        a_y = mo.map_series(mo.virtual_hilb_series(1, order), "chi-y")
        check("two-route-forms", euler_log(a_y.subst(1, -1)) == b)
        motivic_check("degree-vs-motivic-route", mo.virtual_hilb_series, order)
    else:  # aluffi
        # the scalar Chern-MNOP statement: chi of the virtual exponents is k
        check("sign-relation-vs-chern", b == mo.map_series(mo.virtual_exponents(order), "chi"))
        degree_check("degree-vs-macmahon", lambda: mo.macmahon_series(order, chi).subst(1, -1))
        params["convention"] = "coefficients enumerate against (-t)^n"

    return print_report(args, "classes", params, order, coefficients, checks)


def cmd_verify(args) -> int:
    from .checks import run_suite  # imported here: no other command pays for it
    order = check_order(args.order)
    results = run_suite(args.suite, order, args.seed)
    return print_report(args, "verify", {"suite": args.suite, "order": order, "seed": args.seed},
                order, [], results)


def cmd_model(args) -> int:
    model = load_model(args)
    print(json.dumps(model_to_doc(model), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-cc",
        description="Exact generating series for Hilbert schemes, symmetric "
                    "products and their characteristic classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", help="path to a model JSON file")
        p.add_argument("--builtin", help="builtin model name (point, P1..P4, P1xP1, ...)")

    p = sub.add_parser("zeta", help="symmetric-product (Kapranov zeta) series")
    add_model_flags(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--spec", choices=("uv", "chi-y", "chi"), default="uv")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("exponents", help="Euler exponents of the punctual Hilbert series")
    p.add_argument("--dim", type=int)
    p.add_argument("--series", help="path to a series JSON file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_exponents)

    p = sub.add_parser("classes", help="characteristic-class generating series")
    add_model_flags(p)
    p.add_argument("--dim", type=int, help="dimension parameter of the punctual data")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", required=True, choices=po.KINDS)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", default="all",
                   choices=("lambda", "motives", "hirzebruch", "pontrjagin", "all"))
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("model", help="emit a builtin model as a ModelFile JSON document")
    add_model_flags(p)
    p.set_defaults(fn=cmd_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the Python docs recipe: devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (SchemaError, UnsupportedRangeError, ExponentLimitError, TwoRouteMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_SCHEMA if isinstance(exc, SchemaError) else
                EXIT_CHECK_FAILED if isinstance(exc, TwoRouteMismatchError) else EXIT_RANGE)


if __name__ == "__main__":
    sys.exit(main())
