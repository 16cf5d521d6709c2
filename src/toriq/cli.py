"""Command line interface and JSON input/output.

Input documents carry a matrix, an optional fan (1-based generator index
lists), an optional torsion block, and a role tag; see docs/format.md.
Reports serialize deterministically (sorted keys) and integers beyond
the 53-bit safe range become decimal strings.
"""

from __future__ import annotations

import json
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import log2, log10, prod
from types import SimpleNamespace

from . import bounds as bounds_mod
from .classify import enumerate_qgorenstein_family, unitary_cover
from .covering import analyze
from .errors import InvalidInput, TooLarge, ToriqError
from .fans import (
    FanData,
    _anticanonical,
    face_fan,
    fan_from_point,
    is_qfano_weight,
    is_simplicial,
    qfano_representative,
)
from .gale import classify_matrix, gale_dual
from .intmat import IntMatrix, kernel_basis, smith_diagonal
from .polytope import VPolytope, normalized_volume, polar_vertex_matrix

_SAFE = 1 << 53


# ---------------------------------------------------------------------------
# input documents


def _parse_int(x):
    if isinstance(x, bool):
        raise InvalidInput("booleans are not matrix entries")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError as exc:
            raise InvalidInput(f"bad integer string {x!r}") from exc
    raise InvalidInput(f"bad integer entry {x!r}")


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read input document: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput("input document must be a JSON object")
    if "matrix" not in raw:
        raise InvalidInput("missing required key 'matrix'")
    mat = raw["matrix"]
    if not isinstance(mat, list) or not mat or not all(isinstance(r, list) for r in mat) or not mat[0]:
        raise InvalidInput("'matrix' must be a non-empty 2-D array")
    try:
        matrix = IntMatrix([[_parse_int(x) for x in row] for row in mat])
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    role = raw.get("role", "fan-matrix")
    if role not in ("fan-matrix", "weight-matrix"):
        raise InvalidInput(f"unknown role {role!r}")
    fan = None
    if raw.get("fan") is not None:
        if not isinstance(raw["fan"], list) or not all(isinstance(c, list) for c in raw["fan"]):
            raise InvalidInput("'fan' must be a list of index lists")
        cones = []
        for cone in raw["fan"]:
            idx = [_parse_int(i) for i in cone]
            if any(i < 1 or i > matrix.cols for i in idx):
                raise InvalidInput(f"fan index out of range in {cone}")
            cones.append(tuple(i - 1 for i in idx))
        fan = cones
    torsion = None
    if raw.get("torsion") is not None:
        blk = raw["torsion"]
        if (
            not isinstance(blk, dict)
            or not isinstance(blk.get("factors"), list)
            or not isinstance(blk.get("columns"), list)
        ):
            raise InvalidInput("'torsion' must carry 'factors' and 'columns'")
        if not all(isinstance(col, list) for col in blk["columns"]):
            raise InvalidInput("'torsion' columns must be lists")
        torsion = {
            "factors": [_parse_int(x) for x in blk["factors"]],
            "columns": [[_parse_int(x) for x in col] for col in blk["columns"]],
        }
        _check_torsion(matrix, role, torsion)
    return {"matrix": matrix, "fan": fan, "role": role, "torsion": torsion}


def _check_torsion(matrix: IntMatrix, role: str, torsion: dict) -> None:
    """Raise InvalidInput unless the torsion block T completes the weight
    matrix Q to the grading Z^m -> Z^r + Z/d_1 + ... of the class group
    Z^m / (row lattice of V), where V is the fan matrix (the Gale dual of
    a weight-matrix document).

    The map e_j -> (Q_j, T_j) kills the rows of V when every row pairs to
    0 modulo the factors.  It is then onto when the images of the kernel
    of Q generate the factors, and one-to-one on the class group when in
    addition the factors multiply to the order of its torsion part.  The
    block is a choice of splitting, so it is not compared with
    `classify.torsion_matrix`.
    """
    factors, columns = torsion["factors"], torsion["columns"]
    if len(columns) != matrix.cols or any(len(c) != len(factors) for c in columns):
        raise InvalidInput("'torsion' needs one column per matrix column, each with one entry per factor")
    if any(d < 2 for d in factors):
        raise InvalidInput("torsion factors must be at least 2")
    if role == "weight-matrix":
        q, v = matrix, gale_dual(matrix)
    else:
        q, v = kernel_basis(matrix).t(), matrix
    for row in v.data:
        for k, d in enumerate(factors):
            if sum(x * c[k] for x, c in zip(row, columns)) % d:
                raise InvalidInput("a row of the fan matrix does not pair to 0 modulo the torsion factors")
    order = prod(x for x in smith_diagonal(v) if x)
    if prod(factors) != order:
        raise InvalidInput(
            f"torsion factors multiply to {prod(factors)}, the class group's torsion has order {order}"
        )
    # the kernel of Q is the saturation of the row lattice of V
    kernel = kernel_basis(q) if q.rows else IntMatrix.identity(matrix.cols)
    images = [
        [sum(c[k] * x for c, x in zip(columns, u)) for u in kernel.columns()]
        + [d if i == k else 0 for i, d in enumerate(factors)]
        for k in range(len(factors))
    ]
    if any(x != 1 for x in smith_diagonal(IntMatrix._of(images))):
        raise InvalidInput("the torsion block does not generate its factors on the kernel of the weight matrix")


def resolve_variety(doc) -> tuple:
    """Turn a document into (fan matrix, FanData)."""
    matrix = doc["matrix"]
    if doc["role"] == "weight-matrix":
        q = matrix
        v = gale_dual(q)
        if doc["fan"] is not None:
            fan = FanData(v, doc["fan"])
        else:
            fan = fan_from_point(q, _anticanonical(q))
        return v, fan
    v = matrix
    if doc["fan"] is not None:
        return v, FanData(v, doc["fan"])
    return v, face_fan(v)


# ---------------------------------------------------------------------------
# serialization


def _decimal(x: int) -> str:
    """x in decimal, or TooLarge when x has more digits than the
    interpreter converts (`sys.get_int_max_str_digits`); that limit is
    process-wide, so it is left as it is."""
    try:
        return int.__repr__(x)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise TooLarge(f"an output integer has more than {limit} digits, the interpreter's limit") from exc


def _write(obj, out: list, pad: str) -> None:
    """Append the JSON text of obj to out, in one walk: the text
    json.dumps(..., sort_keys=True, indent=2) gives once integers beyond
    the 53-bit safe range become decimal strings, a Fraction "p/q" (an
    integer when q = 1), a tuple or IntMatrix a list.  pad is the
    indentation of the line obj starts on."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(f'"{_decimal(obj)}"' if abs(obj) > _SAFE else int.__repr__(obj))
    elif isinstance(obj, (list, tuple, IntMatrix)):
        items = obj.data if isinstance(obj, IntMatrix) else obj
        if not items:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if all(type(x) is int and -_SAFE <= x <= _SAFE for x in items):
            out.append("[\n" + inner + sep.join(map(int.__repr__, items)) + "\n" + pad + "]")
            return
        out.append("[\n" + inner)
        for i, x in enumerate(items):
            if i:
                out.append(sep)
            _write(x, out, inner)
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{\n" + inner)
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",\n" + inner)
            out.append(encode_basestring_ascii(k) + ": ")
            _write(obj[k], out, inner)
        out.append("\n" + pad + "}")
    elif isinstance(obj, Fraction):  # an ABC check, so after the containers
        if obj.denominator == 1:
            _write(obj.numerator, out, pad)
        else:
            out.append(f'"{_decimal(obj.numerator)}/{_decimal(obj.denominator)}"')
    else:
        out.append(json.dumps(obj))


def emit(payload: dict) -> None:
    out = []
    _write(payload, out, "")
    print("".join(out))


# ---------------------------------------------------------------------------
# report assembly


def build_report(v: IntMatrix, fan: FanData) -> dict:
    cd = analyze(v, fan)
    certs = bounds_mod.certify(cd)
    report = {
        "n": cd.n,
        "r": cd.r,
        "m": cd.m,
        "r_polar": cd.r_polar,
        "m_polar": cd.m_polar,
        "mult": cd.mult,
        "weight_order": cd.weight_order,
        "extended_weight_order": cd.h_extension_order,
        "modulus": cd.modulus,
        "modulus_polar": cd.modulus_polar,
        "k": cd.k,
        "k_hat": cd.k_hat,
        "h": cd.h,
        "degree_scaled": cd.degree_scaled,
        "cover_degree_scaled": cd.cover_degree_scaled,
        "dual_cover_degree": cd.dual_cover_degree,
        "covering_group": str(cd.G),
        "weight_group": str(cd.weight_group_type),
        "h_extension": str(cd.h_extension_type),
        "certificates": [
            {
                "name": c.bound_name,
                "inputs": list(c.inputs),
                "bound": c.bound_value,
                "observed": c.observed,
                "kind": c.kind,
                "satisfied": c.satisfied,
                "applicable": c.applicable,
                "conjectural": c.conjectural,
            }
            for c in certs
        ],
    }
    return report


def _print_failures(report: dict) -> int:
    failures = 0
    for c in report["certificates"]:
        if not c["satisfied"] and c["applicable"] and not c["conjectural"]:
            failures += 1
            print(
                f"FAIL {c['name']}: observed {c['observed']} vs bound {c['bound']} "
                f"({c['kind']}, inputs {c['inputs']})",
                file=sys.stderr,
            )
    return failures


def _table(report: dict) -> str:
    keys = [k for k in report if k != "certificates"]
    width = max(len(k) for k in keys)
    lines = [f"{k.rjust(width)}  {report[k]}" for k in keys]
    passed = sum(1 for c in report["certificates"] if c["satisfied"])
    lines.append(f"{'certificates'.rjust(width)}  {passed}/{len(report['certificates'])} satisfied")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    report = build_report(v, fan)
    emit(report)
    if args.table:
        print(_table(report), file=sys.stderr)
    return 0


def cmd_gale(args) -> int:
    doc = load_document(args.path)
    m = doc["matrix"]
    dual = gale_dual(m)
    rep = classify_matrix(m)
    emit(
        {
            "gale_dual": dual,
            "input_class": {
                "is_F": rep.is_F,
                "is_CF": rep.is_CF,
                "is_W": rep.is_W,
                "is_reduced": rep.is_reduced,
                "violated_conditions": list(rep.violated_conditions),
            },
        }
    )
    return 0


def cmd_polar(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    cd = analyze(v, fan)
    # one polar point per cone off the cached hull (cd.Vpolar keeps only the first of equal columns)
    vpolar, d = polar_vertex_matrix(v, fan)
    emit(
        {
            "polar_vertices": [[Fraction(x, d) for x in row] for row in vpolar.data],
            "k": cd.k,
            "polar_weight": cd.Qpolar,
            "degree_scaled": cd.degree_scaled,
        }
    )
    return 0


def cmd_volume(args) -> int:
    doc = load_document(args.path)
    vol = normalized_volume(VPolytope(doc["matrix"]))
    emit({"normalized_volume": vol})
    return 0


def cmd_cover(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    cd = analyze(v, fan)
    emit(
        {
            "cover_fan_matrix": cd.W,
            "cover_fan": cd.fan.cones_1based(),
            "quotient_matrix": cd.B,
            "covering_group": str(cd.G),
            "mult": cd.mult,
            "unitary_cover": unitary_cover(v, fan),
        }
    )
    return 0


def cmd_fan(args) -> int:
    doc = load_document(args.path)
    m = doc["matrix"]
    if doc["role"] == "weight-matrix":
        q = m
    else:
        q = gale_dual(m)
    point = (
        tuple(_parse_int(x) for x in args.point.split(","))
        if args.point
        else _anticanonical(q)
    )
    if len(point) != q.rows:
        raise InvalidInput(f"--point has {len(point)} entries, the weight matrix has {q.rows} rows")
    fan = fan_from_point(q, point)  # raises unless the fan is complete
    emit(
        {
            "fan_matrix": fan.fan_matrix,
            "max_cones": fan.cones_1based(),
            "complete": True,
            "simplicial": is_simplicial(fan),
        }
    )
    return 0


def cmd_qfano(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    q = gale_dual(v)
    rep = qfano_representative(v)
    emit(
        {
            "input_qfano": is_qfano_weight(q, fan),
            "representative_cones": rep.cones_1based(),
        }
    )
    return 0


def cmd_classify(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    # a weight-matrix document's own Q: `resolve_variety` has recorded
    # its anticanonical chamber, which the family's fan_from_point reuses
    q = doc["matrix"] if doc["role"] == "weight-matrix" else gale_dual(v)
    fam = enumerate_qgorenstein_family(q, args.factor)
    kept = [
        {
            "order": sub.order,
            "subgroup": sub.matrix,
            "fan_matrix": mat,
            "mult": mult,
            "index": index,
        }
        for (sub, mat, mult), index in zip(fam.kept, fam.indices)
    ]
    rejected = [
        {
            "order": sub.order,
            "subgroup": sub.matrix,
            "fan_matrix": mat,
            "witness_column": wit + 1,
        }
        for sub, mat, wit in fam.rejected
    ]
    emit({"factor": args.factor, "kept": kept, "rejected": rejected})
    return 0


def cmd_bounds(args) -> int:
    # Refuse early what the printer would refuse after long arithmetic.
    # s_n > 2^(2^(n-2)) has over 2^(n-2) log10(2) digits.  For n >= 4 a
    # t-bound is 2 t^2 k^(n-1) // mcmullen(n, r) with t = t_{k,n} >=
    # k^(2^(n-1)) >= 2^((b-1) 2^(n-1)), b the bit length of k, so it is at
    # least 2^(1 + (b-1) 2^n - c), c the bit length of mcmullen(n, r), and
    # exceeds 10^limit once that exponent reaches 4 limit (10 < 2^4).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    n, k = args.dim, args.index
    if limit and args.rank >= 1 and (k is None or k >= 1):
        t_ranks = []  # the r of each t-bound printed
        if k is not None and n >= 4:
            t_ranks = [1] * args.fake_wps + [args.rank] * (args.conjecture and k >= 2)
        if n - 2 > log2(limit / log10(2)) or any(
            1 + (k.bit_length() - 1) * 2**n - bounds_mod.mcmullen(n, r).bit_length() >= 4 * limit for r in t_ranks
        ):
            raise TooLarge(f"an output integer has more than {limit} digits, the interpreter's limit")
    out = {
        "dim": args.dim,
        "rank": args.rank,
        "fano_bound": bounds_mod.fano_bound(args.dim, args.rank),
        "akln_bound": bounds_mod.akln_bound(args.dim),
        "mcmullen": bounds_mod.mcmullen(args.dim, args.rank),
        "sylvester": bounds_mod.sylvester(args.dim),
    }
    if args.index is not None:
        out["index"] = args.index
        out["qgorenstein_bound"] = bounds_mod.qgorenstein_bound(args.dim, args.rank, args.index)
        if args.fake_wps:
            out["fake_wps_bound"] = bounds_mod.fake_wps_bound(args.dim, args.index)
        if args.conjecture and args.index >= 2:
            out["conjecture_bound"] = bounds_mod.conjecture_bound(args.dim, args.rank, args.index)
    emit(out)
    return 0


def cmd_verify(args) -> int:
    doc = load_document(args.path)
    v, fan = resolve_variety(doc)
    report = build_report(v, fan)
    failures = _print_failures(report)
    emit(
        {
            "certificates": report["certificates"],
            "failures": failures,
            "ok": failures == 0,
        }
    )
    return 0 if failures == 0 else 1


# command: (handler, summary, takes a path, {option: (type, default, help)},
# required options); an option of type bool is a flag
_COMMANDS = {
    "analyze": (cmd_analyze, "full invariant report for one variety", True,
                {"--table": (bool, False, "also print a human-readable table")}, ()),
    "gale": (cmd_gale, "Gale dual and matrix classification", True, {}, ()),
    "polar": (cmd_polar, "polar vertices, index and polar weight matrix", True, {}, ()),
    "volume": (cmd_volume, "normalized volume of the column hull", True, {}, ()),
    "cover": (cmd_cover, "universal and unitary 1-covering data", True, {}, ()),
    "fan": (cmd_fan, "fan of the secondary-fan cell of a point", True,
            {"--point": (str, None, "comma-separated class, default the anticanonical class")}, ()),
    "qfano": (cmd_qfano, "anticanonically polarized representative", True, {}, ()),
    "classify": (cmd_classify, "enumerate the factor-h family of a weight matrix", True,
                 {"--factor": (int, 1, "the factor h, default 1")}, ()),
    "bounds": (cmd_bounds, "bound table for given dimension and rank", False,
               {"--dim": (int, None, "dimension n"),
                "--rank": (int, None, "rank r"),
                "--index": (int, None, "Gorenstein index k, for the index bounds"),
                "--fake-wps": (bool, False, "with --index, also the fake weighted projective space bound"),
                "--conjecture": (bool, False, "with --index, also the conjectured bound")},
               ("--dim", "--rank")),
    "verify": (cmd_verify, "run all certificates; exit 1 on any hard failure", True, {}, ()),
}


def _synopsis(opt: str, kind) -> str:
    return opt if kind is bool else f"{opt} {opt[2:].upper()}"


def _usage(command) -> str:
    """The usage line of one command, or of toriq when command is None."""
    if command is None:
        return f"usage: toriq [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, takes_path, options, required = _COMMANDS[command]
    words = ["usage: toriq", command, "[-h]"]
    for opt, (kind, _, _) in options.items():
        word = _synopsis(opt, kind)
        words.append(word if opt in required else f"[{word}]")
    return " ".join(words + ["path"] * takes_path)


def _help(command) -> str:
    """The help text of one command, or of toriq when command is None."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = "Exact lattice-combinatorial invariants of complete toric varieties"
        sections = [("commands", [(name, spec[1]) for name, spec in _COMMANDS.items()]), ("options", options)]
    else:
        text = _COMMANDS[command][1]
        options += [(_synopsis(opt, kind), line) for opt, (kind, _, line) in _COMMANDS[command][3].items()]
        sections = [("options", options)]
    width = max(len(left) for _, rows in sections for left, _ in rows)
    lines = [_usage(command), "", text]
    for title, rows in sections:
        lines += ["", f"{title}:"] + [f"  {left.ljust(width)}  {right}" for left, right in rows]
    return "\n".join(lines)


def _usage_error(command, reason: str):
    print(_usage(command), file=sys.stderr)
    print(f"toriq: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _option(token: str, names) -> str | None:
    """The option a token names, by its full name or an unambiguous
    prefix of a long name; None for no option or several."""
    if token == "-h":
        return "--help"
    if token in names:
        return token
    found = [name for name in names if name.startswith(token)] if token.startswith("--") and token != "--" else []
    return found[0] if len(found) == 1 else None


def _parse(argv) -> tuple:
    """The handler of a command line and its arguments, read off
    `_COMMANDS`.  -h prints help to stdout and exits 0; a usage error
    prints the usage and the reason to stderr and exits 2.  An option's
    value is the token after it, even one that starts with "-"."""
    if argv and _option(argv[0], ("--help",)):
        print(_help(None))
        raise SystemExit(0)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    if argv[0] not in _COMMANDS:
        _usage_error(None, f"invalid choice: {argv[0]!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    command = argv[0]
    handler, _, takes_path, options, required = _COMMANDS[command]
    names = (*options, "--help")
    values = {opt: default for opt, (_, default, _) in options.items()}
    paths = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":  # the rest are paths
            paths += tokens
            break
        if token == "-" or not token.startswith("-"):
            paths.append(token)
            continue
        name, eq, value = token.partition("=")
        opt = _option(name, names)
        if opt is None:
            _usage_error(command, f"unrecognized arguments: {token}")
        if opt == "--help":
            print(_help(command))
            raise SystemExit(0)
        kind = options[opt][0]
        if kind is bool:
            if eq:
                _usage_error(command, f"argument {opt}: ignored explicit argument {value!r}")
            values[opt] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                _usage_error(command, f"argument {opt}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {opt}: invalid int value: {value!r}")
        values[opt] = value
    missing = [opt for opt in required if values[opt] is None] + ["path"] * (takes_path and not paths)
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if len(paths) > takes_path:
        _usage_error(command, f"unrecognized arguments: {' '.join(paths[takes_path:])}")
    args = SimpleNamespace(**{opt[2:].replace("-", "_"): value for opt, value in values.items()})
    if takes_path:
        args.path = paths[0]
    return handler, args


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings(record=True) as caught:  # printed as toriq's own lines, once each
        warnings.simplefilter("always")
        try:
            return handler(args)
        except InvalidInput as exc:
            emit({"error": {"type": "invalid-input", "message": str(exc)}})
            return 2
        except ToriqError as exc:
            emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            return 2
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"toriq: warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
