"""Configuration-driven command line: describe | spectrum | stationary |
mix | simulate | verify.

Inputs come from an optional JSON config file plus flags (flags win).
Each subcommand takes only the flags it reads, and a ring descriptor only
the keys its kind reads (RING_KEYS); a config file may hold any key of
CONFIG_KEYS, so one file can serve several commands.  Probabilities are
exact rational "num/den" strings everywhere.  Reports are emitted in the
line-oriented text schema of reports.py, or JSON with --format json, and
are written atomically when --out is given.  The only environment
variable consulted is RINGWALK_OUTPUT_DIR, which resolves relative --out
paths and never changes semantics.  Every command checks the fields that
need no ring before it builds the ring, and main names 'ring' each
TooLarge after that: a size cap on the built ring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import checks, mixing, reports, spectrum
from .chain import ClassDistribution, check_alpha
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    NegativeWeight,
    NotNormalized,
    NotPrime,
    ParamOutOfRange,
    RingwalkError,
    TooLarge,
    UnknownClass,
)
from .mixing import T_CAP, class_products, d_of_t, mixing_bound, simulate
from .rings import (
    MATRIX_SIZES,
    FiniteRing,
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from .stationary import stationary_recursive

DEFAULT_EPS = ("1/4", "1/10")
# every key some command reads ("ring" first); a config file holds no other
CONFIG_KEYS = ("ring", "alpha", "Q", "T", "eps", "seed", "samples",
               "steps", "start", "side", "blocks", "format")
# the keys each ring kind reads besides "kind" (its flag parameter first);
# a descriptor of that kind holds no other
RING_KEYS = {"zn": ("n",), "matrix": ("q", "size"),
             "upper_triangular": ("q",), "product": ("factors",)}


def parse_fraction(text, field: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field {field!r}: bad rational {text!r}") from exc


def parse_int(value, field: str) -> int:
    """An integer or a decimal-integer string; floats and bools are refused
    rather than truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"field {field!r}: expected an integer, got {value!r}")


@contextlib.contextmanager
def _naming(field: str):
    """A constructor's or validator's rejection of its argument, as a
    ConfigError naming the input field the argument came from."""
    try:
        yield
    except (AlphaOutOfRange, NegativeWeight, NotNormalized, NotPrime,
            ParamOutOfRange, TooLarge, UnknownClass) as exc:
        raise ConfigError(f"field {field!r}: {exc}") from exc


def parse_alpha(value) -> Fraction:
    """The coin bias, a rational strictly between 0 and 1."""
    with _naming("alpha"):
        return check_alpha(parse_fraction(value, "alpha"))


def ring_from_descriptor(desc, field: str = "ring") -> FiniteRing:
    """The ring a descriptor names; each refusal names the descriptor's
    field, and a product factor's fields are named in full, as
    ring.factors[i].kind, from flags and from a config file alike.  A key
    that the kind does not read (RING_KEYS) is refused."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"field {field!r}: need an object with a 'kind'")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in RING_KEYS:
        raise ConfigError(f"field '{field}.kind': unknown kind {kind!r}")
    foreign = sorted(set(desc) - {"kind", *RING_KEYS[kind]})
    if foreign:
        raise ConfigError(f"field '{field}.{foreign[0]}': not read by kind "
                          f"{kind!r}")
    try:
        if kind == "zn":
            n = parse_int(desc["n"], f"{field}.n")
            with _naming(f"{field}.n"):
                return zn_ring(n)
        if kind == "matrix":
            q = parse_int(desc["q"], f"{field}.q")
            size = parse_int(desc.get("size", 2), f"{field}.size")
            with _naming(f"{field}.q" if size in MATRIX_SIZES
                         else f"{field}.size"):
                return matrix_ring(q, size)
        if kind == "upper_triangular":
            q = parse_int(desc["q"], f"{field}.q")
            with _naming(f"{field}.q"):
                return upper_triangular_ring(q)
        if kind == "product":
            factors = desc.get("factors", [])
            if not isinstance(factors, list) or len(factors) < 2:
                raise ConfigError(f"field '{field}.factors': need a list of "
                                  f">= 2 factors")
            ring = ring_from_descriptor(factors[0], f"{field}.factors[0]")
            for i, f in enumerate(factors[1:], 1):
                factor = ring_from_descriptor(f, f"{field}.factors[{i}]")
                with _naming(f"{field}.factors"):
                    ring = product_ring(ring, factor)
            return ring
    except KeyError as exc:
        raise ConfigError(f"field {field!r}: missing {exc.args[0]!r} for "
                          f"kind {kind!r}") from exc


def parse_eps(cfg) -> list:
    """The eps list, each in mixing_bound's domain, so that a bad eps
    fails before the ring is built."""
    eps = cfg.get("eps", DEFAULT_EPS)
    if not isinstance(eps, (list, tuple)):
        raise ConfigError(f"field 'eps': expected a list of rationals, "
                          f"got {eps!r}")
    eps = [parse_fraction(e, "eps") for e in eps]
    return [mixing.check_eps(e) for e in eps]


def parse_T(cfg, cap) -> int:
    """The horizon T, checked before the ring is built against d_of_t's
    range [0, T_CAP] for mix, and against [0, inf) for verify, whose
    mixing check stops at min(T, 20)."""
    return mixing.check_T(parse_int(cfg.get("T", 20), "T"), cap)


def q_from_config(ring: FiniteRing, spec) -> ClassDistribution:
    if spec in (None, "uniform"):
        return ClassDistribution.uniform(ring)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"field 'Q': not 'uniform' or a JSON object "
                              f"({exc})") from exc
    if not isinstance(spec, dict):
        raise ConfigError("field 'Q': expected 'uniform' or an object "
                          "mapping class representatives to rationals")
    mapping = {parse_int(k, "Q"): parse_fraction(v, f"Q[{k}]")
               for k, v in spec.items()}
    with _naming("Q"):
        return ClassDistribution.from_weights(ring, mapping)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_describe(cfg) -> dict:
    ring = ring_from_descriptor(cfg["ring"])
    rep = reports.new_report("describe")
    rep["meta"].update({
        "ring": ring.label,
        "n": str(ring.n),
        "units": str(len(ring.units)),
        "commutative": str(ring.is_commutative).lower(),
        "classes": str(len(ring.similarity)),
        "ideals": str(len(ring.phi)),
    })
    part = ring.similarity
    rows = []
    for ci, cls in enumerate(part.classes):
        r = int(part.reps[ci])
        rows.append((r, ring.element_name(r), len(cls),
                     "yes" if part.invertible[ci] else "no"))
    reports.add_table(rep, "classes", ("rep", "name", "size", "invertible"),
                      rows)
    rows = []
    for a in ring.phi:
        a = int(a)
        sa = ring.s_set(a)
        mf = "-"
        if a not in ring.unit_set:
            free = spectrum.is_multiplicity_free_nonunit(ring, a)
            mf = "yes" if free else "no"
        f_reps = ";".join(str(int(part.reps[c])) for c in ring.f_set(a))
        rows.append((a, ring.element_name(a),
                     int(ring.ideals.masks[ring.ideals.id_of[a]].sum()),
                     len(sa), len(ring.lstab(a)), len(ring.lann(a)),
                     mf, f_reps))
    reports.add_table(rep, "ideals",
                      ("generator", "name", "ideal_size", "s_size",
                       "lstab", "lann", "mult_free", "f_class_reps"),
                      rows)
    reports.add_check(rep, "structure",
                      *checks.check_orbit_stabilizer(ring))
    return rep


def cmd_spectrum(cfg) -> dict:
    alpha = None if cfg.get("alpha") is None else parse_alpha(cfg["alpha"])
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    detail = spectrum.block_spectrum(ring, Q)
    rep = reports.new_report("spectrum")
    rep["meta"]["ring"] = ring.label
    rep["meta"]["n"] = str(ring.n)
    rep["meta"]["unit_block"] = spectrum.unit_block_route(ring)
    tests = [checks.two_way_test(ring, Q)]
    if alpha is not None:       # spectrum-m-shift reads the same blocks
        tests.append(checks.m_shift_test(Q, alpha))
    two_way, *m_shift = checks.scan_b(ring, Q, tests)
    reports.add_check(rep, "spectrum-two-way", *two_way)
    reports.add_check(rep, "spectrum-gl2", *checks.check_spectrum_gl2(ring, Q))

    gl2_rows = {}
    try:
        g = spectrum.gl2_spectrum(ring, Q)
        rep["meta"]["gl2_normalization"] = spectrum.GL2_NORMALIZATION
        rep["meta"]["gl2_total"] = str(g.total())
        for block, label, _, v, _ in g.rows:
            gl2_rows.setdefault(block, []).append((v, label))
    except RingwalkError as exc:
        rep["meta"]["gl2_layer"] = f"skipped: {exc}"

    table = []
    for a, em_block in detail:
        a_unit = a in ring.unit_set
        block = "unit" if a_unit else ("zero" if a == ring.zero else "rank-one")
        for v, m in em_block:
            # the first closed form of the block within the merge radius
            label = next((gl for gv, gl in gl2_rows.get(block, ())
                          if abs(gv - v) <= spectrum.MERGE_TOL), "-")
            table.append((f"{v.real:.12g}", f"{v.imag:.12g}", int(m),
                          f"a={a}", label))
    reports.add_table(rep, "spectrum",
                      ("re", "im", "multiplicity", "block", "label"), table)
    rep["meta"]["total_multiplicity"] = str(sum(e.total() for _, e in detail))
    for result in m_shift:
        reports.add_check(rep, "spectrum-m-shift", *result)
    return rep


def cmd_stationary(cfg) -> dict:
    alpha = parse_alpha(cfg.get("alpha", "1/2"))
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    rep = reports.new_report("stationary")
    rep["meta"].update({"ring": ring.label, "alpha": str(alpha)})
    pi = stationary_recursive(ring, Q, alpha)
    ok, detail = checks.check_stationary_agreement(ring, Q, alpha, pi)
    reports.add_check(rep, "method-agreement", ok, detail)
    part = ring.similarity
    rows = []
    for x in range(ring.n):
        p = pi[x]
        rows.append((x, ring.element_name(x), int(part.reps[part.class_of[x]]),
                     f"{p.numerator}/{p.denominator}", f"{float(p):.12g}"))
    reports.add_table(rep, "stationary",
                      ("element", "name", "class_rep", "probability",
                       "decimal"), rows)
    return rep


def cmd_mix(cfg) -> dict:
    alpha = parse_alpha(cfg.get("alpha", "1/2"))
    T = parse_T(cfg, T_CAP)
    eps_list = parse_eps(cfg)
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    class_products(ring)        # PRODUCT_CAP, before any other work
    rep = reports.new_report("mix")
    rep["meta"].update({"ring": ring.label, "alpha": str(alpha), "T": str(T)})
    curve = d_of_t(ring, Q, alpha, T, stationary_recursive(ring, Q, alpha))
    rows = [(t, f"{d:.12g}", f"{e.numerator}/{e.denominator}", f"{b:.12g}")
            for t, d, e, b in zip(curve.ts, curve.values, curve.exact_values,
                                  curve.bounds)]
    reports.add_table(rep, "distance", ("t", "d", "d_exact", "bound"), rows)
    reports.add_check(rep, "geometric-bound", curve.bound_holds(), "exact")
    for eps in eps_list:
        bound = mixing_bound(alpha, eps)
        tm = curve.t_mix(eps)
        rep["meta"][f"t_mix[{eps}]"] = str(tm)
        rep["meta"][f"t_mix_bound[{eps}]"] = f"{bound:.12g}"
        verdict = checks.t_mix_verdict(curve, eps, bound)
        if verdict is None:
            reports.add_check(rep, f"t-mix[{eps}]", True,
                              f"skipped: d({T}) > {eps} and T = {T} is "
                              f"below the bound {bound:.6g}")
        else:
            reports.add_check(rep, f"t-mix[{eps}]", verdict,
                              f"observed {tm}, bound {bound:.6g}")
    return rep


def cmd_simulate(cfg) -> dict:
    alpha = parse_alpha(cfg.get("alpha", "1/2"))
    if cfg.get("seed") is None:
        raise ConfigError("field 'seed': simulate requires an explicit seed")
    seed = parse_int(cfg["seed"], "seed")
    samples = parse_int(cfg.get("samples", 10000), "samples")
    steps = parse_int(cfg.get("steps", 20), "steps")
    side = cfg.get("side", "left")
    blocks = parse_int(cfg.get("blocks", 1), "blocks")
    mixing.check_simulation(alpha, steps, samples, seed, blocks)
    if side not in ("left", "right"):
        raise ParamOutOfRange(f"field 'side': {side!r} is not 'left' or "
                              f"'right'")
    ring = ring_from_descriptor(cfg["ring"])
    label = ring.label
    if side == "right":
        # the right walk on R is the left walk on R^op, which has R's
        # classes and representatives, so Q reads the same config there
        ring = ring.opposite()
    Q = q_from_config(ring, cfg.get("Q"))
    start = parse_int(cfg.get("start", ring.zero), "start")
    res = simulate(ring, Q, alpha, start, steps, samples, seed, blocks=blocks)
    rep = reports.new_report("simulate")
    rep["meta"].update({
        "ring": label, "alpha": str(alpha), "seed": str(seed),
        "samples": str(samples), "steps": str(steps), "start": str(start),
        "side": side, "blocks": str(blocks),
    })
    pi = stationary_recursive(ring, Q, alpha)
    rep["meta"]["tv_to_stationary"] = f"{res.tv_to(pi):.6g}"
    emp = res.empirical()
    rows = [(x, ring.element_name(x), int(res.counts[x]), f"{emp[x]:.12g}")
            for x in range(ring.n)]
    reports.add_table(rep, "empirical", ("element", "name", "count", "freq"),
                      rows)
    return rep


def cmd_verify(cfg) -> dict:
    alpha = parse_alpha(cfg.get("alpha", "1/2"))
    T = parse_T(cfg, math.inf)
    eps_list = parse_eps(cfg)
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    class_products(ring)        # PRODUCT_CAP, before any check
    rep = reports.new_report("verify")
    rep["meta"].update({"ring": ring.label, "alpha": str(alpha),
                        "Q": "uniform" if Q == ClassDistribution.uniform(ring)
                        else "custom"})
    for name, ok, detail in checks.full_suite(ring, Q, alpha, T, eps_list):
        reports.add_check(rep, name, ok, detail)
    return rep


COMMANDS = {
    "describe": cmd_describe,
    "spectrum": cmd_spectrum,
    "stationary": cmd_stationary,
    "mix": cmd_mix,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringwalk",
        description="add-or-multiply random walks on finite rings")
    parser.add_argument("--config", help="JSON config file; flags override")
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--out", help="write the report here (atomic)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring_opts(p):
        # also accepted after the subcommand; SUPPRESS keeps a value given
        # before the subcommand from being clobbered by the default
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON config file; flags override")
        p.add_argument("--format", choices=("text", "json"),
                       default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS,
                       help="write the report here (atomic)")
        p.add_argument("--ring", choices=tuple(RING_KEYS))
        p.add_argument("--n", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--size", type=int)
        p.add_argument("--factors",
                       help="comma list kind:param, e.g. zn:2,matrix:3")

    for name in COMMANDS:
        p = sub.add_parser(name)
        add_ring_opts(p)
        if name != "describe":
            p.add_argument("--alpha")
            p.add_argument("--Q", dest="Q",
                           help="'uniform' or a JSON object rep->\"p/q\"")
        if name in ("mix", "verify"):
            p.add_argument("--T", type=int)
            p.add_argument("--eps", action="append")
        if name == "simulate":
            p.add_argument("--seed", type=int)
            p.add_argument("--samples", type=int)
            p.add_argument("--steps", type=int)
            p.add_argument("--start", type=int)
            p.add_argument("--side", choices=("left", "right"))
            p.add_argument("--blocks", type=int)
    return parser


def _ring_descriptor_from_flags(args) -> dict | None:
    if args.ring is None:
        return None
    desc = {"kind": args.ring}
    if args.n is not None:
        desc["n"] = args.n
    if args.q is not None:
        desc["q"] = args.q
    if args.size is not None:
        desc["size"] = args.size
    if args.factors:
        factors = []
        for part in args.factors.split(","):
            kind, _, param = part.partition(":")
            # an unknown kind is refused by name, whatever its key
            key = RING_KEYS.get(kind, ("q",))[0]
            factors.append({"kind": kind, key: param})
        desc["factors"] = factors
    return desc


def load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"field {unknown[0]!r}: not a config key; "
                              f"known keys are {', '.join(CONFIG_KEYS)}")
    desc = _ring_descriptor_from_flags(args)
    if desc is not None:
        cfg["ring"] = desc
    for key in CONFIG_KEYS[1:]:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if "ring" not in cfg:
        raise ConfigError("field 'ring': required (flags or config file)")
    if cfg.get("format") not in (None, "text", "json"):
        raise ConfigError(f"field 'format': expected 'text' or 'json', got "
                          f"{cfg['format']!r}")
    return cfg


def write_output(text: str, out_path: str | None) -> None:
    """Write text to stdout, or atomically to out_path with the mode a
    plain open() would give it; an OSError is a ConfigError on 'out'."""
    if out_path is None:
        sys.stdout.write(text)
        return
    base_dir = os.environ.get("RINGWALK_OUTPUT_DIR")
    if base_dir and not os.path.isabs(out_path):
        out_path = os.path.join(base_dir, out_path)
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        umask = os.umask(0)     # read back at once: there is no getter
        os.umask(umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise ConfigError(f"field 'out': {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        report = COMMANDS[args.command](cfg)
        fmt = cfg.get("format") or "text"
        text = reports.render_json(report) if fmt == "json" \
            else reports.render_text(report)
        write_output(text, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:     # a cap on the ring the command built
        print(f"config error: field 'ring': {exc}", file=sys.stderr)
        return 2
    except RingwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if reports.has_failure(report) else 0


if __name__ == "__main__":
    sys.exit(main())
