"""Configuration-driven command line: describe | spectrum | stationary |
mix | simulate | verify.

Inputs come from an optional JSON config file plus flags (flags win).
Probabilities are exact rational "num/den" strings everywhere.  Reports are
emitted in the line-oriented text schema of reports.py, or JSON with
--format json, and are written atomically when --out is given.  The only
environment variable consulted is RINGWALK_OUTPUT_DIR, which resolves
relative --out paths and never changes semantics.
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

from . import checks, reports, spectrum
from .chain import ClassDistribution, build_B, chain_matrix
from .errors import (
    ConfigError,
    NotPrime,
    ParamOutOfRange,
    RingwalkError,
    TooLarge,
)
from .mixing import d_of_t, mixing_bound, simulate
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
CONFIG_KEYS = ("ring", "alpha", "Q", "tau", "T", "eps", "seed", "samples",
               "steps", "start", "side", "blocks", "format")


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


def parse_tolerance(value, field: str) -> float:
    """A finite float > 0, as the eigenvalue merge radius needs."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"field {field!r}: expected a finite number > 0, "
                          f"got {value!r}")
    return tol


@contextlib.contextmanager
def _naming(field: str):
    """A ring constructor's rejection of its argument, as a ConfigError
    naming the descriptor field the argument came from."""
    try:
        yield
    except (NotPrime, ParamOutOfRange, TooLarge) as exc:
        raise ConfigError(f"field {field!r}: {exc}") from exc


def ring_from_descriptor(desc) -> FiniteRing:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("field 'ring': need an object with a 'kind'")
    kind = desc["kind"]
    try:
        if kind == "zn":
            n = parse_int(desc["n"], "ring.n")
            with _naming("ring.n"):
                return zn_ring(n)
        if kind == "matrix":
            q = parse_int(desc["q"], "ring.q")
            size = parse_int(desc.get("size", 2), "ring.size")
            with _naming("ring.q" if size in MATRIX_SIZES else "ring.size"):
                return matrix_ring(q, size)
        if kind == "upper_triangular":
            q = parse_int(desc["q"], "ring.q")
            with _naming("ring.q"):
                return upper_triangular_ring(q)
        if kind == "product":
            factors = desc.get("factors", [])
            if not isinstance(factors, list) or len(factors) < 2:
                raise ConfigError("field 'ring.factors': need a list of "
                                  ">= 2 factors")
            ring = ring_from_descriptor(factors[0])
            for f in factors[1:]:
                factor = ring_from_descriptor(f)
                with _naming("ring.factors"):
                    ring = product_ring(ring, factor)
            return ring
    except KeyError as exc:
        raise ConfigError(f"field 'ring': missing {exc.args[0]!r} for "
                          f"kind {kind!r}") from exc
    raise ConfigError(f"field 'ring.kind': unknown kind {kind!r}")


def parse_eps(cfg) -> list:
    eps = cfg.get("eps", DEFAULT_EPS)
    if not isinstance(eps, (list, tuple)):
        raise ConfigError(f"field 'eps': expected a list of rationals, "
                          f"got {eps!r}")
    return [parse_fraction(e, "eps") for e in eps]


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
        is_unit = a in ring.unit_set
        mf = "-" if is_unit else \
            ("yes" if spectrum.is_multiplicity_free_nonunit(ring, a) else "no")
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
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    tau = parse_tolerance(cfg.get("tau", spectrum.MERGE_TOL), "tau")
    rep = reports.new_report("spectrum")
    rep["meta"]["ring"] = ring.label
    rep["meta"]["n"] = str(ring.n)
    rep["meta"]["unit_block"] = spectrum.unit_block_route(ring)
    B = build_B(ring, Q)
    detail = spectrum.block_spectrum(ring, B, tau)
    reports.add_check(rep, "spectrum-two-way",
                      *checks.check_spectrum_two_way(ring, B))
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
                          if abs(gv - v) <= tau), "-")
            table.append((f"{v.real:.12g}", f"{v.imag:.12g}", int(m),
                          f"a={a}", label))
    reports.add_table(rep, "spectrum",
                      ("re", "im", "multiplicity", "block", "label"), table)
    rep["meta"]["total_multiplicity"] = str(sum(e.total() for _, e in detail))
    if cfg.get("alpha") is not None:
        alpha = parse_fraction(cfg["alpha"], "alpha")
        reports.add_check(rep, "spectrum-m-shift",
                          *checks.check_m_shift(B, chain_matrix(B, alpha)))
    return rep


def cmd_stationary(cfg) -> dict:
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    alpha = parse_fraction(cfg.get("alpha", "1/2"), "alpha")
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
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    alpha = parse_fraction(cfg.get("alpha", "1/2"), "alpha")
    T = parse_int(cfg.get("T", 20), "T")
    eps_list = parse_eps(cfg)
    rep = reports.new_report("mix")
    rep["meta"].update({"ring": ring.label, "alpha": str(alpha), "T": str(T)})
    curve = d_of_t(ring, Q, alpha, T)
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
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    alpha = parse_fraction(cfg.get("alpha", "1/2"), "alpha")
    if cfg.get("seed") is None:
        raise ConfigError("field 'seed': simulate requires an explicit seed")
    seed = parse_int(cfg["seed"], "seed")
    samples = parse_int(cfg.get("samples", 10000), "samples")
    steps = parse_int(cfg.get("steps", 20), "steps")
    start = parse_int(cfg.get("start", ring.zero), "start")
    side = cfg.get("side", "left")
    blocks = parse_int(cfg.get("blocks", 1), "blocks")
    res = simulate(ring, Q, alpha, start, steps, samples, seed, side=side,
                   blocks=blocks)
    rep = reports.new_report("simulate")
    rep["meta"].update({
        "ring": ring.label, "alpha": str(alpha), "seed": str(seed),
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
    ring = ring_from_descriptor(cfg["ring"])
    Q = q_from_config(ring, cfg.get("Q"))
    alpha = parse_fraction(cfg.get("alpha", "1/2"), "alpha")
    T = parse_int(cfg.get("T", 20), "T")
    eps_list = parse_eps(cfg)
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
        p.add_argument("--ring", choices=("zn", "matrix", "upper_triangular",
                                          "product"))
        p.add_argument("--n", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--size", type=int)
        p.add_argument("--factors",
                       help="comma list kind:param, e.g. zn:2,matrix:3")
        p.add_argument("--alpha")
        p.add_argument("--Q", dest="Q",
                       help="'uniform' or a JSON object rep->\"p/q\"")

    for name in COMMANDS:
        p = sub.add_parser(name)
        add_ring_opts(p)
        if name == "spectrum":
            p.add_argument("--tau", type=float)
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
            if kind not in ("zn", "matrix", "upper_triangular"):
                raise ConfigError(f"field 'factors': unknown kind {kind!r}")
            factors.append({"kind": kind, "n" if kind == "zn" else "q": param})
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
    if out_path is None:
        sys.stdout.write(text)
        return
    base_dir = os.environ.get("RINGWALK_OUTPUT_DIR")
    if base_dir and not os.path.isabs(out_path):
        out_path = os.path.join(base_dir, out_path)
    directory = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        report = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RingwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = cfg.get("format") or "text"
    text = reports.render_json(report) if fmt == "json" \
        else reports.render_text(report)
    write_output(text, args.out)
    return 1 if reports.has_failure(report) else 0


if __name__ == "__main__":
    sys.exit(main())
